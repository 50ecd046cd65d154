"""Convex geometry of finite belief sets in the probability simplex.

Predicates over finite point sets {p_1, ..., p_m} in R^S: affine
dimension, extreme and exposed point classification, supporting
functionals and their faces, and nested exposure chains that certify a
point as eventually exposed.  Every separation question is a max-margin
LP with the functional box-normalized to |z|_inf <= 1, so the margin
tolerances below are scale-meaningful.  It is solved in dual form: a
min-l1 convex-combination program with S + 1 rows and one column per
point, whose row multipliers are the functional z.  An LP family that
asks one question per point of a set (the exposure LPs of expose_each,
whose answers expose_set and an exposure chain's whole-set stage read,
the hull-membership LPs of extreme_each, and a table's full-extraction
and VSE blocks) is solved by solve_each, the one loop that chunks a
family and remembers its answers.  The supporting LP of an exposure
chain (the functional through a point with the most mass above it) is
the separation LP with the centroid as its one margin point, so no
geometry LP has more than S + 1 rows or a variable bound other than
>= 0.
"""

from __future__ import annotations

import numpy as np

from surplex import lp

MARGIN_TOL = 1e-7      # exposedness: separation below this is "not exposed"
FACE_TOL = 1e-9        # membership in the zero set of a supporting functional
RANK_TOL = 1e-9        # singular value cutoff, relative to the largest
PROB_TOL = 1e-12       # probability vector sum tolerance
DISTINCT_TOL = 1e-10   # points closer than this count as duplicates
WITNESS_TOL = 1e-8     # max residual of a convex-combination witness
# solve_each solves at most this many points' programs in one stack: each
# program has a column per point, so a whole set of n points would take
# memory that grows as n^2.  A 101-point grid or a 40-type table is still
# solved as one stack.
EXPOSE_CHUNK = 128


class EmptySet(ValueError):
    """Operation on an empty belief set."""


class IndexOutOfRange(IndexError):
    """Point index outside the belief set."""


class NotSupporting(ValueError):
    """Functional takes negative values on the set, so it cuts no face."""


class NotExtreme(ValueError):
    """Exposure chains exist only for extreme points."""


class ChainStalled(RuntimeError):
    """A chain stage failed to shrink the face; indicates tolerance trouble."""


def prob_rows(rows, label) -> np.ndarray:
    """Validate a (points, states) array of probability rows in one numpy
    pass; label(k) names row k, and the ValueError names the first bad row.
    """
    p = np.asarray(rows, dtype=float)
    if p.ndim != 2 or p.shape[1] == 0:
        raise ValueError("probability rows need shape (points, states > 0)")
    with np.errstate(invalid="ignore"):
        bad = (~np.isfinite(p).all(axis=1)
               | (p.min(axis=1) < -PROB_TOL)
               | ~(np.abs(p.sum(axis=1) - 1.0) <= PROB_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"belief of {label(k)} is not a probability "
                         f"vector: {p[k].tolist()}")
    return p


def prob_vector(entries) -> np.ndarray:
    """Validate and return a probability vector over the states."""
    return prob_rows(np.asarray(entries, dtype=float)[None],
                     lambda k: "the input")[0]


def _first_close_pair(points):
    """(i, j) with i the lowest index that has another point within
    DISTINCT_TOL in sup norm and j the nearest such point (lowest index
    on ties), or None.

    Close points are close on every coordinate, so candidate pairs are
    neighbours within DISTINCT_TOL in the order of the coordinate with
    the widest spread; offset k compares each point with the one k places
    later, until no pair at that offset is close on the coordinate.
    """
    x = points[:, np.argmax(np.ptp(points, axis=0))]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    n = first = len(points)
    for k in range(1, n):
        a = np.flatnonzero(xs[k:] - xs[:-k] <= DISTINCT_TOL)
        if a.size == 0:
            break
        lo, hi = order[a], order[a + k]
        close = np.abs(points[lo] - points[hi]).max(axis=1) <= DISTINCT_TOL
        first = int(np.minimum(lo, hi)[close].min(initial=first))
    if first == n:
        return None
    d = np.abs(points - points[first]).max(axis=1)
    d[first] = np.inf
    return first, int(np.argmin(d))


class FiniteBeliefSet:
    """Labeled belief points; rows of `points` live in the simplex.

    Duplicated points model failures of convex independence and are legal
    inputs, but must be flagged explicitly.

    `points` is a read-only copy of the input.  The set remembers, per
    point, the answer of each LP family solve_each solves for it (its
    singleton exposure LP's raw (z, margin), before any margin_tol test,
    is_extreme's, and a table's full-extraction and VSE blocks) and of
    exposure_chain (per declared faces and margin_tol), so each is solved
    at most once however many callers ask; the remembered arrays are
    read-only too.  The block answers depend on the table's values as
    well as on `points`: they are remembered only on the belief set a
    TabularModel owns, whose beliefs and values are read-only, so they
    cannot go stale.  Sets compare by identity, as their memos are their
    own.
    """

    def __init__(self, labels: list[str], points: np.ndarray,
                 allow_duplicates: bool = False):
        self.labels = labels
        self.allow_duplicates = allow_duplicates
        self._memo = {}
        self.points = np.array(points, dtype=float)
        self.points.setflags(write=False)
        if self.points.ndim != 2 or self.points.shape[0] == 0:
            raise EmptySet("belief set needs at least one point")
        if len(self.labels) != self.points.shape[0]:
            raise ValueError("one label per point")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        prob_rows(self.points, self.labels.__getitem__)
        if not self.allow_duplicates:
            pair = _first_close_pair(self.points)
            if pair is not None:
                i, j = pair
                raise ValueError(
                    f"points {self.labels[i]} and {self.labels[j]} "
                    "coincide; pass allow_duplicates=True to permit this")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n_states(self) -> int:
        return self.points.shape[1]

    def check_index(self, i: int) -> int:
        """i as an int, if it is an integer index of a point (a bool is
        not); TypeError or IndexOutOfRange otherwise."""
        if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
            raise TypeError(f"point index must be an integer, not {i!r}")
        if not 0 <= i < len(self):
            raise IndexOutOfRange(f"index {i} outside 0..{len(self) - 1}")
        return int(i)

    def _remember(self, key, solve, *args):
        """The stored answer for key, computed by solve(*args) on first use
        and kept with its arrays read-only."""
        answer = self._memo.get(key)
        if answer is None:
            answer = tuple(solve(*args))
            for part in answer:
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            self._memo[key] = answer
        return answer


class ExposureChain:
    """Nested faces certifying a point as eventually exposed.

    stages[k] = (member_indices, functional): the functional vanishes on
    the stage members and is strictly positive on the previous stage's
    other members.  The last stage is the singleton {target}.  A chain of
    length 1 means the point is exposed outright.
    """

    def __init__(self, target: int, initial_members: np.ndarray,
                 stages: list[tuple[np.ndarray, np.ndarray]],
                 margins: list[float] | None = None,
                 provenance: str = "discovered"):
        self.target = target
        self.initial_members = initial_members
        self.stages = stages
        self.margins = [] if margins is None else margins
        self.provenance = provenance

    @property
    def length(self) -> int:
        return len(self.stages)

    def subsets(self) -> list[np.ndarray]:
        return [self.initial_members] + [s[0] for s in self.stages]


def affine_dimension(bset: FiniteBeliefSet) -> int:
    """Dimension of the affine hull, via SVD rank of the difference space."""
    return _affine_rank(bset.points)


def _affine_rank(points) -> int:
    """affine_dimension of the rows of a nonempty (points, states) array."""
    if len(points) == 1:
        return 0
    svals = np.linalg.svd(points[1:] - points[0], compute_uv=False)
    if svals[0] == 0.0:
        return 0
    return int(np.sum(svals > RANK_TOL * svals[0]))


def is_extreme(bset: FiniteBeliefSet, i: int):
    """Whether p_i lies outside the convex hull of the other points.

    Returns (True, None) for extreme points, else (False, mu) where mu is
    a convex-combination witness over all indices (zero at i) with
    sum_j mu_j p_j = p_i up to WITNESS_TOL.  The LP is solved once per
    point of bset (extreme_each); later calls return the same (read-only)
    witness.
    """
    i = bset.check_index(i)
    answer = bset._memo.get(("extreme", i))
    return answer if answer is not None else extreme_each(bset, [i])[0]


def extreme_each(bset: FiniteBeliefSet, idx) -> list:
    """is_extreme's answer for every point of idx, its hull-membership LP
    solved with solve_each, so that is_extreme on these points solves
    nothing more.

    Point i's LP asks for convex weights on the other points, in index
    order, that average to p_i: its rows are their beliefs transposed and
    a row of ones, its right-hand side is (p_i, 1), and it is infeasible
    exactly when p_i is extreme.
    """
    m, S = len(bset), bset.n_states
    idx = [bset.check_index(i) for i in idx]
    if m == 1:
        return [(True, None)] * len(idx)
    layout = lp.LinearProgram(np.zeros(m - 1),
                              [(np.zeros(m - 1), lp.EQ, 0.0)] * (S + 1))

    def fill(part, rows, objectives, rhs):
        others = np.arange(m - 1) + (np.arange(m - 1) >= part[:, None])
        rows[:, :S] = bset.points[others].transpose(0, 2, 1)
        rows[:, S] = 1.0
        rhs[:, :S] = bset.points[part]
        rhs[:, S] = 1.0

    return solve_each(bset, "extreme", idx, layout, fill,
                      lambda i, sol: _hull_answer(sol, i, m))


def solve_each(bset: FiniteBeliefSet, family, idx, layout, fill, answer):
    """The remembered answers of one per-point LP family of bset, in the
    order of idx: the points of idx with no remembered (family, i) answer
    have their programs solved on layout, EXPOSE_CHUNK at a time and
    labelled family, and answer(i, sol) is remembered as point i's.

    fill(part, rows, objectives, rhs) writes the programs of the point
    indices part (an int array) as lp.solve_chunks' fill writes its
    programs lo to hi - 1.  A point's answer has the same bits in any
    stack, so it does not matter which call solved it.
    """
    todo = np.array([i for i in dict.fromkeys(idx)
                     if (family, i) not in bset._memo], dtype=int)
    for i, sol in zip(todo.tolist(), lp.solve_chunks(
            layout, todo.size, EXPOSE_CHUNK,
            lambda lo, hi, *arrays: fill(todo[lo:hi], *arrays),
            family=family)):
        bset._remember((family, i), answer, i, sol)
    return [bset._memo[(family, i)] for i in idx]


def known_combinations(bset: FiniteBeliefSet) -> list[int]:
    """The points that is_extreme has already found to be convex
    combinations of the others, in index order; solves nothing."""
    return sorted(key[1] for key, answer in bset._memo.items()
                  if key[0] == "extreme" and not answer[0])


def _hull_answer(sol, i, m):
    """is_extreme's answer off point i's solved hull-membership LP."""
    if sol.status == lp.INFEASIBLE:
        return True, None
    mu = np.zeros(m)
    mu[np.arange(m) != i] = np.clip(sol.primal, 0.0, None)
    return False, mu


def _separation_lp(points, zero_idx, floor_idx, margin_idx, family):
    """max m  s.t. p.z = 0 on zero_idx, p.z >= 0 on floor_idx,
    p.z >= m on margin_idx, |z|_inf <= 1.  Returns (z, m).  family is the
    caller's LP family label: "separation" or "chain".

    Solved as its LP dual, with one column per point and S + 1 rows:

        min sum_s (a_s + b_s)
        s.t. sum_k w_k p_k + sum_l f_l p_l + sum_j u_j p_j - a + b = 0
             sum_k w_k = 1,        w, f, a, b >= 0, u free,

    over margin points k, floor points l and zero points j.  z is minus
    the multipliers of the S state rows, and m = min_k p_k.z is exact for
    the z returned.
    """
    zero_idx, floor_idx, margin_idx = (np.asarray(ix, dtype=int) for ix in
                                       (zero_idx, floor_idx, margin_idx))
    if margin_idx.size == 0:
        raise ValueError("margin family must be nonempty")
    order = np.concatenate([margin_idx, floor_idx])[None]
    sol, = lp.solve_chunks(
        separation_layout(order.size, zero_idx.size, points.shape[1]), 1, 1,
        lambda lo, hi, rows, objectives, rhs: separation_rows(
            rows, points, order, margin_idx.size, points[zero_idx][None]),
        family=family)
    return separation_answer(sol, points[margin_idx])


def separation_layout(n, n_zero, S) -> lp.LinearProgram:
    """The layout of _separation_lp's dual programs with n point columns,
    then n_zero zero columns, then the box columns -I and +I, and S + 1
    "=" rows: the state rows, with rhs 0, and the mass row, with rhs 1.

    Each program starts at the basis {a, w_k}: w_k = 1 on the margin
    column k with the smallest state-row sum, which is the start's
    objective, and a equal to that column's state entries, all >= 0."""
    width = n + n_zero + 2 * S
    obj = np.zeros(width)
    obj[n + n_zero:] = 1.0
    free = np.zeros(width, dtype=bool)
    free[n:n + n_zero] = True
    rhs = np.zeros(S + 1)
    rhs[S] = 1.0
    layout = lp.LinearProgram(obj, [(np.zeros(width), lp.EQ, b)
                                    for b in rhs], free=free)
    box = np.arange(n + n_zero, n + n_zero + S)

    def start(rows, objectives, rhs):
        sums = rows[:, :S, :n].sum(axis=1)
        k = np.where(rows[:, S, :n] > 0.0, sums, np.inf).argmin(axis=1)
        return box, k[:, None]

    layout.start = start
    return layout


def separation_rows(rows, points, order, n_margin, zero):
    """Write in full the rows (B, S + 1, width) of B programs on
    separation_layout: program k's point columns are points[order[k]],
    whose first n_margin[k] (or n_margin, one count for all) are its
    margin points and the rest its floor points, then its zero points
    zero[k] (an (n_zero, S) block)."""
    n = order.shape[1]
    S = zero.shape[2]
    n_points = n + zero.shape[1]
    for s in range(S):
        rows[:, s, :n] = points[order, s]
    rows[:, :S, n:n_points] = zero.transpose(0, 2, 1)
    rows[:, :S, n_points:n_points + S] = -np.eye(S)
    rows[:, :S, n_points + S:] = np.eye(S)
    rows[:, S, :n] = np.arange(n) < np.reshape(n_margin, (-1, 1))
    rows[:, S, n:] = 0.0


def separation_answer(sol, margin_points):
    """(z, m) off a solved separation dual with these margin points."""
    if sol.status != lp.OPTIMAL:  # pragma: no cover - feasible, bounded by 0
        raise RuntimeError(f"separation LP ended {sol.status}")
    z = -sol.duals[:margin_points.shape[1]]
    return z, float((margin_points @ z).min())


def expose_set(bset: FiniteBeliefSet, subset, *,
               margin_tol: float = MARGIN_TOL):
    """Best functional vanishing on `subset` and positive elsewhere.

    Solves max m s.t. p_j.z = 0 for j in subset, p_k.z >= m for k outside,
    |z|_inf <= 1, and returns (z, m) if the margin clears margin_tol, else
    None.  Zero level on the subset is without loss for probability
    vectors: adding a constant to z shifts every inner product equally.

    A singleton subset reads the answer that expose_each remembers for
    its point, solving it there on first use: the raw (z, m), before the
    margin_tol test, so any tolerance reads the same LP, and the returned
    z is read-only.  A larger subset is solved on each call.
    """
    if isinstance(subset, (list, tuple)) and len(subset) == 1:
        # a one-element list needs no sorting
        members = [bset.check_index(subset[0])]
    else:
        members = sorted(set(map(bset.check_index, subset)))
        if not members:
            raise ValueError("subset must be nonempty")
    if len(members) == 1 and len(bset) > 1:
        # a remembered answer needs no complement
        answer = bset._memo.get(("separation", members[0]))
        if answer is None:
            expose_each(bset, members)
            answer = bset._memo[("separation", members[0])]
    else:
        complement = np.setdiff1d(np.arange(len(bset)), members)
        if complement.size == 0:
            raise ValueError("subset must be proper")
        answer = _separation_lp(bset.points, members, (), complement,
                                "separation")
    return None if answer[1] <= margin_tol else answer


def expose_each(bset: FiniteBeliefSet, idx=None) -> np.ndarray:
    """Solve the singleton exposure LP of every point of idx (default:
    all of bset) with solve_each; expose_set on a single point reads the
    same answers.  Returns the raw margin of each point of idx, before
    any margin_tol test (inf for the one point of a one-point set, which
    the zero functional exposes).

    Point i's program has every other point, in index order, as a margin
    point and p_i as its zero point, so the programs share one layout.
    """
    m = len(bset)
    idx = range(m) if idx is None else [bset.check_index(i) for i in idx]
    if m == 1:
        return np.full(len(idx), np.inf)

    def fill(part, rows, objectives, rhs):
        others = np.arange(m - 1) + (np.arange(m - 1) >= part[:, None])
        separation_rows(rows, bset.points, others, m - 1,
                        bset.points[part, None])

    return np.array([margin for _, margin in solve_each(
        bset, "separation", idx, separation_layout(m - 1, 1, bset.n_states),
        fill, lambda i, sol: separation_answer(
            sol, np.concatenate([bset.points[:i], bset.points[i + 1:]])))])


def face_of(bset: FiniteBeliefSet, z, face_tol: float = FACE_TOL) -> np.ndarray:
    """Indices on the zero level of a supporting functional.

    Requires p.z >= -face_tol on the whole set (z supports at level 0);
    raises NotSupporting otherwise.
    """
    z = np.asarray(z, dtype=float)
    vals = bset.points @ z
    if vals.min() < -face_tol:
        raise NotSupporting(
            f"functional dips to {vals.min():.3e} on the set")
    return np.flatnonzero(np.abs(vals) <= face_tol)


def exposure_chain(bset: FiniteBeliefSet, i: int, declared_faces=(),
                   *, margin_tol: float = MARGIN_TOL) -> ExposureChain:
    """Nested faces that eventually expose p_i.

    Each stage first tries a declared face (a supporting functional whose
    zero set strictly shrinks the current members while keeping i); with
    none applicable it tries to expose {i} directly (margin above
    margin_tol; on the whole set that is the exposure LP expose_set
    remembers), and failing that it discovers a face with the supporting
    LP: the functional through p_i, nonnegative on the members, with the
    most mass above it.  That LP is the separation LP with the members'
    centroid as its one margin point, so it has S + 1 rows too.  Declared
    faces take priority so that continuum face structure known to the
    model drives the chain instead of grid-exposure artifacts.

    declared_faces: sequence of functionals.

    The chain is worked out once per point of bset, declared faces and
    margin_tol; later calls return the same chain, with read-only arrays.
    """
    i = bset.check_index(i)
    declared = [np.array(z, dtype=float) for z in declared_faces]
    key = ("chain", i, tuple(z.tobytes() for z in declared), margin_tol)
    chain, = bset._remember(key, _exposure_chain, bset, i, declared,
                            margin_tol)
    return chain


def _exposure_chain(bset, i, declared, margin_tol):
    """exposure_chain's answer, as a one-tuple with read-only arrays."""
    extreme, _ = is_extreme(bset, i)
    if not extreme:
        raise NotExtreme(f"point {bset.labels[i]} is not extreme")

    current = np.arange(len(bset))
    stages: list[tuple[np.ndarray, np.ndarray]] = []
    margins: list[float] = []
    used_declared = False

    for _ in range(len(bset) + bset.n_states + 2):
        pts = bset.points[current]
        pos_i = int(np.flatnonzero(current == i)[0])

        cut = None
        for z in declared:
            vals = pts @ z
            if vals.min() < -FACE_TOL:
                continue
            members = np.flatnonzero(np.abs(vals) <= FACE_TOL)
            if (pos_i in members and 1 < members.size < current.size):
                cut = (members, z, None)
                used_declared = True
                break

        if cut is None:
            n = len(pts)
            others = np.setdiff1d(np.arange(n), [pos_i])
            if not others.size:   # the zero functional exposes p_i
                z, margin = np.zeros(bset.n_states), np.inf
            elif n == len(bset):  # the whole set: read the remembered LP
                z, margin = expose_set(bset, [i], margin_tol=-np.inf)
            else:
                z, margin = _separation_lp(pts, [pos_i], [], others,
                                           "chain")
            if margin > margin_tol:
                stages.append((np.array([i]), z))
                margins.append(margin)
                chain = ExposureChain(
                    target=i, initial_members=np.arange(len(bset)),
                    stages=stages, margins=margins,
                    provenance="declared" if used_declared else "discovered")
                for part in (chain.initial_members, *sum(stages, ())):
                    part.setflags(write=False)
                return (chain,)
            centroid = pts.mean(axis=0)
            z, _ = _separation_lp(np.vstack([pts, centroid]),
                                  [pos_i], others, [n], "chain")
            members = np.flatnonzero(np.abs(pts @ z) <= FACE_TOL)
            if members.size >= current.size or pos_i not in members:
                raise ChainStalled(
                    f"no face of {current.size} members separates anything "
                    f"around {bset.labels[i]}")
            # refine to the max-margin functional that exposes this face
            zref, mref = _separation_lp(pts, members, [],
                                        np.setdiff1d(np.arange(n), members),
                                        "chain")
            if mref <= margin_tol:
                raise ChainStalled(
                    "discovered face is not exposed above margin_tol")
            cut = (members, zref, mref)

        members, z, margin = cut
        face_global = current[members]
        if _affine_rank(bset.points[face_global]) >= _affine_rank(pts):
            raise ChainStalled("stage did not reduce affine dimension")
        stages.append((face_global, z))
        margins.append(margin if margin is not None
                       else float((pts @ z).max()))
        current = face_global

    raise ChainStalled("chain exceeded the dimension bound")  # pragma: no cover
