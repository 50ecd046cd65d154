"""Convex geometry of finite belief sets in the probability simplex.

Predicates over finite point sets {p_1, ..., p_m} in R^S: affine
dimension, extreme and exposed point classification, supporting
functionals and their faces, and nested exposure chains that certify a
point as eventually exposed.  Every separation question is a max-margin
LP with the functional box-normalized to |z|_inf <= 1, so the margin
tolerances below are scale-meaningful.  It is solved in dual form: a
min-l1 convex-combination program with S + 1 rows and one column per
point, whose row multipliers are the functional z.  separation_stack
writes the rows of many such programs into one array for lp.solve_stack:
the exposure LPs of all points of a set share one layout and are solved
as one stack (expose_each).  The supporting LP of an exposure chain (the
functional through a point with the most mass above it) is the same LP
with the centroid as its one margin point, so no geometry LP has more
than S + 1 rows or a variable bound other than >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from surplex import lp

MARGIN_TOL = 1e-7      # exposedness: separation below this is "not exposed"
FACE_TOL = 1e-9        # membership in the zero set of a supporting functional
RANK_TOL = 1e-9        # singular value cutoff, relative to the largest
PROB_TOL = 1e-12       # probability vector sum tolerance
DISTINCT_TOL = 1e-10   # points closer than this count as duplicates
WITNESS_TOL = 1e-8     # max residual of a convex-combination witness
# expose_each solves at most this many points' exposure LPs in one stack:
# each program has a column per point, so a whole set of n points would
# take memory that grows as n^2.  A 101-point grid or a 40-type table is
# still solved as one stack.
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


@dataclass(eq=False)
class FiniteBeliefSet:
    """Labeled belief points; rows of `points` live in the simplex.

    Duplicated points model failures of convex independence and are legal
    inputs, but must be flagged explicitly.

    `points` is a read-only copy of the input.  The set remembers, per
    point, the answer of its singleton exposure LP (the raw (z, margin),
    before any margin_tol test) and of is_extreme, so each is solved at
    most once however many callers ask; the remembered arrays are
    read-only too.  expose_each fills the exposure answers of every point
    with one stacked solve.  Sets compare by identity, as their memos are
    their own.
    """

    labels: list[str]
    points: np.ndarray
    allow_duplicates: bool = False
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.points = np.array(self.points, dtype=float)
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


@dataclass
class ExposureChain:
    """Nested faces certifying a point as eventually exposed.

    stages[k] = (member_indices, functional): the functional vanishes on
    the stage members and is strictly positive on the previous stage's
    other members.  The last stage is the singleton {target}.  A chain of
    length 1 means the point is exposed outright.
    """

    target: int
    initial_members: np.ndarray
    stages: list[tuple[np.ndarray, np.ndarray]]
    margins: list[float] = field(default_factory=list)
    provenance: str = "discovered"

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
    point of bset; later calls return the same (read-only) witness.
    """
    i = bset.check_index(i)
    if len(bset) == 1:
        return True, None
    return bset._remember(("extreme", i), _hull_membership_lp, bset, i)


def _hull_membership_lp(bset, i):
    m = len(bset)
    others = [j for j in range(m) if j != i]
    P = bset.points[others]          # (m-1, S)
    target = bset.points[i]
    cons = [(row, lp.EQ, target[s]) for s, row in enumerate(P.T)]
    cons.append((np.ones(m - 1), lp.EQ, 1.0))
    prog = lp.LinearProgram(np.zeros(m - 1), cons)
    sol = lp.solve(prog)
    if sol.status == lp.INFEASIBLE:
        return True, None
    mu = np.zeros(m)
    mu[others] = np.clip(sol.primal, 0.0, None)
    return False, mu


def _separation_lp(points, zero_idx, floor_idx, margin_idx):
    """max m  s.t. p.z = 0 on zero_idx, p.z >= 0 on floor_idx,
    p.z >= m on margin_idx, |z|_inf <= 1.  Returns (z, m).

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
    layout, rows, objectives = separation_stack(
        points, np.concatenate([margin_idx, floor_idx])[None],
        [margin_idx.size], points[zero_idx][None])
    sol = lp.solve(layout.with_rows(rows[0], objectives[0]))
    return separation_answer(sol, points[margin_idx])


def separation_stack(points, order, n_margin, zero):
    """B of _separation_lp's dual programs, as the (layout, rows,
    objectives) of one lp.solve_stack call.

    Program k's point columns are points[order[k]], whose first
    n_margin[k] are its margin points and the rest its floor points, then
    its zero points zero[k] (an (n_zero, S) block), then the box columns
    -I and +I.  rows has shape (B, S + 1, n + n_zero + 2S) with n =
    order.shape[1]; it is a fresh array, so a caller may rescale columns
    in place.  objectives is a broadcast view of the one objective the
    programs share.
    """
    B, n = order.shape
    n_zero, S = zero.shape[1:]
    n_points = n + n_zero
    width = n_points + 2 * S
    rows = np.zeros((B, S + 1, width))
    for s in range(S):
        rows[:, s, :n] = points[order, s]
    rows[:, :S, n:n_points] = zero.transpose(0, 2, 1)
    rows[:, :S, n_points:n_points + S] = -np.eye(S)
    rows[:, :S, n_points + S:] = np.eye(S)
    rows[:, S, :n] = np.arange(n) < np.reshape(n_margin, (B, 1))
    obj = np.zeros(width)
    obj[n_points:] = 1.0
    bounds = np.tile([0.0, np.nan], (width, 1))
    bounds[n:n_points, 0] = np.nan
    rhs = np.zeros(S + 1)
    rhs[S] = 1.0
    layout = lp.LinearProgram(obj, [(np.zeros(width), lp.EQ, b)
                                    for b in rhs], bounds=bounds)
    return layout, rows, np.broadcast_to(obj, (B, width))


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

    A singleton subset is solved once per point of bset: the raw (z, m)
    is remembered before the margin_tol test, so any tolerance reads the
    same LP, and the returned z is read-only.
    """
    subset = np.asarray(sorted(set(int(j) for j in subset)), dtype=int)
    if subset.size == 0:
        raise ValueError("subset must be nonempty")
    for j in subset:
        bset.check_index(j)
    remembered = subset.size == 1
    if remembered and len(bset) > 1:
        # a remembered answer needs no complement
        answer = bset._memo.get(("expose", int(subset[0])))
        if answer is not None:
            return None if answer[1] <= margin_tol else answer
    complement = np.setdiff1d(np.arange(len(bset)), subset)
    if complement.size == 0:
        raise ValueError("subset must be proper")
    args = (bset.points, subset, (), complement)
    if remembered:
        z, margin = bset._remember(("expose", int(subset[0])),
                                   _separation_lp, *args)
    else:
        z, margin = _separation_lp(*args)
    if margin <= margin_tol:
        return None
    return z, margin


def expose_each(bset: FiniteBeliefSet) -> None:
    """Solve the singleton exposure LP of every point of bset that has no
    remembered answer yet, and remember the answers, so that expose_set on
    a single point solves nothing more.

    The programs differ only in which point is the zero column, so they
    share one layout and go to lp.solve_stack EXPOSE_CHUNK points at a
    time, each chunk's rows written into one array (separation_stack);
    each answer is bit for bit the one expose_set would solve for on its
    own.
    """
    m = len(bset)
    todo = np.array([i for i in range(m) if ("expose", i) not in bset._memo],
                    dtype=int)
    if m == 1:
        return
    for lo in range(0, todo.size, EXPOSE_CHUNK):
        part = todo[lo:lo + EXPOSE_CHUNK]
        # point i's margin points: every other point, in index order
        others = np.arange(m - 1) + (np.arange(m - 1) >= part[:, None])
        sols = lp.solve_stack(*separation_stack(
            bset.points, others, np.full(part.size, m - 1),
            bset.points[part, None]))
        for i, margin, sol in zip(part.tolist(), others, sols):
            bset._remember(("expose", i), separation_answer, sol,
                           bset.points[margin])


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
    margin_tol), and failing that it discovers a face with the supporting
    LP: the functional through p_i, nonnegative on the members, with the
    most mass above it.  That LP is the separation LP with the members'
    centroid as its one margin point, so it has S + 1 rows too.  Declared
    faces take priority so that continuum face structure known to the
    model drives the chain instead of grid-exposure artifacts.

    declared_faces: sequence of functionals.
    """
    i = bset.check_index(i)
    extreme, _ = is_extreme(bset, i)
    if not extreme:
        raise NotExtreme(f"point {bset.labels[i]} is not extreme")

    declared = [np.asarray(z, dtype=float) for z in declared_faces]
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
            if others.size:
                z, margin = _separation_lp(pts, [pos_i], [], others)
            else:   # nothing to separate: the zero functional exposes p_i
                z, margin = np.zeros(bset.n_states), np.inf
            if margin > margin_tol:
                stages.append((np.array([i]), z))
                margins.append(margin)
                return ExposureChain(
                    target=i, initial_members=np.arange(len(bset)),
                    stages=stages, margins=margins,
                    provenance="declared" if used_declared else "discovered")
            centroid = pts.mean(axis=0)
            z, _ = _separation_lp(np.vstack([pts, centroid]),
                                  [pos_i], others, [n])
            members = np.flatnonzero(np.abs(pts @ z) <= FACE_TOL)
            if members.size >= current.size or pos_i not in members:
                raise ChainStalled(
                    f"no face of {current.size} members separates anything "
                    f"around {bset.labels[i]}")
            # refine to the max-margin functional that exposes this face
            zref, mref = _separation_lp(pts, members, [],
                                        np.setdiff1d(np.arange(n), members))
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
