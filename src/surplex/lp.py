"""Dense linear programming: two-phase simplex, duals, and certificates.

Solves small and medium LPs of the form

    min/max  objective . x
    s.t.     row . x  (<= | = | >=)  rhs     for each constraint
             lower_j <= x_j <= upper_j       for each variable

Bounds come as one (lower, upper) pair per variable, either a sequence of
pairs or an (n, 2) array; None or NaN means no bound on that side, and an
infinite bound is rejected.  Programs are stored as arrays.

All data is dense numpy.  The solver is deterministic: the entering
variable is the most negative reduced cost with lowest-index tie break,
and after a streak of degenerate pivots it switches to Bland's rule,
which guarantees termination.  Optimal solutions are vertex (basic)
solutions of the canonical form; infeasible programs carry a Farkas
certificate in the duals; unbounded programs carry a certifying ray.

solve() takes one program.  solve_stack() takes many programs that
share relations, rhs, bounds and sense and differ in their rows and
objectives, as one layout program plus a (B, m, n) array of rows and a
(B, n) array of objectives; it pivots their tableaux together, one numpy
operation per step for the whole stack, and returns for each program
exactly what solve() returns for it.  Callers write the stacked rows
straight into one array, so no program object is built per stacked
program.  Both run one two-phase driver: solve() is solve_stack() on a
stack of one program.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
# degenerate-pivot streak after which the pivot rule switches to Bland
BLAND_TRIGGER = 64
MAX_ITERATIONS = 200_000

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (GE, EQ, LE)   # indexed by 1 + code; code = slack sign
OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


class MalformedProgram(ValueError):
    """Dimension mismatch, bad relation, or non-finite problem data."""


class LinearProgram:
    """A dense LP instance.

    constraints is a sequence of (row, relation, rhs) with relation one of
    "<=", "=", ">=".  bounds is one (lower, upper) pair per variable, as a
    sequence of pairs or an (n, 2) array; None or NaN means unbounded on
    that side, and +-inf is rejected.  Default bounds are (0, None).

    Stored as arrays: rows, rhs, codes (the slack sign of each relation:
    +1 for "<=", 0 for "=", -1 for ">="), and lo/up with -inf/+inf where
    there is no bound.
    """

    def __init__(self, objective, constraints, bounds=None, sense="min"):
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise MalformedProgram("objective must be a nonempty vector")
        n = self.objective.size
        if sense not in ("min", "max"):
            raise MalformedProgram(f"unknown sense {sense!r}")
        self.sense = sense

        constraints = list(constraints)
        try:
            rows = np.array([row for row, _, _ in constraints], dtype=float)
        except ValueError as err:
            raise MalformedProgram(f"bad constraint rows: {err}") from None
        if constraints and rows.shape[1:] != (n,):
            raise MalformedProgram(
                f"constraint rows have shape {rows.shape[1:]}, expected ({n},)")
        self.rows = rows.reshape(len(constraints), n)
        rels = [rel for _, rel, _ in constraints]
        for rel in rels:
            if rel not in _RELATIONS:
                raise MalformedProgram(f"unknown relation {rel!r}")
        self.codes = np.array([_RELATIONS.index(rel) - 1 for rel in rels],
                              dtype=int)
        self.rhs = np.array([b for _, _, b in constraints], dtype=float)
        if self.rhs.shape != self.codes.shape:
            raise MalformedProgram("each rhs must be a scalar")

        if bounds is None:
            bounds = np.tile([0.0, np.nan], (n, 1))
        try:
            box = np.array(bounds, dtype=float)
        except (TypeError, ValueError) as err:
            raise MalformedProgram(f"bad bounds: {err}") from None
        if box.shape != (n, 2):
            raise MalformedProgram("one (lower, upper) pair per variable")
        if np.isinf(box).any():
            raise MalformedProgram("bounds must be finite, None or NaN")
        self.lo = np.where(np.isnan(box[:, 0]), -np.inf, box[:, 0])
        self.up = np.where(np.isnan(box[:, 1]), np.inf, box[:, 1])
        empty = np.flatnonzero(self.lo > self.up)
        if empty.size:
            j = empty[0]
            raise MalformedProgram(
                f"empty bound interval ({self.lo[j]}, {self.up[j]})")

        if not (np.isfinite(self.objective).all()
                and np.isfinite(self.rows).all()
                and np.isfinite(self.rhs).all()):
            raise MalformedProgram("non-finite data")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.codes.size

    def with_rows(self, rows, objective) -> "LinearProgram":
        """The program with this one's relations, rhs, bounds and sense,
        and the given constraint rows and objective."""
        return LinearProgram(objective, zip(rows, self.relations, self.rhs),
                             bounds=self.bounds, sense=self.sense)

    @cached_property
    def relations(self) -> list[str]:
        """One relation string per constraint."""
        return [_RELATIONS[1 + k] for k in self.codes.tolist()]

    @cached_property
    def bounds(self) -> list[tuple[float | None, float | None]]:
        """(lower, upper) per variable, None where there is no bound."""
        return [(None if lo == -np.inf else lo, None if up == np.inf else up)
                for lo, up in zip(self.lo.tolist(), self.up.tolist())]


@dataclass
class LpSolution:
    """Solve outcome.

    primal/objective_value are set when optimal.  duals holds one
    multiplier per constraint: optimal duals for optimal programs
    (min sense: <= rows nonpositive, >= rows nonnegative; flipped for
    max), or the Farkas certificate for infeasible programs.  ray is a
    certifying direction for unbounded programs.  bound_duals are the
    multipliers of the finite variable bounds (lower, upper).
    """

    status: str
    primal: np.ndarray | None = None
    duals: np.ndarray | None = None
    objective_value: float | None = None
    ray: np.ndarray | None = None
    bound_duals: tuple[np.ndarray, np.ndarray] | None = None
    iterations: int = 0


@dataclass
class CertificateReport:
    """Max residuals of a solution certificate; all ~0 for a clean pass."""

    feasibility: float = 0.0
    dual_feasibility: float = 0.0
    complementary_slackness: float = 0.0
    duality_gap: float = 0.0
    passed: bool = False
    notes: str = ""

    def max_residual(self) -> float:
        return max(self.feasibility, self.dual_feasibility,
                   self.complementary_slackness, self.duality_gap)


# ---------------------------------------------------------------------------
# canonical form
#
# The solver works on   min c.x, A x = b, x >= 0, b >= 0.
# Original variables map to canonical columns: a variable with lower
# bound >= 0 maps to one column ("pos"), anything else splits into a
# difference of two columns ("split").  Nonzero lower bounds and finite
# upper bounds become extra constraint rows so that Farkas certificates
# live in one uniform row space.

@dataclass
class _Canonical:
    T: np.ndarray                    # work matrix: A | b, then a zero row
    A: np.ndarray                    # view of T's constraint block
    b: np.ndarray                    # right-hand sides, apart from T
    c: np.ndarray
    flip: np.ndarray                 # +-1 per row: orientation vs assembled row
    scale: np.ndarray                # row equilibration factors
    bound_var: np.ndarray            # per bound row: its variable
    bound_up: np.ndarray             # per bound row: upper (else lower) bound
    first: np.ndarray                # per variable: its (first) column
    split: np.ndarray                # per variable: split into two columns
    second: np.ndarray               # per split variable: its minus column
    n_struct: int
    slack_cols: np.ndarray           # per row: slack column or -1
    art_cols: np.ndarray             # per row: artificial column or -1


def _canonicalize(lp: LinearProgram, rows=None, objective=None):
    """Rows: the constraints, then the bound rows, for each variable its
    lower-bound row (lo finite and nonzero) before its upper-bound row.
    The canonical system is written straight into the simplex work matrix
    T (see _Stack), and A is a view of it, so A changes as T pivots.

    rows (B, m, n) and objective (B, n) stack B programs that share lp's
    relations, rhs, bounds and sense; T, A, b, c and scale then carry a
    leading batch axis and every other field is shared.  A stack whose
    programs need different row flips (a scaled rhs that underflows to
    -0.0 in some programs only) has no shared layout: None.
    """
    if rows is None:
        rows, objective = lp.rows, lp.objective
    batch, n_con = rows.shape[:-2], lp.n_constraints
    split = lp.lo < 0.0
    width = 1 + split
    first = np.cumsum(width) - width
    second = first[split] + 1
    n_struct = int(width.sum())

    def expand(R, out):
        out[..., first] = R
        out[..., second] = -R[..., split]
        return out

    has_bound = np.column_stack([np.isfinite(lp.lo) & (lp.lo != 0.0),
                                 np.isfinite(lp.up)]).ravel()
    k = np.flatnonzero(has_bound)
    bound_var, bound_up = k // 2, k % 2 == 1
    unit = np.zeros((k.size, lp.n_vars))
    unit[np.arange(k.size), bound_var] = 1.0
    codes = np.concatenate([lp.codes, np.where(bound_up, 1, -1)])
    b0 = np.concatenate([lp.rhs, np.column_stack([lp.lo, lp.up]).ravel()[k]])

    # row equilibration: unit inf-norm rows keep reduced-cost noise flat;
    # splitting a column changes no row's norm, and a bound row's is 1
    m = codes.size
    norms = np.ones(batch + (m,))
    norms[..., :n_con] = np.abs(rows).max(axis=-1)
    scale = np.where(norms > 0.0, norms, 1.0)
    b0 = b0 / scale

    # slack/surplus columns, then sign-fix rows so b >= 0, then
    # artificials wherever the row lacks a +1 identity column
    slack_rows = np.flatnonzero(codes)
    slack_cols = np.full(m, -1)
    slack_cols[slack_rows] = n_struct + np.arange(slack_rows.size)
    flips = np.where(b0 < 0.0, -1.0, 1.0)
    flip = flips if flips.ndim == 1 else flips[0]
    if (flips != flip).any():
        return None
    art_rows = np.flatnonzero(codes * flip <= 0.0)
    art_cols = np.full(m, -1)
    n_real = n_struct + slack_rows.size
    art_cols[art_rows] = n_real + np.arange(art_rows.size)

    T = np.zeros(batch + (m + 1, n_real + art_rows.size + 1))
    A = T[..., :m, :-1]
    expand(rows, A[..., :n_con, :n_struct])
    expand(unit, A[..., n_con:, :n_struct])
    A[..., :n_struct] /= scale[..., None]
    A[..., slack_rows, slack_cols[slack_rows]] = codes[slack_rows]
    A[..., :n_real] *= flip[:, None]
    A[..., art_rows, art_cols[art_rows]] = 1.0
    b = b0 * flip
    T[..., :m, -1] = b

    obj = objective if lp.sense == "min" else -objective
    c = expand(obj, np.zeros(obj.shape[:-1] + (n_struct,)))

    return _Canonical(T=T, A=A, b=b, c=c, flip=flip, scale=scale,
                      bound_var=bound_var, bound_up=bound_up, first=first,
                      split=split, second=second, n_struct=n_struct,
                      slack_cols=slack_cols, art_cols=art_cols)


# ---------------------------------------------------------------------------
# simplex core
#
# One driver solves every program; solve() hands it a stack of one.  Slot k
# of a stack holds the work matrix T[k]: the m constraint rows, then the
# objective row; the last column holds the right-hand sides (the negated
# objective value in the objective row).  basis[k, i] is row i's basic
# column.

def _extract_duals(canon, obj_row, costs):
    """Per-canonical-row multipliers y = cost(id column) - reduced cost."""
    cols = np.where(canon.art_cols >= 0, canon.art_cols, canon.slack_cols)
    return (costs[..., cols] - obj_row[..., cols]) * (canon.flip / canon.scale)


def _split_duals(lp, canon, y):
    """Split assembled-row multipliers into constraint and bound parts."""
    y_lo = np.zeros(y.shape[:-1] + (lp.n_vars,))
    y_up = np.zeros(y.shape[:-1] + (lp.n_vars,))
    if canon.bound_var.size:
        y_bound, up = y[..., lp.n_constraints:], canon.bound_up
        y_lo[..., canon.bound_var[~up]] = y_bound[..., ~up]
        y_up[..., canon.bound_var[up]] = y_bound[..., up]
    return y[..., :lp.n_constraints], y_lo, y_up


def _to_original(lp, canon, x_struct):
    x = x_struct[..., canon.first]
    x[..., canon.split] -= x_struct[..., canon.second]
    return x


def solve(lp: LinearProgram) -> LpSolution:
    """Classify and solve an LP; see LpSolution for certificate layout."""
    if not isinstance(lp, LinearProgram):
        raise MalformedProgram("expected a LinearProgram")
    return _solve_stack(lp, lp.rows[None], lp.objective[None])[0]


def _pivot_stack(T, basis, r, q, work):
    """Pivot each tableau T[k] on (r[k], q[k]): the one-slot pivot's
    arithmetic for every k at once.  work is scratch of T's shape."""
    k = np.arange(T.shape[0])
    prow = T[k, r]
    prow /= prow[k, q][:, None]
    T[k, r] = prow
    factors = T[k, :, q]
    factors[k, r] = 0.0
    np.multiply(factors[:, :, None], prow[:, None, :], out=work)
    np.subtract(T, work, out=T)
    basis[k, r] = q


class _Stack:
    """The work matrices of B programs with one layout.

    Slot k holds program ids[k].  run() works on the slots [0, live) and
    swaps each program that finishes behind the ones still running, so
    the running slots stay a prefix of T and every pivot is one in-place
    update of it.  A redundant row that phase 1 drops stays in T with
    kept False: it never enters the ratio test, the objective-row setup
    or the primal.
    """

    def __init__(self, T, basis):
        B, m = T.shape[0], T.shape[1] - 1
        self.T = T
        self.basis = np.tile(basis, (B, 1))
        self.kept = np.ones((B, m), dtype=bool)
        self.ids = np.arange(B)
        self.moved = False      # ids[k] == k until a partition moves a slot
        self.work = None        # lock-step pivot scratch of T's shape
        self.iterations = np.zeros(B, dtype=int)
        self.unbounded = np.zeros(B, dtype=bool)
        self.entering = np.zeros(B, dtype=int)

    def partition(self, first, extra=()):
        """Move the slots in [0, first.size) where first holds to the
        front by swapping each misplaced pair, and the rows of the
        per-slot arrays extra with them; returns how many hold."""
        n = int(np.count_nonzero(first))
        leave = np.flatnonzero(~first[:n])
        if leave.size:
            self.moved = True
            enter = n + np.flatnonzero(first[n:])
            dst = np.concatenate([leave, enter])
            src = np.concatenate([enter, leave])
            for a in (self.T, self.basis, self.kept, self.ids,
                      self.iterations, self.unbounded, self.entering,
                      *extra):
                a[dst] = a[src]
        return n

    def pivot_slots(self, slots, r, q):
        """Pivot the slots listed in slots on (r[k], q[k])."""
        sub, basis = self.T[slots], self.basis[slots]
        _pivot_stack(sub, basis, r, q, np.empty_like(sub))
        self.T[slots], self.basis[slots] = sub, basis

    def run(self, costs, n_enter, live):
        """Minimize over the current canonical system of each of the slots
        [0, live) the costs of its program: costs is (B, ncols) in program
        order, and only the columns [0, n_enter) may enter the basis.  On
        return, per slot, unbounded says how it ended and entering holds
        the unbounded column.

        One live slot runs the simplex rules on its tableau with plain
        slices (_run_one).  More apply the same rules per slot and per
        iteration in lock step, so each program takes the same steps and
        gets the same bits as on its own."""
        if live == 1:
            self._run_one(costs[self.ids[0]], n_enter)
            return
        costs = costs[self.ids[:live]]
        T, basis, kept = self.T, self.basis, self.kept
        m, ncols = T.shape[1] - 1, T.shape[2] - 1
        allowed = np.arange(ncols) < n_enter
        obj = T[:live, m]
        obj[:, :-1] = costs
        obj[:, -1] = 0.0
        slots = np.arange(live)
        for i in range(m):
            coef = obj[slots, basis[:live, i]]
            hit = (coef != 0.0) & kept[:live, i]
            if hit.all():
                obj -= coef[:, None] * T[:live, i]
            elif hit.any():
                obj[hit] -= coef[hit, None] * T[:live, i][hit]

        red_tol = FEAS_TOL * (1.0 + np.abs(costs).max(axis=1))
        eligible = np.tile(allowed, (live, 1))
        parked = np.zeros(live, dtype=bool)
        bland = np.zeros(live, dtype=bool)
        streak = np.zeros(live, dtype=int)
        if self.work is None:
            self.work = np.empty_like(T)
        work = self.work
        self.unbounded[:live] = False
        dropped = not kept[:live].all()
        k = live
        while k:
            iterations = self.iterations[:k]
            iterations += 1
            if iterations.max() > MAX_ITERATIONS:
                raise RuntimeError("simplex iteration limit exceeded")
            Tk, at, tol = T[:k], slots[:k], red_tol[:k]
            red = Tk[:, m, :-1]
            masked = np.where(eligible[:k], red, np.inf)
            q = masked.argmin(axis=1)
            done = ~(masked[at, q] < -tol)
            slow = np.flatnonzero(bland[:k])
            if slow.size:
                improving = eligible[slow] & (red[slow] < -tol[slow, None])
                q[slow] = improving.argmax(axis=1)
                done[slow] = ~improving[np.arange(slow.size), q[slow]]

            col = Tk[at, :m, q]
            pos = col > PIVOT_TOL
            if dropped:
                pos &= kept[:k]
            ratios = np.full((k, m), np.inf)
            np.divide(Tk[:, :m, -1], col, out=ratios, where=pos)
            best = ratios.min(axis=1, initial=np.inf)
            blocked = ~done & (best == np.inf)
            moving = ~(done | blocked)
            if blocked.any():
                unbounded = blocked & (red[at, q] < -1e4 * tol)
                self.unbounded[:k] |= unbounded
                self.entering[:k][unbounded] = q[unbounded]
                done |= unbounded
                waiting = blocked & ~unbounded
                eligible[np.flatnonzero(waiting), q[waiting]] = False
                parked[:k] |= waiting
            back = moving & parked[:k]
            if back.any():
                eligible[:k][back] = allowed
                parked[:k][back] = False
            if m:
                near = ratios <= (best + 1e-12 * (1.0 + np.abs(best)))[:, None]
                r = np.where(near, basis[:k], ncols).argmin(axis=1)
            else:       # no row to pivot on: nothing moves
                r = np.zeros_like(q)
            degenerate = best <= 1e-12
            streak[:k] = np.where(moving, np.where(degenerate,
                                                   streak[:k] + 1, 0),
                                  streak[:k])
            bland[:k] |= moving & (streak[:k] > BLAND_TRIGGER)

            n_move = k
            if not moving.all():
                state = (q, r, moving, eligible, parked, bland, streak,
                         red_tol)
                k = self.partition(~done, state)
                n_move = self.partition(moving[:k], state)
            if n_move:
                _pivot_stack(T[:n_move], basis[:n_move], r[:n_move],
                             q[:n_move], work[:n_move])

    def _run_one(self, costs, n_enter):
        """run() on slot 0 alone.

        Entering column: the most negative eligible reduced cost, lowest
        index first; after a streak of BLAND_TRIGGER degenerate pivots,
        the lowest improving index (Bland).  Leaving row: the lowest
        basic column among the kept rows that tie in the ratio test.  A
        column without a positive entry is unbounded when its reduced
        cost clearly improves; otherwise it is parked (near noise) and
        may not enter until the next pivot."""
        T, basis, kept = self.T[0], self.basis[0], self.kept[0]
        m = T.shape[0] - 1
        obj = T[m]
        obj[:-1] = costs
        obj[-1] = 0.0
        # a dropped row's basic artificial costs 0 in phase 2: it is skipped
        for i, bv in enumerate(basis.tolist()):
            if obj[bv] != 0.0:
                obj -= obj[bv] * T[i]
        red = obj[:-1]
        rhs = T[:m, -1]

        red_tol = FEAS_TOL * (1.0 + float(np.max(np.abs(costs))))
        bland = False
        degenerate_streak = 0
        dropped = not kept.all()
        iterations = int(self.iterations[0])
        eligible = None             # set while a column is parked
        ratios = np.empty(m)
        while True:
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise RuntimeError("simplex iteration limit exceeded")
            masked = (red[:n_enter] if eligible is None
                      else np.where(eligible, red, np.inf))
            if bland:
                improving = masked < -red_tol
                q = int(improving.argmax())
                if not improving[q]:
                    break
            else:
                q = int(masked.argmin())
                if not masked[q] < -red_tol:
                    break

            col = T[:m, q]
            pos = col > PIVOT_TOL
            if dropped:
                pos &= kept
            ratios.fill(np.inf)
            np.divide(rhs, col, out=ratios, where=pos)
            best = float(ratios.min(initial=np.inf))
            if best == np.inf:
                if red[q] < -1e4 * red_tol:
                    self.unbounded[0] = True
                    self.entering[0] = q
                    break
                if eligible is None:
                    eligible = np.arange(red.size) < n_enter
                eligible[q] = False
                continue
            eligible = None
            near = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
            r = int(near[0] if near.size == 1 else near[basis[near].argmin()])

            if best <= 1e-12:
                degenerate_streak += 1
                if degenerate_streak > BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_streak = 0
            T[r] /= T[r, q]
            factors = T[:, q].copy()
            factors[r] = 0.0
            T -= factors[:, None] * T[r]        # the outer product, row by row
            basis[r] = q
        self.iterations[0] = iterations


def solve_stack(layout: LinearProgram, rows, objectives) -> list[LpSolution]:
    """Solve B programs in one lock-step two-phase simplex: program k has
    layout's relations, rhs, bounds and sense, constraint rows rows[k]
    and objective objectives[k].  rows is (B, m, n) and objectives is
    (B, n), where layout has m constraints and n variables; either may be
    a broadcast view.  layout's own rows and objective are not read.
    Returns one LpSolution per program, bit for bit the one solve()
    returns for it.

    The canonical layout (split columns, bound rows, slacks, flips and
    artificials) is worked out once and only the rows and objectives are
    stacked.  The stack pivots every program at once, so many small
    programs cost about as many numpy calls as the slowest of them alone.
    """
    if not isinstance(layout, LinearProgram):
        raise MalformedProgram("expected a LinearProgram layout")
    rows = np.asarray(rows, dtype=float)
    objectives = np.asarray(objectives, dtype=float)
    m, n = layout.n_constraints, layout.n_vars
    B = rows.shape[0] if rows.ndim == 3 else -1
    if rows.shape != (B, m, n) or objectives.shape != (B, n):
        raise MalformedProgram(
            f"rows {rows.shape} and objectives {objectives.shape} do not "
            f"stack programs of {m} constraints and {n} variables")
    if not (np.isfinite(rows).all() and np.isfinite(objectives).all()):
        raise MalformedProgram("non-finite data")
    if not B:
        return []
    return _solve_stack(layout, rows, objectives)


def _solve_stack(layout, rows, objectives):
    """The two-phase simplex on checked arrays; see solve_stack."""
    canon = _canonicalize(layout, rows, objectives)
    if canon is None:
        # no shared row flips: each program alone, and a stack of one
        # always has a shared layout
        return [sol for k in range(len(rows))
                for sol in _solve_stack(layout, rows[k:k + 1],
                                        objectives[k:k + 1])]
    B, m, ncols = canon.A.shape
    has_art = canon.art_cols >= 0
    # the artificial columns come last: [n_real, ncols)
    n_real = ncols - np.count_nonzero(has_art)
    stack = _Stack(canon.T,
                   np.where(has_art, canon.art_cols, canon.slack_cols))
    costs1 = np.zeros((B, ncols))
    costs1[:, n_real:] = 1.0
    costs2 = np.zeros((B, ncols))
    costs2[:, :canon.n_struct] = canon.c
    infeasible = np.zeros(B, dtype=bool)
    live = B
    if n_real < ncols:
        # Phase 1: drive artificials to zero.
        stack.run(costs1, ncols, B)
        if stack.unbounded.any():  # pragma: no cover - bounded below
            raise RuntimeError("phase 1 cannot be unbounded")
        ids = stack.ids
        phase1_value = -stack.T[:, m, -1]
        limit = FEAS_TOL * (1.0 + np.abs(canon.b).sum(axis=1))
        infeasible[ids] = phase1_value > limit[ids]
        live = stack.partition(~infeasible[ids])
        # pivot leftover artificials out of the basis; drop redundant rows
        arts = stack.basis[:live] >= n_real
        T = stack.T
        for i in np.flatnonzero(arts.any(axis=0)):
            slots = np.flatnonzero(arts[:, i])
            size = np.abs(T[slots, i, :n_real])
            j = size.argmax(axis=1)
            fine = size[np.arange(slots.size), j] > PIVOT_TOL
            stack.kept[slots, i] = fine
            if fine.any():
                stack.pivot_slots(slots[fine], i, j[fine])
    if live:
        # Phase 2: artificials may not re-enter
        stack.run(costs2, n_real, live)

    # read every program's answer off its slot, in program order; rows of
    # C-ordered arrays, so that each program's vectors are contiguous, and
    # numpy reduces them the same way whatever the stack
    at = np.argsort(stack.ids) if stack.moved else slice(None)
    T, unbounded = stack.T, stack.unbounded[at]
    basic = np.where(stack.kept, stack.basis, ncols)[at]
    program = np.arange(B)[:, None]

    def split(y):
        return [np.ascontiguousarray(part)
                for part in _split_duals(layout, canon, y)]

    if live:    # else every program is infeasible: no optimal side
        x_struct = np.zeros((B, ncols + 1))
        x_struct[program, basic] = T[at, :m, -1]
        x = np.ascontiguousarray(
            _to_original(layout, canon, x_struct[:, :ncols]))
        # Every row, dropped redundant ones included, reads its multiplier
        # off its own identity column: a dropped row's basic artificial
        # may belong to another constraint, and it stays basic at cost 0
        # in phase 2.
        y_con, y_lo, y_up = split(_extract_duals(canon, T[at, m], costs2))
        if layout.sense == "max":
            y_con, y_lo, y_up = -y_con, -y_lo, -y_up
    if live < B:
        f_con, f_lo, f_up = split(_extract_duals(canon, T[at, m], costs1))
    if unbounded.any():
        slot = np.arange(B)[at]
        entering = stack.entering[slot]
        ray_struct = np.zeros((B, ncols + 1))
        ray_struct[np.arange(B), entering] = 1.0
        ray_struct[program, basic] = -T[slot, :m, entering]
        rays = np.ascontiguousarray(
            _to_original(layout, canon, ray_struct[:, :ncols]))

    out = []
    for k, iterations in enumerate(stack.iterations[at].tolist()):
        if infeasible[k]:
            out.append(LpSolution(status=INFEASIBLE, duals=f_con[k],
                                  bound_duals=(f_lo[k], f_up[k]),
                                  iterations=iterations))
        elif unbounded[k]:
            out.append(LpSolution(status=UNBOUNDED, primal=x[k],
                                  ray=rays[k], iterations=iterations))
        else:
            out.append(LpSolution(
                status=OPTIMAL, primal=x[k], duals=y_con[k],
                objective_value=float(objectives[k] @ x[k]),
                bound_duals=(y_lo[k], y_up[k]), iterations=iterations))
    return out


# ---------------------------------------------------------------------------
# certificates

def _row_violation(lp, gap):
    """Per-row violation of gap = row.x - rhs under the row's relation."""
    return np.where(lp.codes == 0, np.abs(gap), lp.codes * gap)


def _primal_residual(lp, x):
    return float(max(
        np.max(_row_violation(lp, lp.rows @ x - lp.rhs), initial=0.0),
        np.max(lp.lo - x, initial=0.0), np.max(x - lp.up, initial=0.0)))


def check_certificate(lp: LinearProgram, sol: LpSolution) -> CertificateReport:
    """Residual report: feasibility, dual signs, slackness, duality gap.

    For infeasible programs the report checks the Farkas certificate; for
    unbounded programs it checks the certifying ray.  Passes iff every
    residual is within FEAS_TOL * (1 + scale).
    """
    rep = CertificateReport()
    scale = 1.0 + float(np.max(np.abs(lp.rhs))) if lp.n_constraints else 1.0
    # rows carrying a bound multiplier: lower bounds other than x >= 0,
    # and every finite upper bound
    has_lo = np.isfinite(lp.lo) & (lp.lo != 0.0)
    has_up = np.isfinite(lp.up)

    if sol.status == OPTIMAL:
        x, y = sol.primal, sol.duals
        # signs vs the min-sense convention (max flips them): <= rows and
        # upper bounds nonpositive, >= rows and lower bounds nonnegative
        sign = 1.0 if lp.sense == "min" else -1.0
        yc = sign * y
        ylo = sign * sol.bound_duals[0]
        yup = sign * sol.bound_duals[1]
        rep.feasibility = _primal_residual(lp, x)
        sgn_res = max(np.max(lp.codes * yc, initial=0.0),
                      np.max(-ylo, initial=0.0), np.max(yup, initial=0.0))

        obj = lp.objective if lp.sense == "min" else -lp.objective
        r = obj - lp.rows.T @ yc
        r -= ylo + yup
        # a variable with lower bound >= 0 keeps its implicit x_j >= 0
        # multiplier, the reduced cost r_j; any other needs r_j = 0
        native = lp.lo >= 0.0
        stat = max(np.max(-r[native], initial=0.0),
                   np.max(np.abs(r[~native]), initial=0.0))
        active = native & (x > FEAS_TOL)
        comp = max(
            np.max(np.abs(yc * (lp.rows @ x - lp.rhs)), initial=0.0),
            np.max(np.abs(r[active] * x[active]), initial=0.0),
            np.max(np.abs(ylo[has_lo] * (x - lp.lo)[has_lo]), initial=0.0),
            np.max(np.abs(yup[has_up] * (x - lp.up)[has_up]), initial=0.0))
        dual_obj = float(yc @ lp.rhs + ylo[has_lo] @ lp.lo[has_lo]
                         + yup[has_up] @ lp.up[has_up])
        rep.dual_feasibility = float(max(sgn_res, stat))
        rep.complementary_slackness = float(comp)
        primal_obj = float(obj @ x)
        rep.duality_gap = abs(primal_obj - dual_obj)
        limit = FEAS_TOL * (scale + abs(primal_obj)
                            + float(np.max(np.abs(x), initial=0.0)))
        rep.passed = rep.max_residual() <= max(limit, FEAS_TOL)
        return rep

    if sol.status == INFEASIBLE:
        y = sol.duals
        y_lo, y_up = sol.bound_duals
        # Farkas certificates are sense-free: <= rows nonpositive,
        # >= rows nonnegative, lower bounds nonnegative, upper nonpositive.
        rep.dual_feasibility = float(max(
            np.max(lp.codes * y, initial=0.0),
            np.max(-y_lo, initial=0.0), np.max(y_up, initial=0.0)))
        # aggregated row w.x >= y.b for every feasible x; certificate means
        # sup over the bounds of w.x falls short of y.b
        w = y_lo + y_up + lp.rows.T @ y
        ybeta = float(y @ lp.rhs + y_lo[has_lo] @ lp.lo[has_lo]
                      + y_up[has_up] @ lp.up[has_up])
        moves = np.abs(w) > FEAS_TOL
        edge = np.where(w > 0.0, lp.up, lp.lo)    # where the sup sits
        capped = moves & np.isfinite(edge)
        sup = float(w[capped] @ edge[capped])
        rep.feasibility = float(np.max(np.abs(w[moves & ~capped]),
                                       initial=0.0))
        gap = ybeta - sup
        rep.duality_gap = max(0.0, FEAS_TOL * scale - gap)
        rep.notes = f"farkas margin {gap:.3e}"
        rep.passed = (rep.feasibility <= FEAS_TOL * scale
                      and rep.dual_feasibility <= FEAS_TOL * scale
                      and gap > FEAS_TOL * scale)
        return rep

    if sol.status == UNBOUNDED:
        d = sol.ray
        res = max(np.max(_row_violation(lp, lp.rows @ d), initial=0.0),
                  np.max(-d[np.isfinite(lp.lo)], initial=0.0),
                  np.max(d[np.isfinite(lp.up)], initial=0.0))
        rep.feasibility = max(_primal_residual(lp, sol.primal), float(res))
        improve = float(lp.objective @ d)
        ok = improve < 0 if lp.sense == "min" else improve > 0
        rep.duality_gap = 0.0 if ok else abs(improve) + FEAS_TOL
        rep.notes = f"ray objective rate {improve:.3e}"
        dscale = 1.0 + float(np.max(np.abs(d), initial=0.0))
        rep.passed = rep.feasibility <= FEAS_TOL * (scale + dscale) and ok
        return rep

    rep.notes = f"unknown status {sol.status!r}"
    return rep
