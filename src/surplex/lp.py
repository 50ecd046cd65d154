"""Dense linear programming: two-phase simplex, duals, and certificates.

Solves small and medium LPs of the form

    min/max  objective . x
    s.t.     row . x  (<= | = | >=)  rhs     for each constraint
             x_j >= 0, or x_j free            for each variable

Which variables are free is one boolean mask; every other variable is
nonnegative.  Any other bound, a box say, is a constraint row like the
rest.  Programs are stored as arrays.

All data is dense numpy.  The solver is deterministic: the entering
variable is the most negative reduced cost with lowest-index tie break,
and after a streak of degenerate pivots it switches to Bland's rule,
which guarantees termination.  Optimal solutions are vertex (basic)
solutions of the canonical form; infeasible programs carry a Farkas
certificate in the duals; unbounded programs carry a certifying ray.

solve() takes one program.  solve_chunks() takes a family of many
programs that share relations, free variables and sense, given as one
layout program, and differ in their rows, objectives and right-hand
sides: the caller's fill writes each chunk's rows straight into buffers
of the call's workspace, next to its tableau, so no program object is
built per program and the chunks reuse one set of arrays.  The driver
pivots a chunk's running tableaux together by Dantzig's rule, one numpy
operation per step for all of them, and returns for each program, in
program order, exactly what solve() returns for it.  The rare rules (the
unbounded test, parked columns and Bland's rule) live only in the
single-tableau loop: a program that needs one leaves the lock step for
that loop, and so does the last one running.  solve() is a stack of one
program, which runs the single-tableau loop from the start.

Both run one two-phase driver, _solve_stack(), each call with a
workspace of its own: a LinearProgram holds no solver state, so solves
on one layout never share a buffer, nested or from two threads.

solve_chunks() takes a family label, which it hands to the driver with
each chunk: every library call site names its LP family there
("separation", "chain", "extreme", "virtual", "full_block" or
"vse_primal"), so a wrapper of _solve_stack can count solves, pivots and
time per family.  The label selects no code path.  solve() passes None,
as does solve_chunks() when no label is given.

A layout may carry a start (LinearProgram.start): a basis read off each
program's own data, so a program starts the same alone and in any stack.
The driver pivots it in over the artificials (_pivot_in) and then runs
phase 1 unchanged: where the start leaves no artificial basic above zero
phase 1 ends at its first pricing, and its transition still drops the
rows that the start left dependent.  Two library layouts carry one:
geometry.separation_layout (the "separation", "chain" and "virtual"
families) and duality._vse_blocks ("vse_primal").  Every other program,
solve() on a LinearProgram built without a start included, starts from
the artificial basis as before, with the same bits.  The starts changed
the bits of those four families' answers, and so the report fields read
off them: classify's margins and slacks, the virtual construction and
its verification, compress's surpluses, the full menu's verification,
the sweep margins, and the duality report's multipliers, measures and
diagnostics (p* to within 1e-14 relative); no verdict changed.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
# degenerate-pivot streak after which the pivot rule switches to Bland
BLAND_TRIGGER = 64
MAX_ITERATIONS = 200_000
# a start pivot is at least this share of the largest entry it could take
START_PIVOT_SHARE = 0.1

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (GE, EQ, LE)   # indexed by 1 + code; code = slack sign
OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


class MalformedProgram(ValueError):
    """Dimension mismatch, bad relation, or non-finite problem data."""


class LinearProgram:
    """A dense LP instance.

    constraints is a sequence of (row, relation, rhs) with relation one of
    "<=", "=", ">=".  free is one bool per variable, True where the
    variable is free; every other variable is nonnegative, and None (the
    default) makes them all so.

    Stored as arrays: rows, rhs, codes (the slack sign of each relation:
    +1 for "<=", 0 for "=", -1 for ">=") and the free mask.

    start is None, or a function that reads a start basis off the data
    of each program with this layout: start(rows, objectives, rhs), on
    stacked arrays (B, m, n), (B, n) and (B, m), returns a sequence of
    groups of variable indices, each an int array (B, g) or one row (g,)
    that every program shares.  The driver pivots them in before phase 1
    (see _pivot_in).  The basis they make must be primal feasible: every
    basic variable >= 0, and every artificial the start leaves basic at
    zero.
    """

    def __init__(self, objective, constraints, free=None, sense="min"):
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

        self.free = np.array([False] * n if free is None else free)
        if self.free.shape != (n,) or self.free.dtype != bool:
            raise MalformedProgram("free must be one bool per variable")

        if not (np.isfinite(self.objective).all()
                and np.isfinite(self.rows).all()
                and np.isfinite(self.rhs).all()):
            raise MalformedProgram("non-finite data")
        self.start = None

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.codes.size

    @cached_property
    def relations(self) -> list[str]:
        """One relation string per constraint."""
        return [_RELATIONS[1 + k] for k in self.codes.tolist()]


class LpSolution:
    """Solve outcome.

    primal/objective_value are set when optimal.  duals holds one
    multiplier per constraint: optimal duals for optimal programs
    (min sense: <= rows nonpositive, >= rows nonnegative; flipped for
    max), or the Farkas certificate for infeasible programs.  ray is a
    certifying direction for unbounded programs.  solve() and
    solve_chunks() return each vector C-contiguous.
    """

    def __init__(self, status: str, primal: np.ndarray | None = None,
                 duals: np.ndarray | None = None,
                 objective_value: float | None = None,
                 ray: np.ndarray | None = None, iterations: int = 0):
        self.status = status
        self.primal = primal
        self.duals = duals
        self.objective_value = objective_value
        self.ray = ray
        self.iterations = iterations


class CertificateReport:
    """Max residuals of a solution certificate; all ~0 for a clean pass."""

    def __init__(self, feasibility: float = 0.0,
                 dual_feasibility: float = 0.0,
                 complementary_slackness: float = 0.0,
                 duality_gap: float = 0.0, passed: bool = False,
                 notes: str = ""):
        self.feasibility = feasibility
        self.dual_feasibility = dual_feasibility
        self.complementary_slackness = complementary_slackness
        self.duality_gap = duality_gap
        self.passed = passed
        self.notes = notes

    def max_residual(self) -> float:
        return max(self.feasibility, self.dual_feasibility,
                   self.complementary_slackness, self.duality_gap)


# ---------------------------------------------------------------------------
# canonical form
#
# The solver works on   min c.x, A x = b, x >= 0, b >= 0.
# Original variables map to canonical columns: a nonnegative variable maps
# to one column, a free one splits into a difference of two ("split").

class _Columns:
    """What the canonical form takes from a program's relations and free
    variables alone, so the solves on one layout work it out once
    (_Workspace)."""

    def __init__(self, runs, first, split, second, n_struct, slack_rows,
                 slack_cols, n_real):
        self.runs = runs             # (start, stop, first column, split)
        self.first = first           # per variable: its (first) column
        self.split = split           # per variable: split into two columns
        self.second = second         # per split variable: its minus column
        self.n_struct = n_struct
        self.slack_rows = slack_rows
        self.slack_cols = slack_cols  # per row: slack column or -1
        self.n_real = n_real         # structural and slack columns


def _columns(lp: LinearProgram) -> _Columns:
    n, split = lp.n_vars, lp.free
    if np.count_nonzero(split):
        width = 1 + split
        first = np.cumsum(width) - width
        second = first[split] + 1
        cuts = (np.flatnonzero(split[1:] != split[:-1]) + 1).tolist()
    else:
        first, second, cuts = np.arange(n), np.arange(0), []
    # runs of variables that all split or all do not, as (start, stop,
    # first column, split): they are copied as slices
    runs = [(a, z, int(first[a]), bool(split[a]))
            for a, z in zip([0, *cuts], [*cuts, n])]
    n_struct = n + second.size

    slack_rows = lp.codes.nonzero()[0]
    n_real = n_struct + slack_rows.size
    slack_cols = np.full(lp.n_constraints, -1)
    slack_cols[slack_rows] = np.arange(n_struct, n_real)
    return _Columns(runs=runs, first=first, split=split, second=second,
                    n_struct=n_struct, slack_rows=slack_rows,
                    slack_cols=slack_cols, n_real=n_real)


class _Workspace:
    """The arrays that the solves of one call reuse: the layout's
    canonical column layout, worked out on first use, and float buffers
    (the tableau, the pivot scratch and the cost rows, and solve_chunks'
    rows, objectives and rhs), each grown to the largest stack asked for.
    A buffer's contents are whatever the last solve left, so every user
    writes what it reads.  Each call of solve and solve_chunks takes a
    fresh one, so the chunks of one family reuse the pages of the first
    and free them when the call ends."""

    def __init__(self):
        self.columns = None
        self._buffers = {}

    def take(self, name, shape):
        """A float array of this shape, on the named buffer."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


class _Canonical:
    def __init__(self, T, A, b, costs, flip, scale, columns, art_cols):
        self.T = T                   # work matrix: A | b, then a cost row
        self.A = A                   # view of T's constraint block
        self.b = b                   # right-hand sides, apart from T
        self.costs = costs           # phase-2 cost row: c, then zeros
        self.flip = flip             # +-1 per row: orientation vs given row
        self.scale = scale           # row equilibration factors
        self.columns = columns       # the layout's _Columns
        self.art_cols = art_cols     # per row: artificial column or -1

    @property
    def c(self):
        """The canonical objective, over the structural columns."""
        return self.costs[..., :self.columns.n_struct]


def _canonicalize(lp: LinearProgram, rows, objective, rhs, ws):
    """The canonical system of the stack of programs with lp's layout,
    written straight into the simplex work matrix T (see _Stack); A is a
    view of it, so A changes as T pivots.  T and the cost row are buffers
    of the workspace ws, which also keeps lp's column layout.

    rows (B, m, n), objective (B, n) and rhs (B, m) stack B programs that
    share lp's relations, free variables and sense; T, A, b, costs and
    scale carry the leading batch axis and every other field is shared.
    A stack whose programs need different row flips (a scaled rhs that
    underflows to -0.0 in some programs only, or rhs of different signs)
    has no shared layout: None.
    """
    if ws.columns is None:
        ws.columns = _columns(lp)
    cols = ws.columns
    batch = rows.shape[:-2]

    # row equilibration: unit inf-norm rows keep reduced-cost noise flat;
    # splitting a column changes no row's norm
    codes, m = lp.codes, lp.n_constraints
    norms = np.abs(rows).max(axis=-1)
    scale = np.where(norms > 0.0, norms, 1.0)
    b0 = rhs / scale

    # slack/surplus columns, then sign-fix rows so b >= 0, then
    # artificials wherever the row lacks a +1 identity column
    slack_rows, n_struct, n_real = cols.slack_rows, cols.n_struct, cols.n_real
    flip = np.ones(m)
    flipped = np.count_nonzero(b0 < 0.0)
    if flipped:
        flips = np.where(b0 < 0.0, -1.0, 1.0)
        flip = flips.reshape(-1, m)[0]
        if (flips != flip).any():
            return None
    art_rows = (codes * flip <= 0.0).nonzero()[0]
    art_cols = np.full(m, -1)
    art_cols[art_rows] = np.arange(n_real, n_real + art_rows.size)
    ncols = n_real + art_rows.size

    # the cost row (T's) is written by _Stack.run before it is read
    T = ws.take("T", batch + (m + 1, ncols + 1))
    A = T[..., :m, :-1]
    _spread(cols.runs, rows, scale[..., None], A)
    A[..., n_struct:] = 0.0
    A[..., slack_rows, cols.slack_cols[slack_rows]] = codes[slack_rows]
    if flipped:
        A[..., :n_real] *= flip[:, None]
        b0 = b0 * flip
    A[..., art_rows, art_cols[art_rows]] = 1.0
    T[..., :m, -1] = b0

    # c is the objective, negated for max; -x / 1 and x / -1 agree bit
    # for bit, and so do x / 1 and x
    costs = ws.take("costs", batch + (ncols + 1,))
    _spread(cols.runs, objective, 1.0 if lp.sense == "min" else -1.0,
            costs[..., :n_struct])
    costs[..., n_struct:] = 0.0

    return _Canonical(T=T, A=A, b=b0, costs=costs, flip=flip, scale=scale,
                      columns=cols, art_cols=art_cols)


def _spread(runs, R, div, out):
    """Write R / div into the structural columns of out: each variable's
    column, and a split variable's minus column as R / -div, which is
    -R / div bit for bit."""
    for a, z, col, twice in runs:
        if twice:
            np.divide(R[..., a:z], div, out=out[..., col:col + 2 * (z - a):2])
            np.divide(R[..., a:z], -div,
                      out=out[..., col + 1:col + 2 * (z - a):2])
        else:
            np.divide(R[..., a:z], div, out=out[..., col:col + z - a])
    return out


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
    cols = np.where(canon.art_cols >= 0, canon.art_cols,
                    canon.columns.slack_cols)
    return (costs[..., cols] - obj_row[..., cols]) * (canon.flip / canon.scale)


def _to_original(lp, canon, x_struct):
    cols = canon.columns
    x = x_struct[..., cols.first]
    if cols.second.size:
        x[..., cols.split] -= x_struct[..., cols.second]
    return x


def solve(lp: LinearProgram) -> LpSolution:
    """Classify and solve an LP; see LpSolution for certificate layout."""
    if not isinstance(lp, LinearProgram):
        raise MalformedProgram("expected a LinearProgram")
    return _solve_stack(lp, lp.rows[None], lp.objective[None], lp.rhs[None],
                        _Workspace(), None)[0]


def _pivot(T, basis, r, q):
    """Pivot the tableau T on (r, q)."""
    prow = T[r]
    prow /= prow[q]
    factors = T[:, q].copy()
    factors[r] = 0.0
    T -= factors[:, None] * prow        # the outer product, row by row
    basis[r] = q


def _pivot_stack(T, basis, r, q, work):
    """Pivot each tableau T[k] on (r[k], q[k]): _pivot's arithmetic for
    every k at once, down to the signs of zeros.  work is scratch of T's
    shape.

    The outer product is built by copying the pivot rows into work and
    scaling them there in place.  At the row lengths of the library's
    stacks (the sifted separators, about 160 columns at n = 101 and 1,200
    at 801, and the tables) numpy does that faster than the product of
    two broadcasts; at a few thousand it is slower.
    It takes prow * factor where _pivot takes factor * prow: the same
    bits, since IEEE multiplication is commutative down to the signs of
    zeros."""
    at = np.arange(T.shape[0])
    prow = T[at, r]
    prow /= prow[at, q][:, None]
    T[at, r] = prow
    factors = T[at, :, q]
    factors[at, r] = 0.0
    work[...] = prow[:, None, :]
    work *= factors[:, :, None]
    np.subtract(T, work, out=T)
    basis[at, r] = q


# columns of _Stack.info, and the codes of its status column
_ID, _ITERATIONS, _STATUS, _ENTERING, _STREAK = range(5)
_UNBOUNDED, _INFEASIBLE = 1, 2


class _Stack:
    """The work matrices of B programs with one layout.

    Slot k holds program info[k, _ID]; the rest of info[k] is that
    program's iteration count, its status (0 while it may be optimal,
    else _UNBOUNDED or _INFEASIBLE), its unbounded column and its streak
    of degenerate pivots in the current run.  run() works on the slots
    [0, live) and swaps each program that stops or leaves the lock step
    behind the ones still running, so the running slots stay a prefix of
    T and every lock-step pivot is one in-place update of it; _run_one
    finishes the programs that leave and the last running one alone.  A
    redundant row that phase 1 drops stays in T with kept False: it never
    enters the ratio test, the objective-row setup or the primal.
    """

    def __init__(self, T, basis, work):
        B, m = T.shape[0], T.shape[1] - 1
        self.T = T
        self.basis = np.repeat(basis[None], B, axis=0)
        self.kept = np.ones((B, m), dtype=bool)
        self.info = np.zeros((B, 5), dtype=int)
        self.info[:, _ID] = np.arange(B)
        self.moved = False      # slot k holds program k until a swap
        self.work = work        # scratch of T's shape

    def partition(self, first, extra=()):
        """Move the slots in [0, first.size) where first holds to the
        front by swapping each misplaced pair, and the rows of the
        per-slot arrays extra with them; returns how many hold."""
        n = int(np.count_nonzero(first))
        leave = (~first[:n]).nonzero()[0]
        if leave.size:
            self.moved = True
            enter = first[n:].nonzero()[0]
            enter += n
            dst = np.concatenate([leave, enter])
            src = np.concatenate([enter, leave])
            for a in (self.T, self.basis, self.kept, self.info, *extra):
                a[dst] = a[src]
        return n

    def pivot_slots(self, slots, r, q):
        """Pivot the slots listed in slots on (r[k], q[k])."""
        sub, basis = self.T[slots], self.basis[slots]
        _pivot_stack(sub, basis, r, q, self.work[:slots.size])
        self.T[slots], self.basis[slots] = sub, basis

    def run(self, costs, n_enter, live):
        """Minimize over the current canonical system of each of the slots
        [0, live) the costs of its program: costs is (B, ncols + 1) in
        program order, an objective row whose right-hand side is 0.0, and
        only the columns [0, n_enter) may enter the basis.  On return, per
        slot, info says whether it ended unbounded and on which column.

        While two or more slots run, each iteration takes one Dantzig step
        of _run_one for all of them at once: pricing over [0, n_enter),
        the ratio test and the pivot.  A slot that stops leaves the
        running prefix right after pricing.  A slot whose entering column
        has no positive entry gives the iteration back and one whose
        degenerate streak passes BLAND_TRIGGER takes its pivot; then
        _run_one finishes it alone, with the unbounded test, parked
        columns and Bland's rule, as it finishes the last running slot.
        Each program takes the same steps and gets the same bits as on
        its own."""
        T, basis, kept, info = self.T, self.basis, self.kept, self.info
        m, ncols = T.shape[1] - 1, T.shape[2] - 1
        costs = costs[info[:live, _ID]] if self.moved else costs[:live]
        at = np.arange(live)
        dropped = np.count_nonzero(kept[:live]) < live * m
        # the objective row: costs - coef_i T[i] for each kept row i in
        # order, coef_i the cost of its basic column (a unit column); the
        # other rows subtract +0.0, which changes no bit; the terms are
        # laid out in the pivot scratch, free until the first pivot
        coef = costs[at[:, None], basis[:live]]
        hit = (coef != 0.0) & kept[:live] if dropped else coef != 0.0
        terms = self.work[:live]
        terms[:, 0] = costs
        np.multiply(coef[:, :, None], T[:live, :m], out=terms[:, 1:])
        if np.count_nonzero(hit) < hit.size:
            terms[:, 1:][~hit] = 0.0
        np.subtract.reduce(terms, axis=1, out=T[:live, m])

        # minus the reduced-cost tolerance, -FEAS_TOL (1 + max |cost|)
        ntol = (1.0 + np.abs(costs).max(axis=1)) * -FEAS_TOL
        info[:live, _STATUS:] = 0
        if live > 1:
            # the lock-step guard counts from the slot with most iterations
            limit = MAX_ITERATIONS - int(info[:live, _ITERATIONS].max())
            scratch = np.empty((live, m))       # the ratio tests
        count = 0
        k = live
        while k > 1:
            count += 1
            if count > limit:
                raise RuntimeError("simplex iteration limit exceeded")
            info[:k, _ITERATIONS] += 1
            prices = T[:k, m, :n_enter]
            q = prices.argmin(axis=1)
            going = prices[at[:k], q] < ntol[:k]
            if np.count_nonzero(going) < k:
                k = self.partition(going, (q, ntol))
                q = q[:k]
                if k == 0:
                    break

            col = T[at[:k], :m, q]
            pos = col > PIVOT_TOL
            if dropped:
                pos &= kept[:k]
            ratios = scratch[:k]
            ratios.fill(np.inf)
            np.divide(T[:k, :m, -1], col, out=ratios, where=pos)
            if m:
                # a zero best may differ in sign from the entry argmin
                # picks, which moves neither near nor the flags below
                best = ratios.min(axis=1)
                near = ratios <= (best + 1e-12 * (1.0 + np.abs(best)))[:, None]
                r = np.where(near, basis[:k], ncols).argmin(axis=1)
            else:       # no row: every slot is blocked, and r is never read
                best, r = np.full(k, np.inf), q
            degenerate = best <= 1e-12
            blocked = best == np.inf
            if np.count_nonzero(blocked):
                # _run_one prices the step again, then stops unbounded or
                # parks the column
                info[:k][blocked, _ITERATIONS] -= 1
                k = self.finish_alone(blocked, n_enter, ntol,
                                      (q, r, degenerate))
            if k:
                streak = info[:k, _STREAK]
                streak += 1
                streak *= degenerate[:k]
                _pivot_stack(T[:k], basis[:k], r[:k], q[:k], self.work[:k])
                # a streak is at most count long
                if count > BLAND_TRIGGER and streak.max() > BLAND_TRIGGER:
                    k = self.finish_alone(streak > BLAND_TRIGGER, n_enter,
                                          ntol)
        if k == 1:
            self._run_one(0, n_enter, float(ntol[0]))

    def finish_alone(self, leaving, n_enter, ntol, extra=()):
        """Finish each running slot where leaving holds in _run_one, then
        move the others to the front as partition does, with ntol and the
        per-slot arrays extra; returns how many run on."""
        for slot in leaving.nonzero()[0].tolist():
            self._run_one(slot, n_enter, float(ntol[slot]))
        return self.partition(~leaving, (ntol, *extra))

    def _run_one(self, slot, n_enter, ntol):
        """run() on this slot alone, whose objective row is set up; ntol
        is minus its reduced-cost tolerance, and info[slot] holds its
        iterations and its streak of degenerate pivots so far.

        Entering column: the most negative reduced cost among the columns
        [0, n_enter) not parked, lowest index first; once the streak
        passes BLAND_TRIGGER, the lowest improving index (Bland) for the
        rest of the run.  Leaving row: the lowest basic column among the
        kept rows that tie in the ratio test.  A column without a
        positive entry is unbounded when its reduced cost clearly
        improves; otherwise it is parked (near noise) and may not enter
        until the next pivot."""
        T, basis, kept = self.T[slot], self.basis[slot], self.kept[slot]
        m = T.shape[0] - 1
        red = T[m, :-1]
        rhs = T[:m, -1]
        dropped = np.count_nonzero(kept) < m
        iterations = int(self.info[slot, _ITERATIONS])
        streak = int(self.info[slot, _STREAK])
        bland = streak > BLAND_TRIGGER
        eligible = None     # the columns that may enter, once one parks
        ratios = np.empty(m)
        while True:
            iterations += 1
            if iterations > MAX_ITERATIONS:
                raise RuntimeError("simplex iteration limit exceeded")
            prices = (red[:n_enter] if eligible is None
                      else np.where(eligible, red, np.inf))
            if bland:
                improving = prices < ntol
                q = int(improving.argmax())
                if not improving[q]:
                    break
            else:
                q = int(prices.argmin())
                if not prices[q] < ntol:
                    break

            col = T[:m, q]
            pos = col > PIVOT_TOL
            if dropped:
                pos &= kept
            ratios.fill(np.inf)
            np.divide(rhs, col, out=ratios, where=pos)
            best = float(ratios[ratios.argmin()]) if m else np.inf
            if best == np.inf:
                if red[q] < 1e4 * ntol:
                    self.info[slot, _STATUS] = _UNBOUNDED
                    self.info[slot, _ENTERING] = q
                    break
                if eligible is None:
                    eligible = np.arange(red.size) < n_enter
                eligible[q] = False
                continue
            eligible = None
            near = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
            r = int(near[0] if near.size == 1 else near[basis[near].argmin()])

            if best <= 1e-12:
                streak += 1
                if streak > BLAND_TRIGGER:
                    bland = True
            else:
                streak = 0
            _pivot(T, basis, r, q)
        self.info[slot, _ITERATIONS] = iterations


def solve_chunks(layout: LinearProgram, count: int, chunk: int, fill, *,
                 family=None):
    """Solve count programs on layout, chunk programs per driver call,
    and yield their LpSolutions in program order.

    fill(lo, hi, rows, objectives, rhs) writes programs lo to hi - 1 into
    arrays of shapes (hi - lo, m, n), (hi - lo, n) and (hi - lo, m): all
    their rows, and their objectives and rhs where they are not layout's,
    which the arrays hold when fill is called.  The arrays are buffers of
    the call's own workspace, reused by every chunk of the call; no
    answer is a view of them, and a fill may run other solves on layout.
    A chunk is filled once every answer of the one before it is taken, so
    a caller may keep per-chunk state.  family labels the programs for
    the driver (see _solve_stack).  Raises ValueError, before any fill,
    unless count >= 0 and chunk >= 1.
    """
    if count < 0 or chunk < 1:
        raise ValueError(f"cannot solve {count} programs {chunk} at a time")
    m, n = layout.n_constraints, layout.n_vars
    ws = _Workspace()
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        rows = ws.take("rows", (hi - lo, m, n))
        objectives = ws.take("objectives", (hi - lo, n))
        rhs = ws.take("rhs", (hi - lo, m))
        objectives[:] = layout.objective
        rhs[:] = layout.rhs
        fill(lo, hi, rows, objectives, rhs)
        yield from _solve_stack(layout, rows, objectives, rhs, ws, family)


def _solve_stack(layout, rows, objectives, rhs, ws, family):
    """The two-phase simplex on a nonempty stack of B programs in the
    workspace ws: program k has layout's relations, free variables and
    sense, and the rows rows[k], objective objectives[k] and rhs rhs[k]
    of the arrays (B, m, n), (B, n) and (B, m); layout's own rows,
    objective and rhs are not read.  Returns one LpSolution per program,
    bit for bit the one solve() returns for it.  solve and solve_chunks
    call it by its module name, once per stack, with the family label of
    their caller (None from solve).  The label is for a spy or a tracer
    that wraps this entry: nothing here reads it."""
    return _two_phase(layout, rows, objectives, rhs, ws)


def _pivot_in(stack, groups, first, costs, n_real):
    """Pivot each program's start columns into the basis of its slot, in
    place of artificials: groups is what layout.start returns, first
    maps a variable to its column and costs holds each program's
    phase-2 cost row.  Each pivot counts as an iteration.

    Group by group, the open rows are those whose basic column is still
    an artificial.  A group whose columns each have one nonzero entry, in
    distinct open rows and above PIVOT_TOL, enters at once: its pivots
    only divide those rows.  Any other group enters one column at a
    time, by threshold pivoting: take the largest |entry| of the group's
    columns in the open rows and stop if it is at most PIVOT_TOL; else,
    of the columns whose largest |entry| in an open row is at least
    START_PIVOT_SHARE of it, pivot on the one of least cost (the first
    in the group on ties), in the lowest open row where it is largest.
    So a cheap column is preferred, never for a pivot much smaller than
    the best one, and the rows that a group leaves dependent keep their
    artificials.  A column once entered is zero in every other row, so it
    is not taken again.  A group that every program shares is read into
    the pivot scratch; a group of each program's own should be small."""
    T, basis, info = stack.T, stack.basis, stack.info
    B, m = basis.shape
    slot = np.arange(B)
    entered = np.count_nonzero(basis < n_real, axis=1)
    # the cost row is set up by run(): zero, it stays zero as these
    # pivots run, and it is never open
    T[:, m] = 0.0
    open_rows = np.zeros((B, m + 1))
    open_rows[:, :m] = basis >= n_real
    for group in groups:
        q = first[group]
        g = q.shape[-1]
        # read() gives T[k, i, q[k, j]] at [k, i, j]
        if q.ndim == 1:
            cost = costs[:, q]
            scratch = stack.work.reshape(-1)[:B * (m + 1) * g]
            read = partial(np.take, T, q, axis=2, mode="clip",
                           out=scratch.reshape(B, m + 1, g))
        else:
            cost = np.take_along_axis(costs, q, axis=1)
            read = partial(np.take_along_axis, T, q[:, None], axis=2)
        cols = np.broadcast_to(q, (B, g))
        if g <= m:
            entries = read()
            ok = (np.count_nonzero(entries, axis=1) == 1).all(axis=1)
            if ok.any():
                # singleton columns, above PIVOT_TOL in open rows of
                # their own
                where = np.abs(entries).argmax(axis=1)
                piv = entries[slot[:, None], where, np.arange(g)]
                rows = np.sort(where, axis=1)
                ok &= ((np.abs(piv) > PIVOT_TOL)
                       & (open_rows[slot[:, None], where] > 0.0)).all(axis=1)
                ok &= (rows[:, 1:] > rows[:, :-1]).all(axis=1)
                k = ok.nonzero()[0][:, None]
                # only the pivot rows change: the other rows of a
                # singleton column hold zero in it
                T[k, where[ok]] /= piv[ok][:, :, None]
                basis[k, where[ok]] = cols[ok]
                open_rows[k, where[ok]] = 0.0
                if ok.all():
                    continue
        most_open = int(np.count_nonzero(open_rows, axis=1).max())
        for _ in range(min(g, most_open)):
            size = read()
            np.abs(size, out=size)
            size *= open_rows[:, :, None]
            tall = size.max(axis=1)
            top = tall.max(axis=1)
            j = np.where(tall >= START_PIVOT_SHARE * top[:, None], cost,
                         np.inf).argmin(axis=1)
            r = size[slot, :, j].argmax(axis=1)
            go = top > PIVOT_TOL
            if go.all():
                moved = slot
                _pivot_stack(T, basis, r, cols[slot, j], stack.work)
            elif go.any():
                moved, r, j = slot[go], r[go], j[go]
                stack.pivot_slots(moved, r, cols[moved, j])
            else:
                break
            open_rows[moved, r] = 0.0
    info[:, _ITERATIONS] += np.count_nonzero(basis < n_real, axis=1) - entered


def _two_phase(layout, rows, objectives, rhs, ws):
    """_solve_stack's work; the row-flip fallback calls it again once per
    program, past any wrapper of _solve_stack.  No answer is a view of
    ws."""
    if not (np.isfinite(rows).all() and np.isfinite(objectives).all()
            and np.isfinite(rhs).all()):
        raise MalformedProgram("non-finite data")
    canon = _canonicalize(layout, rows, objectives, rhs, ws)
    if canon is None:
        # no shared row flips: each program alone, and a stack of one
        # always has a shared layout
        return [sol for k in range(len(rows))
                for sol in _two_phase(layout, rows[k:k + 1],
                                      objectives[k:k + 1], rhs[k:k + 1], ws)]
    B, m, ncols = canon.A.shape
    has_art = canon.art_cols >= 0
    # the artificial columns come last: [n_real, ncols)
    n_real = ncols - np.count_nonzero(has_art)
    stack = _Stack(canon.T,
                   np.where(has_art, canon.art_cols,
                            canon.columns.slack_cols),
                   ws.take("work", canon.T.shape))
    costs2 = canon.costs
    live = B
    if n_real < ncols:
        if layout.start is not None:
            _pivot_in(stack, layout.start(rows, objectives, rhs),
                      canon.columns.first, canon.costs, n_real)
        # Phase 1: drive artificials to zero; from a start that leaves no
        # artificial basic above zero it stops at its first pricing.
        costs1 = ws.take("costs1", costs2.shape)
        costs1.fill(0.0)
        costs1[:, n_real:-1] = 1.0
        stack.run(costs1, ncols, B)
        info = stack.info
        if np.count_nonzero(info[:, _STATUS]):  # pragma: no cover - bounded
            raise RuntimeError("phase 1 cannot be unbounded")
        limit = FEAS_TOL * (1.0 + np.abs(canon.b).sum(axis=1))
        infeasible = -stack.T[:, m, -1] > limit[info[:, _ID]]
        if np.count_nonzero(infeasible):
            info[infeasible, _STATUS] = _INFEASIBLE
            live = stack.partition(~infeasible)
        # pivot leftover artificials out of the basis; drop redundant rows
        arts = stack.basis[:live] >= n_real
        T = stack.T
        for i in arts.any(axis=0).nonzero()[0]:
            slots = arts[:, i].nonzero()[0]
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
    # numpy reduces them the same way whatever the stack or the memory
    # layout of the caller's arrays
    at = np.argsort(stack.info[:, _ID]) if stack.moved else slice(None)
    T, info = stack.T, stack.info[at]
    basic = np.where(stack.kept, stack.basis, ncols)[at]
    program = np.arange(B)[:, None]

    if live:    # else every program is infeasible: no optimal side
        x_struct = np.zeros((B, ncols + 1))
        x_struct[program, basic] = T[at, :m, -1]
        x = np.ascontiguousarray(
            _to_original(layout, canon, x_struct[:, :ncols]))
        # Every row, dropped redundant ones included, reads its multiplier
        # off its own identity column: a dropped row's basic artificial
        # may belong to another constraint, and it stays basic at cost 0
        # in phase 2.
        y = np.ascontiguousarray(_extract_duals(canon, T[at, m], costs2))
        if layout.sense == "max":
            y = -y
    if live < B:
        farkas = np.ascontiguousarray(
            _extract_duals(canon, T[at, m], costs1))
    if np.count_nonzero(info[:, _STATUS] == _UNBOUNDED):
        slot = np.arange(B)[at]
        entering = info[:, _ENTERING]
        ray_struct = np.zeros((B, ncols + 1))
        ray_struct[np.arange(B), entering] = 1.0
        ray_struct[program, basic] = -T[slot, :m, entering]
        rays = np.ascontiguousarray(
            _to_original(layout, canon, ray_struct[:, :ncols]))

    out = []
    for k, (code, iterations) in enumerate(
            info[:, [_STATUS, _ITERATIONS]].tolist()):
        if code == _INFEASIBLE:
            out.append(LpSolution(status=INFEASIBLE, duals=farkas[k],
                                  iterations=iterations))
        elif code == _UNBOUNDED:
            out.append(LpSolution(status=UNBOUNDED, primal=x[k],
                                  ray=rays[k], iterations=iterations))
        else:
            out.append(LpSolution(
                status=OPTIMAL, primal=x[k], duals=y[k],
                objective_value=float(
                    np.ascontiguousarray(objectives[k]) @ x[k]),
                iterations=iterations))
    return out


# ---------------------------------------------------------------------------
# certificates

def _row_violation(lp, gap):
    """Per-row violation of gap = row.x - rhs under the row's relation."""
    return np.where(lp.codes == 0, np.abs(gap), lp.codes * gap)


def _primal_residual(lp, x):
    return float(max(
        np.max(_row_violation(lp, lp.rows @ x - lp.rhs), initial=0.0),
        np.max(-x[~lp.free], initial=0.0)))


def check_certificate(lp: LinearProgram, sol: LpSolution) -> CertificateReport:
    """Residual report: feasibility, dual signs, slackness, duality gap.

    Row multipliers are signed as LpSolution says; the rules below hold
    per variable, which is x >= 0 or free.  An optimal solution's reduced
    costs (the objective minus rows.T @ duals, in min sense) must be >= 0
    on nonnegative variables, and 0 on free ones and wherever x > 0.  An
    infeasible program's Farkas aggregate rows.T @ duals must be <= 0 on
    nonnegative variables and 0 on free ones, with duals . rhs > 0.  An
    unbounded program's ray must keep every row, be >= 0 on nonnegative
    variables and improve the objective.  Passes iff every residual is
    within FEAS_TOL * (1 + scale).
    """
    rep = CertificateReport()
    scale = 1.0 + float(np.max(np.abs(lp.rhs))) if lp.n_constraints else 1.0
    free, nonneg = lp.free, ~lp.free

    if sol.status == OPTIMAL:
        x, y = sol.primal, sol.duals
        # signs vs the min-sense convention (max flips them): <= rows
        # nonpositive, >= rows nonnegative
        sign = 1.0 if lp.sense == "min" else -1.0
        yc = sign * y
        rep.feasibility = _primal_residual(lp, x)
        obj = lp.objective if lp.sense == "min" else -lp.objective
        r = obj - lp.rows.T @ yc
        rep.dual_feasibility = float(max(
            np.max(lp.codes * yc, initial=0.0),
            np.max(-r[nonneg], initial=0.0),
            np.max(np.abs(r[free]), initial=0.0)))
        active = nonneg & (x > FEAS_TOL)
        rep.complementary_slackness = float(max(
            np.max(np.abs(yc * (lp.rows @ x - lp.rhs)), initial=0.0),
            np.max(np.abs(r[active] * x[active]), initial=0.0)))
        primal_obj = float(obj @ x)
        rep.duality_gap = abs(primal_obj - float(yc @ lp.rhs))
        limit = FEAS_TOL * (scale + abs(primal_obj)
                            + float(np.max(np.abs(x), initial=0.0)))
        rep.passed = rep.max_residual() <= max(limit, FEAS_TOL)
        return rep

    if sol.status == INFEASIBLE:
        y = sol.duals
        # Farkas certificates are sense-free: <= rows nonpositive, >= rows
        # nonnegative, so w.x >= y.rhs for every x that keeps the rows,
        # w = rows.T @ y; w <= 0 on nonnegative variables and w = 0 on
        # free ones put the sup of w.x at 0, short of y.rhs
        w = lp.rows.T @ y
        rep.dual_feasibility = float(np.max(lp.codes * y, initial=0.0))
        rep.feasibility = float(max(np.max(w[nonneg], initial=0.0),
                                    np.max(np.abs(w[free]), initial=0.0)))
        gap = float(y @ lp.rhs)
        rep.duality_gap = max(0.0, FEAS_TOL * scale - gap)
        rep.notes = f"farkas margin {gap:.3e}"
        rep.passed = (rep.feasibility <= FEAS_TOL * scale
                      and rep.dual_feasibility <= FEAS_TOL * scale
                      and gap > FEAS_TOL * scale)
        return rep

    if sol.status == UNBOUNDED:
        d = sol.ray
        res = max(np.max(_row_violation(lp, lp.rows @ d), initial=0.0),
                  np.max(-d[nonneg], initial=0.0))
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
