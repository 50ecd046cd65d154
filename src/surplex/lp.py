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
    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
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


def _canonicalize(lp: LinearProgram) -> _Canonical:
    """Rows: the constraints, then the bound rows, for each variable its
    lower-bound row (lo finite and nonzero) before its upper-bound row."""
    n = lp.n_vars
    split = lp.lo < 0.0
    width = 1 + split
    first = np.cumsum(width) - width
    second = first[split] + 1
    n_struct = int(width.sum())

    def expand(R):
        out = np.zeros((R.shape[0], n_struct))
        out[:, first] = R
        out[:, second] = -R[:, split]
        return out

    has_bound = np.column_stack([np.isfinite(lp.lo) & (lp.lo != 0.0),
                                 np.isfinite(lp.up)]).ravel()
    k = np.flatnonzero(has_bound)
    bound_var, bound_up = k // 2, k % 2 == 1
    unit = np.zeros((k.size, n))
    unit[np.arange(k.size), bound_var] = 1.0
    codes = np.concatenate([lp.codes, np.where(bound_up, 1, -1)])
    A0 = expand(np.vstack([lp.rows, unit]))
    b0 = np.concatenate([lp.rhs, np.column_stack([lp.lo, lp.up]).ravel()[k]])

    # row equilibration: unit inf-norm rows keep reduced-cost noise flat
    norms = np.abs(A0).max(axis=1)
    scale = np.where(norms > 0.0, norms, 1.0)
    A0 = A0 / scale[:, None]
    b0 = b0 / scale

    # slack/surplus columns, then sign-fix rows so b >= 0, then
    # artificials wherever the row lacks a +1 identity column
    m = codes.size
    slack_rows = np.flatnonzero(codes)
    slack_cols = np.full(m, -1)
    slack_cols[slack_rows] = n_struct + np.arange(slack_rows.size)
    flip = np.where(b0 < 0.0, -1.0, 1.0)
    art_rows = np.flatnonzero(codes * flip <= 0.0)
    art_cols = np.full(m, -1)
    n_real = n_struct + slack_rows.size
    art_cols[art_rows] = n_real + np.arange(art_rows.size)

    A = np.zeros((m, n_real + art_rows.size))
    A[:, :n_struct] = A0
    A[slack_rows, slack_cols[slack_rows]] = codes[slack_rows]
    A[:, :n_real] *= flip[:, None]
    A[art_rows, art_cols[art_rows]] = 1.0

    obj = lp.objective if lp.sense == "min" else -lp.objective
    c_canon = expand(obj[None, :])[0]

    return _Canonical(c=c_canon, A=A, b=b0 * flip, flip=flip, scale=scale,
                      bound_var=bound_var, bound_up=bound_up, first=first,
                      split=split, second=second,
                      n_struct=n_struct, slack_cols=slack_cols,
                      art_cols=art_cols)


# ---------------------------------------------------------------------------
# simplex core

class _Tableau:
    """Work matrix T: the m constraint rows, then the objective row; the
    last column holds the right-hand sides (the negated objective value
    in the objective row).  basis[i] is row i's basic column."""

    def __init__(self, A, b, basis):
        m, ncols = A.shape
        self.T = np.zeros((m + 1, ncols + 1))
        self.T[:m, :-1] = A
        self.T[:m, -1] = b
        self.basis = basis
        self.iterations = 0

    def pivot(self, r, q):
        T = self.T
        T[r] /= T[r, q]
        factors = T[:, q].copy()
        factors[r] = 0.0
        T -= factors[:, None] * T[r]        # the outer product, row by row
        self.basis[r] = q

    def run(self, costs, allowed):
        """Minimize costs over the current canonical system.

        Returns ("optimal", obj_row) or ("unbounded", entering_col).
        obj_row is the final reduced-cost row (with the negated objective
        value in the rhs slot).
        """
        T, basis = self.T, self.basis
        m = T.shape[0] - 1
        obj = T[m]
        obj[:-1] = costs
        obj[-1] = 0.0
        for i, bv in enumerate(basis):
            if obj[bv] != 0.0:
                obj -= obj[bv] * T[i]
        red = obj[:-1]
        rhs = T[:m, -1]

        cscale = 1.0 + float(np.max(np.abs(costs))) if costs.size else 1.0
        red_tol = FEAS_TOL * cscale
        bland = False
        degenerate_streak = 0

        # columns may enter when allowed and not parked; a parked column
        # (near-noise reduced cost, no positive entry) waits for a pivot
        eligible = allowed.copy()
        parked = False
        ratios = np.empty(m)
        while True:
            self.iterations += 1
            if self.iterations > MAX_ITERATIONS:
                raise RuntimeError("simplex iteration limit exceeded")
            if bland:
                improving = eligible & (red < -red_tol)
                q = int(improving.argmax())
                if not improving[q]:
                    return "optimal", obj
            else:
                masked = np.where(eligible, red, np.inf)
                q = int(masked.argmin())
                if not masked[q] < -red_tol:
                    return "optimal", obj

            col = T[:m, q]
            ratios.fill(np.inf)
            np.divide(rhs, col, out=ratios, where=col > PIVOT_TOL)
            best = float(ratios.min(initial=np.inf))
            if best == np.inf:
                # no positive entry: trust an unbounded verdict only on a
                # clearly improving column; near-noise reduced costs are
                # parked instead
                if red[q] < -1e4 * red_tol:
                    return "unbounded", q
                eligible[q] = False
                parked = True
                continue
            if parked:
                eligible = allowed.copy()
                parked = False
            near = (ratios <= best + 1e-12 * (1.0 + abs(best))).nonzero()[0]
            # Bland-style tie break: lowest basis variable index leaves
            r = int(near[0] if near.size == 1 else near[basis[near].argmin()])

            if best <= 1e-12:
                degenerate_streak += 1
                if degenerate_streak > BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_streak = 0
            self.pivot(r, q)


def _extract_duals(canon, obj_row, costs):
    """Per-canonical-row multipliers y = cost(id column) - reduced cost."""
    cols = np.where(canon.art_cols >= 0, canon.art_cols, canon.slack_cols)
    return (costs[cols] - obj_row[cols]) * (canon.flip / canon.scale)


def _split_duals(lp, canon, y):
    """Split assembled-row multipliers into constraint and bound parts."""
    y_bound = y[lp.n_constraints:]
    y_lo = np.zeros(lp.n_vars)
    y_up = np.zeros(lp.n_vars)
    y_lo[canon.bound_var[~canon.bound_up]] = y_bound[~canon.bound_up]
    y_up[canon.bound_var[canon.bound_up]] = y_bound[canon.bound_up]
    return y[:lp.n_constraints], y_lo, y_up


def _to_original(lp, canon, x_struct):
    x = x_struct[canon.first]
    x[canon.split] -= x_struct[canon.second]
    return x


def solve(lp: LinearProgram) -> LpSolution:
    """Classify and solve an LP; see LpSolution for certificate layout."""
    if not isinstance(lp, LinearProgram):
        raise MalformedProgram("expected a LinearProgram")
    canon = _canonicalize(lp)
    m, ncols = canon.A.shape
    has_art = canon.art_cols >= 0
    n_real = ncols - np.count_nonzero(has_art)
    tab = _Tableau(canon.A, canon.b,
                   np.where(has_art, canon.art_cols, canon.slack_cols))

    # Phase 1: drive artificials to zero.
    is_art = np.zeros(ncols, dtype=bool)
    is_art[canon.art_cols[has_art]] = True
    costs1 = is_art.astype(float)
    allowed = ~is_art
    if is_art.any():
        status, obj_row = tab.run(costs1, np.ones(ncols, dtype=bool))
        if status != "optimal":  # pragma: no cover - phase 1 is bounded below
            raise RuntimeError("phase 1 cannot be unbounded")
        phase1_value = -obj_row[-1]
        if phase1_value > FEAS_TOL * (1.0 + float(np.abs(canon.b).sum())):
            y = _extract_duals(canon, obj_row, costs1)
            y_con, y_lo, y_up = _split_duals(lp, canon, y)
            return LpSolution(status=INFEASIBLE, duals=y_con,
                              bound_duals=(y_lo, y_up),
                              iterations=tab.iterations)
        # pivot leftover artificials out of the basis; drop redundant rows
        keep = np.ones(m + 1, dtype=bool)
        for i in np.flatnonzero(is_art[tab.basis]):
            row = tab.T[i, :n_real]
            j = int(np.argmax(np.abs(row)))
            if abs(row[j]) > PIVOT_TOL:
                tab.pivot(i, j)
            else:
                keep[i] = False
        if not keep.all():
            tab.T = tab.T[keep]
            tab.basis = tab.basis[keep[:m]]

    # Phase 2
    costs2 = np.zeros(ncols)
    costs2[:canon.n_struct] = canon.c
    status, result = tab.run(costs2, allowed)
    basic = tab.T[:-1]
    x_struct = np.zeros(ncols)
    x_struct[tab.basis] = basic[:, -1]
    x = _to_original(lp, canon, x_struct)
    if status == "unbounded":
        q = result
        ray_struct = np.zeros(ncols)
        ray_struct[q] = 1.0
        ray_struct[tab.basis] = -basic[:, q]
        return LpSolution(status=UNBOUNDED, primal=x,
                          ray=_to_original(lp, canon, ray_struct),
                          iterations=tab.iterations)

    # Every row, dropped redundant ones included, reads its multiplier off
    # its own identity column: a dropped row's basic artificial may belong
    # to another constraint, and it stays basic at cost 0 in phase 2.
    y_con, y_lo, y_up = _split_duals(lp, canon,
                                     _extract_duals(canon, result, costs2))
    if lp.sense == "max":
        y_con, y_lo, y_up = -y_con, -y_lo, -y_up
    return LpSolution(status=OPTIMAL, primal=x, duals=y_con,
                      objective_value=float(lp.objective @ x),
                      bound_duals=(y_lo, y_up), iterations=tab.iterations)


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
