"""Dense linear programming: two-phase simplex, duals, and certificates.

Solves small and medium LPs of the form

    min/max  objective . x
    s.t.     row . x  (<= | = | >=)  rhs     for each constraint
             lower_j <= x_j <= upper_j       for each variable

All data is dense numpy.  The solver is deterministic: the entering
variable is the most negative reduced cost with lowest-index tie break,
and after a streak of degenerate pivots it switches to Bland's rule,
which guarantees termination.  Optimal solutions are vertex (basic)
solutions of the canonical form; infeasible programs carry a Farkas
certificate in the duals; unbounded programs carry a certifying ray.
"""

from __future__ import annotations

from dataclasses import dataclass


import numpy as np

FEAS_TOL = 1e-9
PIVOT_TOL = 1e-10
# degenerate-pivot streak after which the pivot rule switches to Bland
BLAND_TRIGGER = 64
MAX_ITERATIONS = 200_000

LE, EQ, GE = "<=", "=", ">="
OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"


class MalformedProgram(ValueError):
    """Dimension mismatch, bad relation, or non-finite problem data."""


def _tol(value: float) -> float:
    """Absolute-plus-relative comparison scale: tol * (1 + |value|)."""
    return FEAS_TOL * (1.0 + abs(value))


class LinearProgram:
    """A dense LP instance.

    constraints is a sequence of (row, relation, rhs) with relation one of
    "<=", "=", ">=".  bounds is one (lower, upper) pair per variable; None
    means unbounded on that side.  Default bounds are (0, None).
    """

    def __init__(self, objective, constraints, bounds=None, sense="min"):
        self.objective = np.asarray(objective, dtype=float)
        if self.objective.ndim != 1 or self.objective.size == 0:
            raise MalformedProgram("objective must be a nonempty vector")
        n = self.objective.size
        if sense not in ("min", "max"):
            raise MalformedProgram(f"unknown sense {sense!r}")
        self.sense = sense

        rows, rels, rhs = [], [], []
        for row, rel, b in constraints:
            row = np.asarray(row, dtype=float)
            if row.shape != (n,):
                raise MalformedProgram(
                    f"constraint row has shape {row.shape}, expected ({n},)")
            if rel not in (LE, EQ, GE):
                raise MalformedProgram(f"unknown relation {rel!r}")
            rows.append(row)
            rels.append(rel)
            rhs.append(float(b))
        self.rows = np.array(rows, dtype=float) if rows else np.zeros((0, n))
        self.relations = rels
        self.rhs = np.asarray(rhs, dtype=float)

        if bounds is None:
            bounds = [(0.0, None)] * n
        if len(bounds) != n:
            raise MalformedProgram("one (lower, upper) pair per variable")
        self.bounds = []
        for lo, up in bounds:
            lo = None if lo is None else float(lo)
            up = None if up is None else float(up)
            if lo is not None and not np.isfinite(lo):
                raise MalformedProgram("bounds must be finite or None")
            if up is not None and not np.isfinite(up):
                raise MalformedProgram("bounds must be finite or None")
            if lo is not None and up is not None and lo > up:
                raise MalformedProgram(f"empty bound interval ({lo}, {up})")
            self.bounds.append((lo, up))

        if not (np.isfinite(self.objective).all()
                and np.isfinite(self.rows).all()
                and np.isfinite(self.rhs).all()):
            raise MalformedProgram("non-finite data")

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return len(self.relations)


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
    row_source: list[tuple]          # ("con", k) | ("lo", j) | ("up", j)
    row_rel: list[str]               # relation of the assembled row
    first: np.ndarray                # per variable: its (first) column
    split: np.ndarray                # per variable: split into two columns
    second: np.ndarray               # per split variable: its minus column
    n_struct: int
    slack_cols: np.ndarray           # per row: slack column or -1
    art_cols: np.ndarray             # per row: artificial column or -1


def _canonicalize(lp: LinearProgram) -> _Canonical:
    n = lp.n_vars
    split = np.array([lo is None or lo < 0.0 for lo, _ in lp.bounds],
                     dtype=bool)
    width = 1 + split.astype(int)
    first = np.cumsum(width) - width
    second = first[split] + 1
    n_struct = int(width.sum())

    def expand(R):
        out = np.zeros((R.shape[0], n_struct))
        out[:, first] = R
        out[:, second] = -R[:, split]
        return out

    rels = list(lp.relations)
    rhs = list(lp.rhs)
    source = [("con", k) for k in range(lp.n_constraints)]
    bound_vars = []
    for j, (lo, up) in enumerate(lp.bounds):
        if lo is not None and lo != 0.0:
            bound_vars.append(j)
            rels.append(GE)
            rhs.append(lo)
            source.append(("lo", j))
        if up is not None:
            bound_vars.append(j)
            rels.append(LE)
            rhs.append(up)
            source.append(("up", j))
    unit = np.zeros((len(bound_vars), n))
    unit[np.arange(len(bound_vars)), bound_vars] = 1.0

    m = len(rels)
    A0 = expand(np.vstack([lp.rows, unit]))
    b0 = np.array(rhs, dtype=float)

    # row equilibration: unit inf-norm rows keep reduced-cost noise flat
    scale = np.ones(m)
    if m:
        norms = np.abs(A0).max(axis=1)
        scale = np.where(norms > 0.0, norms, 1.0)
        A0 = A0 / scale[:, None]
        b0 = b0 / scale

    # slack/surplus columns, then sign-fix rows so b >= 0
    n_slack = sum(1 for r in rels if r != EQ)
    A = np.zeros((m, n_struct + n_slack))
    A[:, :n_struct] = A0
    slack_cols = np.full(m, -1, dtype=int)
    col = n_struct
    for i, r in enumerate(rels):
        if r == LE:
            A[i, col] = 1.0
            slack_cols[i] = col
            col += 1
        elif r == GE:
            A[i, col] = -1.0
            slack_cols[i] = col
            col += 1
    flip = np.ones(m)
    for i in range(m):
        if b0[i] < 0.0:
            A[i] *= -1.0
            b0[i] *= -1.0
            flip[i] = -1.0

    # artificials wherever the row lacks a +1 identity column
    needs_art = [i for i in range(m)
                 if slack_cols[i] < 0 or A[i, slack_cols[i]] < 0.0]
    art_cols = np.full(m, -1, dtype=int)
    A_full = np.zeros((m, A.shape[1] + len(needs_art)))
    A_full[:, :A.shape[1]] = A
    for idx, i in enumerate(needs_art):
        c = A.shape[1] + idx
        A_full[i, c] = 1.0
        art_cols[i] = c

    obj = lp.objective if lp.sense == "min" else -lp.objective
    c_canon = expand(obj[None, :])[0]

    return _Canonical(c=c_canon, A=A_full, b=b0, flip=flip, scale=scale,
                      row_source=source, row_rel=rels, first=first,
                      split=split, second=second,
                      n_struct=n_struct, slack_cols=slack_cols,
                      art_cols=art_cols)


# ---------------------------------------------------------------------------
# simplex core

class _Tableau:
    def __init__(self, A, b, basis):
        m, ncols = A.shape
        self.T = np.empty((m, ncols + 1))
        self.T[:, :-1] = A
        self.T[:, -1] = b
        self.basis = list(basis)
        self.iterations = 0

    def run(self, costs, allowed):
        """Minimize costs over the current canonical system.

        Returns ("optimal", obj_row) or ("unbounded", entering_col).
        obj_row is the final reduced-cost row (with the negated objective
        value in the rhs slot).
        """
        T = self.T
        m = T.shape[0]
        obj = np.zeros(T.shape[1])
        obj[:-1] = costs
        for i, bv in enumerate(self.basis):
            if obj[bv] != 0.0:
                obj -= obj[bv] * T[i]

        cscale = 1.0 + float(np.max(np.abs(costs))) if costs.size else 1.0
        red_tol = FEAS_TOL * cscale
        bland = False
        degenerate_streak = 0

        blocked = np.zeros(T.shape[1] - 1, dtype=bool)
        while True:
            self.iterations += 1
            if self.iterations > MAX_ITERATIONS:
                raise RuntimeError("simplex iteration limit exceeded")
            red = obj[:-1]
            candidates = np.flatnonzero(allowed & ~blocked & (red < -red_tol))
            if candidates.size == 0:
                return "optimal", obj
            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmin(red[candidates])])

            col = T[:, q]
            pos = col > PIVOT_TOL
            if not pos.any():
                # trust an unbounded verdict only on a clearly improving
                # column; near-noise reduced costs are parked instead
                if red[q] < -1e4 * red_tol:
                    return "unbounded", q
                blocked[q] = True
                continue
            blocked[:] = False
            ratios = np.full(m, np.inf)
            ratios[pos] = T[pos, -1] / col[pos]
            best = ratios.min()
            near = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
            # Bland-style tie break: lowest basis variable index leaves
            r = int(near[np.argmin(np.take(self.basis, near))])

            if best <= 1e-12:
                degenerate_streak += 1
                if degenerate_streak > BLAND_TRIGGER:
                    bland = True
            else:
                degenerate_streak = 0

            piv = T[r, q]
            T[r] /= piv
            factors = T[:, q].copy()
            factors[r] = 0.0
            T -= np.outer(factors, T[r])
            obj -= obj[q] * T[r]
            self.basis[r] = q


def _extract_duals(canon, obj_row, costs):
    """Per-canonical-row multipliers y = cost(id column) - reduced cost."""
    cols = np.where(canon.art_cols >= 0, canon.art_cols, canon.slack_cols)
    return (costs[cols] - obj_row[cols]) * (canon.flip / canon.scale)


def _split_duals(lp, canon, y):
    """Split assembled-row multipliers into constraint and bound parts."""
    m_con = lp.n_constraints
    y_con = np.zeros(m_con)
    y_lo = np.zeros(lp.n_vars)
    y_up = np.zeros(lp.n_vars)
    for i, src in enumerate(canon.row_source):
        if src[0] == "con":
            y_con[src[1]] = y[i]
        elif src[0] == "lo":
            y_lo[src[1]] = y[i]
        else:
            y_up[src[1]] = y[i]
    return y_con, y_lo, y_up


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
    n_real = ncols - np.count_nonzero(canon.art_cols >= 0)

    basis = [canon.art_cols[i] if canon.art_cols[i] >= 0 else canon.slack_cols[i]
             for i in range(m)]
    tab = _Tableau(canon.A, canon.b, basis)

    # Phase 1: drive artificials to zero.
    is_art = np.zeros(ncols, dtype=bool)
    for c in canon.art_cols:
        if c >= 0:
            is_art[c] = True
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
        keep = np.ones(m, dtype=bool)
        for i in range(m):
            if is_art[tab.basis[i]]:
                row = tab.T[i, :n_real]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > PIVOT_TOL:
                    piv = tab.T[i, j]
                    tab.T[i] /= piv
                    factors = tab.T[:, j].copy()
                    factors[i] = 0.0
                    tab.T -= np.outer(factors, tab.T[i])
                    tab.basis[i] = j
                else:
                    keep[i] = False
        if not keep.all():
            tab.T = tab.T[keep]
            tab.basis = [bv for i, bv in enumerate(tab.basis) if keep[i]]

    # Phase 2
    costs2 = np.zeros(ncols)
    costs2[:canon.n_struct] = canon.c
    status, result = tab.run(costs2, allowed)
    if status == "unbounded":
        q = result
        ray_struct = np.zeros(ncols)
        ray_struct[q] = 1.0
        for i, bv in enumerate(tab.basis):
            ray_struct[bv] = -tab.T[i, q]
        x_struct = np.zeros(ncols)
        for i, bv in enumerate(tab.basis):
            x_struct[bv] = tab.T[i, -1]
        return LpSolution(status=UNBOUNDED,
                          primal=_to_original(lp, canon, x_struct),
                          ray=_to_original(lp, canon, ray_struct),
                          iterations=tab.iterations)

    obj_row = result
    x_struct = np.zeros(ncols)
    for i, bv in enumerate(tab.basis):
        x_struct[bv] = tab.T[i, -1]
    x = _to_original(lp, canon, x_struct)
    obj_value = float(lp.objective @ x)

    # Every row, dropped redundant ones included, reads its multiplier off
    # its own identity column: a dropped row's basic artificial may belong
    # to another constraint, and it stays basic at cost 0 in phase 2.
    y_con, y_lo, y_up = _split_duals(lp, canon,
                                     _extract_duals(canon, obj_row, costs2))
    if lp.sense == "max":
        y_con, y_lo, y_up = -y_con, -y_lo, -y_up
    return LpSolution(status=OPTIMAL, primal=x, duals=y_con,
                      objective_value=obj_value,
                      bound_duals=(y_lo, y_up), iterations=tab.iterations)


# ---------------------------------------------------------------------------
# certificates

def _primal_residual(lp, x):
    res = 0.0
    if lp.n_constraints:
        vals = lp.rows @ x
        for i, rel in enumerate(lp.relations):
            gap = vals[i] - lp.rhs[i]
            if rel == LE:
                res = max(res, gap)
            elif rel == GE:
                res = max(res, -gap)
            else:
                res = max(res, abs(gap))
    for j, (lo, up) in enumerate(lp.bounds):
        if lo is not None:
            res = max(res, lo - x[j])
        if up is not None:
            res = max(res, x[j] - up)
    return max(res, 0.0)


def _dual_sign_residual(lp, y):
    """Sign violations vs the min-sense convention (max flips them)."""
    res = 0.0
    sign = 1.0 if lp.sense == "min" else -1.0
    for i, rel in enumerate(lp.relations):
        v = sign * y[i]
        if rel == LE:
            res = max(res, v)          # must be <= 0
        elif rel == GE:
            res = max(res, -v)         # must be >= 0
    return res


def check_certificate(lp: LinearProgram, sol: LpSolution) -> CertificateReport:
    """Residual report: feasibility, dual signs, slackness, duality gap.

    For infeasible programs the report checks the Farkas certificate; for
    unbounded programs it checks the certifying ray.  Passes iff every
    residual is within FEAS_TOL * (1 + scale).
    """
    rep = CertificateReport()
    scale = 1.0 + float(np.max(np.abs(lp.rhs))) if lp.n_constraints else 1.0

    if sol.status == OPTIMAL:
        x, y = sol.primal, sol.duals
        y_lo, y_up = sol.bound_duals
        rep.feasibility = _primal_residual(lp, x)
        sgn_res = _dual_sign_residual(lp, y)
        # bound multipliers: lower-bound rows act like >=, upper like <=
        sign = 1.0 if lp.sense == "min" else -1.0
        if lp.n_vars:
            sgn_res = max(sgn_res, float(np.max(-sign * y_lo, initial=0.0)))
            sgn_res = max(sgn_res, float(np.max(sign * y_up, initial=0.0)))

        obj = lp.objective if lp.sense == "min" else -lp.objective
        yc = sign * y
        ylo = sign * y_lo
        yup = sign * y_up
        r = obj.copy()
        if lp.n_constraints:
            r -= lp.rows.T @ yc
        r -= ylo + yup
        stat = 0.0
        comp = 0.0
        dual_obj = 0.0
        if lp.n_constraints:
            vals = lp.rows @ x
            comp = float(np.max(np.abs(yc * (vals - lp.rhs)), initial=0.0))
            dual_obj += float(yc @ lp.rhs)
        for j, (lo, up) in enumerate(lp.bounds):
            native_nonneg = lo is not None and lo >= 0.0
            if native_nonneg:
                # implicit x_j >= 0 multiplier is the reduced cost r_j
                stat = max(stat, -r[j])
                comp = max(comp, abs(r[j] * x[j]) if x[j] > FEAS_TOL else 0.0)
                if r[j] > 0.0 and x[j] <= FEAS_TOL:
                    pass  # reduced cost on a variable at zero: fine
            else:
                stat = max(stat, abs(r[j]))
            if lo is not None and lo != 0.0:
                dual_obj += ylo[j] * lo
                comp = max(comp, abs(ylo[j] * (x[j] - lo)))
            if up is not None:
                dual_obj += yup[j] * up
                comp = max(comp, abs(yup[j] * (x[j] - up)))
        rep.dual_feasibility = max(sgn_res, stat)
        rep.complementary_slackness = comp
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
        sgn = 0.0
        for i, rel in enumerate(lp.relations):
            if rel == LE:
                sgn = max(sgn, y[i])
            elif rel == GE:
                sgn = max(sgn, -y[i])
        rep.dual_feasibility = sgn
        if lp.n_vars:
            rep.dual_feasibility = max(
                rep.dual_feasibility,
                float(np.max(-y_lo, initial=0.0)),
                float(np.max(y_up, initial=0.0)))
        # aggregated row w.x >= y.b for every feasible x; certificate means
        # sup over the bounds of w.x falls short of y.b
        w = y_lo + y_up
        if lp.n_constraints:
            w = w + lp.rows.T @ y
        ybeta = 0.0
        if lp.n_constraints:
            ybeta += float(y @ lp.rhs)
        for j, (lo, up) in enumerate(lp.bounds):
            if lo is not None and lo != 0.0:
                ybeta += y_lo[j] * lo
            if up is not None:
                ybeta += y_up[j] * up
        sup = 0.0
        unbounded_dir = 0.0
        for j, (lo, up) in enumerate(lp.bounds):
            lo_eff = lo if lo is not None else -np.inf
            up_eff = up if up is not None else np.inf
            if w[j] > FEAS_TOL:
                if np.isinf(up_eff):
                    unbounded_dir = max(unbounded_dir, w[j])
                else:
                    sup += w[j] * up_eff
            elif w[j] < -FEAS_TOL:
                if np.isinf(lo_eff):
                    unbounded_dir = max(unbounded_dir, -w[j])
                else:
                    sup += w[j] * lo_eff
        rep.feasibility = unbounded_dir
        gap = ybeta - sup
        rep.duality_gap = max(0.0, FEAS_TOL * scale - gap)
        rep.notes = f"farkas margin {gap:.3e}"
        rep.passed = (rep.feasibility <= FEAS_TOL * scale
                      and rep.dual_feasibility <= FEAS_TOL * scale
                      and gap > FEAS_TOL * scale)
        return rep

    if sol.status == UNBOUNDED:
        d = sol.ray
        res = 0.0
        if lp.n_constraints:
            vals = lp.rows @ d
            for i, rel in enumerate(lp.relations):
                if rel == LE:
                    res = max(res, vals[i])
                elif rel == GE:
                    res = max(res, -vals[i])
                else:
                    res = max(res, abs(vals[i]))
        for j, (lo, up) in enumerate(lp.bounds):
            if lo is not None:
                res = max(res, -d[j])
            if up is not None:
                res = max(res, d[j])
        rep.feasibility = max(_primal_residual(lp, sol.primal), res)
        improve = float(lp.objective @ d)
        ok = improve < 0 if lp.sense == "min" else improve > 0
        rep.duality_gap = 0.0 if ok else abs(improve) + FEAS_TOL
        rep.notes = f"ray objective rate {improve:.3e}"
        dscale = 1.0 + float(np.max(np.abs(d), initial=0.0))
        rep.passed = rep.feasibility <= FEAS_TOL * (scale + dscale) and ok
        return rep

    rep.notes = f"unknown status {sol.status!r}"
    return rep
