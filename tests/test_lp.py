"""Simplex solver tests against a brute-force vertex enumeration oracle."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from surplex import lp as lp_module
from surplex import models
from surplex.extraction import classify_type, full_extraction_lp
from surplex.geometry import ChainStalled, exposure_chain
from surplex.lp import (
    BLAND_TRIGGER,
    EQ,
    FEAS_TOL,
    GE,
    INFEASIBLE,
    LE,
    MAX_ITERATIONS,
    OPTIMAL,
    PIVOT_TOL,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    MalformedProgram,
    _extract_duals,
    _to_original,
    check_certificate,
    solve,
)


def enumerate_vertices(lp):
    """Brute-force oracle: evaluate the objective at every vertex.

    Requires every variable to carry finite bounds so the feasible set is
    a polytope.  Returns (status, best_objective) with status "optimal"
    or "infeasible".  Independent of the simplex path: candidate vertices
    come from solving all n-subsets of tight rows.
    """
    n = lp.n_vars
    rows, rhs, eq_idx = [], [], []
    for i, rel in enumerate(lp.relations):
        rows.append(lp.rows[i])
        rhs.append(lp.rhs[i])
        if rel == "=":
            eq_idx.append(len(rows) - 1)
    unit = np.eye(n)
    for j, (lo, up) in enumerate(lp.bounds):
        assert lo is not None and up is not None, "oracle needs a box"
        rows.append(unit[j])
        rhs.append(lo)
        rows.append(unit[j])
        rhs.append(up)
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)

    combos = list(itertools.combinations(range(len(rows)), n))
    if not combos:
        return "infeasible", None
    mats = rows[np.array(combos)]
    vecs = rhs[np.array(combos)]
    dets = np.abs(np.linalg.det(mats))
    ok = dets > 1e-9 * (1.0 + np.abs(mats).max())
    if not ok.any():
        candidates = np.zeros((0, n))
    else:
        candidates = np.linalg.solve(mats[ok], vecs[ok][..., None])[..., 0]

    best = None
    feasible = False
    for x in candidates:
        vals = lp.rows @ x if lp.n_constraints else np.zeros(0)
        good = True
        for i, rel in enumerate(lp.relations):
            gap = vals[i] - lp.rhs[i]
            if rel == LE and gap > 1e-8:
                good = False
            elif rel == GE and gap < -1e-8:
                good = False
            elif rel == "=" and abs(gap) > 1e-8:
                good = False
        for j, (lo, up) in enumerate(lp.bounds):
            if x[j] < lo - 1e-8 or x[j] > up + 1e-8:
                good = False
        if not good:
            continue
        feasible = True
        obj = float(lp.objective @ x)
        if best is None:
            best = obj
        elif lp.sense == "min":
            best = min(best, obj)
        else:
            best = max(best, obj)
    return ("optimal", best) if feasible else ("infeasible", None)


def random_lp(rng):
    """Quantized random data keeps oracle vertices well separated."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    A = rng.integers(-4, 5, size=(m, n)).astype(float)
    b = rng.integers(-4, 9, size=m).astype(float)
    rels = [str(rng.choice([LE, LE, GE, "="])) for _ in range(m)]
    c = rng.integers(-5, 6, size=n).astype(float)
    lo = rng.integers(-4, 1, size=n).astype(float)
    up = lo + rng.integers(1, 9, size=n)
    sense = str(rng.choice(["min", "max"]))
    return LinearProgram(c, list(zip(A, rels, b)),
                         bounds=list(zip(lo, up)), sense=sense)


def test_single_constraint_free_var():
    lp = LinearProgram([1.0], [([1.0], GE, 1.0)], bounds=[(None, None)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert check_certificate(lp, sol).passed


def test_contradictory_bounds_infeasible():
    lp = LinearProgram([0.0], [([1.0], LE, -1.0)], bounds=[(0.0, None)],
                       sense="max")
    sol = solve(lp)
    assert sol.status == INFEASIBLE
    assert check_certificate(lp, sol).passed


def test_triangle_vertex_solution():
    # oracle: vertices (0,0), (1,0), (0,1); optimum -1 at either leg tip
    lp = LinearProgram([-1.0, -1.0], [([1.0, 1.0], LE, 1.0)],
                       bounds=[(0.0, None), (0.0, None)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
    assert sorted(sol.primal) == pytest.approx([0.0, 1.0], abs=1e-9)
    assert check_certificate(lp, sol).passed


def test_unbounded_with_ray():
    lp = LinearProgram([-1.0, 0.0], [([0.0, 1.0], LE, 1.0)])
    sol = solve(lp)
    assert sol.status == UNBOUNDED
    assert check_certificate(lp, sol).passed


def test_malformed_rejected():
    with pytest.raises(MalformedProgram):
        LinearProgram([1.0, 2.0], [([1.0], LE, 1.0)])
    with pytest.raises(MalformedProgram):
        LinearProgram([np.nan], [])
    with pytest.raises(MalformedProgram):
        LinearProgram([1.0], [([1.0], "<", 1.0)])


def test_equality_and_negative_rhs():
    lp = LinearProgram([1.0, 1.0],
                       [([1.0, -1.0], "=", -2.0), ([1.0, 1.0], GE, 4.0)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(4.0, abs=1e-9)
    assert sol.primal == pytest.approx([1.0, 3.0], abs=1e-9)
    assert check_certificate(lp, sol).passed


def test_perturbed_solution_flagged():
    lp = LinearProgram([-1.0, -1.0], [([1.0, 1.0], LE, 1.0)],
                       bounds=[(0.0, None), (0.0, None)])
    sol = solve(lp)
    sol.primal = sol.primal + 1e-3
    rep = check_certificate(lp, sol)
    assert not rep.passed
    assert rep.feasibility == pytest.approx(2e-3, rel=0.5)


def test_oracle_agreement_200_instances():
    rng = np.random.default_rng(20240)
    n_optimal = 0
    for _ in range(200):
        lp = random_lp(rng)
        status, best = enumerate_vertices(lp)
        sol = solve(lp)
        assert sol.status == status, (lp.objective, lp.rows, lp.relations,
                                      lp.rhs, lp.bounds, lp.sense)
        rep = check_certificate(lp, sol)
        assert rep.passed, (sol.status, rep)
        if status == "optimal":
            n_optimal += 1
            assert sol.objective_value == pytest.approx(best, abs=1e-8)
            # weak duality residual is part of the certificate
            assert rep.duality_gap <= 1e-8 * (1 + abs(best))
    assert n_optimal > 50  # both verdicts exercised


def planted_lp(rng, m, n):
    """Random m x n LP with integer data around a planted feasible point.

    Most variables are boxed, some have only a lower bound and some are
    free, so both optimal and unbounded programs occur.  One program in
    three gains a row that a nonnegative combination of the inequality
    rows contradicts, which makes it infeasible only as a whole.
    """
    x0 = rng.integers(-2, 3, size=n).astype(float)
    A = rng.integers(-5, 6, size=(m, n)).astype(float)
    rels = rng.choice([LE, LE, GE, GE, EQ], size=m)
    sign = np.select([rels == LE, rels == GE], [1.0, -1.0], 0.0)
    b = A @ x0 + sign * rng.integers(0, 4, size=m)
    cons = list(zip(A, rels.tolist(), b))
    if rng.random() < 1 / 3:
        # w signed so that w.A x <= w.b on every feasible x
        w = sign * rng.integers(0, 3, size=m)
        cons.append((w @ A, GE, w @ b + 1.0))
    kind = rng.choice(3, size=n, p=[0.7, 0.2, 0.1])  # box, lower, free
    lo = np.where(kind < 2, x0 - rng.integers(0, 4, size=n), np.nan)
    up = np.where(kind == 0, x0 + rng.integers(0, 4, size=n), np.nan)
    c = rng.integers(-5, 6, size=n).astype(float)
    return LinearProgram(c, cons, bounds=np.column_stack([lo, up]),
                         sense=str(rng.choice(["min", "max"])))


def highs_solve(optimize, lp):
    """(status, objective) of lp by HiGHS, in this module's status names."""
    sign = 1.0 if lp.sense == "min" else -1.0
    le, ge, eq = lp.codes == 1, lp.codes == -1, lp.codes == 0
    a_ub = np.vstack([lp.rows[le], -lp.rows[ge]])
    b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]])
    res = optimize.linprog(
        sign * lp.objective,
        A_ub=a_ub if a_ub.size else None, b_ub=b_ub if a_ub.size else None,
        A_eq=lp.rows[eq] if eq.any() else None,
        b_eq=lp.rhs[eq] if eq.any() else None,
        bounds=np.column_stack([lp.lo, lp.up]), method="highs")
    status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}[res.status]
    return status, sign * res.fun if status == OPTIMAL else None


def test_highs_agreement_up_to_60_by_120():
    """Differential test against HiGHS on programs too large for vertex
    enumeration: same status, objectives within 1e-9 (1 + |obj|), and a
    certificate check_certificate accepts on every optimal or infeasible
    verdict."""
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(60120)
    seen = set()
    for k in range(60):
        m, n = (60, 120) if k == 0 else (int(rng.integers(1, 61)),
                                         int(rng.integers(1, 121)))
        lp = planted_lp(rng, m, n)
        sol = solve(lp)
        status, obj = highs_solve(optimize, lp)
        assert sol.status == status, (k, m, n)
        seen.add(status)
        if status == OPTIMAL:
            assert abs(sol.objective_value - obj) <= 1e-9 * (1 + abs(obj))
        if status in (OPTIMAL, INFEASIBLE):
            assert check_certificate(lp, sol).passed, (k, status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_duals_sign_and_gap_small_named_instance():
    # min 2x + 3y  s.t. x + y >= 2, x - y <= 1, x,y >= 0
    lp = LinearProgram([2.0, 3.0],
                       [([1.0, 1.0], GE, 2.0), ([1.0, -1.0], LE, 1.0)])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    # optimum at the row intersection (1.5, 0.5)
    assert sol.objective_value == pytest.approx(4.5, abs=1e-9)
    y = sol.duals
    assert y[0] >= -1e-12       # >= row, min sense
    assert y[1] <= 1e-12        # <= row, min sense
    assert check_certificate(lp, sol).passed


def test_duals_after_dropped_redundant_row():
    # min -x1 + 3 x2, row 3 = row 2 - row 1; phase 1 drops a redundant row
    # whose basic artificial belongs to another constraint, and every
    # multiplier must still come off its own constraint's identity column
    A = [[-2.0, -1.0, 1.0, -1.0], [0.0, 0.0, -2.0, 0.0],
         [2.0, 1.0, -3.0, 1.0]]
    lp = LinearProgram([-1.0, 3.0, 0.0, 0.0],
                       [(row, "=", b) for row, b in zip(A, [-2.0, -2.0, 0.0])])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.objective_value == pytest.approx(-1.5, abs=1e-12)
    rep = check_certificate(lp, sol)
    assert rep.passed, rep
    assert rep.duality_gap <= 1e-12


def test_canonical_columns_match_per_variable_reference():
    """The vectorized column map equals the per-variable loop it replaced:
    a variable with lower bound >= 0 keeps one column, any other splits
    into a plus and a minus column.  Copies and negations only, so the
    tableau data must agree bit for bit."""
    from surplex.lp import _canonicalize, _to_original

    rng = np.random.default_rng(11)
    choices = [(0.0, None), (None, None), (-1.5, 2.0), (0.5, None),
               (0.0, 3.0), (None, 4.0), (-2.0, None)]
    for _ in range(20):
        n, m = int(rng.integers(1, 7)), int(rng.integers(0, 5))
        bounds = [choices[k] for k in rng.integers(len(choices), size=n)]
        cons = [(rng.normal(size=n), [LE, GE, "="][k % 3], rng.normal())
                for k in range(m)]
        prog = LinearProgram(rng.normal(size=n), cons, bounds=bounds,
                             sense=["min", "max"][int(rng.integers(2))])
        canon = _canonicalize(prog)

        cols, col = [], 0
        for lo, _ in bounds:
            cols.append((col,) if lo is not None and lo >= 0.0
                        else (col, col + 1))
            col += len(cols[-1])

        def expand(row):
            out = np.zeros(col)
            for j, c in enumerate(cols):
                out[c[0]] = row[j]
                if len(c) == 2:
                    out[c[1]] = -row[j]
            return out

        unit = np.eye(n)
        rows = [expand(r) for r in prog.rows]
        for j, (lo, up) in enumerate(bounds):
            rows += [expand(unit[j])] * ((lo not in (None, 0.0))
                                         + (up is not None))
        a_ref = np.array(rows).reshape(-1, col) / canon.scale[:, None]
        a_ref *= canon.flip[:, None]
        obj = prog.objective if prog.sense == "min" else -prog.objective
        assert canon.n_struct == col
        assert np.array_equal(canon.A[:, :col], a_ref)
        assert np.array_equal(canon.c, expand(obj))

        x_struct = rng.normal(size=canon.A.shape[1])
        x_ref = [x_struct[c[0]] - (x_struct[c[1]] if len(c) == 2 else 0.0)
                 for c in cols]
        assert np.array_equal(_to_original(prog, canon, x_struct), x_ref)


# ---------------------------------------------------------------------------
# Reference solver: the per-row and per-variable loops that the array-native
# canonical form and pivot loop replaced, kept verbatim.  Both do the same
# floating-point operations in the same order, so every solve must agree
# bit for bit.

def _reference_canonicalize(lp):
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

    scale = np.ones(m)
    if m:
        norms = np.abs(A0).max(axis=1)
        scale = np.where(norms > 0.0, norms, 1.0)
        A0 = A0 / scale[:, None]
        b0 = b0 / scale

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

    return SimpleNamespace(c=c_canon, A=A_full, b=b0, flip=flip, scale=scale,
                           row_source=source, row_rel=rels, first=first,
                           split=split, second=second,
                           n_struct=n_struct, slack_cols=slack_cols,
                           art_cols=art_cols)


class _ReferenceTableau:
    def __init__(self, A, b, basis):
        m, ncols = A.shape
        self.T = np.empty((m, ncols + 1))
        self.T[:, :-1] = A
        self.T[:, -1] = b
        self.basis = list(basis)
        self.iterations = 0

    def run(self, costs, allowed):
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
                if red[q] < -1e4 * red_tol:
                    return "unbounded", q
                blocked[q] = True
                continue
            blocked[:] = False
            ratios = np.full(m, np.inf)
            ratios[pos] = T[pos, -1] / col[pos]
            best = ratios.min()
            near = np.flatnonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))
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


def _reference_split_duals(lp, canon, y):
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


def reference_solve(lp):
    canon = _reference_canonicalize(lp)
    m, ncols = canon.A.shape
    n_real = ncols - np.count_nonzero(canon.art_cols >= 0)

    basis = [canon.art_cols[i] if canon.art_cols[i] >= 0 else canon.slack_cols[i]
             for i in range(m)]
    tab = _ReferenceTableau(canon.A, canon.b, basis)

    is_art = np.zeros(ncols, dtype=bool)
    for c in canon.art_cols:
        if c >= 0:
            is_art[c] = True
    costs1 = is_art.astype(float)
    allowed = ~is_art
    if is_art.any():
        status, obj_row = tab.run(costs1, np.ones(ncols, dtype=bool))
        phase1_value = -obj_row[-1]
        if phase1_value > FEAS_TOL * (1.0 + float(np.abs(canon.b).sum())):
            y = _extract_duals(canon, obj_row, costs1)
            y_con, y_lo, y_up = _reference_split_duals(lp, canon, y)
            return LpSolution(status=INFEASIBLE, duals=y_con,
                              bound_duals=(y_lo, y_up),
                              iterations=tab.iterations)
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
    y_con, y_lo, y_up = _reference_split_duals(
        lp, canon, _extract_duals(canon, obj_row, costs2))
    if lp.sense == "max":
        y_con, y_lo, y_up = -y_con, -y_lo, -y_up
    return LpSolution(status=OPTIMAL, primal=x, duals=y_con,
                      objective_value=obj_value,
                      bound_duals=(y_lo, y_up), iterations=tab.iterations)


def _assert_bit_identical(prog):
    got, ref = solve(prog), reference_solve(prog)
    assert got.status == ref.status
    assert got.iterations == ref.iterations
    assert got.objective_value == ref.objective_value
    pairs = [(got.primal, ref.primal), (got.duals, ref.duals),
             (got.ray, ref.ray)]
    if ref.bound_duals is not None:
        pairs += list(zip(got.bound_duals, ref.bound_duals))
    else:
        assert got.bound_duals is None
    for a, b in pairs:
        assert (a is None and b is None) or np.array_equal(a, b)
    return got.status


def _recorded_programs(monkeypatch, run):
    """Every LinearProgram that lp.solve receives while run() executes."""
    progs = []
    real = lp_module.solve

    def record(prog):
        progs.append(prog)
        return real(prog)

    monkeypatch.setattr(lp_module, "solve", record)
    run()
    monkeypatch.undo()
    return progs


def test_solve_matches_reference_on_random_programs():
    rng = np.random.default_rng(77)
    statuses = {_assert_bit_identical(random_lp(rng)) for _ in range(150)}
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_solve_matches_reference_without_rows():
    # no constraint and no bound row: the ratio test sees an empty column
    assert _assert_bit_identical(LinearProgram([-1.0, 2.0], [])) == UNBOUNDED
    assert _assert_bit_identical(LinearProgram([1.0, 2.0], [])) == OPTIMAL
    # phase 1 drops the only (redundant) row
    prog = LinearProgram([-1.0], [([0.0], "=", 0.0)])
    assert _assert_bit_identical(prog) == UNBOUNDED


def test_solve_matches_reference_on_separation_programs(monkeypatch):
    model = models.counterexample_model()

    def run():
        for t in (0.0, 0.5, 1.0):
            classify_type(model, t, grid_n=33)
        # a margin_tol above the grid's margins forces the supporting LP
        with pytest.raises(ChainStalled):
            exposure_chain(models.sample(model, 17).belief_set(), 0,
                           margin_tol=0.05)

    progs = _recorded_programs(monkeypatch, run)
    # separation LPs (S + 1 rows, free zero-set columns), the chain's
    # supporting LP, whose box bounds |z| <= 1 become bound rows, and the
    # extreme-point checks, infeasible at extreme points
    assert any(np.isinf(p.lo).any() and p.n_constraints == 4 for p in progs)
    assert any(np.isfinite(p.up).any() for p in progs)
    statuses = {_assert_bit_identical(prog) for prog in progs}
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_solve_matches_reference_on_infeasible_full_blocks(monkeypatch):
    tab = models.random_tabular(3, 40, 6)
    progs = _recorded_programs(monkeypatch, lambda: full_extraction_lp(tab))
    statuses = [_assert_bit_identical(prog) for prog in progs]
    assert statuses[-1] == INFEASIBLE


def test_array_bounds_match_pair_bounds():
    rng = np.random.default_rng(5)
    pairs = [(0.0, None), (None, None), (-1.5, 2.0), (0.5, None),
             (0.0, 3.0), (None, 4.0), (-2.0, None)]
    for _ in range(40):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        bounds = [pairs[k] for k in rng.integers(len(pairs), size=n)]
        box = np.array([[np.nan if v is None else v for v in pair]
                        for pair in bounds])
        cons = [(rng.normal(size=n), [LE, GE, "="][k % 3], rng.normal())
                for k in range(m)]
        obj = rng.normal(size=n)
        by_pairs = LinearProgram(obj, cons, bounds=bounds)
        by_array = LinearProgram(obj, cons, bounds=box)
        assert by_pairs.bounds == by_array.bounds == bounds
        a, b = solve(by_pairs), solve(by_array)
        assert a.status == b.status and a.iterations == b.iterations
        for x, y in [(a.primal, b.primal), (a.duals, b.duals)]:
            assert (x is None and y is None) or np.array_equal(x, y)
        _assert_bit_identical(by_array)


@pytest.mark.parametrize("bounds", [
    [(0.0, np.inf)], [(-np.inf, None)], np.array([[0.0, np.inf]]),
    [(2.0, 1.0)], np.array([[2.0, 1.0]]), [(0.0, None), (0.0, None)],
    [(0.0,)], [("a", None)]])
def test_malformed_bounds_rejected(bounds):
    with pytest.raises(MalformedProgram):
        LinearProgram([1.0], [([1.0], LE, 1.0)], bounds=bounds)
