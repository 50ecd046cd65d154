"""Simplex solver tests against a brute-force vertex enumeration oracle."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplex import cli, geometry, lp, models
from surplex.duality import VseInstance, solve_primal
from surplex.extraction import (
    SEPARATOR_CHUNK,
    classify_type,
    full_extraction_lp,
    virtual_extraction_menu,
)
from surplex.geometry import ChainStalled, expose_each, exposure_chain
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
    START_PIVOT_SHARE,
    UNBOUNDED,
    LinearProgram,
    LpSolution,
    MalformedProgram,
    _canonicalize,
    _extract_duals,
    _pivot,
    _pivot_stack,
    _to_original,
    check_certificate,
    solve,
)

from conftest import program


def boxed_program(objective, constraints, box, sense="min"):
    """The LinearProgram with the variable bounds box, one (lower, upper)
    pair per variable where None or NaN means no bound: a variable with
    no lower bound or one below 0 is free, and after the constraints come,
    variable by variable, a ">=" row for a lower bound other than 0 and
    then a "<=" row for an upper bound."""
    box = [[None if v is None or np.isnan(v) else float(v) for v in pair]
           for pair in box]
    unit = np.eye(len(box))
    cons = list(constraints)
    for j, (lo, up) in enumerate(box):
        if lo not in (None, 0.0):
            cons.append((unit[j], GE, lo))
        if up is not None:
            cons.append((unit[j], LE, up))
    return LinearProgram(objective, cons, sense=sense,
                         free=[lo is None or lo < 0.0 for lo, _ in box])


def enumerate_vertices(lp):
    """Brute-force oracle: evaluate the objective at every vertex.

    Requires every variable to be capped above and below, by a one-entry
    row or by x >= 0, so the feasible set is a polytope (boxed_program
    gives such programs).  Returns (status, best_objective) with status
    "optimal" or "infeasible".  Independent of the simplex path:
    candidate vertices come from solving all n-subsets of tight rows.
    """
    n = lp.n_vars
    below, above = ~lp.free, np.zeros(n, dtype=bool)
    for row, code in zip(lp.rows, lp.codes):
        if np.count_nonzero(row) == 1:
            j = int(np.flatnonzero(row)[0])
            side = np.sign(row[j]) * code       # +1 caps above, -1 below
            below[j] |= side <= 0
            above[j] |= side >= 0
    assert below.all() and above.all(), "oracle needs a box"
    # the constraints, then x_j = 0 as a candidate tight row of each
    # nonnegative variable
    nonneg = np.eye(n)[~lp.free]
    rows = np.vstack([lp.rows, nonneg])
    rhs = np.concatenate([lp.rhs, np.zeros(len(nonneg))])

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
        good = not (x[~lp.free] < -1e-8).any()
        for i, rel in enumerate(lp.relations):
            gap = vals[i] - lp.rhs[i]
            if rel == LE and gap > 1e-8:
                good = False
            elif rel == GE and gap < -1e-8:
                good = False
            elif rel == "=" and abs(gap) > 1e-8:
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


def random_lp_parts(rng):
    """Quantized random data keeps oracle vertices well separated:
    (objective, constraints, box, sense) of a boxed_program."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    A = rng.integers(-4, 5, size=(m, n)).astype(float)
    b = rng.integers(-4, 9, size=m).astype(float)
    rels = [str(rng.choice([LE, LE, GE, "="])) for _ in range(m)]
    c = rng.integers(-5, 6, size=n).astype(float)
    lo = rng.integers(-4, 1, size=n).astype(float)
    up = lo + rng.integers(1, 9, size=n)
    sense = str(rng.choice(["min", "max"]))
    return c, list(zip(A, rels, b)), list(zip(lo, up)), sense


def random_lp(rng):
    return boxed_program(*random_lp_parts(rng))


def test_single_constraint_free_var():
    lp = LinearProgram([1.0], [([1.0], GE, 1.0)], free=[True])
    sol = solve(lp)
    assert sol.status == OPTIMAL
    assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert check_certificate(lp, sol).passed


def test_contradictory_bounds_infeasible():
    lp = LinearProgram([0.0], [([1.0], LE, -1.0)], sense="max")
    sol = solve(lp)
    assert sol.status == INFEASIBLE
    assert check_certificate(lp, sol).passed


def test_triangle_vertex_solution():
    # oracle: vertices (0,0), (1,0), (0,1); optimum -1 at either leg tip
    lp = LinearProgram([-1.0, -1.0], [([1.0, 1.0], LE, 1.0)])
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
    lp = LinearProgram([-1.0, -1.0], [([1.0, 1.0], LE, 1.0)])
    sol = solve(lp)
    sol.primal = sol.primal + 1e-3
    rep = check_certificate(lp, sol)
    assert not rep.passed
    assert rep.feasibility == pytest.approx(2e-3, rel=0.5)


# check_certificate's sign rules are per variable: each case checks one
# certificate against a program whose x1 is free or x1 >= 0, and the
# residual where a rejection must show

@pytest.mark.parametrize("x1_free, duals, passed", [
    (True, [1.0, 1.0], True),
    (True, [1.0, 0.0], False),      # reduced cost 1 on the free x1
    (False, [1.0, 0.0], True),      # the same cost on x1 >= 0, at x1 = 0
    (False, [1.0, 3.0], False),     # reduced cost -2 on x1 >= 0
])
def test_optimal_reduced_cost_signs_are_per_variable(x1_free, duals, passed):
    # min x0 + 2 x1  s.t.  x0 + x1 >= 1,  x1 >= 0 (a row), at x = (1, 0);
    # both rows are ">=", so both duals may be >= 0, and the second row's
    # rhs is 0, so its dual moves only x1's reduced cost 2 - y0 - y1
    lp = LinearProgram([1.0, 2.0], [([1.0, 1.0], GE, 1.0),
                                    ([0.0, 1.0], GE, 0.0)],
                       free=[False, x1_free])
    sol = LpSolution(status=OPTIMAL, primal=np.array([1.0, 0.0]),
                     duals=np.array(duals), objective_value=1.0)
    rep = check_certificate(lp, sol)
    assert rep.passed == passed
    assert rep.max_residual() == rep.dual_feasibility
    assert rep.dual_feasibility == (0.0 if passed else
                                    abs(2.0 - sum(duals)))


@pytest.mark.parametrize("row, x1_free, passed", [
    ([1.0, 1.0], False, True),
    ([1.0, 1.0], True, False),      # aggregate -1 on the free x1
    ([1.0, -1.0], False, False),    # aggregate +1 on x1 >= 0
])
def test_farkas_aggregate_signs_are_per_variable(row, x1_free, passed):
    # row . x <= -1 with the Farkas multiplier -1: the aggregate is -row,
    # and -1 . rhs = 1 > 0; x >= 0 makes the first program infeasible
    lp = LinearProgram([0.0, 0.0], [(row, LE, -1.0)], free=[False, x1_free])
    sol = LpSolution(status=INFEASIBLE, duals=np.array([-1.0]))
    rep = check_certificate(lp, sol)
    assert rep.passed == passed
    assert rep.feasibility == (0.0 if passed else 1.0)
    assert rep.dual_feasibility == 0.0
    if not x1_free:
        assert solve(lp).status == (INFEASIBLE if passed else OPTIMAL)


@pytest.mark.parametrize("ray, x1_free, passed", [
    ([1.0, 0.0], False, True),
    ([1.0, -1.0], False, False),    # negative on x1 >= 0
    ([1.0, -1.0], True, True),
])
def test_ray_signs_are_per_variable(ray, x1_free, passed):
    # min -x0  s.t.  x1 <= 1, from the feasible x = 0
    lp = LinearProgram([-1.0, 0.0], [([0.0, 1.0], LE, 1.0)],
                       free=[False, x1_free])
    sol = LpSolution(status=UNBOUNDED, primal=np.zeros(2), ray=np.array(ray))
    rep = check_certificate(lp, sol)
    assert rep.passed == passed
    assert rep.feasibility == (0.0 if passed else 1.0)


def test_oracle_agreement_200_instances():
    rng = np.random.default_rng(20240)
    n_optimal = 0
    for _ in range(200):
        lp = random_lp(rng)
        status, best = enumerate_vertices(lp)
        sol = solve(lp)
        assert sol.status == status, (lp.objective, lp.rows, lp.relations,
                                      lp.rhs, lp.free, lp.sense)
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
    free (boxed_program), so both optimal and unbounded programs occur.
    One program in three gains a row that a nonnegative combination of
    the inequality rows contradicts, which makes it infeasible only as a
    whole.
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
    return boxed_program(c, cons, np.column_stack([lo, up]),
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
        bounds=[(None, None) if f else (0.0, None) for f in lp.free],
        method="highs")
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
    a nonnegative variable keeps one column, a free one splits into a
    plus and a minus column.  Copies and negations only, so the tableau
    data must agree bit for bit."""
    from surplex.lp import _canonicalize, _to_original

    rng = np.random.default_rng(11)
    choices = [(0.0, None), (None, None), (-1.5, 2.0), (0.5, None),
               (0.0, 3.0), (None, 4.0), (-2.0, None)]
    for _ in range(20):
        n, m = int(rng.integers(1, 7)), int(rng.integers(0, 5))
        box = [choices[k] for k in rng.integers(len(choices), size=n)]
        cons = [(rng.normal(size=n), [LE, GE, "="][k % 3], rng.normal())
                for k in range(m)]
        prog = boxed_program(rng.normal(size=n), cons, box,
                             sense=["min", "max"][int(rng.integers(2))])
        canon = _canonicalize(prog, prog.rows, prog.objective, prog.rhs,
                              lp._Workspace())

        cols, col = [], 0
        for free in prog.free:
            cols.append((col, col + 1) if free else (col,))
            col += len(cols[-1])

        def expand(row):
            out = np.zeros(col)
            for j, c in enumerate(cols):
                out[c[0]] = row[j]
                if len(c) == 2:
                    out[c[1]] = -row[j]
            return out

        rows = [expand(r) for r in prog.rows]
        a_ref = np.array(rows).reshape(-1, col) / canon.scale[:, None]
        a_ref *= canon.flip[:, None]
        obj = prog.objective if prog.sense == "min" else -prog.objective
        assert canon.columns.n_struct == col
        assert np.array_equal(canon.A[:, :col], a_ref)
        assert np.array_equal(canon.c, expand(obj))

        x_struct = rng.normal(size=canon.A.shape[1])
        x_ref = [x_struct[c[0]] - (x_struct[c[1]] if len(c) == 2 else 0.0)
                 for c in cols]
        assert np.array_equal(_to_original(prog, canon, x_struct), x_ref)


# ---------------------------------------------------------------------------
# Reference solver: the per-row and per-variable loops that the array-native
# canonical form and pivot loop replaced, kept verbatim apart from the
# events it records.  Both do the same floating-point operations in the
# same order, so every solve must agree bit for bit.

def _reference_canonicalize(lp):
    split = np.array([bool(free) for free in lp.free])
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
    m = len(rels)
    A0 = expand(lp.rows)
    b0 = np.array(lp.rhs, dtype=float)

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

    columns = SimpleNamespace(first=first, split=split, second=second,
                              n_struct=n_struct, slack_cols=slack_cols)
    return SimpleNamespace(c=c_canon, A=A_full, b=b0, flip=flip, scale=scale,
                           row_rel=rels, columns=columns, art_cols=art_cols)


class _ReferenceTableau:
    def __init__(self, A, b, basis, events):
        m, ncols = A.shape
        self.T = np.empty((m, ncols + 1))
        self.T[:, :-1] = A
        self.T[:, -1] = b
        self.basis = list(basis)
        self.iterations = 0
        self.events = events

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
                self.events.add("parked")
                continue
            if blocked.any():
                self.events.add("unparked")
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
                    self.events.add("bland")
            else:
                degenerate_streak = 0

            piv = T[r, q]
            T[r] /= piv
            factors = T[:, q].copy()
            factors[r] = 0.0
            T -= np.outer(factors, T[r])
            obj -= obj[q] * T[r]
            self.basis[r] = q


def _reference_pivot_in(lp, first, costs, tab, n_real):
    """lp._pivot_in on one program, row by row and column by column;
    costs are its canonical costs."""
    T, basis = tab.T, tab.basis
    m = T.shape[0]
    for group in lp.start(lp.rows[None], lp.objective[None], lp.rhs[None]):
        cols = [int(first[v]) for v in np.reshape(group, -1)]
        # singleton columns in distinct open rows enter at once
        rows = []
        for c in cols:
            nonzero = [i for i in range(m) if T[i, c] != 0.0]
            if (len(nonzero) == 1 and basis[nonzero[0]] >= n_real
                    and abs(T[nonzero[0], c]) > PIVOT_TOL):
                rows.append(nonzero[0])
        if len(rows) == len(cols) == len(set(rows)):
            for i, c in zip(rows, cols):
                T[i] /= T[i, c]
                basis[i] = c
                tab.iterations += 1
            continue
        for _ in cols:
            open_rows = [i for i in range(m) if basis[i] >= n_real]
            tall = [max([abs(T[i, c]) for i in open_rows], default=0.0)
                    for c in cols]
            top = max(tall)
            if not top > PIVOT_TOL:
                break
            # the cheapest of the columns within START_PIVOT_SHARE of top
            q = None
            for c, size in zip(cols, tall):
                if size >= START_PIVOT_SHARE * top and (
                        q is None or costs[c] < costs[q]):
                    q = c
            r = open_rows[0]
            for i in open_rows:
                if abs(T[i, q]) > abs(T[r, q]):
                    r = i
            piv = T[r, q]
            T[r] /= piv
            factors = T[:, q].copy()
            factors[r] = 0.0
            T -= np.outer(factors, T[r])
            basis[r] = q
            tab.iterations += 1


def reference_solve(lp, events=None):
    """The reference solve of lp; events, if given, collects "parked",
    "unparked", "bland" and "dropped" as the solve parks a column, pivots
    with a column parked, switches to Bland's rule or drops a redundant
    row."""
    events = set() if events is None else events
    canon = _reference_canonicalize(lp)
    m, ncols = canon.A.shape
    n_real = ncols - np.count_nonzero(canon.art_cols >= 0)

    slack_cols = canon.columns.slack_cols
    basis = [canon.art_cols[i] if canon.art_cols[i] >= 0 else slack_cols[i]
             for i in range(m)]
    tab = _ReferenceTableau(canon.A, canon.b, basis, events)

    is_art = np.zeros(ncols, dtype=bool)
    for c in canon.art_cols:
        if c >= 0:
            is_art[c] = True
    costs1 = is_art.astype(float)
    allowed = ~is_art
    if is_art.any() and lp.start is not None:
        _reference_pivot_in(lp, canon.columns.first, canon.c, tab, n_real)
    if is_art.any():
        status, obj_row = tab.run(costs1, np.ones(ncols, dtype=bool))
        phase1_value = -obj_row[-1]
        if phase1_value > FEAS_TOL * (1.0 + float(np.abs(canon.b).sum())):
            return LpSolution(status=INFEASIBLE,
                              duals=_extract_duals(canon, obj_row, costs1),
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
                    events.add("dropped")
        if not keep.all():
            tab.T = tab.T[keep]
            tab.basis = [bv for i, bv in enumerate(tab.basis) if keep[i]]

    costs2 = np.zeros(ncols)
    costs2[:canon.columns.n_struct] = canon.c
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
    y = _extract_duals(canon, obj_row, costs2)
    if lp.sense == "max":
        y = -y
    return LpSolution(status=OPTIMAL, primal=x, duals=y,
                      objective_value=obj_value, iterations=tab.iterations)


def _assert_bit_identical(prog, events=None):
    got, ref = solve(prog), reference_solve(prog, events)
    assert got.status == ref.status
    assert got.iterations == ref.iterations
    assert got.objective_value == ref.objective_value
    for a, b in [(got.primal, ref.primal), (got.duals, ref.duals),
                 (got.ray, ref.ray)]:
        assert (a is None and b is None) or np.array_equal(a, b)
    return got.status


def test_solve_matches_reference_on_random_programs():
    rng = np.random.default_rng(77)
    statuses = {_assert_bit_identical(random_lp(rng)) for _ in range(150)}
    assert statuses == {OPTIMAL, INFEASIBLE}

    # the first row twice more as an equality: phase 1 drops one copy,
    # which solve masks in place and reference_solve slices out, and
    # phase 2 pivots past it (it takes more steps than the same program
    # with a zero objective, whose phase 2 stops at once)
    dropped_then_pivoted = 0
    for _ in range(60):
        c, cons, box, sense = random_lp_parts(rng)
        cons += [(cons[0][0], EQ, cons[0][2])] * 2
        twice = boxed_program(c, cons, box, sense)
        events = set()
        if _assert_bit_identical(twice, events) != OPTIMAL:
            continue
        flat = boxed_program(np.zeros(len(c)), cons, box)
        phase2_pivots = solve(twice).iterations - solve(flat).iterations
        dropped_then_pivoted += "dropped" in events and phase2_pivots > 0
    assert dropped_then_pivoted >= 10


def test_solve_matches_reference_without_rows():
    # no row: the ratio test sees an empty column
    assert _assert_bit_identical(LinearProgram([-1.0, 2.0], [])) == UNBOUNDED
    assert _assert_bit_identical(LinearProgram([1.0, 2.0], [])) == OPTIMAL
    # phase 1 drops the only (redundant) row
    prog = LinearProgram([-1.0], [([0.0], "=", 0.0)])
    assert _assert_bit_identical(prog) == UNBOUNDED


def test_solve_matches_reference_on_separation_programs(recorded_programs):
    model = models.counterexample_model()
    for t in (0.0, 0.5, 1.0):
        classify_type(model, t, grid_n=33)
    # a margin_tol above the grid's margins forces the supporting LP
    with pytest.raises(ChainStalled):
        exposure_chain(models.sample(model, 17).belief_set(), 0,
                       margin_tol=0.05)

    progs = [rec.program for rec in recorded_programs]
    # separation LPs (S + 1 rows, free zero-set columns), the chain's
    # supporting LP, a separation LP over the 17 points and their centroid
    # whose one margin column is the centroid, and the extreme-point
    # checks, infeasible at extreme points
    assert any(p.free.any() and p.n_constraints == 4 for p in progs)
    assert any(p.n_vars == 18 + 2 * 3 and p.rows[-1].sum() == 1.0
               for p in progs)
    statuses = {_assert_bit_identical(prog) for prog in progs}
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_solve_matches_reference_on_infeasible_full_blocks(recorded_programs):
    sol, _ = full_extraction_lp(models.random_tabular(3, 40, 6))
    statuses = [_assert_bit_identical(rec.program)
                for rec in recorded_programs]
    assert len(statuses) == 40
    # an infeasible type's block is unbounded in the transposed form, and
    # the first unbounded block is the one the certificate weights
    t = statuses.index(UNBOUNDED)
    assert sol.status == INFEASIBLE
    assert np.flatnonzero(sol.duals[:40]).tolist() == [t]


@pytest.mark.xfail(strict=True, reason="the tableau drifts after a pivot on "
                   "a 1.9e-10 entry")
def test_boxed_max_mass_program_certifies():
    # the boxed max-mass LP through p_8 on a seeded sparse point set ends
    # OPTIMAL at -8.52958, below HiGHS's -8.52690, violating rows by 1.2e-3;
    # its final basis is HiGHS's optimum, but the tableau's values are not
    rng = np.random.default_rng(50)
    P = rng.exponential(size=(20, 5)) * (rng.random((20, 5)) < 0.6)
    P /= P.sum(axis=1, keepdims=True)
    cons = [(P[8], EQ, 0.0)] + [(P[k], GE, 0.0) for k in range(20) if k != 8]
    prog = boxed_program(-P.sum(axis=0), cons, [(-1.0, 1.0)] * 5)
    sol = solve(prog)
    assert sol.iterations == 102
    assert check_certificate(prog, sol).passed


def oracle_stream_instance(trial):
    """Trial `trial` of the random separation LPs of
    tests/test_geometry.py::test_separation_lp_matches_primal_oracle, drawn
    without that test's discarded box draw: (points, zero, floor, margin),
    the last three index arrays."""
    rng = np.random.default_rng(2024)
    for k in range(trial + 1):
        S = int(rng.integers(3, 7))
        n = int(rng.integers(2, 61))
        pts = rng.exponential(size=(n, S))
        if k % 3 == 0:
            pts[: n // 4] **= 4
        pts /= pts.sum(axis=1, keepdims=True)
        if k % 2 == 0 and n > 3:
            dup = rng.choice(n, size=max(1, n // 5), replace=False)
            pts[dup] = pts[rng.integers(n, size=dup.size)]
        perm = rng.permutation(n)
        n_zero = int(rng.integers(1, min(S, n - 1) + 1))
        n_floor = int(rng.integers(0, n - n_zero))
    return (pts, perm[:n_zero], perm[n_zero:n_zero + n_floor],
            perm[n_zero + n_floor:])


def test_separation_program_with_spanning_zero_points_solves():
    # 44 points in 5 states: 5 zero, 34 floor and 5 margin points; the
    # zero points are linearly independent, so z = 0 and the margin is 0
    # (HiGHS on the primal gives 0 too).  exposure_chain's supporting LP,
    # which has floor points, can build a program of this kind; from the
    # layout's start it solves (margin -1.1e-16)
    pts, zero, floor, margin = oracle_stream_instance(51)
    assert (len(pts), zero.size, floor.size, margin.size) == (44, 5, 34, 5)
    assert np.linalg.matrix_rank(pts[zero]) == 5
    _, m = geometry._separation_lp(pts, zero, floor, margin, "chain")
    assert abs(m) <= 1e-9


@pytest.mark.xfail(strict=True, raises=RuntimeError,
                   reason="phase 1 ends on a column with no positive entry "
                   "and a reduced cost of -8.8e-5, past its -2e-5 limit, "
                   "and raises 'phase 1 cannot be unbounded'")
def test_separation_program_with_spanning_zero_points_solves_without_a_start(
        recorded_programs):
    # the same program as a plain LinearProgram, which has no start, so
    # phase 1 runs from the artificial basis
    pts, zero, floor, margin = oracle_stream_instance(51)
    geometry._separation_lp(pts, zero, floor, margin, "chain")
    prog = recorded_programs[0].program
    prog.start = None
    sol = solve(prog)
    assert sol.status == OPTIMAL and abs(sol.objective_value) <= 1e-9


def test_free_mask_as_list_matches_array():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        free = rng.random(n) < 0.5
        cons = [(rng.normal(size=n), [LE, GE, "="][k % 3], rng.normal())
                for k in range(m)]
        obj = rng.normal(size=n)
        by_list = LinearProgram(obj, cons, free=free.tolist())
        by_array = LinearProgram(obj, cons, free=free)
        free[0] = not free[0]       # the program keeps its own copy
        assert by_list.free.tolist() == by_array.free.tolist() != (
            free.tolist())
        a, b = solve(by_list), solve(by_array)
        assert a.status == b.status and a.iterations == b.iterations
        for x, y in [(a.primal, b.primal), (a.duals, b.duals),
                     (a.ray, b.ray)]:
            assert (x is None and y is None) or np.array_equal(x, y)
        _assert_bit_identical(by_array)


@pytest.mark.parametrize("free", [
    [True, False], [[True]], True, [1], [1.0], ["a"], [None],
    np.array([1], dtype=np.int8)])
def test_malformed_free_rejected(free):
    with pytest.raises(MalformedProgram):
        LinearProgram([1.0], [([1.0], LE, 1.0)], free=free)


# ---------------------------------------------------------------------------
# the driver: one lock-step simplex over a stack of same-layout programs

def solve_one_chunk(layout, rows, objectives=None, rhs=None):
    """lp.solve_chunks on the stacked programs with these rows, and these
    objectives and rhs where given (else layout's), as one chunk."""
    def fill(lo, hi, rows_buf, objectives_buf, rhs_buf):
        rows_buf[:] = rows
        if objectives is not None:
            objectives_buf[:] = objectives
        if rhs is not None:
            rhs_buf[:] = rhs
    return list(lp.solve_chunks(layout, len(rows), len(rows), fill))


def _same_bits(a, b):
    """Equal values, or both None, down to the signs of zeros."""
    if a is None or b is None:
        return a is None and b is None
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_solution(got, ref):
    """Two LpSolutions equal down to the signs of zeros."""
    assert got.status == ref.status
    assert got.iterations == ref.iterations
    assert _same_bits(got.objective_value, ref.objective_value)
    for a, b in [(got.primal, ref.primal), (got.duals, ref.duals),
                 (got.ray, ref.ray)]:
        assert _same_bits(a, b)


def _spy_hand_offs(patch, handed):
    """Spy through patch on _Stack.run and _Stack._run_one: handed gets,
    for each slot that _run_one finishes while others still run in lock
    step, why it left: "bland" (its degenerate streak passed
    BLAND_TRIGGER), "unbounded" or "parked" (its entering column has no
    positive entry, and it ends unbounded or parks the column), or
    "other"."""
    run, run_one = lp._Stack.run, lp._Stack._run_one
    calls = []

    def spy_run(self, costs, n_enter, live):
        calls.clear()
        run(self, costs, n_enter, live)
        handed.extend(calls[:-1])   # the last may be the last running slot

    def spy_run_one(self, slot, n_enter, ntol):
        streak = self.info[slot, lp._STREAK]
        T, kept = self.T[slot], self.kept[slot]
        q = T[-1, :n_enter].argmin()
        blocked = not (kept & (T[:-1, q] > PIVOT_TOL)).any()
        run_one(self, slot, n_enter, ntol)
        if streak > BLAND_TRIGGER:
            why = "bland"
        elif self.info[slot, lp._STATUS] == lp._UNBOUNDED:
            why = "unbounded"
        else:
            why = "parked" if blocked else "other"
        calls.append(why)

    patch.setattr(lp._Stack, "run", spy_run)
    patch.setattr(lp._Stack, "_run_one", spy_run_one)


def _assert_stack_bit_identical(programs, events=None, handed=None):
    """One solve_chunks chunk of the stacked rows and objectives of
    programs, which share a layout, equals reference_solve and solve
    program by program, bit for bit; returns the statuses.  Programs whose
    right-hand sides differ get them from the fill; others keep the
    layout's.  events collects the reference solves' events, and handed
    the slots the stack hands to _run_one early (_spy_hand_offs)."""
    rhs = np.stack([p.rhs for p in programs])
    with pytest.MonkeyPatch.context() as patch:
        if handed is not None:
            _spy_hand_offs(patch, handed)
        got_all = solve_one_chunk(
            programs[0], np.stack([p.rows for p in programs]),
            np.stack([p.objective for p in programs]),
            None if rhs.tobytes() == np.tile(
                rhs[0], (len(rhs), 1)).tobytes() else rhs)
    assert len(got_all) == len(programs)
    statuses = []
    for prog, got in zip(programs, got_all):
        for ref in (reference_solve(prog, events), solve(prog)):
            _assert_same_solution(got, ref)
        statuses.append(got.status)
    return statuses


def test_solve_all_matches_reference_on_exposure_stacks(recorded_programs):
    # 201 points: two chunks of expose_each's stacks
    tables = [models.sample(models.counterexample_model(), n)
              for n in (101, 201)]
    tables += [models.random_tabular(seed, 40, 6) for seed in range(4)]
    for tab in tables:
        recorded_programs.clear()
        expose_each(tab.belief_set())
        assert len(recorded_programs) == tab.n_types
        assert all(rec.family == "separation" for rec in recorded_programs)
        progs = [rec.program for rec in recorded_programs]
        assert set(_assert_stack_bit_identical(progs)) == {OPTIMAL}


def test_solve_all_matches_reference_on_vse_blocks(recorded_programs):
    model = models.counterexample_model()
    tables = [models.sample(model, n) for n in (33, 65, 129)]
    tables += [models.random_tabular(seed, 40, 6) for seed in range(6)]
    for tab in tables:
        recorded_programs.clear()
        solve_primal(VseInstance(tab))
        assert len(recorded_programs) == tab.n_types
        progs = [rec.program for rec in recorded_programs]
        assert set(_assert_stack_bit_identical(progs)) == {OPTIMAL}


@pytest.fixture(scope="module")
def virtual_separators():
    """The preset's virtual separation LPs as _case1_terms stacks them:
    (layout, rows, objectives) over all 99 off-face types, and each
    program's reference_solve answer."""
    model = cli.build_model(cli.counterexample_preset()["model"])
    parts = []
    stack = lp._solve_stack

    def spy(layout, rows, objectives, rhs, ws, family):
        if family == "virtual":
            parts.append((layout, np.array(rows), np.array(objectives)))
        return stack(layout, rows, objectives, rhs, ws, family)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_stack", spy)
        virtual_extraction_menu(model, 0.05, 101)
    layout = parts[0][0]
    rows = np.concatenate([r for _, r, _ in parts])
    objectives = np.concatenate([c for _, _, c in parts])
    refs = [reference_solve(program(layout, r, c, layout.rhs))
            for r, c in zip(rows, objectives)]
    return layout, rows, objectives, refs


@pytest.mark.parametrize("chunk, view, fallback", [
    (1, False, False), (SEPARATOR_CHUNK, False, False), (40, False, False),
    (SEPARATOR_CHUNK, True, False), (40, True, True)],
    ids=["chunks of 1", "SEPARATOR_CHUNK", "chunks of 40", "broadcast",
         "fallback"])
def test_solve_stack_matches_reference_on_virtual_separators(
        virtual_separators, monkeypatch, chunk, view, fallback):
    """The driver gives each of the preset's 99 virtual separators the
    reference answer bit for bit, whatever the chunks (99 = 8 x 12 + 3 =
    2 x 40 + 19), with the shared objective left to solve_chunks, which
    broadcasts the layout's, and through the per-program fallback of a
    stack without a shared canonical layout."""
    layout, rows, objectives, refs = virtual_separators
    assert rows.shape == (99, 4, 1001 + 1 + 2 * 3)
    assert len(set(layout.relations)) == 1 and layout.rhs.tolist() == [
        0.0, 0.0, 0.0, 1.0]
    if view:
        assert (objectives == layout.objective).all()
    stacked = []

    def no_shared_layout(prog, rows, objective, rhs, ws):
        if len(rows) == 1:
            return _canonicalize(prog, rows, objective, rhs, ws)
        stacked.append(len(rows))
        return None

    if fallback:
        monkeypatch.setattr(lp, "_canonicalize", no_shared_layout)
    got = []
    for lo in range(0, len(rows), chunk):
        part = slice(lo, lo + chunk)
        got += solve_one_chunk(layout, rows[part],
                               None if view else objectives[part])
    if fallback:
        assert stacked == [40, 40, 19]
    assert len(got) == len(refs)
    for sol, ref in zip(got, refs):
        _assert_same_solution(sol, ref)
    assert {sol.status for sol in got} == {OPTIMAL}


def _assert_starts_feasible_and_optimal(programs):
    """Each program, solved alone, is primal feasible right after its
    layout's start (no basic variable below zero, and every artificial
    left basic at zero) and ends OPTIMAL within FEAS_TOL of the same
    program solved without a start, the driver's path for programs that
    have none.  Returns how many programs keep an artificial at the
    start."""
    states = []
    pivot_in = lp._pivot_in

    def spy(stack, *args):
        pivot_in(stack, *args)
        n_real = args[-1]
        m = stack.basis.shape[1]
        states.append((stack.T[0, :m, -1].copy(), stack.basis[0] >= n_real))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_pivot_in", spy)
        started = [solve(prog) for prog in programs]
    assert len(states) == len(programs)
    kept = 0
    for prog, sol, (rhs, art) in zip(programs, started, states):
        assert (rhs >= 0.0).all() and (rhs[art] == 0.0).all()
        kept += art.any()
        plain = program(prog, prog.rows, prog.objective, prog.rhs)
        plain.start = None
        ref = solve(plain)
        assert sol.status == ref.status == OPTIMAL
        assert abs(sol.objective_value - ref.objective_value) <= FEAS_TOL * (
            1.0 + abs(ref.objective_value))
    return kept


def test_exposure_starts_are_feasible_and_reach_the_optimum(
        recorded_programs):
    tables = [models.sample(models.counterexample_model(), n)
              for n in (101, 201)]
    tables += [models.random_tabular(seed, 40, 6) for seed in range(4)]
    for tab in tables:
        recorded_programs.clear()
        expose_each(tab.belief_set())
        progs = [rec.program for rec in recorded_programs]
        assert _assert_starts_feasible_and_optimal(progs) == 0


def test_virtual_separator_starts_are_feasible_and_reach_the_optimum(
        virtual_separators):
    layout, rows, objectives, _ = virtual_separators
    progs = [program(layout, r, c, layout.rhs)
             for r, c in zip(rows, objectives)]
    assert _assert_starts_feasible_and_optimal(progs) == 0


def test_vse_block_starts_are_feasible_and_reach_the_optimum(
        recorded_programs):
    """The curve's blocks, up to the three chunks at n = 257, and the
    random tables' solve from their starts with no RuntimeWarning (an
    error under the test configuration).  A block of a table with more
    states than types has more rows than columns: its start leaves
    artificials basic at zero, which phase 1's transition drops."""
    model = models.counterexample_model()
    tables = [models.sample(model, n) for n in (33, 65, 129, 257)]
    tables += [models.random_tabular(seed, 40, 6) for seed in range(6)]
    tables.append(models.random_tabular(3, 6, 8))
    for tab in tables:
        recorded_programs.clear()
        solve_primal(VseInstance(tab))
        assert len(recorded_programs) == tab.n_types
        progs = [rec.program for rec in recorded_programs]
        kept = _assert_starts_feasible_and_optimal(progs)
        assert kept == (tab.n_types if tab.state_count > tab.n_types else 0)


def test_started_stacks_match_reference_whatever_their_mix():
    """Programs whose starts take different routes share a stack and still
    get reference_solve's answer and their own, bit for bit: a start
    group of singleton columns enters at once in some slots and by
    threshold pivoting in others, and a slot whose rows are dependent
    keeps an artificial while the others pivot on."""
    rng = np.random.default_rng(11)
    m, n, k = 5, 12, 3
    layout = LinearProgram(np.zeros(n), [(np.zeros(n), EQ, 0.0)] * m)
    # the first k columns carry a feasible point; the rest enter at zero,
    # in order of decreasing cost
    layout.start = lambda rows, objectives, rhs: (
        np.arange(k), k + np.argsort(-objectives[:, k:], axis=1))
    programs = []
    for trial in range(12):
        rows = rng.normal(size=(m, n))
        if trial % 3 == 0:      # singleton start columns
            rows[:, :k] = 0.0
            rows[np.arange(k), np.arange(k)] = rng.uniform(0.5, 2.0, k)
        if trial % 4 == 1:      # a dependent row
            rows[-1] = rows[0]
        rhs = rows[:, :k] @ rng.uniform(0.5, 1.5, k)
        # rhs >= 0, so that the stack shares its row flips
        rows[rhs < 0.0] *= -1.0
        prog = program(layout, rows, rng.uniform(0.0, 1.0, n), np.abs(rhs))
        programs.append(prog)
    events = set()
    assert set(_assert_stack_bit_identical(programs, events)) == {OPTIMAL}
    assert "dropped" in events


def test_stack_pivot_keeps_the_signed_zeros_of_the_one_slot_pivot():
    """_pivot_stack is _pivot slot by slot down to the signs of zeros, on
    tableaux seeded with -0.0 entries, negative pivot rows and zero
    factors.  An outer product that accumulates into +0.0, as einsum and
    matmul do, turns a -0.0 product into +0.0 and fails here."""
    rng = np.random.default_rng(3)
    B, m, w = 8, 5, 9
    T = rng.integers(-3, 4, size=(B, m + 1, w)).astype(float)
    T[rng.random(T.shape) < 0.3] = -0.0
    at, r, q = np.arange(B), rng.integers(m, size=B), rng.integers(w, size=B)
    T[at, r] = -np.abs(T[at, r])            # pivot rows of -0.0 and < 0
    T[at, r, q] = -2.0
    T[at, (r + 1) % m, q] = -0.0            # zero factors of both signs
    T[at, (r + 2) % m, q] = 0.0
    basis = np.zeros((B, m), dtype=int)
    want, want_basis = T.copy(), basis.copy()
    for k in range(B):
        _pivot(want[k], want_basis[k], r[k], q[k])
    accumulated = T.copy()
    prow = accumulated[at, r] / accumulated[at, r, q][:, None]
    factors = accumulated[at, :, q]
    factors[at, r] = 0.0
    accumulated[at, r] = prow
    accumulated -= np.einsum("ki,kj->kij", factors, prow)

    _pivot_stack(T, basis, r, q, np.empty_like(T))
    assert T.tobytes() == want.tobytes()
    assert np.array_equal(basis, want_basis)
    assert np.array_equal(accumulated, want)
    assert accumulated.tobytes() != want.tobytes()


def test_objective_value_does_not_depend_on_the_memory_layout():
    """Table 0's exposure programs, with their shared objective as a
    broadcast view, get the same objective values bit for bit from the
    driver with a C-ordered and with an F-ordered copy of it (whose rows
    are strided, which once moved the last bit of one value in 40)."""
    bset = models.random_tabular(0, 40, 6).belief_set()
    m = len(bset)
    others = np.arange(m - 1) + (np.arange(m - 1) >= np.arange(m)[:, None])
    layout = geometry.separation_layout(m - 1, 1, bset.n_states)
    rows = np.empty((m, bset.n_states + 1, layout.n_vars))
    geometry.separation_rows(rows, bset.points, others, np.full(m, m - 1),
                             bset.points[:, None])
    objectives = np.broadcast_to(layout.objective, (m, layout.n_vars))
    rhs = np.broadcast_to(layout.rhs, (m, layout.n_constraints))
    values = [
        np.array([sol.objective_value for sol in lp._solve_stack(
            layout, rows, copy, rhs, lp._Workspace(), None)])
        for copy in (objectives, np.ascontiguousarray(objectives),
                     np.asfortranarray(objectives))]
    assert values[0].tobytes() == values[1].tobytes() == values[2].tobytes()


def shared_layout_stack(rng, size):
    """size programs on one layout (x0 and x1 free, x2..x5 >= 0; three
    equality rows with rhs 1, 1, 2, a row <= 6, and the box rows x1 >= -1
    and x1 <= 3), each with its own integer rows and objective.  Program
    k is of kind k % 4: plain; redundant (row 2 is row 0 + row 1); parked
    (x5 has an empty column and the near-noise cost -5e-8, x4 the cost
    -1e-8, every other cost is 0); or unbounded (x5 has an empty column
    and cost -1)."""
    box = [(None, None), (-1.0, 3.0)] + [(0.0, None)] * 4
    rels, rhs = [EQ, EQ, EQ, LE], [1.0, 1.0, 2.0, 6.0]
    programs = []
    for k in range(size):
        A = rng.integers(-3, 4, size=(4, 6)).astype(float)
        c = rng.integers(-4, 5, size=6).astype(float)
        if k % 4 == 1:
            A[2] = A[0] + A[1]
        elif k % 4 == 2:
            A[:, 5] = 0.0
            c[:] = 0.0
            c[4], c[5] = -1e-8, -5e-8
        elif k % 4 == 3:
            A[:, 5] = 0.0
            c[5] = -1.0
        programs.append(boxed_program(c, list(zip(A, rels, rhs)), box))
    return programs


def near_redundant_stack(rng, size):
    """The plain kind of shared_layout_stack with row 2 = row 0 + row 1
    plus one entry below PIVOT_TOL.  Phase 1 drops row 2, and later pivots
    can grow its tiny entries past PIVOT_TOL, so a stack that let the
    dropped row into the ratio test would pivot on it."""
    box = [(None, None), (-1.0, 3.0)] + [(0.0, None)] * 4
    rels, rhs = [EQ, EQ, EQ, LE], [1.0, 1.0, 2.0, 6.0]
    programs = []
    for _ in range(size):
        A = rng.integers(-3, 4, size=(4, 6)).astype(float)
        c = rng.integers(-4, 5, size=6).astype(float)
        A[2] = A[0] + A[1]
        A[2, rng.integers(6)] += (rng.choice([-1.0, 1.0])
                                  * 10.0 ** rng.uniform(-13, -10))
        programs.append(boxed_program(c, list(zip(A, rels, rhs)), box))
    return programs


def degenerate_cone_stack(rng, size):
    """min c.x over {A x <= 0, sum x <= 1, x >= 0}, A 30 x 30: every
    pivot at the origin is degenerate, so most members reach Bland's
    rule, each after its own number of iterations."""
    programs = []
    for _ in range(size):
        A = rng.integers(-3, 4, size=(30, 30)).astype(float)
        cons = [(row, LE, 0.0) for row in A] + [(np.ones(30), LE, 1.0)]
        c = rng.integers(-5, 3, size=30).astype(float)
        programs.append(LinearProgram(c, cons))
    return programs


def test_solve_all_matches_reference_on_mixed_stacks():
    """Every program gets its solo answer bit for bit, those that leave
    the lock-step loop early for _run_one's unbounded test, parked
    columns and Bland's rule too."""
    rng = np.random.default_rng(0)
    events, handed = set(), []
    statuses = _assert_stack_bit_identical(shared_layout_stack(rng, 24),
                                           events, handed)
    statuses += _assert_stack_bit_identical(degenerate_cone_stack(rng, 4),
                                            events, handed)
    statuses += _assert_stack_bit_identical(
        near_redundant_stack(np.random.default_rng(41), 8), events, handed)
    assert set(statuses) == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    assert events == {"dropped", "parked", "unparked", "bland"}
    assert set(handed) == {"unbounded", "parked", "bland"}


@st.composite
def degenerate_stacks(draw):
    """Programs on one random layout whose rows come from a small pool
    that holds a zero row, so rows repeat within and across programs;
    some boxes are tight (lower = upper), and boxed_program writes them
    as rows.  The programs share their right-hand sides, or each draws
    its own for its constraints, whose signs and so row flips may differ
    between programs."""
    small = st.integers(min_value=-2, max_value=2)
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=4))
    rels = draw(st.lists(st.sampled_from([LE, GE, EQ]), min_size=m,
                         max_size=m))
    rhs = draw(st.lists(small, min_size=m, max_size=m))
    own_rhs = draw(st.booleans())
    box = draw(st.lists(st.sampled_from(
        [(0.0, None), (None, None), (0.0, 0.0), (1.0, 1.0), (-1.0, 2.0),
         (0.5, None)]), min_size=n, max_size=n))
    sense = draw(st.sampled_from(["min", "max"]))
    pool = [[0] * n] + draw(st.lists(st.lists(small, min_size=n,
                                              max_size=n),
                                     min_size=1, max_size=3))
    programs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=m,
                              max_size=m))
        c = draw(st.lists(small, min_size=n, max_size=n))
        if own_rhs:
            rhs = draw(st.lists(small, min_size=m, max_size=m))
        cons = [(pool[k], rel, b) for k, rel, b in zip(picks, rels, rhs)]
        programs.append(boxed_program(c, cons, box, sense=sense))
    return programs


@settings(max_examples=150, deadline=None)
@given(degenerate_stacks())
def test_solve_all_matches_reference_on_degenerate_stacks(programs):
    handed = []
    _assert_stack_bit_identical(programs, handed=handed)
    assert set(handed) <= {"unbounded", "parked", "bland"}


def test_solve_all_solves_alone_when_row_flips_differ():
    # -1e-320 / 1e10 underflows to -0.0, a row that needs no flip, while
    # -1e-320 / 1 keeps its sign: the two programs share no canonical
    # layout, and each is solved on its own
    progs = [LinearProgram([1.0], [([scale], GE, -1e-320)])
             for scale in (1.0, 1e10)]
    assert _assert_stack_bit_identical(progs) == [OPTIMAL, OPTIMAL]

    # per-program rhs that flip the second row of some programs only
    progs = [LinearProgram([1.0, 2.0], [([1.0, 1.0], GE, 1.0),
                                        ([1.0, -1.0], EQ, b)])
             for b in (0.5, -0.5, 2.0, -3.0)]
    rows = np.stack([p.rows for p in progs])
    objectives = np.stack([p.objective for p in progs])
    rhs = np.stack([p.rhs for p in progs])
    assert _canonicalize(progs[0], rows, objectives, rhs,
                         lp._Workspace()) is None
    assert _canonicalize(progs[0], rows[::2], objectives[::2], rhs[::2],
                         lp._Workspace()) is not None
    assert _assert_stack_bit_identical(progs) == [OPTIMAL] * 4


# ---------------------------------------------------------------------------
# the workspace of one call, which its chunks share

def _answer_bytes(sol):
    """sol's status, iterations and every number it holds, as bytes."""
    parts = [sol.primal, sol.duals, sol.ray, sol.objective_value]
    return [sol.status, sol.iterations] + [
        None if p is None else np.asarray(p).tobytes() for p in parts]


def _aliases(sol, buffers):
    """Whether a vector of sol shares memory with one of buffers."""
    return any(np.shares_memory(part, buf) for buf in buffers
               for part in (sol.primal, sol.duals, sol.ray)
               if part is not None)


def test_chunks_of_one_call_share_its_buffers_without_aliasing():
    """Chunks of one family solved in one workspace, as the chunks of a
    solve_chunks call are: larger after smaller and smaller after
    larger, one with more artificial columns (a flipped "<=" row) and one
    through the row-flip fallback, with optimal, infeasible and unbounded
    programs among them.  Each answer still holds the bytes it was
    returned with after every later chunk ran, and shares no memory with
    the workspace; each equals bit for bit the answer of its chunk in a
    fresh workspace (solve_one_chunk), and of solve() alone.  The buffers
    grow for a larger chunk and are the same arrays for a smaller one."""
    rng = np.random.default_rng(5)
    programs = shared_layout_stack(rng, 40)
    layout = programs[0]
    rows = np.stack([p.rows for p in programs])
    objectives = np.stack([p.objective for p in programs])
    rhs = np.tile(layout.rhs, (len(programs), 1))
    rhs[15:20, 3] = -6.0            # row 3 "<=" flips: one more artificial
    rhs[20:30:2, 3] = -6.0          # flips in half a chunk: the fallback
    chunks = [slice(0, 3), slice(3, 15), slice(15, 20), slice(20, 30),
              slice(30, 40)]
    ws = lp._Workspace()
    answers, snapshots = [], []
    for part in chunks:
        before = dict(ws._buffers)
        got = lp._solve_stack(layout, rows[part], objectives[part],
                              rhs[part], ws, None)
        after = dict(ws._buffers)
        if part == slice(15, 20):   # smaller than the chunk before
            assert all(after[k] is before[k] for k in before)
        if part == slice(3, 15):    # larger than the chunk before
            assert any(after[k].size > before[k].size for k in before)
        ref = solve_one_chunk(layout, rows[part], objectives[part],
                              rhs[part])
        for k, sol, want in zip(range(part.start, part.stop), got, ref):
            _assert_same_solution(sol, want)
            _assert_same_solution(sol, solve(program(
                layout, rows[k], objectives[k], rhs[k])))
        answers += got
        snapshots += [_answer_bytes(sol) for sol in got]

    assert {sol.status for sol in answers} == {OPTIMAL, INFEASIBLE,
                                               UNBOUNDED}
    assert [_answer_bytes(sol) for sol in answers] == snapshots
    assert not any(_aliases(sol, ws._buffers.values()) for sol in answers)


# ---------------------------------------------------------------------------
# solve_chunks: the chunk loop of every family

def chunk_family():
    """Twelve shared_layout_stack programs, optimal, infeasible and
    unbounded ones among them (rhs 2 of row 3 in three programs flips it
    and adds an artificial column), as solve_chunks' layout, a fill that
    records each chunk's (lo, hi) and rows buffer, and each program's
    solve() answer."""
    programs = shared_layout_stack(np.random.default_rng(5), 12)
    layout = programs[0]
    rows = np.stack([p.rows for p in programs])
    objectives = np.stack([p.objective for p in programs])
    rhs = np.tile(layout.rhs, (len(programs), 1))
    rhs[4:7, 3] = -6.0
    chunks = []

    def fill(lo, hi, rows_buf, objectives_buf, rhs_buf):
        chunks.append((lo, hi, rows_buf))
        rows_buf[:] = rows[lo:hi]
        objectives_buf[:] = objectives[lo:hi]
        rhs_buf[:] = rhs[lo:hi]

    refs = [solve(program(layout, r, c, b))
            for r, c, b in zip(rows, objectives, rhs)]
    assert {ref.status for ref in refs} == {OPTIMAL, INFEASIBLE, UNBOUNDED}
    return layout, fill, chunks, refs


@pytest.mark.parametrize("chunk", [1, 2, 11, 12, 17])
def test_solve_chunks_gives_each_program_its_solve_answer(chunk,
                                                          driver_calls):
    """Whatever the chunk, each program gets solve()'s answer bit for bit,
    in program order, from one _solve_stack call per chunk with the
    call's family label, which solve_chunks looks up in the module as it
    calls it.  The chunks whose programs need different row flips go
    through the driver's per-program fallback, which re-enters no
    wrapper of _solve_stack."""
    layout, fill, chunks, refs = chunk_family()
    driver_calls.clear()        # the reference solves
    got = list(lp.solve_chunks(layout, len(refs), chunk, fill,
                               family="chunks"))
    bounds = [(lo, min(lo + chunk, len(refs)))
              for lo in range(0, len(refs), chunk)]
    assert [(lo, hi) for lo, hi, _ in chunks] == bounds
    assert driver_calls == [("chunks", hi - lo) for lo, hi in bounds]
    assert len(got) == len(refs)
    for sol, ref in zip(got, refs):
        _assert_same_solution(sol, ref)


def test_solve_chunks_reuses_its_buffers_without_aliasing():
    """A call fills all its chunks into one rows buffer of its workspace,
    the smaller last chunk too, and no answer shares memory with that
    workspace.  The layout holds no solver state: its attributes are the
    same after solve_chunks and solve on it, and a second call gives the
    first one's answers."""
    layout, fill, chunks, refs = chunk_family()
    state = {k: id(v) for k, v in vars(layout).items()}
    spaces = []
    stack = lp._solve_stack

    def spy(layout, rows, objectives, rhs, ws, family):
        spaces.append(ws)
        return stack(layout, rows, objectives, rhs, ws, family)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_stack", spy)
        first = list(lp.solve_chunks(layout, len(refs), 5, fill))
    snapshots = [_answer_bytes(sol) for sol in first]
    assert [hi - lo for lo, hi, _ in chunks] == [5, 5, 2]
    assert len({buf.__array_interface__["data"][0]
                for _, _, buf in chunks}) == 1
    ws, = set(spaces)
    assert np.shares_memory(chunks[0][2], ws._buffers["rows"])
    assert not any(_aliases(sol, ws._buffers.values()) for sol in first)
    second = list(lp.solve_chunks(layout, len(refs), 5, fill))
    solve(layout)
    assert {k: id(v) for k, v in vars(layout).items()} == state
    assert [_answer_bytes(sol) for sol in first] == snapshots
    assert [_answer_bytes(sol) for sol in second] == snapshots
    for sol, ref in zip(second, refs):
        _assert_same_solution(sol, ref)


def test_solve_chunks_stopped_early_resumes_after_another_call():
    """A caller that takes the first answers of a chunk and stops keeps
    its call's workspace: a later call on the layout solves every
    program, and the stopped iteration, resumed after that call, still
    gives the rest of its answers."""
    layout, fill, chunks, refs = chunk_family()
    stopped = lp.solve_chunks(layout, len(refs), 4, fill)
    head = [next(stopped) for _ in range(6)]
    for sol, ref in zip(head, refs):
        _assert_same_solution(sol, ref)
    for sol, ref in zip(lp.solve_chunks(layout, len(refs), 4, fill), refs):
        _assert_same_solution(sol, ref)
    for sol, ref in zip(stopped, refs[6:]):
        _assert_same_solution(sol, ref)
    assert len(chunks) == 2 + 3 + 1


def test_nested_solve_chunks_keep_their_own_buffers():
    """A fill that runs another solve_chunks call on the same layout,
    after it writes its chunk, leaves that chunk as it wrote it: the
    outer and the inner call give each program its own solve() answer."""
    layout, fill, _, refs = chunk_family()
    inner = []

    def outer(lo, hi, rows, objectives, rhs):
        fill(lo, hi, rows, objectives, rhs)
        inner.extend(lp.solve_chunks(layout, len(refs), 4, fill))

    got = list(lp.solve_chunks(layout, len(refs), 4, outer))
    assert len(got) == len(refs) and len(inner) == 3 * len(refs)
    for sol, ref in zip(got + inner, refs * 4):
        _assert_same_solution(sol, ref)


@pytest.mark.parametrize("count, chunk", [(3, 0), (3, -1), (-2, 1),
                                          (-1, 0)])
def test_solve_chunks_rejects_a_bad_count_or_chunk(count, chunk):
    """A negative count or a chunk below 1 raises before any fill runs,
    rather than solving no program; a count of 0 solves none."""
    layout, fill, chunks, _ = chunk_family()
    with pytest.raises(ValueError, match="at a time"):
        list(lp.solve_chunks(layout, count, chunk, fill))
    assert list(lp.solve_chunks(layout, 0, 1, fill)) == []
    assert not chunks


@pytest.mark.parametrize("field, value", [(0, np.nan), (1, np.inf),
                                          (2, -np.inf)])
def test_solve_chunks_rejects_non_finite_data_from_its_fill(field, value):
    """A fill that writes a NaN or an infinity into a program's rows,
    objective or rhs gets MalformedProgram from the driver."""
    layout, fill, _, _ = chunk_family()

    def bad_fill(lo, hi, *arrays):
        fill(lo, hi, *arrays)
        arrays[field][-1].flat[0] = value

    with pytest.raises(MalformedProgram, match="non-finite"):
        list(lp.solve_chunks(layout, 12, 5, bad_fill))
