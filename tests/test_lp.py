"""Simplex solver tests against a brute-force vertex enumeration oracle."""

import itertools

import numpy as np
import pytest

from surplex.lp import (
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    MalformedProgram,
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
