"""Geometry predicate tests: dimensions, extreme/exposed points, faces."""

import numpy as np
import pytest

from surplex import extraction, geometry, lp
from surplex.geometry import (
    FACE_TOL,
    EmptySet,
    FiniteBeliefSet,
    IndexOutOfRange,
    NotExtreme,
    NotSupporting,
    affine_dimension,
    expose_set,
    exposure_chain,
    face_of,
    is_extreme,
    max_margin_functional,
    prob_vector,
)
from surplex.models import TabularModel, counterexample_model, sample


def simplex_vertices():
    return FiniteBeliefSet(["e1", "e2", "e3"], np.eye(3))


def random_belief_set(rng, m, s):
    pts = rng.exponential(size=(m, s))
    pts /= pts.sum(axis=1, keepdims=True)
    return FiniteBeliefSet([f"T{i}" for i in range(m)], pts)


def test_prob_vector_validation():
    prob_vector([0.5, 0.5])
    with pytest.raises(ValueError):
        prob_vector([0.5, 0.6])
    with pytest.raises(ValueError):
        prob_vector([-0.1, 1.1])


def test_belief_rows_name_first_bad_label():
    rows = [[0.5, 0.5], [0.5, 0.6], [-0.1, 1.1]]
    with pytest.raises(ValueError, match="belief of b is"):
        FiniteBeliefSet(["a", "b", "c"], rows)
    with pytest.raises(ValueError, match="belief of T1 is"):
        TabularModel(["T0", "T1", "T2"], rows, np.zeros(3))
    with pytest.raises(ValueError, match="belief of c is"):
        FiniteBeliefSet(["a", "b", "c"], [[0.5, 0.5], [1.0, 0.0],
                                          [np.nan, 1.0]])


def test_affine_dimension_basics():
    single = FiniteBeliefSet(["a"], np.array([[0.2, 0.3, 0.5]]))
    assert affine_dimension(single) == 0
    assert affine_dimension(simplex_vertices()) == 2


def test_affine_dimension_segment():
    # 10 points on a segment inside the 3-state simplex
    ts = np.linspace(0.0, 1.0, 10)
    a, b = np.array([0.7, 0.2, 0.1]), np.array([0.1, 0.6, 0.3])
    pts = np.outer(1 - ts, a) + np.outer(ts, b)
    bset = FiniteBeliefSet([f"t{i}" for i in range(10)], pts)
    assert affine_dimension(bset) == 1


def test_is_extreme_simplex_vertices():
    bset = simplex_vertices()
    for i in range(3):
        ok, witness = is_extreme(bset, i)
        assert ok and witness is None


def test_is_extreme_centroid_witness():
    pts = np.vstack([np.eye(3), np.full((1, 3), 1.0 / 3.0)])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "c"], pts)
    ok, mu = is_extreme(bset, 3)
    assert not ok
    assert mu == pytest.approx([1 / 3, 1 / 3, 1 / 3, 0.0], abs=1e-9)
    assert np.abs(pts[3] - mu @ pts).max() <= 1e-8


def test_is_extreme_duplicate_delta_witness():
    pts = np.vstack([np.eye(3), np.eye(3)[:1]])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "dup"], pts,
                           allow_duplicates=True)
    ok, mu = is_extreme(bset, 3)
    assert not ok
    assert mu == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)
    with pytest.raises(IndexOutOfRange):
        is_extreme(bset, 4)


def test_duplicates_need_flag():
    pts = np.vstack([np.eye(3), np.eye(3)[:1]])
    with pytest.raises(ValueError):
        FiniteBeliefSet(["a", "b", "c", "d"], pts)


def test_expose_set_simplex_vertex():
    bset = simplex_vertices()
    res = expose_set(bset, [0])
    assert res is not None
    z, margin = res
    assert margin == pytest.approx(1.0, abs=1e-9)
    vals = bset.points @ z
    assert vals[0] == pytest.approx(0.0, abs=1e-9)
    assert vals[1] >= margin - 1e-9 and vals[2] >= margin - 1e-9


def test_expose_set_non_extreme_absent():
    pts = np.vstack([np.eye(3), np.full((1, 3), 1.0 / 3.0)])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "c"], pts)
    assert expose_set(bset, [3]) is None


def test_expose_set_duplicate_absent():
    pts = np.vstack([np.eye(3), np.eye(3)[:1]])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "dup"], pts,
                           allow_duplicates=True)
    assert expose_set(bset, [3]) is None
    assert expose_set(bset, [0]) is None


def test_face_of_simplex():
    bset = simplex_vertices()
    face = face_of(bset, np.array([0.0, 1.0, 1.0]))
    assert list(face) == [0]
    assert list(face_of(bset, np.zeros(3))) == [0, 1, 2]
    with pytest.raises(NotSupporting):
        face_of(bset, np.array([-1.0, 1.0, 1.0]))


def test_face_dimension_strictly_drops():
    rng = np.random.default_rng(7)
    for _ in range(20):
        bset = random_belief_set(rng, 6, 4)
        res = expose_set(bset, [0])
        if res is None:
            continue
        z, _ = res
        face = face_of(bset, z)
        sub = FiniteBeliefSet([bset.labels[k] for k in face],
                              bset.points[face])
        assert affine_dimension(sub) < affine_dimension(bset)


def test_exposure_chain_exposed_point_length_one():
    bset = simplex_vertices()
    chain = exposure_chain(bset, 0)
    assert chain.length == 1
    assert list(chain.stages[0][0]) == [0]
    assert chain.margins[0] > 1e-7


def test_exposure_chain_duplicate_not_extreme():
    pts = np.vstack([np.eye(3), np.eye(3)[:1]])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "dup"], pts,
                           allow_duplicates=True)
    with pytest.raises(NotExtreme):
        exposure_chain(bset, 3)


def test_exposed_implies_extreme_and_converse_random():
    # on finite sets with pairwise-distinct points the two notions agree
    rng = np.random.default_rng(123)
    checked_exposed = 0
    for _ in range(100):
        m = int(rng.integers(3, 8))
        s = int(rng.integers(3, 6))
        bset = random_belief_set(rng, m, s)
        i = int(rng.integers(m))
        res = expose_set(bset, [i])
        extreme, mu = is_extreme(bset, i)
        if res is not None:
            checked_exposed += 1
            assert extreme
        if extreme:
            assert res is not None
        if mu is not None:
            assert np.abs(bset.points[i] - mu @ bset.points).max() <= 1e-8
    assert checked_exposed >= 30


def test_expose_set_margin_indices_floor():
    # with margin restricted to e2, e3 may sit at the floor level 0
    bset = simplex_vertices()
    z, margin = expose_set(bset, [0], margin_indices=[1])
    vals = bset.points @ z
    assert margin == pytest.approx(1.0, abs=1e-9)
    assert vals[1] >= 1.0 - 1e-9
    assert vals[2] >= -1e-9


def test_empty_and_bad_inputs():
    with pytest.raises(EmptySet):
        FiniteBeliefSet([], np.zeros((0, 3)))
    bset = simplex_vertices()
    with pytest.raises(ValueError):
        expose_set(bset, [])
    with pytest.raises(ValueError):
        expose_set(bset, [0, 1, 2])


def test_expose_set_empty_margin_family():
    bset = simplex_vertices()
    with pytest.raises(ValueError, match="margin family must be nonempty"):
        expose_set(bset, [0], margin_indices=[])


# ---------------------------------------------------------------------------
# the separation LP, solved in dual form

def primal_margin(points, zero, floor, margin, box):
    """The separation LP in its n-row primal form: one row per point."""
    S = points.shape[1]
    cons = [(np.append(points[j], 0.0), lp.EQ, 0.0) for j in zero]
    cons += [(np.append(points[k], 0.0), lp.GE, 0.0) for k in floor]
    cons += [(np.append(points[k], -1.0), lp.GE, 0.0) for k in margin]
    obj = np.zeros(S + 1)
    obj[-1] = 1.0
    sol = lp.solve(lp.LinearProgram(
        obj, cons, bounds=[(-box, box)] * S + [(None, None)], sense="max"))
    assert sol.status == lp.OPTIMAL
    return sol.objective_value


def test_separation_lp_matches_primal_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(60):
        S = int(rng.integers(3, 7))
        n = int(rng.integers(2, 61))
        pts = rng.exponential(size=(n, S))
        if trial % 3 == 0:
            # a few sharp, near-vertex beliefs
            pts[: n // 4] **= 4
        pts /= pts.sum(axis=1, keepdims=True)
        if trial % 2 == 0 and n > 3:   # duplicates, possibly across families
            dup = rng.choice(n, size=max(1, n // 5), replace=False)
            pts[dup] = pts[rng.integers(n, size=dup.size)]
        perm = rng.permutation(n)
        n_zero = int(rng.integers(1, min(S, n - 1) + 1))
        n_floor = int(rng.integers(0, n - n_zero))
        zero = perm[:n_zero]
        floor = perm[n_zero:n_zero + n_floor]
        margin = perm[n_zero + n_floor:]
        box = float(rng.choice([1.0, 0.5, 3.0]))

        z, m = geometry._separation_lp(pts, zero, floor, margin, box=box)
        m_ref = primal_margin(pts, zero, floor, margin, box)
        assert abs(m - m_ref) <= 1e-9 * (1.0 + abs(m_ref)), (trial, m, m_ref)

        vals = pts @ z
        assert np.abs(z).max() <= box + 1e-9
        assert np.abs(vals[zero]).max() <= FACE_TOL
        if floor.size:
            assert vals[floor].min() >= -FACE_TOL
        assert vals[margin].min() >= m - 1e-12


def case1_family(monkeypatch):
    """The (zero, floor, margin) points _case1_terms hands to
    max_margin_functional for the curve type t = 0.3: the 1,001-point
    certification grid of a 101-point construction grid."""
    model = counterexample_model(validate=False)
    cert_ts = np.linspace(0.0, 1.0, 1001)
    t, eps = 0.3, 0.05
    near = np.abs(cert_ts - t) < eps / (2.0 * model.lipschitz_v)
    seen = []

    def spy(*args, **kwargs):
        seen.append(args)
        return max_margin_functional(*args, **kwargs)

    monkeypatch.setattr(extraction, "max_margin_functional", spy)
    extraction._case1_terms(
        model.beliefs(t)[0], float(model.values(t)[0]),
        model.beliefs(cert_ts), model.values(cert_ts), near, eps,
        extraction.SAFETY_FACTOR)
    monkeypatch.undo()
    (family,) = seen
    return family


def test_case1_family_matches_highs(monkeypatch):
    optimize = pytest.importorskip("scipy.optimize")
    zero, floor, margin = case1_family(monkeypatch)
    assert len(zero) + len(floor) + len(margin) == 1002
    z, m = max_margin_functional(zero, floor, margin)

    # HiGHS on the primal: variables (z, m), maximize m
    S = zero.shape[1]
    c = np.zeros(S + 1)
    c[-1] = -1.0
    a_ub = np.vstack([np.hstack([-floor, np.zeros((len(floor), 1))]),
                      np.hstack([-margin, np.ones((len(margin), 1))])])
    a_eq = np.hstack([zero, np.zeros((len(zero), 1))])
    res = optimize.linprog(c, A_ub=a_ub, b_ub=np.zeros(len(a_ub)),
                           A_eq=a_eq, b_eq=np.zeros(len(zero)),
                           bounds=[(-1.0, 1.0)] * S + [(None, None)],
                           method="highs")
    assert res.status == 0
    assert m > 0.0
    assert abs(m - (-res.fun)) <= 1e-9 * (1.0 + abs(m))
    assert np.abs(zero @ z).max() <= FACE_TOL
    assert (floor @ z).min() >= -FACE_TOL
    assert np.abs(z).max() <= 1.0 + 1e-9


def test_separation_lps_have_state_rows_only(monkeypatch):
    """Every separation LP has S + 1 rows, whatever the number of points,
    and settles in a few pivots."""
    zero, floor, margin = case1_family(monkeypatch)
    bset = sample(counterexample_model(validate=False), 101) \
        .belief_set(allow_duplicates=True)
    programs = []
    solve = lp.solve

    def record(prog):
        sol = solve(prog)
        programs.append((prog.n_constraints, sol.iterations))
        return sol

    monkeypatch.setattr(geometry.lp, "solve", record)
    for i in (0, 1, 25, 50, 99, 100):
        expose_set(bset, [i], margin_tol=-np.inf)
    max_margin_functional(zero, floor, margin)
    assert len(programs) == 7
    for rows, iterations in programs:
        assert rows == bset.n_states + 1
        assert iterations <= 40
