"""Geometry predicate tests: dimensions, extreme/exposed points, faces."""

import numpy as np
import pytest

from surplex import duality, extraction, geometry, lp
from surplex.geometry import (
    DISTINCT_TOL,
    FACE_TOL,
    ChainStalled,
    EmptySet,
    FiniteBeliefSet,
    IndexOutOfRange,
    NotExtreme,
    NotSupporting,
    affine_dimension,
    expose_set,
    exposure_chain,
    extreme_each,
    face_of,
    is_extreme,
    known_combinations,
    prob_vector,
)
from surplex.models import (
    TabularModel,
    counterexample_model,
    planted_combination_instance,
    random_tabular,
    sample,
)
from conftest import full_separators
from test_lp import boxed_program


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


@pytest.mark.parametrize("call, error", [
    (lambda tab: is_extreme(tab.belief_set(), 2.5), TypeError),
    (lambda tab: exposure_chain(tab.belief_set(), 1.9), TypeError),
    (lambda tab: extreme_each(tab.belief_set(), [True]), TypeError),
    (lambda tab: expose_set(tab.belief_set(), [1, 1.5]), TypeError),
    (lambda tab: tab.index_of(2.7), TypeError),
    (lambda tab: extraction.classify_type(tab, 2.7), TypeError),
    (lambda tab: extraction.classify_type(tab, 5), IndexOutOfRange),
], ids=["is_extreme 2.5", "exposure_chain 1.9", "extreme_each True",
        "expose_set 1.5", "index_of 2.7", "classify_type 2.7",
        "classify_type 5"])
def test_point_indices_are_integers_in_range(call, error):
    """A point index is an int or a numpy integer (not a bool) that names
    a point: a float is not truncated, and an index past the end is
    checked before anything is indexed with it."""
    tab = random_tabular(0, 5, 3)
    with pytest.raises(error):
        call(tab)
    assert tab.belief_set()._memo == {}
    assert tab.index_of(np.int64(2)) == 2
    bset = tab.belief_set()
    assert is_extreme(bset, np.int64(2)) is is_extreme(bset, 2)


def test_duplicates_need_flag():
    pts = np.vstack([np.eye(3), np.eye(3)[:1]])
    with pytest.raises(ValueError):
        FiniteBeliefSet(["a", "b", "c", "d"], pts)


def _reference_duplicate_message(labels, points):
    """The per-point O(n^2) scan that the sort-based check replaced."""
    for i in range(len(points)):
        d = np.abs(points - points[i]).max(axis=1)
        d[i] = np.inf
        if d.min() <= DISTINCT_TOL:
            j = int(np.argmin(d))
            return (f"points {labels[i]} and {labels[j]} coincide; "
                    "pass allow_duplicates=True to permit this")
    return None


def test_duplicate_check_matches_reference_scan():
    rng = np.random.default_rng(23)
    for trial in range(200):
        n, s = int(rng.integers(2, 40)), int(rng.integers(2, 5))
        pts = rng.exponential(size=(n, s))
        if trial % 3 == 0:      # a shared first coordinate defeats no sort
            pts[:, 0] = pts[0, 0]
        pts /= pts.sum(axis=1, keepdims=True)
        # planted pairs just inside and just outside DISTINCT_TOL: move
        # mass delta between two states, a sup-norm step of delta
        for _ in range(int(rng.integers(0, 4))):
            i, j = rng.choice(n, size=2, replace=False)
            delta = DISTINCT_TOL * (1.0 + float(rng.choice([-1e-3, 1e-3])))
            a, b = rng.choice(s, size=2, replace=False)
            pts[j] = pts[i]
            pts[j, a] += delta
            pts[j, b] -= delta
        pts = np.clip(pts, 0.0, None)
        labels = [f"p{k}" for k in range(n)]
        expected = _reference_duplicate_message(labels, pts)
        if expected is None:
            FiniteBeliefSet(labels, pts)
        else:
            with pytest.raises(ValueError) as err:
                FiniteBeliefSet(labels, pts)
            assert str(err.value) == expected


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


def test_exposure_chain_of_a_single_point():
    # nothing to separate: one stage, the zero functional at margin inf,
    # as classify_type gives a one-type table
    chain = exposure_chain(FiniteBeliefSet(["a"], [[0.2, 0.8]]), 0)
    assert chain.length == 1
    members, z = chain.stages[0]
    assert list(members) == [0] and list(chain.initial_members) == [0]
    assert np.array_equal(z, np.zeros(2))
    assert chain.margins == [np.inf]


def test_exposure_chain_is_remembered_read_only(recorded_programs):
    """A belief set works out each point's chain once per declared faces
    and margin_tol, hands back read-only arrays, leaves the caller's
    faces writeable, and remembers no error."""
    model = counterexample_model(validate=False)
    bset = sample(model, 101).belief_set()
    declared = [np.array(f.functional) for f in model.declared_faces]
    chain = exposure_chain(bset, 0, declared_faces=declared)
    assert chain.length == 2
    solved = len(recorded_programs)
    assert exposure_chain(bset, 0, declared_faces=list(declared)) is chain
    assert len(recorded_programs) == solved
    assert exposure_chain(bset, 0) is not chain
    for part in (chain.initial_members, *sum(chain.stages, ())):
        assert not part.flags.writeable
    assert all(z.flags.writeable for z in declared)
    stalled = sample(model, 17).belief_set()
    for _ in range(2):
        recorded_programs.clear()
        with pytest.raises(ChainStalled):
            exposure_chain(stalled, 0, margin_tol=0.05)
        assert recorded_programs


def test_exposure_chain_duplicate_not_extreme():
    pts = np.vstack([np.eye(3), np.eye(3)[:1]])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "dup"], pts,
                           allow_duplicates=True)
    with pytest.raises(NotExtreme):
        exposure_chain(bset, 3)


def sparse_belief_set(seed, m=20, s=5):
    """Seeded points on faces of the simplex: each coordinate survives with
    probability 0.6, so many points share faces and some coincide."""
    rng = np.random.default_rng(seed)
    pts = rng.exponential(size=(m, s)) * (rng.random((m, s)) < 0.6)
    pts = pts[pts.sum(axis=1) > 0]
    pts /= pts.sum(axis=1, keepdims=True)
    return FiniteBeliefSet([f"T{k}" for k in range(len(pts))], pts,
                           allow_duplicates=True)


def test_chain_supporting_step_on_degenerate_sets(recorded_programs):
    """A margin_tol equal to a point's exposure margin forces the chain's
    supporting LP.  It is the separation LP over the members and their
    centroid: its face holds the target, is proper and supports every
    member, and its value is the max-mass LP's (HiGHS) divided by n."""
    optimize = pytest.importorskip("scipy.optimize")
    steps = 0
    for seed in range(10):
        bset = sparse_belief_set(seed)
        S = bset.n_states
        for i in range(len(bset)):
            if not is_extreme(bset, i)[0]:
                continue
            _, margin = expose_set(bset, [i], margin_tol=-np.inf)
            recorded_programs.clear()
            try:
                exposure_chain(bset, i, margin_tol=margin)
            except ChainStalled:
                pass
            for prog, sol, _ in recorded_programs:
                # columns: margin point, floor points, target, then -I, I
                cols = prog.rows[:S, :prog.n_vars - 2 * S]
                n = cols.shape[1] - 1
                if (prog.rows[-1, 1:].any()
                        or np.abs(cols[:, 0] - cols[:, 1:].mean(axis=1))
                        .max() > 1e-15):
                    continue
                steps += 1
                pts, z = cols[:, 1:].T, -sol.duals[:S]
                vals = pts @ z
                assert abs(vals[-1]) <= FACE_TOL
                assert vals.min() >= -FACE_TOL
                assert np.count_nonzero(np.abs(vals) <= FACE_TOL) < n
                assert np.abs(z).max() <= 1.0 + 1e-9
                res = optimize.linprog(
                    -pts.sum(axis=0), A_ub=-pts[:-1], b_ub=np.zeros(n - 1),
                    A_eq=pts[-1:], b_eq=[0.0], bounds=[(-1.0, 1.0)] * S,
                    method="highs")
                assert res.status == 0
                mass = -res.fun / n
                assert abs(cols[:, 0] @ z - mass) <= 1e-9 * (1.0 + mass)
    assert steps >= 100


def test_belief_sets_compare_by_identity():
    pts = np.array([[0.2, 0.8], [0.6, 0.4]])
    a = FiniteBeliefSet(["a", "b"], pts)
    b = FiniteBeliefSet(["a", "b"], pts)
    assert a == a and a != b
    assert len({a, b}) == 2


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


def test_empty_and_bad_inputs():
    with pytest.raises(EmptySet):
        FiniteBeliefSet([], np.zeros((0, 3)))
    bset = simplex_vertices()
    with pytest.raises(ValueError):
        expose_set(bset, [])
    with pytest.raises(ValueError):
        expose_set(bset, [0, 1, 2])


# ---------------------------------------------------------------------------
# the separation LP, solved in dual form

def primal_margin(points, zero, floor, margin):
    """The separation LP in its n-row primal form: one row per point."""
    S = points.shape[1]
    cons = [(np.append(points[j], 0.0), lp.EQ, 0.0) for j in zero]
    cons += [(np.append(points[k], 0.0), lp.GE, 0.0) for k in floor]
    cons += [(np.append(points[k], -1.0), lp.GE, 0.0) for k in margin]
    obj = np.zeros(S + 1)
    obj[-1] = 1.0
    sol = lp.solve(boxed_program(
        obj, cons, [(-1.0, 1.0)] * S + [(None, None)], sense="max"))
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
        # a discarded draw that keeps each trial's data; without it, trial
        # 51 is the program pinned by test_lp.py's
        # test_separation_program_with_spanning_zero_points_solves
        rng.choice([1.0, 0.5, 3.0])

        z, m = geometry._separation_lp(pts, zero, floor, margin,
                                       "separation")
        m_ref = primal_margin(pts, zero, floor, margin)
        assert abs(m - m_ref) <= 1e-9 * (1.0 + abs(m_ref)), (trial, m, m_ref)

        vals = pts @ z
        assert np.abs(z).max() <= 1.0 + 1e-9
        assert np.abs(vals[zero]).max() <= FACE_TOL
        if floor.size:
            assert vals[floor].min() >= -FACE_TOL
        assert vals[margin].min() >= m - 1e-12


def case1_family():
    """The full separation LP of the virtual construction for the curve
    type t = 0.3, with a column per point of the 1,001-point
    certification grid of a 101-point construction grid (as
    conftest.full_separators builds it, not the sifted program the
    construction solves), as the _separation_lp arguments (points, zero,
    floor, margin): the points stacked zero, floor, margin, and the
    index array of each family."""
    _, rows, types = full_separators(counterexample_model(validate=False),
                                     0.05, 101)
    (k,) = np.flatnonzero(types == 30)
    # point columns, then the zero point; the last row marks the margin
    # columns
    S, n = 3, 1001
    points, margin = rows[k, :S, :n + 1].T, rows[k, S, :n + 1] == 1.0
    families = (points[n:], points[:n][~margin[:n]], points[margin])
    ends = np.cumsum([0] + [len(f) for f in families])
    return (np.vstack(families),
            *(np.arange(a, b) for a, b in zip(ends[:-1], ends[1:])))


def test_case1_family_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    points, *families = case1_family()
    assert len(points) == 1002
    z, m = geometry._separation_lp(points, *families, "separation")
    zero, floor, margin = (points[ix] for ix in families)

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


def test_separation_lps_have_state_rows_only(recorded_programs):
    """Every separation LP has S + 1 rows, whatever the number of points,
    and settles in a few pivots."""
    points, *families = case1_family()
    bset = sample(counterexample_model(validate=False), 101).belief_set()
    programs = recorded_programs
    programs.clear()
    for i in (0, 1, 25, 50, 99, 100):
        expose_set(bset, [i], margin_tol=-np.inf)
    geometry._separation_lp(points, *families, "separation")
    assert len(programs) == 7
    for prog, sol, _ in programs:
        assert prog.n_constraints == bset.n_states + 1
        assert sol.iterations <= 40


def test_exposure_memo_keeps_tolerances_apart():
    """One belief set asked at two margin tolerances answers as two fresh
    sets do: the memo holds the raw LP answer, not a verdict."""
    tab = sample(counterexample_model(validate=False), 33)
    shared = tab.belief_set()
    margins = [expose_set(shared, [i], margin_tol=-np.inf)[1]
               for i in range(len(shared))]
    cut = float(np.median(margins))
    for tol in (geometry.MARGIN_TOL, cut):
        fresh = FiniteBeliefSet(tab.labels, tab.beliefs,
                                allow_duplicates=True)
        answers = [expose_set(shared, [i], margin_tol=tol)
                   for i in range(len(shared))]
        assert any(a is None for a in answers) == (tol == cut)
        for i, got in enumerate(answers):
            ref = expose_set(fresh, [i], margin_tol=tol)
            assert (got is None) == (ref is None), (tol, i)
            if ref is not None:
                assert np.array_equal(got[0], ref[0]) and got[1] == ref[1]


def test_memoized_answers_are_read_only():
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                    [1 / 3, 1 / 3, 1 / 3]])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "c"], pts)
    assert pts.flags.writeable   # the set keeps its own copy
    z, _ = expose_set(bset, [0])
    _, witness = is_extreme(bset, 3)
    for arr in (bset.points, z, witness):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.5
    assert expose_set(bset, [0])[0] is z
    assert is_extreme(bset, 3)[1] is witness
    # a table's block answers: remembered as arrays, not as LpSolutions
    tab = TabularModel(["e1", "e2", "e3", "c"], pts,
                       np.array([1.0, 2.0, 3.0, 0.5]))
    sol, _ = extraction.full_extraction_lp(tab)
    assert sol.status == lp.INFEASIBLE   # c's block is unbounded
    duality.solve_primal(duality.VseInstance(tab))
    blocks = [answer for key, answer in tab.belief_set()._memo.items()
              if key[0] in ("full_block", "vse_primal")]
    assert len(blocks) == 2 * len(pts)
    for answer in blocks:
        assert all(part is None or isinstance(part, (np.ndarray, str, int,
                                                     float))
                   for part in answer)
        for arr in (part for part in answer if isinstance(part, np.ndarray)):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.5


def test_remembered_exposure_skips_the_complement(monkeypatch):
    """A remembered singleton answer is returned, or cut by margin_tol,
    without sorting the subset or building the complement; bad indices
    and one-point sets still raise as before."""
    pts = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0],
                    [1 / 3, 1 / 3, 1 / 3]])
    bset = FiniteBeliefSet(["e1", "e2", "e3", "c"], pts)
    z, margin = expose_set(bset, [0], margin_tol=-np.inf)
    assert margin > 0

    def no_complement(*args):
        raise AssertionError("complement built on a remembered answer")

    def no_sort(*args):
        raise AssertionError("subset sorted on a remembered answer")

    monkeypatch.setattr(np, "setdiff1d", no_complement)
    monkeypatch.setattr(geometry, "sorted", no_sort, raising=False)
    hit = expose_set(bset, [0])
    assert hit[0] is z and hit[1] == margin
    assert expose_set(bset, (0,))[0] is z
    assert expose_set(bset, [np.int64(0)])[0] is z
    assert expose_set(bset, [0], margin_tol=margin) is None
    assert expose_set(bset, [0], margin_tol=np.nextafter(margin, 0))[0] is z
    for bad in (4, -1):
        with pytest.raises(IndexOutOfRange):
            expose_set(bset, [bad])
    monkeypatch.undo()
    with pytest.raises(ValueError, match="proper"):
        expose_set(FiniteBeliefSet(["p"], pts[:1]), [0])
    with pytest.raises(ValueError, match="nonempty"):
        expose_set(bset, [])



def single_hull_membership(bset, i):
    """is_extreme's answer as one LinearProgram per point solved alone:
    the extreme-point LP before these LPs were stacked."""
    m = len(bset)
    others = [j for j in range(m) if j != i]
    P = bset.points[others]
    target = bset.points[i]
    cons = [(row, lp.EQ, target[s]) for s, row in enumerate(P.T)]
    cons.append((np.ones(m - 1), lp.EQ, 1.0))
    sol = lp.solve(lp.LinearProgram(np.zeros(m - 1), cons))
    if sol.status == lp.INFEASIBLE:
        return True, None
    mu = np.zeros(m)
    mu[others] = np.clip(sol.primal, 0.0, None)
    return False, mu


def test_extreme_each_matches_single_hull_membership_lps(solved_alone):
    """extreme_each gives every point the answer of its own single LP, bit
    for bit, on random tables (one of 150 points: two stacks), on tables
    with a planted convex combination and on a curve grid, whose points
    are all extreme (their LPs end infeasible)."""
    tables = [random_tabular(seed, 40, 6) for seed in range(4)]
    tables.append(random_tabular(5, 150, 4))
    tables += [planted_combination_instance(seed, n, S)[0]
               for seed, n, S in [(7, 6, 8), (100, 6, 8), (3, 12, 3),
                                  (4, 30, 5)]]
    tables.append(sample(counterexample_model(validate=False), 33))
    kinds = set()
    for tab in tables:
        bset = tab.belief_set()
        want = [single_hull_membership(bset, i) for i in range(len(bset))]
        # some points twice and out of order: each is solved once
        extreme_each(bset, [*range(len(bset) - 1, -1, -1), 0, 1])
        assert not solved_alone
        for i, (extreme, mu) in enumerate(want):
            got = is_extreme(bset, i)
            assert got[0] == extreme
            assert (got[1] is None if extreme
                    else got[1].tobytes() == mu.tobytes())
            kinds.add(extreme)
        assert not solved_alone
    assert kinds == {True, False}


def test_known_combinations_lists_the_remembered_witnesses(driver_calls):
    """known_combinations names, in index order, the points that
    is_extreme has already found inside the hull of the others, and
    solves no LP to do so."""
    tab, planted, _ = planted_combination_instance(7, 6, 8)
    bset = tab.belief_set()
    assert known_combinations(bset) == []
    extreme_each(bset, [planted, 0])
    assert is_extreme(bset, 0)[0] and not is_extreme(bset, planted)[0]
    solved = len(driver_calls)
    assert known_combinations(bset) == [planted]
    extreme_each(bset, range(len(bset)))
    assert known_combinations(bset) == [
        i for i in range(len(bset)) if not is_extreme(bset, i)[0]]
    assert planted in known_combinations(bset)
    assert len(driver_calls) == solved + 1
