"""Property-based invariants across randomly generated belief sets and LPs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplex.geometry import (
    FiniteBeliefSet,
    affine_dimension,
    expose_set,
    exposure_chain,
    face_of,
    is_extreme,
)
from surplex.lp import LinearProgram, check_certificate, solve
from surplex.models import (
    chord_functional,
    counterexample_model,
    endpoint_separator,
    sample,
)

finite_floats = st.floats(min_value=0.05, max_value=10.0,
                          allow_nan=False, allow_infinity=False)


@st.composite
def belief_sets(draw, max_points=6, max_states=4):
    m = draw(st.integers(min_value=2, max_value=max_points))
    s = draw(st.integers(min_value=2, max_value=max_states))
    raw = draw(st.lists(st.lists(finite_floats, min_size=s, max_size=s),
                        min_size=m, max_size=m))
    pts = np.asarray(raw)
    pts /= pts.sum(axis=1, keepdims=True)
    return FiniteBeliefSet([f"P{i}" for i in range(m)], pts,
                           allow_duplicates=True)


@st.composite
def redundant_equality_lps(draw):
    """A feasible equality LP (x0 >= 0 satisfies A x = A x0) followed by
    integer combinations of its own rows, so phase 1 leaves redundant rows
    to drop; boxed or merely nonnegative, either sense."""
    small = st.integers(min_value=-4, max_value=4)
    n = draw(st.integers(min_value=2, max_value=6))
    k = draw(st.integers(min_value=1, max_value=4))
    extra = draw(st.integers(min_value=1, max_value=2))
    A = np.array(draw(st.lists(st.lists(small, min_size=n, max_size=n),
                               min_size=k, max_size=k)), dtype=float)
    x0 = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                  dtype=float)
    C = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=k,
                                        max_size=k),
                               min_size=extra, max_size=extra)), dtype=float)
    rows = np.vstack([A, C @ A])
    rhs = rows @ x0
    c = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    cons = [(r, "=", b) for r, b in zip(rows, rhs)]
    if draw(st.booleans()):     # x <= 8 rows
        cons += [(unit, "<=", 8.0) for unit in np.eye(n)]
    return LinearProgram(c, cons,
                         sense=draw(st.sampled_from(["min", "max"])))


@settings(max_examples=200, deadline=None)
@given(redundant_equality_lps())
def test_redundant_equality_rows_keep_certificates(prog):
    # every constraint's multiplier comes off its own identity column,
    # also when phase 1 drops a redundant row
    sol = solve(prog)
    assert sol.status in ("optimal", "unbounded")
    rep = check_certificate(prog, sol)
    assert rep.passed, rep


@settings(max_examples=60, deadline=None)
@given(belief_sets(), st.integers(min_value=0, max_value=5))
def test_exposed_implies_extreme(bset, raw_idx):
    i = raw_idx % len(bset)
    res = expose_set(bset, [i])
    if res is not None:
        z, margin = res
        assert margin > 1e-7
        extreme, _ = is_extreme(bset, i)
        assert extreme


@settings(max_examples=60, deadline=None)
@given(belief_sets(), st.integers(min_value=0, max_value=5))
def test_dependence_witness_reconstructs(bset, raw_idx):
    i = raw_idx % len(bset)
    extreme, mu = is_extreme(bset, i)
    if not extreme:
        assert mu[i] == 0.0
        assert mu.min() >= 0.0
        assert mu.sum() == pytest.approx(1.0, abs=1e-8)
        assert np.abs(bset.points[i] - mu @ bset.points).max() <= 1e-8


@settings(max_examples=40, deadline=None)
@given(belief_sets())
def test_supporting_face_drops_dimension(bset):
    res = expose_set(bset, [0])
    if res is None:
        return
    z, _ = res
    face = face_of(bset, z)
    if face.size == len(bset):
        return
    sub = FiniteBeliefSet([bset.labels[k] for k in face], bset.points[face],
                          allow_duplicates=True)
    assert affine_dimension(sub) < affine_dimension(bset)


def test_counterexample_all_grid_points_extreme():
    model = counterexample_model(validate=False)
    for n in (11, 33, 101):
        bset = sample(model, n).belief_set()
        for i in range(n):
            extreme, _ = is_extreme(bset, i)
            assert extreme, (n, i)


def test_probabilistic_independence_witnesses_on_grid():
    # interior grid points expose directly; the endpoints are pinned to
    # the chord face where the in-face separator isolates each of them
    model = counterexample_model(validate=False)
    n = 41
    tab = sample(model, n)
    bset = tab.belief_set()
    for i in range(1, n - 1):
        assert expose_set(bset, [i]) is not None
    zeta = chord_functional()
    face = face_of(bset, zeta)
    assert list(face) == [0, n - 1]
    z2 = endpoint_separator()
    assert abs(tab.beliefs[0] @ z2) <= 1e-12
    assert tab.beliefs[n - 1] @ z2 > 0.1


def test_exposure_chain_spec_example_and_invariants():
    # sampled grid plus the declared chord face: chain [all, {0,1}, {0}]
    model = counterexample_model(validate=False)
    n = 101
    bset = sample(model, n).belief_set()
    declared = [f.functional for f in model.declared_faces]
    chain = exposure_chain(bset, 0, declared_faces=declared)
    assert chain.length == 2
    subsets = chain.subsets()
    assert [len(s) for s in subsets] == [n, 2, 1]
    assert list(subsets[1]) == [0, n - 1]
    # subsets strictly shrink and the final stage exposes {0}
    for a, b in zip(subsets, subsets[1:]):
        assert set(b.tolist()) < set(a.tolist())
    assert chain.margins[-1] > 1e-7
    # stage functional vanishes on its subset, positive on the previous
    # stage's other members
    pts = bset.points
    for (members, z), prev in zip(chain.stages, subsets):
        on = pts[members] @ z
        assert np.abs(on).max() <= 1e-9
        rest = np.setdiff1d(prev, members)
        if rest.size:
            off = pts[rest] @ z
            assert off.min() > 1e-7
