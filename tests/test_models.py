"""Closed-form curve, embedding, and model plumbing tests."""

import pickle

import numpy as np
import pytest

from surplex.geometry import FiniteBeliefSet, face_of
from surplex.models import (
    D1,
    D2,
    DomainError,
    ParametricModel,
    TabularModel,
    chord_functional,
    counterexample_model,
    curve_point,
    curve_speed,
    embed,
    endpoint_separator,
    grid,
    identical_beliefs_pair,
    planted_combination_instance,
    random_tabular,
    sample,
    validate_lipschitz,
)


def quadrature_endpoint(t_end, n=200_000):
    """Independent check of the closed forms: integrate speed * heading."""
    u = np.linspace(0.0, 2.0 * np.pi * t_end, n)
    r = 5.0 - 4.0 * np.cos(u)
    dx = r * -np.sin(u)          # cos(pi/2 + u)
    dy = r * np.cos(u)           # sin(pi/2 + u)
    x = 1.0 + np.trapezoid(dx, u) / (2.0 * np.pi)
    y = 1.0 + np.trapezoid(dy, u) / (2.0 * np.pi)
    return x, y


def test_curve_endpoints_closed_form_and_quadrature():
    assert curve_point(0.0) == pytest.approx((1.0, 1.0), abs=1e-12)
    assert curve_point(1.0) == pytest.approx((1.0, -1.0), abs=1e-12)
    assert curve_point(0.5)[0] == pytest.approx(1.0 - 10.0 / (2 * np.pi),
                                                abs=1e-12)
    assert curve_point(0.5)[1] == pytest.approx(0.0, abs=1e-12)
    for t_end in (0.25, 0.5, 1.0):
        qx, qy = quadrature_endpoint(t_end)
        cx, cy = curve_point(t_end)
        assert (qx, qy) == pytest.approx((cx, cy), abs=1e-8)


def test_curve_x_below_one_strictly_inside():
    ts = np.linspace(0.0, 1.0, 10_001)[1:-1]
    x, _ = curve_point(ts)
    assert np.all(x < 1.0)
    # sign identity 1 - x = (3 - 2 cos u)(1 - cos u) / (2 pi)
    u = 2 * np.pi * ts
    expect = (3.0 - 2.0 * np.cos(u)) * (1.0 - np.cos(u)) / (2 * np.pi)
    assert np.abs((1.0 - x) - expect).max() < 1e-12


def test_curve_domain_error():
    with pytest.raises(DomainError):
        curve_point(1.5)
    with pytest.raises(DomainError):
        curve_point(-0.2)


def test_embed_center_and_known_point():
    assert embed(0.0, 0.0) == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)
    expect = 1 / 3 + 0.1 * (D1 + D2)
    assert embed(1.0, 1.0) == pytest.approx(expect, abs=1e-15)
    assert embed(1.0, 1.0) == pytest.approx([0.4449, 0.3034, 0.2517],
                                            abs=2e-4)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.uniform(-1, 1, size=2)
        assert embed(x, y).sum() == pytest.approx(1.0, abs=1e-15)


def test_embed_is_affine_isometry_up_to_scale():
    rng = np.random.default_rng(9)
    a = rng.uniform(-1, 1, size=2)
    b = rng.uniform(-1, 1, size=2)
    d = embed(*a) - embed(*b)
    assert np.linalg.norm(d) == pytest.approx(0.1 * np.linalg.norm(a - b),
                                              rel=1e-12)


def test_chord_functional_values():
    zeta = chord_functional()
    assert zeta == pytest.approx([1 - 1 / (0.1 * np.sqrt(2)),
                                  1 + 1 / (0.1 * np.sqrt(2)), 1.0], abs=1e-12)
    for t in (0.0, 1.0):
        p = embed(*curve_point(t))
        assert abs(p @ zeta) < 1e-14
    p_half = embed(*curve_point(0.5))
    assert p_half @ zeta == pytest.approx(10.0 / (2 * np.pi), abs=1e-12)
    # adding c * (1,1,1) shifts all values by c
    p = embed(*curve_point(0.3))
    assert p @ (zeta + 2.5) == pytest.approx(p @ zeta + 2.5, abs=1e-12)


def test_chord_supports_with_zero_set_exactly_endpoints():
    zeta = chord_functional()
    ts = np.linspace(0, 1, 2001)
    beliefs = np.array([embed(*curve_point(t)) for t in ts])
    vals = beliefs @ zeta
    assert vals.min() > -1e-12
    inside = vals[1:-1]
    assert inside.min() > 0.0
    bset = FiniteBeliefSet([f"{i}" for i in range(len(ts))], beliefs)
    assert list(face_of(bset, zeta)) == [0, len(ts) - 1]


def test_endpoint_separator_values():
    z2 = endpoint_separator()
    p0 = embed(*curve_point(0.0))
    p1 = embed(*curve_point(1.0))
    ph = embed(*curve_point(0.5))
    assert abs(p0 @ z2) < 1e-14
    assert p1 @ z2 == pytest.approx(0.2, abs=1e-12)
    assert ph @ z2 == pytest.approx(0.1, abs=1e-12)


def test_sample_grids():
    model = counterexample_model(validate=False)
    tab2 = sample(model, 2)
    assert tab2.labels == ["t=0", "t=1"]
    tab3 = sample(model, 3)
    for i, t in enumerate((0.0, 0.5, 1.0)):
        assert tab3.beliefs[i] == pytest.approx(embed(*curve_point(t)),
                                                abs=1e-15)
    # dyadic grids nest
    g5, g9 = grid(5), grid(9)
    assert set(np.round(g5, 12)) <= set(np.round(g9, 12))
    with pytest.raises(ValueError):
        sample(model, 1)


def test_validate_lipschitz():
    model = counterexample_model(validate=False)
    rep = validate_lipschitz(model, 2001)
    assert rep.passed
    assert rep.max_ratio_v == pytest.approx(1.0, abs=1e-9)
    # declared modulus is conservative but not wildly so
    assert rep.max_ratio_pi < model.lipschitz_pi <= 4.0 * rep.max_ratio_pi

    flat = counterexample_model(value_fn=lambda ts: np.full(ts.shape, 0.25),
                                validate=False)
    rep = validate_lipschitz(flat, 101)
    assert rep.max_ratio_v == 0.0


def test_counterexample_declared_face_validates():
    counterexample_model()  # raises if the declared chord face is off


def test_counterexample_beliefs_interior():
    model = counterexample_model(validate=False)
    beliefs = model.beliefs(np.linspace(0, 1, 501))
    assert beliefs.min() > 1.0 / 3.0 - 1.78 * 0.1
    assert beliefs.min() > 0.15


def test_max_speed_bound():
    ts = np.linspace(0, 1, 4001)
    assert curve_speed(ts).max() <= 9.0 + 1e-12


def test_tabular_json_round_trip():
    tab = random_tabular(3, 5, 6)
    back = TabularModel.from_json(tab.to_json())
    assert back.labels == tab.labels
    assert back.beliefs == pytest.approx(tab.beliefs)
    assert back.values == pytest.approx(tab.values)


def test_planted_instance_structure():
    model, idx, mu = planted_combination_instance(11, 7, 9)
    assert idx == 6
    combo = mu @ model.beliefs[:6]
    assert combo == pytest.approx(model.beliefs[6], abs=1e-12)
    assert model.values[6] < float(mu @ model.values[:6])


def test_identical_beliefs_pair():
    tab = identical_beliefs_pair(2.0, 1.0)
    assert tab.beliefs[0] == pytest.approx(tab.beliefs[1])
    assert tab.values[0] > tab.values[1]


def test_parametric_beliefs_validates_rows():
    def belief_fn(ts):
        return np.where((ts > 0.5)[:, None], [0.6, 0.6, -0.2], 1 / 3)

    model = ParametricModel(state_count=3, belief_fn=belief_fn,
                            value_fn=lambda ts: ts, lipschitz_pi=1.0,
                            lipschitz_v=1.0)
    assert model.beliefs([0.0, 0.5]).shape == (2, 3)
    with pytest.raises(ValueError, match="t=0.75"):
        model.beliefs([0.25, 0.75, 1.0])
    with pytest.raises(ValueError, match="t=0.75"):
        sample(model, 5)

    for bad in ([0.5, 0.5, np.nan], [0.5, 0.6, 0.0], [0.5, 0.5]):
        broken = ParametricModel(
            state_count=3,
            belief_fn=lambda ts, row=bad: np.tile(row, (ts.size, 1)),
            value_fn=lambda ts: ts, lipschitz_pi=1.0, lipschitz_v=1.0)
        with pytest.raises(ValueError):
            broken.beliefs([0.0])


def test_parametric_values_reject_non_finite_and_wrong_shape():
    def value_fn(ts):
        return np.where(ts > 0.5, np.inf, ts)

    model = ParametricModel(state_count=3,
                            belief_fn=lambda ts: np.full((ts.size, 3), 1 / 3),
                            value_fn=value_fn, lipschitz_pi=0.0,
                            lipschitz_v=1.0)
    assert model.values([0.0, 0.5]).tolist() == [0.0, 0.5]
    with pytest.raises(ValueError, match="t=0.75"):
        model.values([0.25, 0.75, 1.0])
    with pytest.raises(ValueError, match="t=0.75"):
        sample(model, 5)
    model.value_fn = lambda ts: np.zeros(ts.size + 1)
    with pytest.raises(ValueError, match="shape"):
        model.values([0.0, 1.0])


def test_vectorized_beliefs_match_per_point_rows():
    ts = grid(1001)
    rows = counterexample_model(validate=False).beliefs(ts)
    ref = np.array([embed(*curve_point(float(t))) for t in ts])
    assert rows.tobytes() == ref.tobytes()


def test_maps_called_once_per_call():
    calls = {"beliefs": 0, "values": 0}
    base = counterexample_model(validate=False)

    def belief_fn(ts):
        calls["beliefs"] += 1
        return base.belief_fn(ts)

    def value_fn(ts):
        calls["values"] += 1
        return base.value_fn(ts)

    model = ParametricModel(state_count=3, belief_fn=belief_fn,
                            value_fn=value_fn, lipschitz_pi=1.0,
                            lipschitz_v=1.0)
    assert model.beliefs(grid(101)).shape == (101, 3)
    assert model.values(grid(101)).shape == (101,)
    assert calls == {"beliefs": 1, "values": 1}
    tab = sample(model, 201)
    assert calls == {"beliefs": 2, "values": 2}
    assert tab.ts.tolist() == grid(201).tolist()


def test_counterexample_model_pickles():
    model = counterexample_model()
    back = pickle.loads(pickle.dumps(model))
    ts = grid(101)
    assert back.beliefs(ts).tobytes() == model.beliefs(ts).tobytes()
    assert back.values(ts).tobytes() == model.values(ts).tobytes()
    assert back.declared_faces[0].members == (0.0, 1.0)
    assert np.array_equal(back.declared_faces[0].functional,
                          model.declared_faces[0].functional)


def test_tabular_rejects_non_finite_values():
    text = ('{"states": 2, "types": ["a", "b"], '
            '"beliefs": [[0.5, 0.5], [0.2, 0.8]], "values": [1.0, NaN]}')
    with pytest.raises(ValueError, match="value of b is not finite"):
        TabularModel.from_json(text)
    with pytest.raises(ValueError, match="value of a is not finite"):
        TabularModel(["a", "b"], [[0.5, 0.5], [0.2, 0.8]], [np.inf, 1.0])
