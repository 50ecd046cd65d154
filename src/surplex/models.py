"""Belief/value models: finite tables and parametric curves on T = [0, 1].

The centerpiece is a closed-form planar curve embedded in the 3-state
simplex whose endpoints are extreme but not exposed points of the convex
hull, while every interior point is exposed.  With heading
phi(u) = pi/2 + u and speed r(u) = 5 - 4 cos u over u = 2 pi t, the
coordinates integrate to

    x(t) = 1 + (5 cos u + 2 sin^2 u - 5) / (2 pi)
    y(t) = 1 + (5 sin u - 2 u - sin 2u) / (2 pi)

so the curve runs from (1, 1) to (1, -1), turns once counterclockwise
with strictly positive curvature, has vertical tangents at both ends,
and satisfies 1 - x(t) = (3 - 2 cos u)(1 - cos u) / (2 pi) >= 0 with
equality exactly at t in {0, 1}.  The vertical chord x = 1 therefore
supports the hull and touches it exactly at the two endpoints.

Parametric models map arrays: belief_fn takes ts of shape (n,) to rows of
shape (n, S) and value_fn to values of shape (n,).  sample(model, n) turns
one into a table on the n-point grid that keeps the floats ts by its labels.

Each grid is built once: a parametric model is frozen and keeps the table
sample returns for each n, and a table keeps read-only arrays and one
belief set.  Every task that looks at a model on the same grid therefore
shares one table, one belief set, and the LP answers that set remembers.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from surplex.geometry import FACE_TOL, FiniteBeliefSet, prob_rows, prob_vector

EPS_EMB = 0.1
MAX_CURVE_SPEED = 9.0    # sup of r(u) = 5 - 4 cos u

# orthonormal plane frame orthogonal to (1, 1, 1)
D1 = np.array([1.0, -1.0, 0.0]) / np.sqrt(2.0)
D2 = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
CENTER = np.full(3, 1.0 / 3.0)


class DomainError(ValueError):
    """Curve parameter outside [0, 1]."""


class OutOfSimplex(ValueError):
    """Plane point embeds outside the probability simplex."""


def curve_point(t):
    """Closed-form curve coordinates; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < -1e-12) or np.any(t_arr > 1.0 + 1e-12):
        raise DomainError(f"curve parameter outside [0, 1]: {t!r}")
    u = 2.0 * np.pi * t_arr
    x = 1.0 + (5.0 * np.cos(u) + 2.0 * np.sin(u) ** 2 - 5.0) / (2.0 * np.pi)
    y = 1.0 + (5.0 * np.sin(u) - 2.0 * u - np.sin(2.0 * u)) / (2.0 * np.pi)
    if t_arr.ndim == 0:
        return float(x), float(y)
    return x, y


def curve_speed(t):
    """|d(x, y)/dt| = 5 - 4 cos(2 pi t)."""
    t_arr = np.asarray(t, dtype=float)
    return 5.0 - 4.0 * np.cos(2.0 * np.pi * t_arr)


def embed(x, y, eps_emb: float = EPS_EMB) -> np.ndarray:
    """Affine injection of a plane point into the 3-state simplex.

    embed(x, y) = (1/3, 1/3, 1/3) + eps_emb (x d1 + y d2) with d1, d2 an
    orthonormal frame orthogonal to (1, 1, 1); plane Euclidean distances
    scale by exactly eps_emb.  Arrays x, y of shape (n,) give one row per
    point, each equal to the scalar result.
    """
    p = CENTER + eps_emb * (np.multiply.outer(x, D1)
                            + np.multiply.outer(y, D2))
    if (p < 0.0).any():
        raise OutOfSimplex(f"embedded point has component {p.min():.4f}")
    return p


def curve_in_simplex(eps_emb: float) -> bool:
    """Whether the curve embedded with eps_emb stays inside the simplex.

    Between neighbours of an n-point sample the embedded curve moves by
    at most eps_emb MAX_CURVE_SPEED h / 2 in every state (h = 1 / (n - 1),
    and no state's row of the frame (d1, d2) is longer than 1), so a
    sample that keeps that far inside keeps the whole curve, and every
    grid on it, inside.
    """
    n = 4097
    x, y = curve_point(np.linspace(0.0, 1.0, n))
    low = min(float((x * D1[k] + y * D2[k]).min()) for k in range(3))
    slack = eps_emb * MAX_CURVE_SPEED / (2.0 * (n - 1))
    return bool(CENTER[0] + eps_emb * low >= slack)


def chord_functional(eps_emb: float = EPS_EMB) -> np.ndarray:
    """Functional whose value on an embedded point (x, y) is 1 - x.

    Vanishes exactly at the curve endpoints and is strictly positive on
    the rest of the curve, so its zero set is the supporting chord.
    """
    return np.ones(3) - D1 / eps_emb


def endpoint_separator(eps_emb: float = EPS_EMB) -> np.ndarray:
    """Functional with value eps_emb (1 - y) on embedded points.

    Inside the chord face it vanishes at the t = 0 endpoint and is
    positive at t = 1 (value 2 eps_emb); used to expose the endpoint
    within the face.
    """
    return eps_emb * np.ones(3) - D2


def _read_only(a) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class TabularModel:
    """Finite type space: beliefs (one simplex row per type) and values;
    ts holds the sampled types of a parametric model, else None.

    beliefs, values and ts are read-only copies of the inputs, so the one
    belief set the table builds cannot go stale.
    """

    def __init__(self, labels: list[str], beliefs: np.ndarray,
                 values: np.ndarray, ts: np.ndarray | None = None):
        self.labels = labels
        self._bset = None
        self.beliefs = _read_only(beliefs)
        self.values = _read_only(values)
        self.ts = None if ts is None else _read_only(ts)
        if self.beliefs.ndim != 2:
            raise ValueError("beliefs must be a (types, states) array")
        m = self.beliefs.shape[0]
        if (len(self.labels) != m or self.values.shape != (m,)
                or (self.ts is not None and np.shape(self.ts) != (m,))):
            raise ValueError("labels, beliefs, values, ts must align")
        if len(set(self.labels)) != m:
            raise ValueError("labels must be unique")
        prob_rows(self.beliefs, self.labels.__getitem__)
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"value of {self.labels[bad[0]]} is not "
                             f"finite: {float(self.values[bad[0]])!r}")

    @property
    def n_types(self) -> int:
        return self.beliefs.shape[0]

    @property
    def state_count(self) -> int:
        return self.beliefs.shape[1]

    def belief_set(self) -> FiniteBeliefSet:
        """The table's one belief set (duplicate beliefs allowed), built on
        first use; it remembers each point's exposure and extreme-point LP
        answer for every later caller."""
        if self._bset is None:
            self._bset = FiniteBeliefSet(list(self.labels), self.beliefs,
                                         allow_duplicates=True)
        return self._bset

    def index_of(self, t) -> int:
        """The index of type t: its label, or an index checked as the
        belief set's check_index does."""
        if isinstance(t, str):
            return self.labels.index(t)
        return self.belief_set().check_index(t)

    def to_json(self) -> str:
        return json.dumps({
            "states": self.state_count,
            "types": list(self.labels),
            "beliefs": self.beliefs.tolist(),
            "values": self.values.tolist(),
        }, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "TabularModel":
        """The table of a to_json dict, its states and types checked."""
        states, types = data["states"], data["types"]
        if isinstance(states, bool) or not isinstance(states, int):
            raise TypeError(f"states must be an integer, got {states!r}")
        if (not isinstance(types, list)
                or not all(isinstance(t, str) for t in types)):
            raise TypeError(f"types must be a list of strings, got {types!r}")
        model = cls(labels=list(types),
                    beliefs=np.asarray(data["beliefs"], dtype=float),
                    values=np.asarray(data["values"], dtype=float))
        if model.state_count != states:
            raise ValueError("declared state count does not match beliefs")
        return model

    @classmethod
    def from_json(cls, text: str) -> "TabularModel":
        return cls.from_dict(json.loads(text))


class DeclaredFace:
    """A supporting functional with a known continuum zero set.

    members lists the t values on the face; the functional must vanish
    there and be strictly positive elsewhere on the curve.
    """

    def __init__(self, members: tuple[float, ...], functional: np.ndarray,
                 description: str = ""):
        self.members = members
        self.functional = functional
        self.description = description


@dataclass(frozen=True, eq=False)
class ParametricModel:
    """Continuum type space T = [0, 1] with explicit Lipschitz moduli.

    lipschitz_pi caps |pi(t) - pi(s)|_1 / |t - s| and lipschitz_v caps
    |v(t) - v(s)| / |t - s|; the moduli turn "for all t" claims into
    finite grid checks with explicit slack.

    The model is frozen and keeps the table sample(model, n) builds for
    each n; dataclasses.replace gives a new model with its own tables.
    """

    state_count: int
    belief_fn: Callable[[np.ndarray], np.ndarray]
    value_fn: Callable[[np.ndarray], np.ndarray]
    lipschitz_pi: float
    lipschitz_v: float
    declared_faces: list[DeclaredFace] = field(default_factory=list)
    name: str = "parametric"
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def beliefs(self, ts) -> np.ndarray:
        """Belief rows at ts from one belief_fn call; raises ValueError at
        the first t whose row is not a probability vector."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        rows = np.asarray(self.belief_fn(ts), dtype=float)
        if rows.shape != (ts.size, self.state_count):
            raise ValueError(f"belief_fn returned shape {rows.shape}, "
                             f"expected ({ts.size}, {self.state_count})")
        return prob_rows(rows, lambda k: type_label(ts[k]))

    def values(self, ts) -> np.ndarray:
        """Values at ts from one value_fn call; raises ValueError on a
        wrong shape or at the first t whose value is not finite."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        vals = np.asarray(self.value_fn(ts), dtype=float)
        if vals.shape != ts.shape:
            raise ValueError(f"value_fn returned shape {vals.shape}, "
                             f"expected {ts.shape}")
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            raise ValueError(f"value at {type_label(ts[bad[0]])} is not "
                             f"finite: {float(vals[bad[0]])!r}")
        return vals


def grid(n: int) -> np.ndarray:
    """Uniform grid {0, 1/(n-1), ..., 1} including both endpoints; n is
    an integer (a bool is not, else TypeError) of at least 2."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"grid size must be an integer, not {n!r}")
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    return np.linspace(0.0, 1.0, int(n))


def type_label(t: float) -> str:
    return f"t={t:.12g}"


def sample(model: ParametricModel, n: int) -> TabularModel:
    """The model's table on the uniform n-point grid, with the grid as ts.

    It is built on the first call for n and kept on the model, so every
    later call for n returns the same table, and with it the same belief
    set and remembered LP answers.
    """
    tab = model._tables.get(n)
    if tab is None:
        ts = grid(n)
        tab = model._tables.setdefault(n, TabularModel(
            labels=[type_label(t) for t in ts], beliefs=model.beliefs(ts),
            values=model.values(ts), ts=ts))
    return tab


class LipschitzReport:
    def __init__(self, max_ratio_pi: float, max_ratio_v: float,
                 declared_pi: float, declared_v: float, passed: bool):
        self.max_ratio_pi = max_ratio_pi
        self.max_ratio_v = max_ratio_v
        self.declared_pi = declared_pi
        self.declared_v = declared_v
        self.passed = passed


def validate_lipschitz(model: ParametricModel, grid_n: int) -> LipschitzReport:
    """Empirical Lipschitz ratios over adjacent grid pairs vs declared."""
    tab = sample(model, grid_n)
    h = tab.ts[1] - tab.ts[0]
    dpi = np.abs(np.diff(tab.beliefs, axis=0)).sum(axis=1) / h
    dv = np.abs(np.diff(tab.values)) / h
    r_pi = float(dpi.max()) if dpi.size else 0.0
    r_v = float(dv.max()) if dv.size else 0.0
    def within(ratio, declared):
        return ratio <= declared + 1e-9 * (1.0 + declared)

    return LipschitzReport(max_ratio_pi=r_pi, max_ratio_v=r_v,
                           declared_pi=model.lipschitz_pi,
                           declared_v=model.lipschitz_v,
                           passed=(within(r_pi, model.lipschitz_pi)
                                   and within(r_v, model.lipschitz_v)))


def validate_declared_faces(model: ParametricModel, grid_n: int = 2001,
                            face_tol: float = FACE_TOL) -> None:
    """Check each declared face supports the curve and vanishes only there."""
    tab = sample(model, grid_n)
    for f in model.declared_faces:
        vals = tab.beliefs @ f.functional
        if vals.min() < -face_tol:
            raise ValueError(
                f"declared face {f.description or f.members} dips to "
                f"{vals.min():.3e}")
        members = np.asarray(f.members, dtype=float)
        near = np.abs(np.subtract.outer(tab.ts, members)) < 1.5 / (grid_n - 1)
        off = (np.abs(vals) <= face_tol) & ~near.any(axis=1)
        if off.any():
            raise ValueError("declared face vanishes off its members at "
                             f"t={tab.ts[np.argmax(off)]}")
        missed = np.abs(model.beliefs(members) @ f.functional) > face_tol
        if missed.any():
            raise ValueError("declared face misses member "
                             f"t={members[np.argmax(missed)]}")


def _curve_beliefs(ts, eps_emb):
    return embed(*curve_point(ts), eps_emb)


def counterexample_model(eps_emb: float = EPS_EMB,
                         value_fn: Callable[[np.ndarray], np.ndarray]
                         | None = None,
                         validate: bool = True) -> ParametricModel:
    """The embedded closed-form curve with its declared chord face.

    Default values v(t) = t leave the t = 0 type with the lowest surplus,
    the configuration in which full extraction provably fails while
    virtual extraction succeeds.  eps_emb = 0.1 keeps beliefs strictly
    interior to the simplex with margin > 0.15.  The maps are module
    functions, so the default model pickles.
    """
    # |dpi/dt|_1 <= eps * r(u) * (|d1|_1 + |d2|_1), sup r = 9 (conservative)
    l1_frame = float(np.abs(D1).sum() + np.abs(D2).sum())
    lipschitz_pi = MAX_CURVE_SPEED * eps_emb * l1_frame

    model = ParametricModel(
        state_count=3,
        belief_fn=functools.partial(_curve_beliefs, eps_emb=eps_emb),
        value_fn=np.copy if value_fn is None else value_fn,   # v(t) = t
        lipschitz_pi=lipschitz_pi,
        lipschitz_v=1.0,
        declared_faces=[DeclaredFace(
            members=(0.0, 1.0),
            functional=chord_functional(eps_emb),
            description="supporting chord through both endpoints")],
        name="counterexample")
    if validate:
        validate_declared_faces(model)
    return model


def random_tabular(seed: int, n_types: int, n_states: int) -> TabularModel:
    """General-position beliefs (flat Dirichlet) with normal values."""
    rng = np.random.default_rng(seed)
    beliefs = rng.exponential(size=(n_types, n_states))
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    values = rng.normal(size=n_types)
    return TabularModel(labels=[f"T{i}" for i in range(n_types)],
                        beliefs=beliefs, values=values)


def planted_combination_instance(seed: int, n_types: int, n_states: int,
                                 gap: float = 0.5):
    """An instance whose last type's belief is a convex combination.

    The planted type's value sits `gap` below the same combination of the
    other types' values, which makes full extraction infeasible: its own
    contract would have to cost the combination types at least their
    values, forcing the planted type's expected cost above its value.
    Returns (model, planted_index, mu).
    """
    rng = np.random.default_rng(seed)
    base = rng.exponential(size=(n_types - 1, n_states))
    base /= base.sum(axis=1, keepdims=True)
    k = int(rng.integers(2, n_types))
    support = rng.choice(n_types - 1, size=k, replace=False)
    w = rng.exponential(size=k)
    w /= w.sum()
    mu = np.zeros(n_types - 1)
    mu[support] = w
    planted = mu @ base
    values = rng.normal(size=n_types - 1)
    planted_value = float(mu @ values) - gap
    model = TabularModel(
        labels=[f"T{i}" for i in range(n_types - 1)] + ["planted"],
        beliefs=np.vstack([base, planted]),
        values=np.append(values, planted_value))
    return model, n_types - 1, mu


def identical_beliefs_pair(v1: float = 2.0, v2: float = 1.0,
                           belief=(0.5, 0.3, 0.2)) -> TabularModel:
    """Two types sharing one belief; the classic duality failure case."""
    p = prob_vector(np.asarray(belief, dtype=float))
    return TabularModel(labels=["T0", "T1"], beliefs=np.vstack([p, p]),
                        values=np.array([float(v1), float(v2)]))
