"""Detectability classification and constructive extraction menus.

Contracts have the shape c(t) = v(t) 1 + sum_i alpha_i z_i where every
functional z_i has zero expected value under type t's belief.  Scaling
the alphas makes the contract costly for the types each z_i separates
while leaving type t's own expected cost at exactly v(t).  Finite
convex-independent tables admit full extraction this way; on a continuum
the scalings blow up near types whose beliefs are extreme but not
exposed, and the construction falls back to nested face chains that
leave at most epsilon surplus, budgeted epsilon/n per chain stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from surplex import lp
from surplex.geometry import (
    FACE_TOL,
    MARGIN_TOL,
    ExposureChain,
    expose_each,
    expose_set,
    exposure_chain,
    is_extreme,
    separation_answer,
    separation_stack,
)
from surplex.models import ParametricModel, TabularModel, sample

SAFETY_FACTOR = 2.0
# the certification grid of virtual extraction is this many times finer
CERT_MULT = 10
# constant nudge target: constructed own surpluses land at +1e-11, safely
# inside [0, 1e-9] after float rounding of payments up to ~1e4 in norm
OWN_NUDGE = 1e-11
# off-face types whose virtual separation LPs share one lock-step solve.
# A fixed count, not a byte budget: a chunk's rows take SEPARATOR_CHUNK x
# (S + 1) x (cert points + 1 + 2S) floats, and stacks of one or two
# programs solve slower than the single solves they replace, so a budget
# that shrank the stacks on large grids would slow them down
SEPARATOR_CHUNK = 12

FULL, VIRTUAL = "full", "virtual"

DETECTABLE = "detectable"
STRONGLY_DETECTABLE = "strongly_detectable"
EVENTUALLY_DETECTABLE = "eventually_detectable"
NOT_DETECTABLE = "not_detectable"


class NotAllDetectable(ValueError):
    """Full extraction requested but some types admit no separator."""

    def __init__(self, failing):
        self.failing = failing  # list of (label, witness)
        labels = ", ".join(lbl for lbl, _ in failing)
        super().__init__(f"types not detectable: {labels}")


class NotEventuallyDetectable(ValueError):
    """A type admits no exposure chain, so no menu can reach it."""


class BudgetInfeasible(RuntimeError):
    """A chain stage could not meet its epsilon/n slack assignment."""


class InputMenuFails(ValueError):
    """compress_menu needs a menu that already achieves its target."""


class UncoveredType(ValueError):
    """compress_menu found a grid type that no entry's cover ball reaches."""

    def __init__(self, t):
        self.t = t
        super().__init__(f"type t={t!r} lies in no menu entry's cover ball")


@dataclass
class Classification:
    """Detectability verdict for one type, with its certificate."""

    label: str
    functional: np.ndarray | None = None
    margin: float | None = None
    inf_margin: float | None = None
    chain: ExposureChain | None = None
    witness: np.ndarray | None = None
    slack: float = 0.0
    provenance: str = ""

    def to_jsonable(self) -> dict:
        out = {"label": self.label, "provenance": self.provenance}
        if self.margin is not None:
            out["margin"] = self.margin
        if self.inf_margin is not None:
            out["inf_margin"] = self.inf_margin
        if self.slack:
            out["slack"] = self.slack
        if self.chain is not None:
            out["chain_length"] = self.chain.length
            out["chain_subsets"] = [len(s) for s in self.chain.subsets()]
        if self.witness is not None:
            out["witness"] = self.witness.tolist()
        return out


@dataclass
class Provenance:
    """Decomposition record: payments = base_value 1 + sum alpha_i z_i."""

    base_value: float
    terms: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def assemble(self, n_states: int) -> np.ndarray:
        c = np.full(n_states, self.base_value)
        for alpha, z in self.terms:
            c = c + alpha * z
        return c


@dataclass
class Contract:
    payments: np.ndarray
    provenance: Provenance | None = None

    def __post_init__(self):
        self.payments = np.asarray(self.payments, dtype=float)
        if not np.isfinite(self.payments).all():
            raise ValueError("non-finite payments")

    def decomposition_residual(self) -> float:
        if self.provenance is None:
            return 0.0
        ref = self.provenance.assemble(self.payments.size)
        return float(np.abs(self.payments - ref).max())


@dataclass
class Menu:
    """Labeled contracts; ts holds each entry's type on a parametric grid."""

    entries: list[tuple[str, Contract]]
    ts: np.ndarray | None = None

    def __post_init__(self):
        labels = [lbl for lbl, _ in self.entries]
        if len(set(labels)) != len(labels):
            raise ValueError("menu labels must be unique")
        if self.ts is not None and np.shape(self.ts) != (len(labels),):
            raise ValueError("menu ts must hold one type per entry")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def labels(self) -> list[str]:
        return [lbl for lbl, _ in self.entries]

    def get(self, label: str) -> Contract:
        for lbl, c in self.entries:
            if lbl == label:
                return c
        raise KeyError(label)

    def payments_matrix(self) -> np.ndarray:
        return np.array([c.payments for _, c in self.entries])

    def to_jsonable(self) -> dict:
        entries = []
        for lbl, c in self.entries:
            e = {"label": lbl, "payments": c.payments.tolist()}
            if c.provenance is not None:
                e["provenance"] = {
                    "base_value": c.provenance.base_value,
                    "terms": [{"alpha": a, "functional": z.tolist()}
                              for a, z in c.provenance.terms],
                }
            entries.append(e)
        return {"entries": entries,
                "ts": None if self.ts is None else self.ts.tolist()}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Menu":
        entries = []
        for e in data["entries"]:
            prov = None
            if "provenance" in e:
                prov = Provenance(
                    base_value=float(e["provenance"]["base_value"]),
                    terms=[(float(t["alpha"]),
                            np.asarray(t["functional"], dtype=float))
                           for t in e["provenance"]["terms"]])
            entries.append((e["label"],
                            Contract(np.asarray(e["payments"], dtype=float),
                                     prov)))
        ts = data.get("ts")
        return cls(entries, None if ts is None
                   else np.asarray(ts, dtype=float))


@dataclass
class ExtractionReport:
    """Grid evaluation of a menu: surpluses, verdict, and grid slack.

    own is NaN for types without a same-label entry (compressed menus).
    For parametric models lipschitz_slack = L_v h + max|c|_inf L_pi h
    bounds how much any surplus can move between grid points, and ts
    holds the grid (it is not part of to_jsonable).
    """

    mode: tuple
    labels: list[str]
    own: np.ndarray
    cross: np.ndarray
    best: np.ndarray
    verdict: str
    passed: bool
    lipschitz_slack: float = 0.0
    notes: str = ""
    ts: np.ndarray | None = None

    @property
    def max_abs_own(self) -> float:
        vals = self.own[~np.isnan(self.own)]
        return float(np.abs(vals).max()) if vals.size else 0.0

    @property
    def max_cross(self) -> float:
        vals = self.cross[~np.isnan(self.cross)]
        return float(vals.max()) if vals.size else -np.inf

    def to_jsonable(self) -> dict:
        def clean(a):
            return [None if nan else v
                    for v, nan in zip(a.tolist(), np.isnan(a).tolist())]
        return {
            "mode": list(self.mode), "types": list(self.labels),
            "own_surplus": clean(self.own),
            "best_cross_surplus": clean(self.cross),
            "best_surplus": clean(self.best),
            "verdict": self.verdict, "passed": bool(self.passed),
            "lipschitz_slack": self.lipschitz_slack, "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# helpers

def _own_null(z, pi) -> np.ndarray:
    """Project z onto the exact null space of pi (pi . 1 = 1)."""
    z = np.asarray(z, dtype=float)
    return z - (pi @ z) * np.ones_like(z)


def _nudge_own(payments, pi, value) -> np.ndarray:
    """Shift the constant part so the own surplus lands at +OWN_NUDGE.

    The bracket stays away from zero so that re-evaluating the surplus in
    a different summation order (dot vs matmul) cannot flip its sign.
    """
    for _ in range(4):
        own = value - pi @ payments
        if 0.5 * OWN_NUDGE <= own <= 2.0 * OWN_NUDGE:
            break
        payments = payments - (OWN_NUDGE - own) * np.ones_like(payments)
    return payments


def _finish_contract(pi, value, terms) -> Contract:
    payments = np.full(pi.size, value)
    for alpha, z in terms:
        payments = payments + alpha * z
    payments = _nudge_own(payments, pi, value)
    return Contract(payments, Provenance(base_value=value, terms=list(terms)))


# ---------------------------------------------------------------------------
# classification

def classify_type(model, t, grid_n: int = 201,
                  margin_tol: float = MARGIN_TOL) -> Classification:
    """Strongest detectability label for a type, with certificates.

    A parametric model is classified on its table sample(model, grid_n),
    and t must be a point of that grid; a tabular model is its own table,
    and t is a label or an index.  Every call on one table reads the
    table's one belief set, so each point's exposure and extreme-point LP
    is solved once however many types are classified.

    Membership in a declared face is checked first, because grid exposure
    margins for a non-exposed endpoint are positive (they only decay to
    zero under refinement) and would mask the continuum structure.  A
    separating functional z upgrades Detectable to StronglyDetectable
    when its margin beats the off-grid slack lipschitz_pi (h / 2) |z|_inf;
    a table has no declared faces and zero slack, so every separated type
    is StronglyDetectable.  Failing types come with a convex-combination
    witness.
    """
    if isinstance(model, TabularModel):
        tab, idx, faces, lip = model, model.index_of(t), [], 0.0
    else:
        tab = sample(model, grid_n)
        if not np.any(np.abs(tab.ts - t) < 1e-12):
            raise ValueError(f"t={t!r} is not a point of the {grid_n}-point "
                             "grid")
        idx = int(np.argmin(np.abs(tab.ts - t)))
        faces = [f.functional for f in model.declared_faces]
        lip = model.lipschitz_pi * (float(np.diff(tab.ts).max()) / 2.0)
    if tab.n_types == 1:
        return Classification(label=STRONGLY_DETECTABLE,
                              functional=np.zeros(tab.state_count),
                              margin=np.inf, inf_margin=np.inf,
                              provenance="grid")
    bset = tab.belief_set()
    pi_t = bset.points[idx]

    for z in faces:
        if (abs(float(pi_t @ z)) <= FACE_TOL
                and (np.abs(bset.points @ z) <= FACE_TOL).sum() >= 2):
            chain = exposure_chain(bset, idx, declared_faces=faces)
            return Classification(label=EVENTUALLY_DETECTABLE, chain=chain,
                                  provenance="declared")

    res = expose_set(bset, [idx], margin_tol=margin_tol)
    if res is not None:
        z, margin = res
        slack = lip * float(np.abs(z).max())
        if margin - slack > 0.0:
            return Classification(label=STRONGLY_DETECTABLE, functional=z,
                                  margin=margin, inf_margin=margin - slack,
                                  slack=slack, provenance="grid")
        return Classification(label=DETECTABLE, functional=z, margin=margin,
                              slack=slack, provenance="grid")
    extreme, witness = is_extreme(bset, idx)
    if not extreme:
        return Classification(label=NOT_DETECTABLE, witness=witness,
                              provenance="grid")
    chain = exposure_chain(bset, idx)
    return Classification(label=EVENTUALLY_DETECTABLE, chain=chain,
                          provenance=chain.provenance)


# ---------------------------------------------------------------------------
# full extraction (finite tables)

def full_extraction_menu(tab: TabularModel, *,
                         margin_tol: float = MARGIN_TOL) -> Menu:
    """Separator-based menu leaving zero surplus on a finite table.

    For each type: z(t) from the exposure LP, then
        alpha(t) = SAFETY_FACTOR * max(0, max_s (v(s)-v(t)) / (pi(s).z(t)))
                   + 1
    and c(t) = v(t) 1 + alpha(t) z(t).  Raises NotAllDetectable (with
    witnesses) if any type admits no separator, that is no exposure
    margin above margin_tol.  The separators come from the table's one
    belief set, whose missing exposure LPs are solved in one stacked call
    (expose_each), so a table classified first solves no exposure or
    extreme-point LP again.
    """
    if tab.n_types == 1:
        # vacuous separation: the constant contract already extracts all
        pi, v = tab.beliefs[0], float(tab.values[0])
        return Menu([(tab.labels[0], _finish_contract(pi, v, []))])

    bset = tab.belief_set()
    expose_each(bset)
    failing = []
    separators = []
    for i in range(tab.n_types):
        res = expose_set(bset, [i], margin_tol=margin_tol)
        if res is None:
            _, witness = is_extreme(bset, i)
            failing.append((tab.labels[i], witness))
        else:
            separators.append(res)
    if failing:
        raise NotAllDetectable(failing)

    entries = []
    for i, (z, _) in enumerate(separators):
        pi = tab.beliefs[i]
        z = _own_null(z, pi)
        others = [j for j in range(tab.n_types) if j != i]
        gains = tab.values[others] - tab.values[i]
        costs = tab.beliefs[others] @ z
        ratio = float(np.max(gains / costs, initial=0.0))
        alpha = SAFETY_FACTOR * max(0.0, ratio) + 1.0
        entries.append((tab.labels[i],
                        _finish_contract(pi, tab.values[i], [(alpha, z)])))
    return Menu(entries)


def full_extraction_lp(tab: TabularModel):
    """Feasibility LP for full extraction, minimizing a sup-norm surrogate.

    Variables are one contract c(t) in R^S per type plus one bound u_t
    with |c(t)|_inf <= u_t; the objective min sum u_t picks a minimal
    menu.  The rows are pi_t.c(t) = v_t per type, then pi_s.c(t) >= v_s
    for s != t (t-major), then c_sig(t) - u_t <= 0 and c_sig(t) + u_t >= 0
    per type and state.  Returns (LpSolution, Menu or None); an infeasible
    verdict carries the Farkas certificate in the solution's duals.

    The program is separable, and each type's block is solved as its LP
    dual, with S + 1 rows and one column per type and per box side:

        max v.y  s.t.  sum_s y_s pi_s - a + b = 0,   sum (a + b) <= 1,
                       y_s, a, b >= 0 for s != t,    y_t free.

    (c(t), u_t) are its row multipliers, and its primal (y, a, b) is the
    block's multipliers: y on the own and cross rows, (-a, b) on the box
    rows.  An unbounded block means the program is infeasible, and its
    ray, with zero weight on every other block, is the Farkas certificate.
    """
    m, S = tab.n_types, tab.state_count
    rows = np.hstack([tab.beliefs.T, -np.eye(S), np.eye(S)])
    mass = np.concatenate([np.zeros(m), np.ones(2 * S)])
    cons = [(row, lp.EQ, 0.0) for row in rows] + [(mass, lp.LE, 1.0)]
    obj = np.concatenate([tab.values, np.zeros(2 * S)])
    bounds = np.tile([0.0, np.nan], (m + 2 * S, 1))
    contracts = np.zeros((m, S + 1))          # (c(t), u_t) per type
    mults = np.zeros((m, m + 2 * S))          # (y, a, b) per type
    iterations = 0
    status = lp.OPTIMAL
    for t in range(m):
        bounds[t, 0] = np.nan
        block = lp.solve(lp.LinearProgram(obj, cons, bounds=bounds,
                                          sense="max"))
        bounds[t, 0] = 0.0
        iterations += block.iterations
        if block.status == lp.INFEASIBLE:  # pragma: no cover - 0 is feasible
            raise RuntimeError("full-extraction block LP ended infeasible")
        if block.status == lp.UNBOUNDED:
            mults[:] = 0.0
            mults[t] = block.ray
            status = lp.INFEASIBLE
            break
        contracts[t] = block.duals
        mults[t] = block.primal

    own = np.diag(mults[:, :m])
    cross = mults[:, :m][~np.eye(m, dtype=bool)]
    box = np.empty((m, 2 * S))
    box[:, 0::2], box[:, 1::2] = -mults[:, m:m + S], mults[:, m + S:]
    duals = np.concatenate([own, cross, box.reshape(-1)])
    nv = m * S + m
    zeros = (np.zeros(nv), np.zeros(nv))
    if status == lp.INFEASIBLE:
        return lp.LpSolution(status=status, duals=duals, bound_duals=zeros,
                             iterations=iterations), None
    primal = np.concatenate([contracts[:, :S].reshape(-1), contracts[:, S]])
    sol = lp.LpSolution(status=status, primal=primal, duals=duals,
                        objective_value=float(contracts[:, S].sum()),
                        bound_duals=zeros, iterations=iterations)
    return sol, Menu([(lbl, Contract(c)) for lbl, c
                      in zip(tab.labels, contracts[:, :S])])


# ---------------------------------------------------------------------------
# virtual extraction (parametric models)

@dataclass
class ConstructionLog:
    label: str
    case: str                      # "detectable" or "chain"
    alphas: list[float] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)
    deltas: list[float] = field(default_factory=list)
    residuals: list[float] = field(default_factory=list)
    chain_length: int = 0
    provenance: str = ""

    def to_jsonable(self) -> dict:
        return {"label": self.label, "case": self.case,
                "alphas": self.alphas, "margins": self.margins,
                "deltas": self.deltas, "residuals": self.residuals,
                "chain_length": self.chain_length,
                "provenance": self.provenance}


def _case1_terms(pi, v, ts, cert, delta, eps):
    """Separate each of K detectable types from everything delta-far.

    pi, v and ts hold the types' beliefs, values and grid points, and cert
    is the certification grid.  Type k's separation LP weights each far
    type's margin by the surplus gain it stands to make, which keeps the
    later scaling alpha = SAFETY_FACTOR * max(0, (v(s)-v(t)) / (pi(s).z))
    well conditioned: the ratio is bounded by 1/weighted-margin.  Near
    types (within delta of ts[k]) are held at nonnegative expected value;
    their surplus stays below eps because delta was chosen from the value
    modulus.

    The K LPs share one layout.  They are solved SEPARATOR_CHUNK types at a
    time, one lp.solve_stack call per chunk, and each chunk is finished
    before the next is built, so memory holds one chunk's rows.  Returns,
    per type, (alpha, z, wmargin, raw_margin) or the exception its
    construction raises (BudgetInfeasible when no functional separates
    it), for the caller to raise in grid order.
    """
    answers = []
    for lo in range(0, len(ts), SEPARATOR_CHUNK):
        part = slice(lo, lo + SEPARATOR_CHUNK)
        answers += _case1_chunk(pi[part], v[part], ts[part], cert, delta, eps)
    return answers


def _case1_chunk(pi, v, ts, cert, delta, eps):
    """_case1_terms on one chunk of types, in one lp.solve_stack call.

    Type k's point columns are the far cert types in grid order, each
    divided by its weight, then the near ones (one stable argsort of the
    near mask), so the rows are written straight into one array: the
    near columns are divided by 1.0, which keeps their bits.
    """
    N, S = cert.beliefs.shape
    near = np.abs(cert.ts - ts[:, None]) < delta
    order = np.argsort(near, axis=1, kind="stable")
    n_far = N - np.count_nonzero(near, axis=1)
    gains = cert.values[order] - v[:, None]
    weights = np.where(np.arange(N) < n_far[:, None],
                       np.maximum(gains, eps / 2.0), 1.0)
    layout, rows, objectives = separation_stack(cert.beliefs, order, n_far,
                                                pi[:, None])
    rows[:, :S, :N] /= weights[:, None, :]
    sols = lp.solve_stack(layout, rows, objectives)
    return [_case1_answer(sol, pi[k], cert.beliefs[order[k, :f]],
                          gains[k, :f], weights[k, :f])
            for k, (sol, f) in enumerate(zip(sols, n_far.tolist()))]


def _case1_answer(sol, pi_t, far_beliefs, gains, weights):
    """One type's (alpha, z, wmargin, raw_margin) off its solved separation
    LP, or the exception that ends its construction."""
    z, wmargin = separation_answer(sol, far_beliefs / weights[:, None])
    if wmargin <= 0.0:
        return BudgetInfeasible(
            "no functional separates the far set at positive margin")
    z = _own_null(z, pi_t)
    far_vals = far_beliefs @ z
    raw_margin = float(far_vals.min())
    if raw_margin <= 0.0:
        return BudgetInfeasible("separator not positive on the far set")
    alpha = SAFETY_FACTOR * float(np.max(gains / far_vals, initial=0.0))
    return max(alpha, 0.0), z, wmargin, raw_margin


def virtual_extraction_menu(model: ParametricModel, eps: float,
                            grid_n: int = 201):
    """Menu leaving at most eps surplus, built on the construction grid.

    Detectable types get the one-shot scaled-separator contract, whose
    separation LPs are solved up front in lock-step chunks (_case1_terms),
    or a flat one when no type lies delta-far.  Types on declared faces
    walk their exposure chain from the innermost face outward, spending
    eps/n of the budget per stage.  Types are then finished in grid order,
    so the first type that fails raises, whichever chunk it was solved in.
    All "for all s" quantities are evaluated on a CERT_MULT-times finer
    certification grid; the residual off-grid slack is what verify_menu
    reports.
    Returns (menu, construction_logs).
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    tab = sample(model, grid_n)
    bset = tab.belief_set()
    cert = sample(model, CERT_MULT * (grid_n - 1) + 1)
    declared = [f.functional for f in model.declared_faces]

    # a constant model is a single type in disguise: flat payment menu
    if (np.abs(cert.beliefs - cert.beliefs[0]).max() <= 1e-12
            and np.ptp(cert.values) <= 1e-12):
        entries = [(lbl, Contract(np.full(tab.state_count, tab.values[i]),
                                  Provenance(base_value=tab.values[i])))
                   for i, lbl in enumerate(tab.labels)]
        logs = [ConstructionLog(label=lbl, case="constant")
                for lbl in tab.labels]
        return Menu(entries, tab.ts), logs

    delta = eps / (2.0 * model.lipschitz_v)
    on_face = [any(abs(float(pi @ z)) <= FACE_TOL for z in declared)
               for pi in tab.beliefs]
    off = np.flatnonzero(np.logical_not(on_face))
    # the cert type farthest from t is an end of the cert grid.  A type
    # with no delta-far type pays its value flat (alpha 0, no functional):
    # every type lies within delta of it, so their surplus stays below eps
    reach = np.maximum(np.abs(cert.ts[0] - tab.ts[off]),
                       np.abs(cert.ts[-1] - tab.ts[off]))
    far = off[reach >= delta]
    separators = dict.fromkeys(off.tolist(), (0.0, None, 0.0, 0.0))
    separators.update(zip(far.tolist(), _case1_terms(
        tab.beliefs[far], tab.values[far], tab.ts[far], cert, delta, eps)))
    entries = []
    logs = []
    for i, t in enumerate(tab.ts):
        pi_t = tab.beliefs[i]
        v_t = float(tab.values[i])
        if i in separators:
            answer = separators[i]
            if isinstance(answer, Exception):
                if (isinstance(answer, BudgetInfeasible)
                        and not is_extreme(bset, i)[0]):
                    raise NotEventuallyDetectable(
                        f"type {tab.labels[i]} is a convex combination of "
                        "others and sits on no declared face") from answer
                raise answer
            alpha, z, _, raw = answer
            contract = _finish_contract(pi_t, v_t,
                                        [] if z is None else [(alpha, z)])
            log = ConstructionLog(label=tab.labels[i], case="detectable",
                                  alphas=[alpha], margins=[raw],
                                  deltas=[delta], provenance="grid")
        else:
            contract, log = _chain_contract(
                model, bset, tab, i, t, eps, cert, declared)
        entries.append((tab.labels[i], contract))
        logs.append(log)
    return Menu(entries, tab.ts), logs


def _chain_contract(model, bset, tab, i, t, eps, cert, declared):
    chain = exposure_chain(bset, i, declared_faces=declared)
    n_st = chain.length
    budget = eps / n_st
    pi_t = tab.beliefs[i]
    v_t = float(tab.values[i])
    log = ConstructionLog(label=tab.labels[i], case="chain",
                          chain_length=n_st, provenance=chain.provenance)

    # cert-grid membership of each face, from the stage functionals
    cert_member = [np.ones(cert.n_types, dtype=bool)]
    for members, z in chain.stages[:-1]:
        on = np.abs(cert.beliefs @ z) <= FACE_TOL
        cert_member.append(cert_member[-1] & on)

    # innermost: expose the type within the smallest enclosing face
    inner_mask = cert_member[-1]
    z_n = _own_null(chain.stages[-1][1], pi_t)
    inner_idx = np.flatnonzero(inner_mask)
    inner_far = inner_idx[np.abs(cert.ts[inner_idx] - t)
                          >= budget / (2.0 * model.lipschitz_v)]
    terms = []
    if inner_far.size:
        vals = cert.beliefs[inner_far] @ z_n
        m_in = float(vals.min())
        if m_in <= 0.0:
            raise BudgetInfeasible("terminal face functional not separating")
        ratio = float(np.max((cert.values[inner_far] - v_t) / vals,
                             initial=0.0))
        alpha_n = SAFETY_FACTOR * max(0.0, ratio) + 1.0
    else:
        m_in = np.inf
        alpha_n = 1.0
    terms.append((alpha_n, z_n))
    log.alphas.append(alpha_n)
    log.margins.append(m_in)
    log.deltas.append(budget / (2.0 * model.lipschitz_v))

    payments = np.full(pi_t.size, v_t) + alpha_n * z_n
    inner_surplus = cert.values[inner_mask] - cert.beliefs[inner_mask] @ payments
    if inner_surplus.size and float(inner_surplus.max()) > budget + 1e-9:
        raise BudgetInfeasible(
            f"innermost contract leaves {inner_surplus.max():.3e} on its "
            f"face, above the stage budget {budget:.3e}")

    # Walk outward: stage k separates face k from face k-1.  The proof
    # covers the face with Lipschitz delta-balls and spends eps/n on
    # them; the sublevel set of the same surplus target contains that
    # ball cover (surplus moves at most modulus * distance), so covering
    # by surplus value directly keeps every bound while the off-cover
    # margin, hence alpha, stays far better conditioned.
    stage_no = 1
    for k in range(n_st - 2, -1, -1):
        region_mask = cert_member[k]
        z_k = _own_null(chain.stages[k][1], pi_t)
        stage_no += 1
        target = stage_no * budget
        headroom = budget / 2.0
        surplus = cert.values - cert.beliefs @ payments
        cover = surplus <= target - headroom
        off = region_mask & ~cover
        modulus = model.lipschitz_v + \
            float(np.abs(payments).max()) * model.lipschitz_pi
        log.deltas.append(headroom / modulus)
        if off.any():
            residual = float(surplus[off].max())
            margin_k = float((cert.beliefs[off] @ z_k).min())
            if margin_k <= 0.0:
                raise BudgetInfeasible(
                    f"stage {k} margin {margin_k:.3e} not positive off cover")
            # the proof wants a strictly positive scaling even when the
            # residual is already nonpositive
            alpha_k = max(SAFETY_FACTOR * max(0.0, residual) / margin_k, 1.0)
        else:
            residual, margin_k = 0.0, np.inf
            alpha_k = 1.0
        inside = region_mask & cover
        dip = max(0.0, -float((cert.beliefs[inside] @ z_k).min(initial=0.0)))
        if alpha_k * dip > headroom:
            raise BudgetInfeasible(
                f"stage {k} functional dips {dip:.3e} on covered types, "
                "eating the stage headroom")
        payments = payments + alpha_k * z_k
        terms.append((alpha_k, z_k))
        log.alphas.append(alpha_k)
        log.margins.append(margin_k)
        log.residuals.append(residual)

    contract = Contract(_nudge_own(payments, pi_t, v_t),
                        Provenance(base_value=v_t, terms=terms))
    return contract, log


# ---------------------------------------------------------------------------
# menu compression and verification

def compress_menu(model: ParametricModel, menu: Menu, eps: float,
                  grid_n: int) -> Menu:
    """Finite subcover of the menu achieving best surplus in [0, 2 eps].

    Keeps a greedy left-to-right subcover of the type balls whose radii
    come from the Lipschitz moduli, then makes each kept contract cheaper
    by eps so every covered type retains a small positive surplus.  Every
    point of the grid_n grid must lie in some entry's ball; the first that
    lies in none raises UncoveredType.  On the menu's own grid each entry
    covers its own type, so every point is covered.
    """
    report = verify_menu(model, menu, grid_n, (VIRTUAL, eps))
    if not report.passed:
        raise InputMenuFails(
            f"input menu fails virtual({eps}): worst own "
            f"{report.max_abs_own:.3e}, worst cross {report.max_cross:.3e}")
    if menu.ts is None:
        raise ValueError("menu.ts is None: compress_menu needs the type of "
                         "each entry to center its cover ball")

    entry_ts = menu.ts
    modulus = (model.lipschitz_v + np.abs(menu.payments_matrix()).max(axis=1)
               * model.lipschitz_pi)
    radii = (eps / 2.0) / np.maximum(modulus, 1e-300)

    ts = report.ts
    covered = np.zeros(ts.size, dtype=bool)
    kept: list[int] = []
    while not covered.all():
        tau = ts[int(np.argmin(covered))]
        ok = np.flatnonzero(np.abs(entry_ts - tau) < radii + 1e-15)
        if ok.size == 0:
            raise UncoveredType(float(tau))
        pick = int(ok[np.argmax(entry_ts[ok] + radii[ok])])
        kept.append(pick)
        covered |= np.abs(ts - entry_ts[pick]) < radii[pick] + 1e-15

    kept = sorted(set(kept))
    entries = []
    for j in kept:
        lbl, contract = menu.entries[j]
        payments = contract.payments - eps
        prov = None
        if contract.provenance is not None:
            prov = Provenance(base_value=contract.provenance.base_value - eps,
                              terms=list(contract.provenance.terms))
        entries.append((lbl, Contract(payments, prov)))
    return Menu(entries, entry_ts[kept])


def verify_menu(model, menu: Menu, grid_n, mode) -> ExtractionReport:
    """Evaluate all surpluses of a menu on a grid and pass judgment.

    mode is ("full",) or ("virtual", eps).  Full requires |own| <= 1e-8
    and cross <= 1e-8; virtual requires own in [-1e-8, eps] and
    cross <= eps.  Parametric verdicts additionally report the
    off-grid Lipschitz slack; it is never silently asserted.
    """
    if isinstance(mode, str):
        mode = (mode,)
    if mode[0] not in (FULL, VIRTUAL):
        raise ValueError(f"unknown mode {mode!r}")
    eps = float(mode[1]) if mode[0] == VIRTUAL else 0.0

    P = menu.payments_matrix()
    tab, slack = model, 0.0
    if not isinstance(model, TabularModel):
        tab = sample(model, grid_n)
        h = float(tab.ts[1] - tab.ts[0])
        cmax = float(np.abs(P).max())
        slack = model.lipschitz_v * h + cmax * model.lipschitz_pi * h
    labels = list(tab.labels)
    surplus = tab.values[:, None] - tab.beliefs @ P.T     # (types, entries)
    col_of = {lbl: j for j, (lbl, _) in enumerate(menu.entries)}
    rows = [i for i, lbl in enumerate(labels) if lbl in col_of]
    cols = [col_of[labels[i]] for i in rows]

    own = np.full(len(labels), np.nan)
    own[rows] = surplus[rows, cols]
    best = surplus.max(axis=1)
    others = surplus.copy()
    others[rows, cols] = -np.inf
    cross = others.max(axis=1)

    have_own = ~np.isnan(own)
    if mode[0] == FULL:
        ok = (have_own.all()
              and float(np.abs(own).max()) <= 1e-8
              and float(cross.max()) <= 1e-8)
        verdict = FULL if ok else "fails"
    else:
        own_ok = np.all((own[have_own] >= -1e-8) & (own[have_own] <= eps))
        ok = bool(own_ok and float(cross.max()) <= eps)
        verdict = VIRTUAL if ok else "fails"

    return ExtractionReport(mode=mode, labels=labels, own=own, cross=cross,
                            best=best, verdict=verdict, passed=bool(ok),
                            lipschitz_slack=float(slack), ts=tab.ts)
