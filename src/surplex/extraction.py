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

import math
import numbers
from collections import deque

import numpy as np

from surplex import lp
from surplex.geometry import (
    FACE_TOL,
    MARGIN_TOL,
    ExposureChain,
    expose_each,
    expose_set,
    exposure_chain,
    extreme_each,
    is_extreme,
    known_combinations,
    separation_answer,
    separation_layout,
    separation_rows,
    solve_each,
)
from surplex.models import ParametricModel, TabularModel, sample

SAFETY_FACTOR = 2.0
# the certification grid of virtual extraction is this many times finer
CERT_MULT = 10
# constant nudge target: constructed own surpluses land at +1e-11, safely
# inside [0, 1e-9] after float rounding of payments up to ~1e4 in norm
OWN_NUDGE = 1e-11
# off-face types whose virtual separation LPs share one lock-step solve.
# A sifted program has about grid_n + 1.8 delta / h columns (h the cert
# spacing), not one per cert point, so a chunk's rows take
# SEPARATOR_CHUNK x (S + 1) x that many floats.  The preset's 99 types go in three chunks: 12 solved
# slower, and EXPOSE_CHUNK's one stack of 99 raised the preset's peak
# RSS above what it was with 12.  The chunks of one construction share
# the buffers of their one lp.solve_chunks call
SEPARATOR_CHUNK = 33

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


class Classification:
    """Detectability verdict for one type, with its certificate."""

    def __init__(self, label: str, functional: np.ndarray | None = None,
                 margin: float | None = None,
                 inf_margin: float | None = None,
                 chain: ExposureChain | None = None,
                 witness: np.ndarray | None = None, slack: float = 0.0,
                 provenance: str = ""):
        self.label = label
        self.functional = functional
        self.margin = margin
        self.inf_margin = inf_margin
        self.chain = chain
        self.witness = witness
        self.slack = slack
        self.provenance = provenance

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


class Provenance:
    """Decomposition record: payments = base_value 1 + sum alpha_i z_i."""

    def __init__(self, base_value: float,
                 terms: list[tuple[float, np.ndarray]] | None = None):
        self.base_value = base_value
        self.terms = [] if terms is None else terms

    def assemble(self, n_states: int) -> np.ndarray:
        c = np.full(n_states, self.base_value)
        for alpha, z in self.terms:
            c = c + alpha * z
        return c


class Contract:
    def __init__(self, payments: np.ndarray,
                 provenance: Provenance | None = None):
        self.payments = np.asarray(payments, dtype=float)
        self.provenance = provenance
        if not np.isfinite(self.payments).all():
            raise ValueError("non-finite payments")

    def decomposition_residual(self) -> float:
        if self.provenance is None:
            return 0.0
        ref = self.provenance.assemble(self.payments.size)
        return float(np.abs(self.payments - ref).max())


class Menu:
    """Labeled contracts; ts holds each entry's type on a parametric grid,
    as a float array of its own."""

    def __init__(self, entries: list[tuple[str, Contract]],
                 ts: np.ndarray | None = None):
        self.entries = entries
        self.ts = ts
        labels = [lbl for lbl, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValueError("menu labels must be unique")
        if ts is not None:
            self.ts = np.array(ts, dtype=float)
            if self.ts.shape != (len(labels),):
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
        return cls(entries, data.get("ts"))


class ExtractionReport:
    """Grid evaluation of a menu: surpluses, verdict, and grid slack.

    own is NaN for types without a same-label entry (compressed menus).
    For parametric models lipschitz_slack = L_v h + max|c|_inf L_pi h
    caps how much any surplus can move between grid points, and ts
    holds the grid (it is not part of to_jsonable).
    """

    def __init__(self, mode: tuple, labels: list[str], own: np.ndarray,
                 cross: np.ndarray, best: np.ndarray, verdict: str,
                 passed: bool, lipschitz_slack: float = 0.0, notes: str = "",
                 ts: np.ndarray | None = None):
        self.mode = mode
        self.labels = labels
        self.own = own
        self.cross = cross
        self.best = best
        self.verdict = verdict
        self.passed = passed
        self.lipschitz_slack = lipschitz_slack
        self.notes = notes
        self.ts = ts

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
    provenance = Provenance(base_value=value, terms=list(terms))
    return Contract(_nudge_own(provenance.assemble(pi.size), pi, value),
                    provenance)


# ---------------------------------------------------------------------------
# classification

def classify_type(model, t, grid_n: int = 201,
                  margin_tol: float = MARGIN_TOL) -> Classification:
    """Strongest detectability label for a type, with certificates.

    A parametric model is classified on its table sample(model, grid_n),
    and t must be a point of that grid; a tabular model is its own table,
    and t is a label or an index.  Every call on one table reads the
    table's one belief set, so each point's exposure and extreme-point LP
    is solved once however many types are classified.  To classify many
    types of one table, GridClassifier does the per-table work once.

    Membership in a declared face is checked first, because grid exposure
    margins for a non-exposed endpoint are positive (they only decay to
    zero under refinement) and would mask the continuum structure.  A
    separating functional z upgrades Detectable to StronglyDetectable
    when its margin beats the off-grid slack lipschitz_pi (h / 2) |z|_inf;
    a table has no declared faces and zero slack, so every separated type
    is StronglyDetectable.  Failing types come with a convex-combination
    witness.
    """
    grid = GridClassifier(model, grid_n)
    return grid.classify(grid.index_of(t), margin_tol)


class GridClassifier:
    """classify_type's work per table, done once for all its types: the
    table (sample(model, grid_n) of a parametric model; a tabular model
    is its own), its belief set, the model's declared faces, the off-grid
    slack factor lipschitz_pi (h / 2), and on_face, the one on-face rule:
    a point is on a declared face when it lies on the face's zero set
    together with another point."""

    def __init__(self, model, grid_n: int = 201):
        self.model, self.grid_n = model, grid_n
        if isinstance(model, TabularModel):
            self.tab, self.faces, self.lip = model, [], 0.0
        else:
            self.tab = sample(model, grid_n)
            self.faces = [f.functional for f in model.declared_faces]
            self.lip = model.lipschitz_pi * (
                float(np.diff(self.tab.ts).max()) / 2.0)
        self.bset = self.tab.belief_set()
        points = self.bset.points
        self.on_face = np.zeros(len(points), dtype=bool)
        for z in self.faces:
            on = np.abs(points @ z) <= FACE_TOL
            if np.count_nonzero(on) >= 2:
                self.on_face |= on

    def index_of(self, t) -> int:
        """The index of type t: a label or an index of a table, a grid
        point of a parametric model's grid (a real number, not a bool)."""
        if isinstance(self.model, TabularModel):
            return self.model.index_of(t)
        ts = self.tab.ts
        if (isinstance(t, bool) or not isinstance(t, numbers.Real)
                or not np.any(np.abs(ts - t) < 1e-12)):
            raise ValueError(f"t={t!r} is not a point of the "
                             f"{self.grid_n}-point grid")
        return int(np.argmin(np.abs(ts - t)))

    def classify(self, idx: int,
                 margin_tol: float = MARGIN_TOL) -> Classification:
        """classify_type of the type at index idx."""
        tab, bset = self.tab, self.bset
        if tab.n_types == 1:
            return Classification(label=STRONGLY_DETECTABLE,
                                  functional=np.zeros(tab.state_count),
                                  margin=np.inf, inf_margin=np.inf,
                                  provenance="grid")
        if self.on_face[idx]:
            chain = exposure_chain(bset, idx, declared_faces=self.faces)
            return Classification(label=EVENTUALLY_DETECTABLE, chain=chain,
                                  provenance="declared")

        res = expose_set(bset, [idx], margin_tol=margin_tol)
        if res is not None:
            z, margin = res
            slack = self.lip * float(np.abs(z).max())
            if margin - slack > 0.0:
                return Classification(
                    label=STRONGLY_DETECTABLE, functional=z, margin=margin,
                    inf_margin=margin - slack, slack=slack,
                    provenance="grid")
            return Classification(label=DETECTABLE, functional=z,
                                  margin=margin, slack=slack,
                                  provenance="grid")
        extreme, witness = is_extreme(bset, idx)
        if not extreme:
            return Classification(label=NOT_DETECTABLE, witness=witness,
                                  provenance="grid")
        chain = exposure_chain(bset, idx)
        return Classification(label=EVENTUALLY_DETECTABLE, chain=chain,
                              provenance=chain.provenance)

    def classify_all(self,
                     margin_tol: float = MARGIN_TOL) -> list[Classification]:
        """classify of every type, with every point's exposure LP solved
        in one stacked call, and in another the extreme-point LPs of the
        types classify tests: unexposed and on no declared face."""
        margins = expose_each(self.bset)
        extreme_each(self.bset, np.flatnonzero(
            (margins <= margin_tol) & ~self.on_face).tolist())
        return [self.classify(i, margin_tol)
                for i in range(self.tab.n_types)]


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
    (expose_each), and so are the failing types' extreme-point LPs
    (extreme_each), so a table classified first solves no exposure or
    extreme-point LP again.
    """
    if tab.n_types == 1:
        # vacuous separation: the constant contract already extracts all
        pi, v = tab.beliefs[0], float(tab.values[0])
        return Menu([(tab.labels[0], _finish_contract(pi, v, []))])

    bset = tab.belief_set()
    expose_each(bset)
    separators = [expose_set(bset, [i], margin_tol=margin_tol)
                  for i in range(tab.n_types)]
    failing = [i for i, res in enumerate(separators) if res is None]
    if failing:
        extreme_each(bset, failing)
        raise NotAllDetectable([(tab.labels[i], is_extreme(bset, i)[1])
                                for i in failing])

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
    rows.  An unbounded block means the program is infeasible, and the
    ray of the first unbounded block in type order, with zero weight on
    every other block, is the Farkas certificate.

    Block t writes y_t as the difference of its column t and an explicit
    column -pi_t right after it, with objective entry -v_t and mass entry
    0.  That is how lp splits a free variable, bit for bit: (-p) / s is
    p / (-s), the row scales and costs are the same, and y_t is the same
    subtraction.  So every block has one layout (all variables >= 0, S
    "=" rows and one "<=" row), and the blocks are the "full_block"
    family of geometry.solve_each on the table's belief set, which
    remembers each block's answer for every later call.

    Only a block whose type's belief is a convex combination of the
    others' can be unbounded: a ray has a = b = 0 (the mass row), so it
    puts weights y on probability vectors that sum to the zero vector,
    and with y_t >= 0 too they would all be zero; so y_t < 0, and the
    ray divided by -y_t is such a combination.  The blocks of the types
    that the table's belief set already knows to be combinations
    (known_combinations: classify_type asks is_extreme of every type it
    fails) are solved first, one at a time in index order, up to the
    first unbounded one; only if none is unbounded are the others solved.
    Status and certificate are those of solving every block in index
    order, unless a block of another type with a lower index is
    unbounded, which would contradict that type's exposure certificate
    numerically.  iterations counts the pivots of the blocks read.
    """
    bset = tab.belief_set()
    m, S = tab.n_types, tab.state_count
    n = m + 1 + 2 * S
    layout = lp.LinearProgram(
        np.zeros(n), [(np.zeros(n), lp.EQ, 0.0)] * S
        + [(np.zeros(n), lp.LE, 1.0)], sense="max")
    fill = _full_blocks(tab)
    blocks = {}
    for t in known_combinations(bset):
        blocks[t], = solve_each(bset, "full_block", [t], layout, fill,
                                _full_answer)
        if blocks[t][0] == lp.UNBOUNDED:
            break
    else:   # no known combination's block is unbounded: solve the others
        blocks = dict(enumerate(solve_each(bset, "full_block", range(m),
                                           layout, fill, _full_answer)))
    iterations = sum(b[1] for b in blocks.values())
    unbounded = min((t for t, b in blocks.items()
                     if b[0] == lp.UNBOUNDED), default=None)
    mults = np.zeros((m, m + 2 * S))          # (y, a, b) per type
    if unbounded is not None:
        mults[unbounded] = blocks[unbounded][2]
        status = lp.INFEASIBLE
    else:
        contracts = np.array([blocks[t][3] for t in range(m)])
        mults[:] = [blocks[t][2] for t in range(m)]
        status = lp.OPTIMAL

    own = np.diag(mults[:, :m])
    cross = mults[:, :m][~np.eye(m, dtype=bool)]
    box = np.empty((m, 2 * S))
    box[:, 0::2], box[:, 1::2] = -mults[:, m:m + S], mults[:, m + S:]
    duals = np.concatenate([own, cross, box.reshape(-1)])
    if status == lp.INFEASIBLE:
        return lp.LpSolution(status=status, duals=duals,
                             iterations=iterations), None
    primal = np.concatenate([contracts[:, :S].reshape(-1), contracts[:, S]])
    sol = lp.LpSolution(status=status, primal=primal, duals=duals,
                        objective_value=float(contracts[:, S].sum()),
                        iterations=iterations)
    return sol, Menu([(lbl, Contract(c)) for lbl, c
                      in zip(tab.labels, contracts[:, :S])])


def _full_blocks(tab):
    """The solve_each fill of the full-extraction blocks on
    full_extraction_lp's shared layout: block t's columns are the beliefs
    in type order with -pi_t inserted after pi_t, then -I and +I.  It
    writes the rows and objectives in full."""
    m, S = tab.n_types, tab.state_count
    j = np.arange(m + 1)

    def fill(part, rows, objectives, rhs):
        t = part[:, None]
        src = j - (j > t)                # each column's type; t twice
        sign = np.where(j == t + 1, -1.0, 1.0)
        rows[:, :S, :m + 1] = (tab.beliefs[src]
                               * sign[:, :, None]).transpose(0, 2, 1)
        rows[:, :S, m + 1:m + 1 + S] = -np.eye(S)
        rows[:, :S, m + 1 + S:] = np.eye(S)
        rows[:, S, :m + 1] = 0.0
        rows[:, S, m + 1:] = 1.0
        objectives[:, :m + 1] = tab.values[src] * sign
        objectives[:, m + 1:] = 0.0

    return fill


def _full_answer(t, block):
    """Block t's remembered (status, pivots, (y, a, b), duals): (y, a, b)
    is the ray of an unbounded block, else its primal, with y_t its split
    form's column t minus column t + 1; the duals of an optimal block are
    (c(t), u_t)."""
    if block.status == lp.INFEASIBLE:  # pragma: no cover - 0 is feasible
        raise RuntimeError("full-extraction block LP ended infeasible")
    x = block.ray if block.status == lp.UNBOUNDED else block.primal
    y = np.delete(x, t + 1)
    y[t] -= x[t + 1]
    return block.status, block.iterations, y, block.duals


# ---------------------------------------------------------------------------
# virtual extraction (parametric models)

class ConstructionLog:
    def __init__(self, label: str, case: str,
                 alphas: list[float] | None = None,
                 margins: list[float] | None = None,
                 deltas: list[float] | None = None,
                 residuals: list[float] | None = None,
                 chain_length: int = 0, provenance: str = ""):
        self.label = label
        self.case = case             # "detectable" or "chain"
        self.alphas = [] if alphas is None else alphas
        self.margins = [] if margins is None else margins
        self.deltas = [] if deltas is None else deltas
        self.residuals = [] if residuals is None else residuals
        self.chain_length = chain_length
        self.provenance = provenance

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
    modulus.  The near types are one band [a, b) of the sorted cert grid.

    Each LP is sifted.  It is first solved on the far columns of
    _sifted_far, each divided by its weight, in grid order, then the
    whole band (a near column is divided by 1.0, which keeps its bits).
    Then every far column left out is priced against the z it returned,
    by the driver's own reduced-cost test; while some fail, the type is
    solved again with them added.  So each answer is an optimum of the
    program over every far type, which is what the loop converges to.

    The first solves share one layout, as wide as the widest type's
    columns, and go to lp.solve_chunks SEPARATOR_CHUNK types at a time;
    a narrower program is padded with all-zero columns after its point
    columns.  A zero column never prices negative and never takes a
    pivot, so a program has the same bits padded or not.  Returns a lazy
    iterator of the types' _case1_answer: a chunk is built and solved
    when its first answer is taken, so memory holds one chunk's, and none
    after a failure.
    """
    N, S = cert.beliefs.shape
    points = np.vstack([cert.beliefs, np.zeros(S)])  # point N pads
    bands = []
    for t in ts:
        near = np.abs(cert.ts - t) < delta
        a = int(near.argmax())
        bands.append((a, a + int(np.count_nonzero(near))))
    layout = separation_layout(
        max((_sifted_far(N, a, b).size + b - a for a, b in bands),
            default=0), 1, S)
    # the driver's reduced-cost tolerance, FEAS_TOL (1 + max |cost|)
    tol = lp.FEAS_TOL * (1.0 + np.abs(layout.objective).max())
    pending = deque()   # per type of a chunk: its far columns

    def write(rows, types, fars):
        """The rows of the programs of types, on these far columns."""
        order = np.full((len(types), rows.shape[2] - 1 - 2 * S), N)
        weights = np.ones(order.shape)
        for j, (k, far) in enumerate(zip(types, fars)):
            a, b = bands[k]
            order[j, :far.size + b - a] = np.concatenate(
                [far, np.arange(a, b)])
            weights[j, :far.size] = np.maximum(cert.values[far] - v[k],
                                               eps / 2.0)
        separation_rows(rows, points, order, [far.size for far in fars],
                        pi[types, None])
        rows[:, :S, :order.shape[1]] /= weights[:, None, :]

    def fill(lo, hi, rows, objectives, rhs):
        fars = [_sifted_far(N, *bands[k]) for k in range(lo, hi)]
        write(rows, np.arange(lo, hi), fars)
        pending.extend(fars)

    def solve_alone(k, far):
        a, b = bands[k]
        sol, = lp.solve_chunks(
            separation_layout(far.size + b - a, 1, S), 1, 1,
            lambda lo, hi, rows, objectives, rhs: write(rows, [k], [far]),
            family="virtual")
        return sol

    def answer(k, sol):
        far = pending.popleft()
        a, b = bands[k]
        every = np.r_[0:a, b:N]       # the far cert points
        far_beliefs = cert.beliefs[every]
        gains = cert.values[every] - v[k]
        far_points = far_beliefs / np.maximum(gains, eps / 2.0)[:, None]
        while True:
            # a far column's reduced cost is (p.z) / w - m, for the z and
            # margin m of sol, and the driver stops at -tol
            out = far_points @ -sol.duals[:S] < sol.duals[S] - tol
            out[np.searchsorted(every, far)] = False
            if not out.any():
                return _case1_answer(sol, pi[k], far_beliefs, gains,
                                     far_points)
            far = np.union1d(far, every[out])
            sol = solve_alone(k, far)

    return map(answer, range(len(ts)), lp.solve_chunks(
        layout, len(ts), SEPARATOR_CHUNK, fill, family="virtual"))


def _sifted_far(N, a, b):
    """The far columns a separator is first solved on, of an N-point
    cert grid whose band [a, b) is near: the cert points at stride
    CERT_MULT, which are the construction grid's own, the grid's two
    ends and the two points next to the band, in grid order."""
    far = np.zeros(N, dtype=bool)
    far[::CERT_MULT] = True
    far[[0, N - 1, max(a - 1, 0), min(b, N - 1)]] = True
    far[a:b] = False
    return np.flatnonzero(far)


def _case1_answer(sol, pi_t, far_beliefs, gains, far_points):
    """One type's (alpha, z, raw_margin) off its solved separation LP,
    with far_points the far beliefs divided by their weights;
    BudgetInfeasible if z is not positive on the far set."""
    z, wmargin = separation_answer(sol, far_points)
    if wmargin <= 0.0:
        raise BudgetInfeasible(
            "no functional separates the far set at positive margin")
    z = _own_null(z, pi_t)
    far_vals = far_beliefs @ z
    raw_margin = float(far_vals.min())
    if raw_margin <= 0.0:
        raise BudgetInfeasible("separator not positive on the far set")
    alpha = SAFETY_FACTOR * float(np.max(gains / far_vals, initial=0.0))
    return max(alpha, 0.0), z, raw_margin


def virtual_extraction_menu(model: ParametricModel, eps: float,
                            grid_n: int = 201):
    """Menu leaving at most eps surplus, built on the construction grid.

    The types are GridClassifier(model, grid_n)'s, taken in grid order.
    A type on a declared face (its on_face) walks its exposure chain from
    the innermost face outward, spending eps/n of the budget per stage.
    Any other type gets the one-shot scaled-separator contract, its
    separator the next answer of _case1_terms, or a flat one when no type
    lies delta-far.  So the first type that fails raises, and no later
    chunk is solved.  All "for all s" quantities are evaluated on a
    CERT_MULT-times finer certification grid; the residual off-grid slack
    is what verify_menu reports.
    Returns (menu, construction_logs).
    """
    if not (math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    grid = GridClassifier(model, grid_n)
    tab = grid.tab
    cert = sample(model, CERT_MULT * (grid_n - 1) + 1)

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
    # the cert type farthest from t is an end of the cert grid.  A type
    # with no delta-far type pays its value flat (alpha 0, no functional):
    # every type lies within delta of it, so their surplus stays below eps
    far = ~grid.on_face & (np.maximum(np.abs(cert.ts[0] - tab.ts),
                                      np.abs(cert.ts[-1] - tab.ts)) >= delta)
    separators = _case1_terms(tab.beliefs[far], tab.values[far],
                              tab.ts[far], cert, delta, eps)
    entries = []
    logs = []
    for i, pi_t in enumerate(tab.beliefs):
        if grid.on_face[i]:
            contract, log = _chain_contract(grid, i, eps, cert)
        else:
            alpha, z, raw = 0.0, None, 0.0
            if far[i]:
                try:
                    alpha, z, raw = next(separators)
                except BudgetInfeasible as err:
                    if not is_extreme(grid.bset, i)[0]:
                        raise NotEventuallyDetectable(
                            f"type {tab.labels[i]} is a convex combination "
                            "of others and sits on no declared face") from err
                    raise
            contract = _finish_contract(pi_t, float(tab.values[i]),
                                        [] if z is None else [(alpha, z)])
            log = ConstructionLog(label=tab.labels[i], case="detectable",
                                  alphas=[alpha], margins=[raw],
                                  deltas=[delta], provenance="grid")
        entries.append((tab.labels[i], contract))
        logs.append(log)
    return Menu(entries, tab.ts), logs


def _chain_contract(grid, i, eps, cert):
    model, tab, t = grid.model, grid.tab, grid.tab.ts[i]
    chain = exposure_chain(grid.bset, i, declared_faces=grid.faces)
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

    mode is ("full",) or ("virtual", eps), eps finite and > 0 (else
    ValueError).  An empty menu, or a contract without one payment per
    state of the model, is a ValueError too.  Full requires |own| <= 1e-8
    and cross <= 1e-8; virtual requires own in [-1e-8, eps] and cross <=
    eps.  Parametric verdicts additionally report the off-grid Lipschitz
    slack; it is never silently asserted.
    """
    if isinstance(mode, str):
        mode = (mode,)
    if mode[0] not in (FULL, VIRTUAL):
        raise ValueError(f"unknown mode {mode!r}")
    eps = 0.0
    if mode[0] == VIRTUAL:
        eps = float(mode[1]) if len(mode) == 2 else math.nan
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"virtual mode needs one finite eps > 0, "
                             f"got {mode!r}")
    if not len(menu):
        raise ValueError("cannot verify an empty menu")
    S = model.state_count
    for lbl, c in menu.entries:
        if c.payments.shape != (S,):
            raise ValueError(f"contract {lbl!r} has payments of shape "
                             f"{c.payments.shape}, not one per state ({S})")

    P = menu.payments_matrix()
    tab, slack = model, 0.0
    if not isinstance(model, TabularModel):
        tab = sample(model, grid_n)
        h = float(tab.ts[1] - tab.ts[0])
        cmax = float(np.abs(P).max())
        slack = model.lipschitz_v * h + cmax * model.lipschitz_pi * h
    labels = list(tab.labels)
    # one (types, entries) matrix: the surpluses, then the cross ones
    surplus = tab.beliefs @ P.T
    np.subtract(tab.values[:, None], surplus, out=surplus)
    col_of = {lbl: j for j, (lbl, _) in enumerate(menu.entries)}
    rows = [i for i, lbl in enumerate(labels) if lbl in col_of]
    cols = [col_of[labels[i]] for i in rows]

    own = np.full(len(labels), np.nan)
    own[rows] = surplus[rows, cols]
    best = surplus.max(axis=1)
    surplus[rows, cols] = -np.inf
    cross = surplus.max(axis=1)

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
