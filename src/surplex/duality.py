"""Primal/dual linear programs bounding the extractable surplus.

The primal asks for a schedule z(t) and a level c with
pi(t).z(t) <= c and v(t) - v(s) - pi(t).z(s) <= c for all t, s; its
value p* is the worst surplus any menu of the form c(t) = v(t) + z(t)
must leave on the table, and p* <= 0 means virtual extraction holds.
Its LP dual searches for measures (lambda, nu) over types and type pairs
with lambda_u pi(u) = sum_t nu_{t,u} pi(t): a nonzero optimal nu with
mass off the diagonal is a concrete belief-dependence witness, and
disintegrating nu by its type marginal exhibits each belief as a convex
combination of the others.  Only the primal is solved: the dual measure
is its vector of optimal multipliers (lambda on the own rows, nu on the
pair rows), checked for feasibility against the full dual program, and
strong duality (the z = 0 Slater point is strictly feasible) is checked
as p* = d* = nu . d rather than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from surplex import lp
from surplex.extraction import VIRTUAL, Contract, Menu, verify_menu
from surplex.models import TabularModel

P_TOL = 1e-6       # extraction verdict: p* at or below this counts as zero
MASS_TOL = 1e-8    # disintegration skips types with less lambda mass
GAP_TOL = 1e-7     # strong duality: dual infeasibility, and relative gap
MAX_ROUNDS = 60    # row-generation rounds before the primal gives up


class DegenerateDual(ValueError):
    """No type carries enough lambda mass to disintegrate."""


@dataclass
class VseInstance:
    """Tabular model plus the pairwise value differences d(t,s)."""

    tabular: TabularModel
    d: np.ndarray = None

    def __post_init__(self):
        v = self.tabular.values
        if self.d is None:
            self.d = v[:, None] - v[None, :]
        self.d = np.asarray(self.d, dtype=float)
        m = self.tabular.n_types
        if self.d.shape != (m, m):
            raise ValueError("d must be (types, types)")
        if np.abs(np.diag(self.d)).max(initial=0.0) > 1e-12:
            raise ValueError("d must vanish on the diagonal")

    @property
    def n_types(self) -> int:
        return self.tabular.n_types

    @property
    def n_states(self) -> int:
        return self.tabular.state_count


def build_primal(inst: VseInstance, pairs=None) -> lp.LinearProgram:
    """min c  s.t.  pi(t).z(t) <= c,  d(t,s) - pi(t).z(s) <= c.

    Variables: c then z(t) flattened type-major; everything free.  The
    s = t rows read c >= -pi(t).z(t), which pins the value at p* >= 0.
    Rows: the m own rows, then one row per pair (t, s) of `pairs`
    (default: all m^2 pairs, flattened t-major).
    """
    m, S = inst.n_types, inst.n_states
    if pairs is None:
        pairs = [(t, s) for t in range(m) for s in range(m)]
    nv = 1 + m * S
    beliefs = inst.tabular.beliefs
    cons = []
    for t in range(m):
        row = np.zeros(nv)
        row[0] = -1.0
        row[1 + t * S:1 + (t + 1) * S] = beliefs[t]
        cons.append((row, lp.LE, 0.0))
    for t, s in pairs:
        row = np.zeros(nv)
        row[0] = -1.0
        row[1 + s * S:1 + (s + 1) * S] = -beliefs[t]
        cons.append((row, lp.LE, -inst.d[t, s]))
    obj = np.zeros(nv)
    obj[0] = 1.0
    return lp.LinearProgram(obj, cons, bounds=[(None, None)] * nv)


def build_dual(inst: VseInstance) -> lp.LinearProgram:
    """max nu . d  over normalized (lambda, nu) >= 0 with matched marginals.

    Variables: lambda (m) then nu (m * m, pair (t,s) flattened t-major).
    Constraints: sum lambda + sum nu = 1 and, for every type u, the
    state-vector identity lambda_u pi(u) = sum_t nu_{t,u} pi(t); summing
    its coordinates gives the marginal identity lambda_u = sum_t nu_{t,u}.
    """
    m, S = inst.n_types, inst.n_states
    nv = m + m * m
    beliefs = inst.tabular.beliefs

    def nu_var(t, s):
        return m + t * m + s

    cons = [(np.ones(nv), lp.EQ, 1.0)]
    for u in range(m):
        for sig in range(S):
            row = np.zeros(nv)
            row[u] = beliefs[u, sig]
            for t in range(m):
                row[nu_var(t, u)] = -beliefs[t, sig]
            cons.append((row, lp.EQ, 0.0))
    obj = np.zeros(nv)
    obj[m:] = inst.d.reshape(-1)
    return lp.LinearProgram(obj, cons, bounds=[(0.0, None)] * nv,
                            sense="max")


@dataclass
class PrimalSolution:
    """Primal optimum; `solution` certifies it for the full build_primal."""

    p_star: float
    z: np.ndarray                 # (types, states)
    max_violation: float
    solution: lp.LpSolution


@dataclass
class DualMeasures:
    """Nonnegative weights over types (lambda) and type pairs (nu)."""

    lam: np.ndarray
    nu: np.ndarray                # (m, m), nu[t, s]

    @property
    def normalization(self) -> float:
        return float(self.lam.sum() + self.nu.sum())

    def marginal_residual(self) -> float:
        return float(np.abs(self.lam - self.nu.sum(axis=0)).max())

    def diagonal_mass(self) -> float:
        total = self.nu.sum()
        return float(np.trace(self.nu) / total) if total > 0.0 else 0.0

    def infeasibility(self, beliefs: np.ndarray) -> float:
        """Largest violation of build_dual: signs, normalization, states."""
        state = self.lam[:, None] * beliefs - self.nu.T @ beliefs
        return max(0.0, -float(self.lam.min()), -float(self.nu.min()),
                   abs(self.normalization - 1.0),
                   float(np.abs(state).max()))


def _exposed_zero_certificate(inst: VseInstance) -> PrimalSolution | None:
    """p* = 0 certificate from scaled separators, when every type is exposed.

    With all beliefs exposed the full-extraction schedule
    z(s) = alpha(s) z_sep(s) is feasible at c = 0 up to rounding, and the
    s = t rows force p* >= 0, so the minimal feasible c of this schedule
    is the exact optimum within float noise.  Its dual is the measure
    lambda_u = nu_uu = 1/(2m), of value 0.  A single type needs no
    separator (z = 0).  Returns None when some type has no separator
    (the general solver must run then).
    """
    from surplex.geometry import expose_set

    tab = inst.tabular
    m, S = tab.n_types, tab.state_count
    bset = tab.belief_set(allow_duplicates=True)
    z = np.zeros((m, S))
    for s in range(m if m > 1 else 0):   # expose_set rejects the full set
        res = expose_set(bset, [s])
        if res is None:
            return None
        zs, _ = res
        pi_s = tab.beliefs[s]
        zs = zs - (pi_s @ zs) * np.ones_like(zs)
        others = [t for t in range(m) if t != s]
        gains = tab.values[others] - tab.values[s]
        costs = tab.beliefs[others] @ zs
        alpha = max(0.0, float(np.max(gains / costs, initial=0.0))) + 1.0
        z[s] = alpha * zs
    vals = tab.beliefs @ z.T                       # vals[t, s] = pi(t).z(s)
    c_min = max(float(np.max(np.diag(vals))),
                float(np.max(inst.d - vals)))
    if not 0.0 <= c_min <= 1e-9:
        return None
    duals = np.zeros(m + m * m)
    duals[:m] = -0.5 / m
    duals[m + np.arange(m) * (m + 1)] = -0.5 / m
    free = np.zeros(1 + m * S)                     # no bound multipliers
    sol = lp.LpSolution(status=lp.OPTIMAL,
                        primal=np.concatenate([[c_min], z.reshape(-1)]),
                        duals=duals, objective_value=c_min,
                        bound_duals=(free, free.copy()))
    return PrimalSolution(p_star=c_min, z=z, max_violation=0.0,
                          solution=sol)


def solve_primal(inst: VseInstance) -> PrimalSolution:
    """Solve the primal exactly: the all-exposed shortcut, else rows on demand.

    The m^2 pair constraints are mostly slack at the optimum, so the
    program is solved on an active subset, pulling in the worst violated
    pairs until the full system is satisfied; the result is the exact LP
    optimum with an explicit feasibility residual.  Its duals are
    zero-padded on the pairs never added, which keeps them optimal for
    the full program.
    """
    fast = _exposed_zero_certificate(inst)
    if fast is not None:
        return fast

    m, S = inst.n_types, inst.n_states
    beliefs = inst.tabular.beliefs
    pairs = {(t, t) for t in range(m)}
    for t in range(m):
        pairs.add((t, int(np.argmin(inst.tabular.values))))
        pairs.add((int(np.argmax(inst.tabular.values)), t))
    for _ in range(MAX_ROUNDS):
        active = sorted(pairs)
        sol = lp.solve(build_primal(inst, active))
        if sol.status != lp.OPTIMAL:  # pragma: no cover - Slater point
            raise RuntimeError(f"primal subproblem ended {sol.status}")
        c_val = sol.primal[0]
        z = sol.primal[1:].reshape(m, S)
        # violation of d(t,s) - pi(t).z(s) <= c over all pairs
        surplus = inst.d - beliefs @ z.T - c_val
        worst = float(surplus.max())
        added = False
        for idx in np.argsort(surplus, axis=None)[::-1][:3 * m]:
            t, s = divmod(int(idx), m)
            if surplus[t, s] <= 1e-10 * (1.0 + abs(c_val)):
                break
            if (t, s) not in pairs:
                pairs.add((t, s))
                added = True
        if not added:  # settled, or a numerical corner (worst > 0)
            duals = np.zeros(m + m * m)
            duals[:m] = sol.duals[:m]
            duals[[m + t * m + s for t, s in active]] = sol.duals[m:]
            sol.duals = duals
            return PrimalSolution(p_star=float(sol.objective_value), z=z,
                                  max_violation=max(worst, 0.0),
                                  solution=sol)
    raise RuntimeError("primal row generation did not settle")


@dataclass
class DisintegrationReport:
    """Conditional rows nu_u(t) = nu[t, u] / lambda_u, one per heavy type.

    gamma_residual[u] = |pi(u) - sum_t nu_u(t) pi(t)|_inf measures how
    far the row is from exhibiting pi(u) as the stated combination; at a
    clean dual optimum it vanishes.
    """

    rows: dict
    gamma_residual: dict
    own_mass: dict

    def min_own_mass(self) -> float:
        return min(self.own_mass.values())


def disintegrate(measures: DualMeasures, tabular: TabularModel,
                 mass_tol: float = MASS_TOL) -> DisintegrationReport:
    """Split nu into conditional distributions over the type marginal."""
    if measures.marginal_residual() > 1e-7:
        raise ValueError("marginal identity fails; cannot disintegrate")
    heavy = np.flatnonzero(measures.lam > mass_tol)
    if heavy.size == 0:
        raise DegenerateDual("all lambda mass below mass_tol")
    rows, gamma, own = {}, {}, {}
    for u in heavy:
        row = measures.nu[:, u] / measures.lam[u]
        row = np.clip(row, 0.0, None)
        rows[int(u)] = row
        resid = tabular.beliefs[u] - row @ tabular.beliefs
        gamma[int(u)] = float(np.abs(resid).max())
        own[int(u)] = float(row[u])
    return DisintegrationReport(rows=rows, gamma_residual=gamma, own_mass=own)


@dataclass
class DualityReport:
    p_star: float
    d_star: float
    gap: float
    primal: PrimalSolution
    measures: DualMeasures            # read off the primal's multipliers
    disintegration: DisintegrationReport | None
    verdict: bool                     # virtual extraction holds
    shift_menu: Menu
    diagnostics: dict = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        meas = self.measures
        triplets = [[int(t), int(s), float(meas.nu[t, s])]
                    for t, s in zip(*np.nonzero(meas.nu > 1e-12))]
        out = {
            "p_star": self.p_star, "d_star": self.d_star, "gap": self.gap,
            "verdict_virtual_extraction": bool(self.verdict),
            "lambda": meas.lam.tolist(), "nu_triplets": triplets,
            "diagnostics": self.diagnostics,
        }
        if self.disintegration is not None:
            out["disintegration"] = {
                str(u): row.tolist()
                for u, row in self.disintegration.rows.items()}
            out["gamma_residual"] = {
                str(u): g
                for u, g in self.disintegration.gamma_residual.items()}
        return out


def shift_contracts(inst: VseInstance, primal: PrimalSolution) -> Menu:
    """Contracts c(t) = v(t) 1 + z*(t) - p* 1 from a primal solution.

    With c <= eps feasible, these leave own surplus in [0, 2 p*] and
    cross surplus at most 2 p*.
    """
    tab = inst.tabular
    entries = []
    for t in range(tab.n_types):
        payments = tab.values[t] + primal.z[t] - primal.p_star
        entries.append((tab.labels[t], Contract(payments)))
    return Menu(entries)


def analyze(tabular: TabularModel, *, p_tol: float = P_TOL,
            mass_tol: float = MASS_TOL) -> DualityReport:
    """Solve the primal, read the dual off it, check both, attach the verdict.

    Strong duality holds when the measures are feasible for build_dual
    and |p* - d*| <= GAP_TOL (1 + |p*|).
    """
    inst = VseInstance(tabular)
    primal = solve_primal(inst)
    m = inst.n_types
    y = -primal.solution.duals + 0.0   # lambda = -y_own, nu = -y_pair
    meas = DualMeasures(lam=y[:m], nu=y[m:].reshape(m, m))
    d_star = float(np.sum(meas.nu * inst.d))
    gap = abs(primal.p_star - d_star)
    infeasibility = meas.infeasibility(tabular.beliefs)
    diagnostics = {
        "normalization": meas.normalization,
        "marginal_residual": meas.marginal_residual(),
        "diagonal_mass": meas.diagonal_mass(),
        "nu_dot_d": d_star,
        "primal_violation": primal.max_violation,
        "dual_infeasibility": infeasibility,
        "strong_duality_ok":
            bool(infeasibility <= GAP_TOL
                 and gap <= GAP_TOL * (1.0 + abs(primal.p_star))),
    }
    disintegration = None
    try:
        disintegration = disintegrate(meas, tabular, mass_tol)
    except ValueError as err:  # DegenerateDual included
        diagnostics["disintegration_error"] = str(err)
    return DualityReport(p_star=primal.p_star, d_star=d_star, gap=gap,
                         primal=primal, measures=meas,
                         disintegration=disintegration,
                         verdict=primal.p_star <= p_tol,
                         shift_menu=shift_contracts(inst, primal),
                         diagnostics=diagnostics)


def verify_shift_menu(tabular: TabularModel, report: DualityReport,
                      eps: float):
    """Lemma-2 check: the shifted contracts achieve Virtual(2 eps + 1e-8)."""
    return verify_menu(tabular, report.shift_menu, None,
                       (VIRTUAL, 2.0 * eps + 1e-8))
