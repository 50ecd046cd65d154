"""Primal/dual linear programs bounding the extractable surplus.

The primal asks for a schedule z(t) and a level c with
pi(t).z(t) <= c and v(t) - v(s) - pi(t).z(s) <= c for all t, s; its
value p* is the worst surplus any menu of the form c(t) = v(t) + z(t)
must leave on the table, and p* <= 0 means virtual extraction holds.
Its LP dual searches for measures (lambda, nu) over types and type pairs
with lambda_u pi(u) = sum_t nu_{t,u} pi(t): a nonzero optimal nu with
mass off the diagonal is a concrete belief-dependence witness, and
disintegrating nu by its type marginal exhibits each belief as a convex
combination of the others.

Each z(s) enters only the own row of s and the pair rows (., s), so both
programs split into m blocks coupled only through c (primal) or the
normalization row (dual).  Block s is solved in dual form, S + 1 rows by
m + 1 columns, with (c, z(s)) read off its row multipliers; the m blocks
share one layout and are solved together by lp.solve_stack.  p* is the
largest block value, and the dual measure averages the optimal block
measures over the blocks attaining it.  The result is checked for
feasibility against the full dual program, and strong duality (the
z = 0 Slater point is strictly feasible) is checked as p* = d* = nu . d
rather than trusted.
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
TIE_TOL = 1e-12    # blocks within TIE_TOL (1 + |p*|) of p* share the dual


class DegenerateDual(ValueError):
    """No type carries enough lambda mass to disintegrate."""


@dataclass
class VseInstance:
    """Tabular model plus the pairwise value differences d(t,s)."""

    tabular: TabularModel
    d: np.ndarray = field(init=False)     # d[t, s] = v(t) - v(s)

    def __post_init__(self):
        v = self.tabular.values
        self.d = v[:, None] - v[None, :]

    @property
    def n_types(self) -> int:
        return self.tabular.n_types

    @property
    def n_states(self) -> int:
        return self.tabular.state_count


def build_primal(inst: VseInstance) -> lp.LinearProgram:
    """min c  s.t.  pi(t).z(t) <= c,  d(t,s) - pi(t).z(s) <= c.

    Variables: c then z(t) flattened type-major; everything free.  The
    s = t rows read c >= -pi(t).z(t), which pins the value at p* >= 0.
    Rows: the m own rows, then the m^2 pair rows (t, s), flattened t-major.
    """
    m, S = inst.n_types, inst.n_states
    beliefs = inst.tabular.beliefs
    nv = 1 + m * S
    rows = np.zeros((m + m * m, nv))
    rows[:, 0] = -1.0
    diag = np.arange(m)
    rows[:m, 1:].reshape(m, m, S)[diag, diag] = beliefs
    rows[m:, 1:].reshape(m, m, m, S)[:, diag, diag] = -beliefs[:, None, :]
    rhs = np.concatenate([np.zeros(m), -inst.d.reshape(-1)])
    obj = np.zeros(nv)
    obj[0] = 1.0
    return lp.LinearProgram(obj, [(row, lp.LE, b) for row, b in
                                  zip(rows, rhs)],
                            bounds=np.full((nv, 2), np.nan))


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
    # state row (u, sig): lambda_u pi_sig(u) - sum_t nu_{t,u} pi_sig(t)
    rows = np.zeros((m, S, nv))
    diag = np.arange(m)
    rows[diag, :, diag] = beliefs
    nu_col = m + diag[None, :] * m + diag[:, None]     # [u, t]: nu_{t,u}
    rows[diag[:, None], :, nu_col] = -beliefs
    cons = [(np.ones(nv), lp.EQ, 1.0)]
    cons += [(row, lp.EQ, 0.0) for row in rows.reshape(m * S, nv)]
    obj = np.zeros(nv)
    obj[m:] = inst.d.reshape(-1)
    return lp.LinearProgram(obj, cons, sense="max")


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


def _block_stack(inst: VseInstance):
    """The m blocks of build_dual, as the (layout, rows, objectives) of one
    lp.solve_stack call.  Block s is

        max sum_t nu_t d(t,s)
        s.t. lambda + sum_t nu_t = 1,
             lambda pi(s) - sum_t nu_t pi(t) = 0    (S rows),
             lambda, nu >= 0,

    with S + 1 rows and m + 1 columns (lambda, then nu_0 .. nu_{m-1}).
    Its row multipliers y are block s of the primal: c = y[0] is the
    block value and z(s) = -y[1:] satisfies pi(s).z(s) <= c and
    d(t,s) - pi(t).z(s) <= c for every t.
    """
    beliefs = inst.tabular.beliefs
    m, S = inst.n_types, inst.n_states
    rows = np.empty((m, S + 1, m + 1))
    rows[:, 0] = 1.0
    rows[:, 1:, 0] = beliefs
    rows[:, 1:, 1:] = -beliefs.T
    objectives = np.zeros((m, m + 1))
    objectives[:, 1:] = inst.d.T
    rhs = np.zeros(S + 1)
    rhs[0] = 1.0
    layout = lp.LinearProgram(np.zeros(m + 1), [(np.zeros(m + 1), lp.EQ, b)
                                                for b in rhs], sense="max")
    return layout, rows, objectives


def solve_primal(inst: VseInstance) -> PrimalSolution:
    """Solve the primal exactly as m independent blocks.

    The blocks differ only in their rows and objectives, so one
    lp.solve_stack call solves them together.  Block s (`_block_stack`)
    gives its value f_s and z(s); p* = max_s f_s,
    and (p*, z) is feasible for the full build_primal.  The dual measure
    averages the optimal block measures (lambda_s, nu_{., s}) over the
    blocks with f_s within TIE_TOL (1 + |p*|) of p*, so the returned
    solution certifies the full program: duals -(lambda, nu), no bound
    multipliers (every variable is free).
    """
    m, S = inst.n_types, inst.n_states
    beliefs = inst.tabular.beliefs
    f = np.empty(m)
    z = np.empty((m, S))
    measures = np.empty((m, m + 1))       # block s: (lambda_s, nu_{., s})
    blocks = lp.solve_stack(*_block_stack(inst))
    for s, sol in enumerate(blocks):
        if sol.status != lp.OPTIMAL:  # pragma: no cover - nu_s = 1/2 feasible
            raise RuntimeError(f"primal block {s} ended {sol.status}")
        f[s] = sol.objective_value
        z[s] = -sol.duals[1:]
        measures[s] = sol.primal
    p_star = float(f.max())
    tied = f >= p_star - TIE_TOL * (1.0 + abs(p_star))
    weights = np.where(tied, 1.0 / np.count_nonzero(tied), 0.0)
    lam = weights * measures[:, 0]
    nu = weights * measures[:, 1:].T      # nu[t, s]
    vals = beliefs @ z.T                  # vals[t, s] = pi(t).z(s)
    violation = max(float(np.diag(vals).max()), float((inst.d - vals).max()))
    free = np.zeros(1 + m * S)
    sol = lp.LpSolution(status=lp.OPTIMAL,
                        primal=np.concatenate([[p_star], z.reshape(-1)]),
                        duals=-np.concatenate([lam, nu.reshape(-1)]),
                        objective_value=p_star,
                        bound_duals=(free, free.copy()))
    return PrimalSolution(p_star=p_star, z=z,
                          max_violation=max(violation - p_star, 0.0),
                          solution=sol)


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
                         diagnostics=diagnostics)


def verify_shift_menu(tabular: TabularModel, report: DualityReport,
                      eps: float):
    """Lemma-2 check: the shifted contracts achieve Virtual(2 eps + 1e-8).

    The contracts are c(t) = v(t) 1 + z*(t) - p* 1, from the report's
    primal optimum.  With c <= eps feasible, they leave own surplus in
    [0, 2 p*] and cross surplus at most 2 p*.
    """
    primal = report.primal
    payments = tabular.values[:, None] + primal.z - primal.p_star
    menu = Menu([(lbl, Contract(c))
                 for lbl, c in zip(tabular.labels, payments)])
    return verify_menu(tabular, menu, None, (VIRTUAL, 2.0 * eps + 1e-8))
