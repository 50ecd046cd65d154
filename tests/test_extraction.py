"""Classification, menu construction, and verification tests."""

import dataclasses
import math
import signal

import numpy as np
import pytest

from surplex import cli, extraction, lp
from surplex.extraction import (
    DETECTABLE,
    EVENTUALLY_DETECTABLE,
    NOT_DETECTABLE,
    SEPARATOR_CHUNK,
    STRONGLY_DETECTABLE,
    Contract,
    InputMenuFails,
    Menu,
    NotAllDetectable,
    NotEventuallyDetectable,
    UncoveredType,
    classify_type,
    compress_menu,
    full_extraction_lp,
    full_extraction_menu,
    verify_menu,
    virtual_extraction_menu,
)
from surplex.geometry import extreme_each, is_extreme, known_combinations
from surplex.models import (
    D1,
    DeclaredFace,
    ParametricModel,
    TabularModel,
    chord_functional,
    counterexample_model,
    curve_point,
    embed,
    identical_beliefs_pair,
    planted_combination_instance,
    random_tabular,
    sample,
    validate_declared_faces,
)
from conftest import full_separators, program
from test_duality import cremer_mclean_tables
from test_lp import boxed_program


@pytest.fixture(scope="module")
def curve():
    return counterexample_model(validate=False)


@pytest.fixture(scope="module")
def curve_menu(curve):
    return virtual_extraction_menu(curve, 0.05, 201)


# ---------------------------------------------------------------------------
# classification

def test_classify_tabular_convex_independent():
    tab = random_tabular(2, 6, 8)
    for t in range(6):
        c = classify_type(tab, t)
        assert c.label == STRONGLY_DETECTABLE
        assert c.inf_margin > 0
        # certificate: functional vanishes at t, positive elsewhere
        vals = tab.beliefs @ c.functional
        assert abs(vals[t]) <= 1e-9
        others = np.delete(vals, t)
        assert others.min() >= c.margin - 1e-9


def test_classify_counterexample_endpoints(curve):
    for t in (0.0, 1.0):
        c = classify_type(curve, t, 201)
        assert c.label == EVENTUALLY_DETECTABLE
        assert c.chain.length == 2
        assert c.provenance == "declared"
        subsets = c.chain.subsets()
        assert len(subsets[0]) == 201
        assert len(subsets[1]) == 2      # the chord face {0, 1}
        assert len(subsets[2]) == 1


def test_classify_counterexample_interior(curve):
    for t in (0.5, 0.25, 0.005):
        c = classify_type(curve, t, 201)
        assert c.label == DETECTABLE
        assert c.margin > 0
        assert c.slack > 0               # continuum inf not certified
    with pytest.raises(ValueError, match="not a point of the 201-point"):
        classify_type(curve, 0.0025, 201)


@pytest.mark.parametrize("t", [True, False, np.bool_(True), "0.5", None,
                               [0.5], np.array(0.5), float("nan")])
def test_parametric_type_must_be_a_real_grid_point(curve, t):
    with pytest.raises(ValueError, match="not a point of the 11-point grid"):
        classify_type(curve, t, grid_n=11)


def test_parametric_type_may_be_any_real_grid_point(curve):
    want = classify_type(curve, 1.0, grid_n=11)
    for t in (1, np.int64(1), np.float64(1.0), np.float32(1.0)):
        assert classify_type(curve, t, grid_n=11).label == want.label


def test_classify_not_detectable_witness():
    tab, idx, _ = planted_combination_instance(3, 7, 9)
    c = classify_type(tab, idx)
    assert c.label == NOT_DETECTABLE
    assert np.abs(tab.beliefs[idx] - c.witness @ tab.beliefs).max() <= 1e-8


# ---------------------------------------------------------------------------
# full extraction menus

def test_full_menu_single_type():
    tab = TabularModel(["solo"], np.array([[0.2, 0.3, 0.5]]), np.array([1.5]))
    menu = full_extraction_menu(tab)
    assert len(menu) == 1
    rep = verify_menu(tab, menu, None, ("full",))
    assert rep.passed and abs(rep.own[0]) <= 1e-9


def test_full_menu_two_types_hand_computed():
    # beliefs e1, e2; values 1, 2: z(T0) = (0, 1)-ish, z(T1) = (1, 0)-ish
    tab = TabularModel(["T0", "T1"], np.eye(2), np.array([1.0, 2.0]))
    menu = full_extraction_menu(tab)
    rep = verify_menu(tab, menu, None, ("full",))
    assert rep.passed
    assert rep.max_cross < 0
    # T1 facing T0's contract: pays v(T0) + alpha with alpha > v(T1)-v(T0)
    c0 = menu.get("T0").payments
    assert c0[0] == pytest.approx(1.0, abs=1e-9)
    assert c0[1] > 2.0


def test_full_menu_duplicated_beliefs_fails():
    tab = identical_beliefs_pair(2.0, 1.0)
    with pytest.raises(NotAllDetectable) as err:
        full_extraction_menu(tab)
    failing = err.value.failing
    assert {lbl for lbl, _ in failing} == {"T0", "T1"}
    for _, witness in failing:
        assert witness is not None


def test_full_menu_own_surplus_exactness():
    tab = random_tabular(8, 7, 9)
    menu = full_extraction_menu(tab)
    for i, (lbl, contract) in enumerate(menu.entries):
        assert contract.decomposition_residual() <= 1e-10
        for _, z in contract.provenance.terms:
            assert abs(tab.beliefs[i] @ z) <= 1e-10


def test_full_lp_matches_menu_on_ci_instance():
    tab = random_tabular(21, 6, 8)
    sol, lp_menu = full_extraction_lp(tab)
    assert sol.status == lp.OPTIMAL
    rep = verify_menu(tab, lp_menu, None, ("full",))
    assert rep.passed
    menu = full_extraction_menu(tab)
    assert verify_menu(tab, menu, None, ("full",)).passed


def test_full_lp_duplicated_infeasible():
    # test_full_lp_certifies_joint_program checks its Farkas certificate
    sol, menu = full_extraction_lp(identical_beliefs_pair(2.0, 1.0))
    assert sol.status == lp.INFEASIBLE
    assert menu is None


def full_extraction_lp_program(tab):
    # rebuild the same program to check the Farkas certificate against it
    m, S = tab.n_types, tab.state_count
    nv = m * S + m
    cons = []
    for t in range(m):
        row = np.zeros(nv)
        row[t * S:(t + 1) * S] = tab.beliefs[t]
        cons.append((row, lp.EQ, tab.values[t]))
    for t in range(m):
        for s in range(m):
            if s == t:
                continue
            row = np.zeros(nv)
            row[t * S:(t + 1) * S] = tab.beliefs[s]
            cons.append((row, lp.GE, tab.values[s]))
    for t in range(m):
        for s in range(S):
            row = np.zeros(nv)
            row[t * S + s] = 1.0
            row[m * S + t] = -1.0
            cons.append((row, lp.LE, 0.0))
            row = np.zeros(nv)
            row[t * S + s] = 1.0
            row[m * S + t] = 1.0
            cons.append((row, lp.GE, 0.0))
    obj = np.zeros(nv)
    obj[m * S:] = 1.0
    return lp.LinearProgram(obj, cons, free=np.arange(nv) < m * S)


def full_lp_cases():
    curve = counterexample_model(validate=False)
    cases = [(f"curve{n}", sample(curve, n)) for n in (9, 17, 33, 65)]
    cases += [(f"table{seed}", random_tabular(seed, 40, 6))
              for seed in range(4)]
    cases.append(("identical_pair", identical_beliefs_pair(2.0, 1.0)))
    cases += [(f"planted{seed}", planted_combination_instance(seed, 6, 8)[0])
              for seed in (7, 100, 101, 102, 103, 104)]
    return [pytest.param(tab, id=name) for name, tab in cases]


@pytest.mark.parametrize("tab", full_lp_cases())
def test_full_lp_certifies_joint_program(tab):
    sol, menu = full_extraction_lp(tab)
    assert (menu is None) == (sol.status == lp.INFEASIBLE)
    rep = lp.check_certificate(full_extraction_lp_program(tab), sol)
    assert rep.passed, rep


def test_full_lp_certifies_joint_program_on_cremer_mclean():
    for tab in cremer_mclean_tables():
        sol, _ = full_extraction_lp(tab)
        assert sol.status == lp.OPTIMAL
        rep = lp.check_certificate(full_extraction_lp_program(tab), sol)
        assert rep.passed, rep


@pytest.mark.parametrize("tab", full_lp_cases())
def test_full_lp_matches_highs(tab):
    # independent oracle on the joint program (4,615 x 260 at curve n = 65)
    optimize = pytest.importorskip("scipy.optimize")
    prog = full_extraction_lp_program(tab)
    eq, le, ge = (prog.codes == k for k in (0, 1, -1))
    res = optimize.linprog(
        prog.objective, A_ub=np.vstack([prog.rows[le], -prog.rows[ge]]),
        b_ub=np.concatenate([prog.rhs[le], -prog.rhs[ge]]),
        A_eq=prog.rows[eq], b_eq=prog.rhs[eq],
        bounds=[(None, None) if f else (0.0, None) for f in prog.free],
        method="highs")
    sol, _ = full_extraction_lp(tab)
    assert res.status in (0, 2)
    assert sol.status == (lp.OPTIMAL if res.status == 0 else lp.INFEASIBLE)
    if res.status == 0:
        gap = abs(sol.objective_value - res.fun)
        assert gap <= 1e-9 * (1.0 + abs(res.fun))


def full_blocks_one_by_one(tab, stop=True):
    """full_extraction_lp's answer as it was before its blocks were
    stacked: block t is its own LinearProgram with y_t a free variable,
    solved by lp.solve in index order, up to the first unbounded block
    unless stop is False.  Returns (LpSolution, Menu or None, blocks)."""
    m, S = tab.n_types, tab.state_count
    rows = np.hstack([tab.beliefs.T, -np.eye(S), np.eye(S)])
    mass = np.concatenate([np.zeros(m), np.ones(2 * S)])
    cons = [(row, lp.EQ, 0.0) for row in rows] + [(mass, lp.LE, 1.0)]
    obj = np.concatenate([tab.values, np.zeros(2 * S)])
    free = np.zeros(m + 2 * S, dtype=bool)
    contracts = np.zeros((m, S + 1))
    mults = np.zeros((m, m + 2 * S))
    iterations = 0
    status = lp.OPTIMAL
    blocks = []
    for t in range(m):
        free[t] = True
        block = lp.solve(lp.LinearProgram(obj, cons, free=free, sense="max"))
        free[t] = False
        blocks.append(block)
        if status == lp.INFEASIBLE:
            continue
        iterations += block.iterations
        if block.status == lp.UNBOUNDED:
            mults[:] = 0.0
            mults[t] = block.ray
            status = lp.INFEASIBLE
            if stop:
                break
            continue
        contracts[t] = block.duals
        mults[t] = block.primal
    own = np.diag(mults[:, :m])
    cross = mults[:, :m][~np.eye(m, dtype=bool)]
    box = np.empty((m, 2 * S))
    box[:, 0::2], box[:, 1::2] = -mults[:, m:m + S], mults[:, m + S:]
    duals = np.concatenate([own, cross, box.reshape(-1)])
    if status == lp.INFEASIBLE:
        return lp.LpSolution(status=status, duals=duals,
                             iterations=iterations), None, blocks
    primal = np.concatenate([contracts[:, :S].reshape(-1), contracts[:, S]])
    sol = lp.LpSolution(status=status, primal=primal, duals=duals,
                        objective_value=float(contracts[:, S].sum()),
                        iterations=iterations)
    return sol, Menu([(lbl, Contract(c)) for lbl, c
                      in zip(tab.labels, contracts[:, :S])]), blocks


def _same_bits(a, b):
    if a is None or b is None:
        return a is None and b is None
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def assert_same_full_answer(got, want, iterations=True):
    (sol, menu), (ref, ref_menu) = got, want
    assert sol.status == ref.status
    if iterations:
        assert sol.iterations == ref.iterations
    for a, b in [(sol.primal, ref.primal), (sol.duals, ref.duals),
                 (sol.objective_value, ref.objective_value)]:
        assert _same_bits(a, b)
    assert (menu is None) == (ref_menu is None)
    if menu is not None:
        assert menu.labels == ref_menu.labels
        assert _same_bits(menu.payments_matrix(), ref_menu.payments_matrix())


@pytest.mark.parametrize("tab", full_lp_cases())
def test_stacked_full_blocks_match_single_blocks(tab, solved_alone):
    """Stacked, full_extraction_lp gives the index-order loop's answer bit
    for bit, and its pivot count too when it solves every block (a
    feasible table); solving first the blocks of the types the belief set
    knows to be combinations leaves the answer as it is; and no other
    block is solved alone."""
    ref, ref_menu, _ = full_blocks_one_by_one(tab)
    feasible = ref.status == lp.OPTIMAL
    assert not known_combinations(tab.belief_set())
    assert_same_full_answer(full_extraction_lp(tab), (ref, ref_menu),
                            iterations=feasible)
    extreme_each(tab.belief_set(), range(tab.n_types))
    assert_same_full_answer(full_extraction_lp(tab), (ref, ref_menu),
                            iterations=feasible)
    assert not solved_alone


def test_full_lp_solves_first_blocks_alone_up_to_an_unbounded_one():
    """Table 0 has two or more unbounded blocks.  Once its belief set
    knows its convex combinations, asked in any order, their blocks are
    solved in index order and the first unbounded one ends the solve, so
    only the blocks solved count their pivots; a set that knows only a
    combination past the lowest unbounded block gives the certificate of
    the block it reaches, which is the joint program's Farkas
    certificate too."""
    tab = random_tabular(0, 40, 6)
    ref, _, blocks = full_blocks_one_by_one(tab, stop=False)
    unbounded = [t for t, b in enumerate(blocks) if b.status == lp.UNBOUNDED]
    assert len(unbounded) >= 2
    bset = tab.belief_set()
    extreme_each(bset, range(tab.n_types - 1, -1, -1))
    witnessed = known_combinations(bset)
    assert witnessed == [i for i in range(tab.n_types)
                         if not is_extreme(bset, i)[0]]
    assert set(unbounded) <= set(witnessed)

    sol, menu = full_extraction_lp(tab)
    assert_same_full_answer((sol, menu), (ref, None), iterations=False)
    bounded = [t for t in witnessed if t < unbounded[0]]
    assert sol.iterations == sum(blocks[t].iterations
                                 for t in bounded + unbounded[:1])

    t = unbounded[1]
    tab = random_tabular(0, 40, 6)
    extreme_each(tab.belief_set(), [t])
    assert known_combinations(tab.belief_set()) == [t]
    sol, menu = full_extraction_lp(tab)
    assert sol.status == lp.INFEASIBLE and menu is None
    assert sol.iterations == blocks[t].iterations
    assert np.flatnonzero(sol.duals[:tab.n_types]).tolist() == [t]
    rep = lp.check_certificate(full_extraction_lp_program(tab), sol)
    assert rep.passed, rep


def test_full_lp_planted_infeasible_sample():
    for seed in range(5):
        tab, idx, _ = planted_combination_instance(100 + seed, 6, 8)
        sol, menu = full_extraction_lp(tab)
        assert sol.status == lp.INFEASIBLE, seed
        assert menu is None


def test_full_lp_norm_grows_on_counterexample_grids(curve):
    norms = []
    for n in (9, 17, 33):
        tab = sample(curve, n)
        sol, menu = full_extraction_lp(tab)
        assert sol.status == lp.OPTIMAL
        norms.append(sol.objective_value / n)
    assert norms[0] < norms[1] < norms[2]


# ---------------------------------------------------------------------------
# virtual extraction

def test_virtual_menu_counterexample(curve, curve_menu):
    menu, logs = curve_menu
    rep = verify_menu(curve, menu, 2001, ("virtual", 0.05))
    assert rep.passed
    own = rep.own[~np.isnan(rep.own)]
    assert own.min() >= 0.0 and own.max() <= 1e-9
    assert rep.max_cross <= 0.05
    assert rep.lipschitz_slack > 0.0


def test_virtual_menu_endpoint_decomposition(curve, curve_menu):
    # endpoint contracts decompose as inner contract + alpha * chord
    menu, logs = curve_menu
    zeta = chord_functional()
    for lbl, t in (("t=0", 0.0), ("t=1", 1.0)):
        contract = menu.get(lbl)
        terms = contract.provenance.terms
        assert len(terms) == 2
        assert contract.decomposition_residual() <= 1e-10
        pi = embed(*curve_point(t))
        # outermost term is the chord functional, re-centered on pi(t)
        alpha, z_outer = terms[-1]
        assert alpha > 0
        expected = zeta - (pi @ zeta) * np.ones(3)
        assert np.abs(z_outer - expected).max() <= 1e-9
        # inner term exposes the endpoint within the chord face
        _, z_inner = terms[0]
        other = embed(*curve_point(1.0 - t))
        assert abs(pi @ z_inner) <= 1e-10
        assert other @ z_inner > 1e-3
    by_label = dict(zip([l.label for l in logs], logs))
    assert by_label["t=0"].case == "chain"
    assert by_label["t=0"].chain_length == 2
    assert by_label["t=0.5"].case == "detectable"


def test_virtual_menu_constant_model():
    flat = ParametricModel(
        state_count=3,
        belief_fn=lambda ts: np.tile([0.2, 0.3, 0.5], (ts.size, 1)),
        value_fn=lambda ts: np.full(ts.shape, 1.25),
        lipschitz_pi=0.0, lipschitz_v=0.0, name="flat")
    menu, logs = virtual_extraction_menu(flat, 0.01, 11)
    assert all(log.case == "constant" for log in logs)
    for _, contract in menu.entries:
        assert contract.payments == pytest.approx([1.25] * 3)
    rep = verify_menu(flat, menu, 41, ("virtual", 0.01))
    assert rep.passed


def test_virtual_menu_detectable_only_arc():
    base = counterexample_model(validate=False)
    arc = ParametricModel(
        state_count=3,
        belief_fn=lambda ts: embed(*curve_point(0.25 + 0.5 * ts)),
        value_fn=lambda ts: ts,
        lipschitz_pi=0.5 * base.lipschitz_pi,
        lipschitz_v=1.0, name="arc")
    menu, logs = virtual_extraction_menu(arc, 0.05, 101)
    assert all(log.case == "detectable" for log in logs)
    rep = verify_menu(arc, menu, 1001, ("virtual", 0.05))
    assert rep.passed


def test_virtual_menu_types_with_no_far_type_pay_flat(curve):
    # at eps 1.5, delta = eps / (2 lipschitz_v) covers the whole curve
    # from its middle types: they get their value as a flat payment
    eps = 1.5
    menu, logs = virtual_extraction_menu(curve, eps, 101)
    flat = [k for k, log in enumerate(logs) if log.case == "detectable"
            and log.alphas == [0.0] and log.margins == [0.0]]
    assert len(flat) > 10
    for k in flat:
        _, contract = menu.entries[k]
        assert contract.provenance.terms == []
        assert np.ptp(contract.payments) == 0.0
    rep = verify_menu(curve, menu, 1001, ("virtual", eps))
    assert rep.passed


def test_flat_types_solve_no_separation_lp(curve, recorded_programs):
    # at eps 1.5 on 11 points, 5 of the 9 off-face types have no far type:
    # they pay flat without a program, and the 4 others are all feasible
    _, logs = virtual_extraction_menu(curve, 1.5, 11)
    stacked = [rec for rec in recorded_programs if rec.family == "virtual"]
    assert len(stacked) == 4
    assert all(rec.solution.status == lp.OPTIMAL for rec in stacked)
    flat = [log for log in logs if log.case == "detectable"
            and log.margins == [0.0]]
    assert len(flat) == 5


def test_chain_logs_an_empty_stage_margin_as_inf(curve):
    # a chain stage with no type left to separate logs margin inf, the
    # innermost stage as well as an outer one
    _, logs = virtual_extraction_menu(curve, 1.5, 11)
    outer = [log.margins[1] for log in logs if log.case == "chain"]
    assert 0.0 < outer[0] < np.inf and outer[1] == np.inf
    _, logs = virtual_extraction_menu(curve, 5.0, 11)
    chains = [log for log in logs if log.case == "chain"]
    assert len(chains) == 2
    assert all(log.margins == [np.inf, np.inf] for log in chains)


def test_preset_stacks_its_virtual_separators(recorded_programs,
                                              solved_alone, driver_calls):
    """The preset's 99 off-face types are separated in
    ceil(99 / SEPARATOR_CHUNK) lock-step calls and none alone;
    recorded_programs sees each of the 99 programs."""
    model = cli.build_model(cli.counterexample_preset()["model"])
    virtual_extraction_menu(model, 0.05, 101)
    sizes = [n for family, n in driver_calls if family == "virtual"]
    assert len(sizes) == math.ceil(99 / SEPARATOR_CHUNK)
    assert max(sizes) == SEPARATOR_CHUNK and sum(sizes) == 99
    # the endpoints' exposure chains ask is_extreme of one point each
    assert "virtual" not in solved_alone
    assert sum(rec.family == "virtual" for rec in recorded_programs) == 99


def test_endpoint_chain_lps_pass_their_certificate_check_at_401(
        monkeypatch):
    """The endpoints' exposure chains and extreme-point LPs of the
    virtual construction on a 401-point grid carry certificates that
    lp.check_certificate accepts.  Only those families are rebuilt: the
    fixture recorded_programs would also copy the 399 virtual separators
    of 4,014 columns each.  A fresh model keeps another test's grid
    memo from hiding the solves."""
    checked = []
    driver = lp._solve_stack

    def spy(layout, rows, objectives, rhs, ws, family):
        sols = driver(layout, rows, objectives, rhs, ws, family)
        if family in ("chain", "extreme"):
            checked.extend((family, sol.status, lp.check_certificate(
                program(layout, r, np.array(c), b), sol))
                for r, c, b, sol in zip(rows, objectives, rhs, sols))
        return sols

    monkeypatch.setattr(lp, "_solve_stack", spy)
    virtual_extraction_menu(counterexample_model(validate=False), 0.05, 401)
    assert {family for family, _, _ in checked} == {"chain", "extreme"}
    for family, status, rep in checked:
        assert rep.passed, (family, status, rep.max_residual())


def test_preset_separator_chunks_pivot_in_one_tableau(monkeypatch,
                                                     driver_calls):
    """The preset's separator chunks are all solved in one tableau buffer
    and one pivot scratch buffer, which the workspace of their one
    lp.solve_chunks call keeps from chunk to chunk, and no type is solved
    again.  The spy holds every array it sees, so arrays allocated per
    chunk could not share an address.  The tableaux are as wide as the
    widest sifted program, 149 point columns, not the 1,001 of the
    certification grid."""
    seen = []
    init = lp._Stack.__init__

    def spy(self, T, basis, work):
        if driver_calls[-1][0] == "virtual":
            seen.append((T, work))
        init(self, T, basis, work)

    monkeypatch.setattr(lp._Stack, "__init__", spy)
    model = cli.build_model(cli.counterexample_preset()["model"])
    virtual_extraction_menu(model, 0.05, 101)
    assert len(seen) == math.ceil(99 / SEPARATOR_CHUNK)
    for k in range(2):
        assert len({a[k].__array_interface__["data"][0]
                    for a in seen}) == 1
    # 149 point columns, the zero point split in two, 6 box columns, the
    # 4 artificials and the right-hand side
    assert {T.shape[1:] for T, _ in seen} == {(5, 149 + 2 + 6 + 4 + 1)}


def _band_neighbours(N, a, b):
    """A working set cut down to the far points next to the band."""
    return np.array([j for j in (a - 1, b) if 0 <= j < N])


def _grid_ends(N, a, b):
    """A working set cut down to the far ends of the cert grid."""
    return np.array([j for j in (0, N - 1) if not a <= j < b])


def _every_far(N, a, b):
    """The working set of the full program: every far point."""
    return np.r_[0:a, b:N]


@pytest.mark.parametrize("preset, grid_n", [(True, 101), (False, 201)],
                         ids=["preset", "virtual201"])
def test_sifted_separators_pass_the_full_certificate_check(
        recorded_programs, preset, grid_n):
    """Each sifted separator's answer, lifted to its full program (zero
    on every far column left out), passes lp.check_certificate for the
    full program, which conftest.full_separators builds on its own.  A
    sifted program's point columns are columns of the full program, bit
    for bit, or all-zero padding, which its answer leaves at zero.  No
    type is solved twice, and some programs are padded."""
    model = (cli.build_model(cli.counterexample_preset()["model"])
             if preset else counterexample_model())
    virtual_extraction_menu(model, 0.05, grid_n)
    sifted = [rec for rec in recorded_programs if rec.family == "virtual"]
    layout, rows, types = full_separators(model, 0.05, grid_n)
    assert len(sifted) == len(types) == grid_n - 2
    S, N = 3, 10 * (grid_n - 1) + 1
    padded = 0
    for full_rows, (prog, sol, _) in zip(rows, sifted):
        n = prog.n_vars - 1 - 2 * S
        assert n < N // 5
        column = {col.tobytes(): j
                  for j, col in enumerate(full_rows[:, :N].T)}
        assert len(column) == N
        x = np.zeros(layout.n_vars)
        x[N:] = sol.primal[n:]
        for j, col in enumerate(prog.rows[:, :n].T):
            if col.any():
                x[column[col.tobytes()]] = sol.primal[j]
            else:
                padded += 1
                assert sol.primal[j] == 0.0
        # the same type: the zero point, the box and the right-hand sides
        assert np.array_equal(prog.rows[:, n:], full_rows[:, N:])
        assert np.array_equal(prog.rhs, layout.rhs)
        lifted = lp.LpSolution(lp.OPTIMAL, primal=x, duals=sol.duals,
                               objective_value=sol.objective_value)
        rep = lp.check_certificate(
            program(layout, full_rows, layout.objective, layout.rhs), lifted)
        assert sol.status == lp.OPTIMAL and rep.passed, rep.max_residual()
    assert padded > 0


@pytest.mark.parametrize("preset, grid_n, cut", [
    (True, 101, _grid_ends), (False, 201, _band_neighbours)],
    ids=["preset-ends", "virtual201-neighbours"])
def test_types_solved_again_reach_the_full_programs_margins(
        monkeypatch, driver_calls, preset, grid_n, cut):
    """With the first working sets cut down, some far columns price out
    and their types are solved again, alone, with them added: every type
    at the preset from the grid's ends, and one at virtual201 from the
    band's two neighbours.  The margins match those of the full programs
    (every far point a column) within 1e-12 (1 + |m|)."""
    def margins(working):
        monkeypatch.setattr(extraction, "_sifted_far", working)
        model = (cli.build_model(cli.counterexample_preset()["model"])
                 if preset else counterexample_model())
        driver_calls.clear()
        _, logs = virtual_extraction_menu(model, 0.05, grid_n)
        programs = sum(n for family, n in driver_calls if family == "virtual")
        return programs, np.array([log.margins[0] for log in logs
                                   if log.case == "detectable"])

    types, full = margins(_every_far)
    assert types == grid_n - 2
    programs, cut_down = margins(cut)
    assert programs > types
    assert (np.abs(cut_down - full) <= 1e-12 * (1.0 + np.abs(full))).all()


def test_a_separator_has_the_same_bits_alone_and_padded(recorded_programs):
    """The preset's first off-face type has the narrowest band, so its
    chunk pads its program with zero columns.  Solved alone, unpadded, it
    takes the same pivots and gives the same answer, bit for bit, and
    the same LP solution on every column but the padding."""
    model = cli.build_model(cli.counterexample_preset()["model"])
    tab = sample(model, 101)
    cert = sample(model, 1001)
    _, _, types = full_separators(model, 0.05, 101)
    args = (cert, 0.05 / (2.0 * model.lipschitz_v), 0.05)

    def solve(k):
        recorded_programs.clear()
        answers = list(extraction._case1_terms(
            tab.beliefs[k], tab.values[k], tab.ts[k], *args))
        return answers[0], recorded_programs[0]

    (alpha, z, raw), chunk = solve(types)
    (alpha1, z1, raw1), alone = solve(types[:1])
    assert (alpha, raw) == (alpha1, raw1) and z.tobytes() == z1.tobytes()
    n, n1 = chunk.program.n_vars, alone.program.n_vars
    assert n > n1
    pad = slice(n1 - 1 - 6, n - 1 - 6)
    assert not chunk.program.rows[:, pad].any()
    assert chunk.solution.iterations == alone.solution.iterations
    assert chunk.solution.duals.tobytes() == alone.solution.duals.tobytes()
    assert np.delete(chunk.solution.primal, pad).tobytes() == (
        alone.solution.primal.tobytes())


def hook_beliefs(ts):
    """A strictly convex arc from e1 through the e2 side to e3 for
    t <= 1/2, then a straight segment from e3 halfway back to e1."""
    u = np.clip(2.0 * ts, 0.0, 1.0)
    s = np.clip(2.0 * ts - 1.0, 0.0, 1.0)
    arc = np.column_stack([(1.0 - u) ** 2, 2.0 * u * (1.0 - u), u ** 2])
    return arc + s[:, None] * np.array([0.5, 0.0, -0.5])


@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf, 0.0, -0.1])
def test_virtual_menu_needs_a_finite_positive_eps(curve, eps):
    with pytest.raises(ValueError, match="finite and > 0"):
        virtual_extraction_menu(curve, eps, 11)


def test_virtual_menu_names_an_interior_type():
    """The middle type of a segment is a convex combination of the ends
    and sits on no declared face: no functional separates it."""
    segment = ParametricModel(
        state_count=3,
        belief_fn=lambda ts: np.column_stack([1.0 - ts, ts, 0.0 * ts]),
        value_fn=lambda ts: ts, lipschitz_pi=2.0, lipschitz_v=1.0,
        name="segment")
    with pytest.raises(NotEventuallyDetectable, match=r"type t=0\.5 "):
        virtual_extraction_menu(segment, 0.05, 3)


@pytest.mark.parametrize("grid_n, first", [
    (21, "0.55"), (41, "0.525"), (81, "0.5125")],
    ids=["21-0.55", "41-0.525", "81-0.5125"])
def test_virtual_menu_names_the_first_failing_type(monkeypatch, driver_calls,
                                                   grid_n, first):
    """Every type of the hook's straight part after t = 1/2 is a convex
    combination of its neighbours, so many types fail; the first in grid
    order is named.  (On grid 41, t = 0.55 fails too but t = 0.525 comes
    first.)  Every type is delta-far and on no face, and the separators
    are taken in grid order, so no chunk after the first failing type's
    is solved: on grid 81, the chunks up to type 41.  So it is again with
    the first working sets cut down to the band's neighbours, which makes
    types be solved again; those solves are stacks of one, and the first
    solves are counted apart from them."""
    hook = ParametricModel(state_count=3, belief_fn=hook_beliefs,
                           value_fn=lambda ts: 0.5 * ts, lipschitz_pi=8.0,
                           lipschitz_v=0.5, name="hook")
    arc = dataclasses.replace(hook, belief_fn=lambda ts: hook_beliefs(ts / 2))
    failing = round(float(first) * (grid_n - 1))
    for working in (extraction._sifted_far, _band_neighbours):
        monkeypatch.setattr(extraction, "_sifted_far", working)
        assert len(virtual_extraction_menu(arc, 0.05, grid_n)[0]) == grid_n
        driver_calls.clear()
        with pytest.raises(NotEventuallyDetectable,
                           match=rf"type t={first} "):
            virtual_extraction_menu(hook, 0.05, grid_n)
        sizes = [n for family, n in driver_calls if family == "virtual"]
        assert [n for n in sizes if n > 1] == [
            min(SEPARATOR_CHUNK, grid_n - lo)
            for lo in range(0, failing + 1, SEPARATOR_CHUNK)]
        assert (1 in sizes) == (working is _band_neighbours)


def test_virtual_reads_the_on_face_rule_of_classify():
    """A declared face that holds one grid point, the tangent at t = 1/2,
    puts no type on a face: classify and virtual share GridClassifier's
    on-face rule, so t = 0.5 is detectable and virtual gives it a
    separator, not an exposure chain."""
    base = counterexample_model()
    tangent = DeclaredFace((0.5,), D1 / 0.1 - (1 - 5 / np.pi) * np.ones(3))
    model = dataclasses.replace(
        base, declared_faces=[*base.declared_faces, tangent])
    validate_declared_faces(model)
    assert classify_type(model, 0.5, 101).label == DETECTABLE
    menu, logs = virtual_extraction_menu(model, 0.05, 101)
    assert logs[50].label == "t=0.5"
    assert logs[50].case == "detectable"
    assert verify_menu(model, menu, 1001, ("virtual", 0.05)).passed


# ---------------------------------------------------------------------------
# compression

def test_compress_counterexample(curve, curve_menu):
    menu, _ = curve_menu
    small = compress_menu(curve, menu, 0.05, 201)
    assert len(small) <= len(menu)
    rep = verify_menu(curve, small, 201, ("virtual", 0.1))
    assert (rep.best >= 0.0).all()
    assert (rep.best <= 0.1).all()


def test_compress_single_type_menu():
    flat = ParametricModel(
        state_count=3,
        belief_fn=lambda ts: np.tile([0.2, 0.3, 0.5], (ts.size, 1)),
        value_fn=lambda ts: np.full(ts.shape, 1.25),
        lipschitz_pi=0.0, lipschitz_v=0.0, name="flat")
    menu, _ = virtual_extraction_menu(flat, 0.01, 11)
    small = compress_menu(flat, menu, 0.01, 11)
    assert len(small) == 1


def test_compress_names_a_type_no_ball_covers(curve):
    """On a grid finer than the menu's, a type that no entry's cover ball
    reaches is named; the cover loop once picked it again forever."""
    menu, _ = virtual_extraction_menu(curve, 0.05, 101)

    def stop(signum, frame):
        raise TimeoutError("compress_menu did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(20)
    try:
        with pytest.raises(UncoveredType, match=r"t=0\.001 ") as err:
            compress_menu(curve, menu, 0.05, 1001)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert err.value.t == 0.001
    # on the menu's own grid every entry covers its own type
    assert len(compress_menu(curve, menu, 0.05, 101)) == 101


def test_compress_rejects_failing_menu(curve):
    bad = Menu([("t=0", Contract(np.zeros(3)))])
    with pytest.raises(InputMenuFails):
        compress_menu(curve, bad, 0.05, 51)


def test_compress_rejects_menu_without_types(curve, curve_menu):
    menu, _ = curve_menu
    relabeled = Menu([(f"T{i}", c) for i, (_, c) in enumerate(menu.entries)])
    assert relabeled.ts is None
    with pytest.raises(ValueError, match="menu.ts is None") as err:
        compress_menu(curve, relabeled, 0.05, 201)
    assert not isinstance(err.value, InputMenuFails)


def test_menu_keeps_ts_given_as_a_list(curve, curve_menu):
    """A menu given its ts as a list keeps a float array of its own, which
    to_jsonable and compress_menu read as they read a grid's ts."""
    menu, _ = curve_menu
    ts = menu.ts.tolist()
    listed = Menu(menu.entries, ts=ts)
    ts[0] = 0.5
    assert listed.ts.dtype == float
    assert listed.ts.tobytes() == menu.ts.tobytes()
    assert listed.to_jsonable() == menu.to_jsonable()
    assert (compress_menu(curve, listed, 0.05, 201).to_jsonable()
            == compress_menu(curve, menu, 0.05, 201).to_jsonable())
    assert Menu(menu.entries[:2], ts=[0, 1]).ts.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# verification

def test_verify_flags_shifted_menu():
    tab = random_tabular(31, 5, 7)
    menu = full_extraction_menu(tab)
    eps = 0.02
    shifted = Menu([(lbl, Contract(c.payments - eps))
                    for lbl, c in menu.entries])
    rep = verify_menu(tab, shifted, None, ("full",))
    assert not rep.passed
    assert rep.max_abs_own == pytest.approx(eps, abs=1e-9)


@pytest.mark.parametrize("mode", [
    "virtual", ("virtual",), ("virtual", -1), ("virtual", 0.0),
    ("virtual", math.inf), ("virtual", math.nan), ("virtual", 0.1, 0.2)],
    ids=repr)
def test_verify_rejects_a_virtual_mode_without_a_budget(mode):
    tab = random_tabular(31, 5, 7)
    menu = full_extraction_menu(tab)
    with pytest.raises(ValueError, match="one finite eps > 0"):
        verify_menu(tab, menu, None, mode)
    assert verify_menu(tab, menu, None, ("virtual", 0.1)).passed


@pytest.mark.parametrize("menu", [
    Menu([]),
    Menu([("t0", Contract(np.zeros(6)))]),
    Menu([("t0", Contract(np.zeros(7))), ("t1", Contract(np.zeros(8)))]),
    Menu([("t0", Contract(np.zeros((1, 7))))]),
], ids=["empty", "short", "one long", "matrix"])
def test_verify_names_a_malformed_menu(menu):
    """A menu with nothing to verify, or with payments that are not one
    per state, is refused with its reason before any arithmetic."""
    tab = random_tabular(31, 5, 7)
    with pytest.raises(ValueError, match="empty menu|one per state"):
        verify_menu(tab, menu, None, ("full",))
    with pytest.raises(ValueError, match="empty menu|one per state"):
        verify_menu(counterexample_model(validate=False), menu, 11,
                    ("virtual", 0.1))


def _verify_arrays_apart(tab, menu):
    """own, cross and best as verify_menu once computed them: the
    surpluses as a difference of two arrays, and cross on a copy."""
    labels = list(tab.labels)
    P = menu.payments_matrix()
    surplus = tab.values[:, None] - tab.beliefs @ P.T
    col_of = {lbl: j for j, (lbl, _) in enumerate(menu.entries)}
    rows = [i for i, lbl in enumerate(labels) if lbl in col_of]
    cols = [col_of[labels[i]] for i in rows]
    own = np.full(len(labels), np.nan)
    own[rows] = surplus[rows, cols]
    best = surplus.max(axis=1)
    others = surplus.copy()
    others[rows, cols] = -np.inf
    return own, others.max(axis=1), best


@pytest.mark.parametrize("case", ["table", "preset", "preset unlabeled"])
def test_verify_arrays_match_separate_arrays_bit_for_bit(case):
    """verify_menu's one surplus matrix, reused for cross, gives own,
    cross and best bit for bit as separate arrays do: on a random table,
    on the preset's menu over its 1,001-point verification grid, and on
    that menu relabeled so that no type has its own entry (own all NaN,
    cross = best)."""
    if case == "table":
        model = random_tabular(31, 5, 7)
        menu, tab, grid_n = full_extraction_menu(model), model, None
    else:
        model = cli.build_model(cli.counterexample_preset()["model"])
        menu = virtual_extraction_menu(model, 0.05, 101)[0]
        if case == "preset unlabeled":
            menu = Menu([(f"x{k}", c)
                         for k, (_, c) in enumerate(menu.entries)])
        grid_n = 1001
        tab = sample(model, grid_n)
    rep = verify_menu(model, menu, grid_n, ("virtual", 0.05))
    want = _verify_arrays_apart(tab, menu)
    for got, ref in zip((rep.own, rep.cross, rep.best), want):
        assert got.tobytes() == ref.tobytes()
    if case == "preset unlabeled":
        assert np.isnan(rep.own).all()
        assert rep.cross.tobytes() == rep.best.tobytes()
    else:
        assert not np.isnan(rep.own).all()


def test_verify_full_implies_all_detectable():
    for seed in (1, 2, 3):
        tab = random_tabular(seed, 5, 7)
        sol, menu = full_extraction_lp(tab)
        rep = verify_menu(tab, menu, None, ("full",))
        if rep.passed:
            for t in range(tab.n_types):
                assert classify_type(tab, t).label == STRONGLY_DETECTABLE


def test_counterexample_impossibility_lp(curve):
    # any functional supporting the sampled curve and vanishing at t=0
    # gives nearly nothing at t=1, with slack shrinking as the grid refines
    slacks = []
    for n in (251, 1001):
        ts = np.linspace(0, 1, n)
        beliefs = curve.beliefs(ts)
        nv = 4
        cons = [(np.append(beliefs[0], 0.0), lp.LE, 1e-9)]
        for b in beliefs:
            cons.append((np.append(b, 0.0), lp.GE, -1e-9))
        obj = np.zeros(nv)
        obj[:3] = beliefs[-1]
        prog = boxed_program(obj, cons, [(-1.0, 1.0)] * 3 + [(0.0, None)],
                             sense="max")
        sol = lp.solve(prog)
        assert sol.status == lp.OPTIMAL
        slacks.append(sol.objective_value)
    assert slacks[1] < slacks[0]
    assert slacks[1] < 5e-2


def test_menu_json_round_trip(curve, curve_menu):
    menu, _ = curve_menu
    data = menu.to_jsonable()
    back = Menu.from_jsonable(data)
    assert back.labels == menu.labels
    assert np.abs(back.payments_matrix() - menu.payments_matrix()).max() == 0
    resid = [c.decomposition_residual() for _, c in back.entries]
    assert max(resid) <= 1e-10
    assert back.ts.tobytes() == menu.ts.tobytes()
    small = compress_menu(curve, back, 0.05, 201)
    assert small.labels == compress_menu(curve, menu, 0.05, 201).labels
    assert Menu.from_jsonable(small.to_jsonable()).ts.tolist() == \
        small.ts.tolist()
