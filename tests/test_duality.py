"""Primal/dual program tests: values, strong duality, disintegration."""

import tracemalloc

import numpy as np
import pytest

from surplex import lp
from surplex.duality import (
    DegenerateDual,
    DualMeasures,
    VseInstance,
    analyze,
    build_dual,
    build_primal,
    disintegrate,
    solve_primal,
    verify_shift_menu,
)
from surplex.models import (
    counterexample_model,
    identical_beliefs_pair,
    planted_combination_instance,
    random_tabular,
    sample,
)


def primal_vertex_oracle(inst, box=10.0):
    """Independent p* oracle: vertex enumeration of the boxed primal.

    The box is inactive at the optimum for the small instances used here,
    so the enumerated optimum is the true p*.
    """
    from test_lp import boxed_program, enumerate_vertices

    prog = build_primal(inst)
    boxed = boxed_program(
        prog.objective,
        list(zip(prog.rows, prog.relations, prog.rhs)),
        [(-box, box)] * prog.n_vars)
    status, best = enumerate_vertices(boxed)
    assert status == "optimal"
    return best


def test_vse_blocks_go_to_the_driver_in_chunks(driver_calls):
    """The VSE blocks go to lp.solve_chunks EXPOSE_CHUNK (128) at a time:
    200 types make two driver calls, and analyze at n = 513 never holds
    all 513 blocks at once (one stack of them peaks at about 48 MiB
    traced, chunks of 128 at about 17)."""
    analyze(random_tabular(0, 200, 6))
    assert driver_calls == [("vse_primal", 128), ("vse_primal", 72)]
    tab = sample(counterexample_model(validate=False), 513)
    tracemalloc.start()
    try:
        analyze(tab)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_single_type_zero_value():
    tab = random_tabular(5, 1, 2)
    rep = analyze(tab)
    assert abs(rep.p_star) <= 1e-9
    assert abs(rep.d_star) <= 1e-9
    assert rep.verdict


def test_identical_pair_hand_reduction():
    # c >= max(b, v1-v2-b) minimized at b = (v1-v2)/2
    tab = identical_beliefs_pair(2.0, 1.0)
    inst = VseInstance(tab)
    rep = analyze(tab)
    assert rep.p_star == pytest.approx(0.5, abs=1e-7)
    assert rep.d_star == pytest.approx(0.5, abs=1e-7)
    assert not rep.verdict
    assert primal_vertex_oracle(inst) == pytest.approx(0.5, abs=1e-8)


def test_identical_pair_dual_witness():
    tab = identical_beliefs_pair(3.0, 1.0)
    rep = analyze(tab)
    assert rep.p_star == pytest.approx(1.0, abs=1e-7)
    dis = rep.disintegration
    assert dis is not None
    # some row puts mass on the other type, certifying failure
    assert dis.min_own_mass() < 1.0 - 1e-6
    assert rep.diagnostics["nu_dot_d"] > 0
    # and the aggregate nu puts no mass on the diagonal
    assert rep.diagnostics["diagonal_mass"] <= 1e-9


def test_convex_independent_instances():
    for seed in (0, 1, 2, 3, 4):
        tab = random_tabular(seed, int(5 + seed), int(8 + seed))
        rep = analyze(tab)
        assert rep.p_star >= -1e-9
        assert rep.p_star <= 1e-6
        assert rep.gap <= 1e-7 * (1 + abs(rep.p_star))
        assert rep.diagnostics["marginal_residual"] <= 1e-7
        assert rep.disintegration.min_own_mass() >= 1 - 1e-6
        assert rep.verdict


def test_planted_instance_detected():
    tab, idx, mu = planted_combination_instance(7, 6, 8)
    rep = analyze(tab)
    # gap = combination value - planted value = 0.5, spread over the pair
    assert rep.p_star > 1e-3
    assert rep.gap <= 1e-7 * (1 + abs(rep.p_star))
    dis = rep.disintegration
    assert any(mass < 1 - 1e-6 for mass in dis.own_mass.values())


def test_primal_dual_lp_shapes():
    tab = random_tabular(9, 4, 5)
    inst = VseInstance(tab)
    prog_p = build_primal(inst)
    assert prog_p.n_vars == 1 + 4 * 5
    assert prog_p.n_constraints == 4 + 16
    prog_d = build_dual(inst)
    assert prog_d.n_vars == 4 + 16
    assert prog_d.n_constraints == 1 + 4 * 5
    sol_p = lp.solve(prog_p)
    sol_d = lp.solve(prog_d)
    assert sol_p.objective_value == pytest.approx(sol_d.objective_value,
                                                  abs=1e-8)


def test_marginal_identity_at_optimum():
    for seed in (11, 12):
        tab = random_tabular(seed, 6, 7)
        meas = analyze(tab).measures
        assert meas.normalization == pytest.approx(1.0, abs=1e-10)
        assert meas.marginal_residual() <= 1e-7
        assert meas.lam.min() >= -1e-12
        assert meas.nu.min() >= -1e-12


def test_disintegration_rows_are_distributions():
    tab = random_tabular(13, 5, 6)
    dis = disintegrate(analyze(tab).measures, tab)
    for u, row in dis.rows.items():
        assert row.sum() == pytest.approx(1.0, abs=1e-10)
        assert row.min() >= 0.0
        assert dis.gamma_residual[u] <= 1e-7


def test_disintegration_degenerate():
    tab = random_tabular(14, 3, 4)
    measures = DualMeasures(lam=np.zeros(3), nu=np.zeros((3, 3)))
    with pytest.raises(DegenerateDual):
        disintegrate(measures, tab)


def test_counterexample_sweep_virtual_holds_full_degrades():
    model = counterexample_model(validate=False)
    p_values = []
    for n in (9, 17, 33):
        tab = sample(model, n)
        rep = analyze(tab)
        assert rep.p_star >= -1e-9
        assert rep.p_star <= 1e-7
        assert rep.gap <= 1e-7 * (1 + abs(rep.p_star))
        p_values.append(rep.p_star)
    # virtual extraction holds at every grid size
    assert max(p_values) <= 1e-7


def test_lemma2_shift_contracts():
    # p* <= eps gives contracts passing Virtual(2 eps + 1e-8)
    tab = random_tabular(20, 6, 8)
    rep = analyze(tab)
    out = verify_shift_menu(tab, rep, eps=1e-6)
    assert out.passed
    pair = identical_beliefs_pair(2.0, 1.0)
    rep = analyze(pair)
    out = verify_shift_menu(pair, rep, eps=rep.p_star)
    assert out.passed
    own = out.own[~np.isnan(out.own)]
    assert own.min() >= -1e-10
    assert own.max() <= 2 * rep.p_star + 1e-8


def test_block_solve_matches_direct():
    model = counterexample_model(validate=False)
    tab = sample(model, 17)
    inst = VseInstance(tab)
    direct = lp.solve(build_primal(inst))
    blocks = solve_primal(inst)
    assert blocks.p_star == pytest.approx(direct.objective_value, abs=1e-8)
    assert blocks.max_violation <= 1e-9


def test_block_solve_matches_direct_identical_pair():
    pair = identical_beliefs_pair(2.0, 1.0)
    inst = VseInstance(pair)
    direct = lp.solve(build_primal(inst))
    blocks = solve_primal(inst)
    assert blocks.p_star == pytest.approx(direct.objective_value, abs=1e-8)
    assert blocks.p_star == pytest.approx(0.5, abs=1e-8)


def cremer_mclean_tables(count=100):
    """The Cremer-McLean tables of the acceptance suite (criteria 8, 9):
    m in 5..12 types and S in m..m+3 states."""
    rng = np.random.default_rng(52100)
    out = []
    for _ in range(count):
        m = int(rng.integers(5, 13))
        s = m + int(rng.integers(0, 4))
        out.append(random_tabular(int(rng.integers(1 << 31)), m, s))
    return out


def certificate_cases(max_types=None):
    """Instances with and without exposed types, S > m, and m = 1.

    S > m blocks carry dependent equality rows, which phase 1 drops.
    """
    curve = counterexample_model(validate=False)
    cases = [
        # some type is a combination of the others (p* > 0)
        ("identical_pair", identical_beliefs_pair(2.0, 1.0)),
        ("planted", planted_combination_instance(7, 6, 8)[0]),
        ("table0", random_tabular(0, 40, 6)),
        # every type exposed (p* = 0, every block tied)
        ("curve17", sample(curve, 17)),
        ("curve33", sample(curve, 33)),
        ("single_type", random_tabular(5, 1, 2)),
        # more states than types
        ("table_11x14", random_tabular(0, 11, 14)),
        ("table_5x8", random_tabular(3, 5, 8)),
    ]
    cases += [(f"cremer_mclean{i}", tab)
              for i, tab in enumerate(cremer_mclean_tables(10))]
    return [pytest.param(tab, id=name) for name, tab in cases
            if max_types is None or tab.n_types <= max_types]


@pytest.mark.parametrize("tab", [
    pytest.param(random_tabular(0, 40, 6), id="table0"),
    pytest.param(sample(counterexample_model(validate=False), 33),
                 id="curve33")])
def test_primal_solves_one_block_per_type(recorded_programs, tab):
    solve_primal(VseInstance(tab))
    assert len(recorded_programs) == tab.n_types
    for prog, _, _ in recorded_programs:
        assert prog.n_constraints == tab.state_count + 1
        assert prog.n_vars == tab.n_types + 1


def test_block_lps_certify_on_cremer_mclean(recorded_programs):
    tables = cremer_mclean_tables()
    for tab in tables:
        solve_primal(VseInstance(tab))
    assert len(recorded_programs) == sum(tab.n_types for tab in tables)
    for prog, sol, _ in recorded_programs:
        assert sol.status == lp.OPTIMAL
        rep = lp.check_certificate(prog, sol)
        assert rep.passed, rep


@pytest.mark.parametrize("tab", [
    *(pytest.param(random_tabular(seed, 40, 6), id=f"table{seed}")
      for seed in range(4)),
    pytest.param(sample(counterexample_model(validate=False), 65),
                 id="curve65")])
def test_primal_matches_highs(tab):
    # independent oracle on the full program (1,640 x 241 on the tables,
    # 4,290 x 196 on the curve), far beyond vertex enumeration
    optimize = pytest.importorskip("scipy.optimize")
    inst = VseInstance(tab)
    prog = build_primal(inst)
    res = optimize.linprog(prog.objective, A_ub=prog.rows, b_ub=prog.rhs,
                           bounds=[(None, None)] * prog.n_vars,
                           method="highs")
    assert res.status == 0
    p_star = solve_primal(inst).p_star
    assert abs(p_star - res.fun) <= 1e-9 * (1.0 + abs(res.fun))


@pytest.mark.parametrize("tab", certificate_cases())
def test_primal_certifies_full_program(tab):
    inst = VseInstance(tab)
    primal = solve_primal(inst)
    rep = lp.check_certificate(build_primal(inst), primal.solution)
    assert rep.passed, rep


def test_curve_dual_averages_tied_blocks():
    # every curve type is exposed, so every block has value 0 at
    # lambda_s = nu_ss = 1/2, and the tied blocks average to 1/(2m)
    tab = sample(counterexample_model(validate=False), 33)
    meas = analyze(tab).measures
    m = tab.n_types
    assert np.abs(meas.lam - 0.5 / m).max() <= 1e-12
    assert np.abs(meas.nu - np.eye(m) * 0.5 / m).max() <= 1e-12


@pytest.mark.parametrize("tab", certificate_cases(max_types=17))
def test_multiplier_dual_matches_dual_lp(tab):
    # independent oracle: the dense dual LP, solved on its own
    inst = VseInstance(tab)
    rep = analyze(tab)
    prog = build_dual(inst)
    oracle = lp.solve(prog)
    assert oracle.status == lp.OPTIMAL
    assert rep.d_star == pytest.approx(oracle.objective_value, abs=1e-8)
    # every build_dual row is an equality; every variable is >= 0
    x = np.concatenate([rep.measures.lam, rep.measures.nu.reshape(-1)])
    assert np.abs(prog.rows @ x - prog.rhs).max() <= 1e-9
    assert x.min() >= -1e-9


@pytest.mark.parametrize("seed", [3, 53])
def test_dense_dual_regression_tables(seed):
    # the standalone dense dual ended with a 6.9e-4 residual on table 3 and
    # did not finish within minutes on table 53
    rep = analyze(random_tabular(seed, 40, 6))
    assert rep.diagnostics["strong_duality_ok"]
    if seed == 3:
        p_ref = 1.2523570372881012
        assert abs(rep.p_star - p_ref) <= 1e-7 * (1.0 + abs(p_ref))
