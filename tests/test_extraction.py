"""Classification, menu construction, and verification tests."""

import dataclasses
import math
import signal
import sys

import numpy as np
import pytest

from surplex import cli, lp
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
from surplex.models import (
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
)
from test_duality import cremer_mclean_tables


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
    bounds = [(None, None)] * (m * S) + [(0.0, None)] * m
    return lp.LinearProgram(obj, cons, bounds=bounds)


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
        A_eq=prog.rows[eq], b_eq=prog.rhs[eq], bounds=prog.bounds,
        method="highs")
    sol, _ = full_extraction_lp(tab)
    assert res.status in (0, 2)
    assert sol.status == (lp.OPTIMAL if res.status == 0 else lp.INFEASIBLE)
    if res.status == 0:
        gap = abs(sol.objective_value - res.fun)
        assert gap <= 1e-9 * (1.0 + abs(res.fun))


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
    stacked = [rec for rec in recorded_programs
               if "_case1_terms" in rec.callers]
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


def _separating():
    """Whether _case1_terms is on the stack of the caller's caller."""
    frame = sys._getframe(2)
    while frame is not None and frame.f_code.co_name != "_case1_terms":
        frame = frame.f_back
    return frame is not None


def test_preset_stacks_its_virtual_separators(recorded_programs,
                                              monkeypatch):
    """The preset's 99 off-face types are separated in
    ceil(99 / SEPARATOR_CHUNK) lock-step calls and none through lp.solve;
    recorded_programs sees each of the 99 programs."""
    sizes, singles = [], []
    solve, stack = lp.solve, lp.solve_stack

    def count_solve(prog):
        if _separating():
            singles.append(prog)
        return solve(prog)

    def count_stack(layout, rows, objectives):
        if _separating():
            sizes.append(len(rows))
        return stack(layout, rows, objectives)

    monkeypatch.setattr(lp, "solve", count_solve)
    monkeypatch.setattr(lp, "solve_stack", count_stack)
    model = cli.build_model(cli.counterexample_preset()["model"])
    virtual_extraction_menu(model, 0.05, 101)
    assert len(sizes) == math.ceil(99 / SEPARATOR_CHUNK)
    assert max(sizes) == SEPARATOR_CHUNK and sum(sizes) == 99
    assert not singles
    assert sum("_case1_terms" in rec.callers
               for rec in recorded_programs) == 99


def hook_beliefs(ts):
    """A strictly convex arc from e1 through the e2 side to e3 for
    t <= 1/2, then a straight segment from e3 halfway back to e1."""
    u = np.clip(2.0 * ts, 0.0, 1.0)
    s = np.clip(2.0 * ts - 1.0, 0.0, 1.0)
    arc = np.column_stack([(1.0 - u) ** 2, 2.0 * u * (1.0 - u), u ** 2])
    return arc + s[:, None] * np.array([0.5, 0.0, -0.5])


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


@pytest.mark.parametrize("grid_n, first", [(21, "0.55"), (41, "0.525"),
                                           (81, "0.5125")])
def test_virtual_menu_names_the_first_failing_type(grid_n, first):
    """Every type of the hook's straight part after t = 1/2 is a convex
    combination of its neighbours, so many types fail; the first in grid
    order is named, wherever the separation LPs of the others are solved.
    (On grid 41, t = 0.55 fails too but t = 0.525 comes first.)"""
    hook = ParametricModel(state_count=3, belief_fn=hook_beliefs,
                           value_fn=lambda ts: 0.5 * ts, lipschitz_pi=8.0,
                           lipschitz_v=0.5, name="hook")
    arc = dataclasses.replace(hook, belief_fn=lambda ts: hook_beliefs(ts / 2))
    assert len(virtual_extraction_menu(arc, 0.05, grid_n)[0]) == grid_n
    with pytest.raises(NotEventuallyDetectable,
                       match=rf"type t={first} "):
        virtual_extraction_menu(hook, 0.05, grid_n)


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
        prog = lp.LinearProgram(obj, cons,
                                bounds=[(-1.0, 1.0)] * 3 + [(0.0, None)],
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
