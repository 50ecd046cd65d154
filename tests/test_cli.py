"""End-to-end CLI tests: exit codes, artifacts, determinism."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from surplex import cli, lp
from surplex.cli import (
    ConfigError,
    counterexample_preset,
    load_config,
    main,
    run_scenario,
    task_classify,
    validate_config,
)
from surplex.extraction import classify_type
from surplex.models import counterexample_model, grid, random_tabular, sample
from surplex.figures import convex_hull_2d

from conftest import FAMILIES, program


def ref_jsonable(obj):
    """Strictly JSON-safe tree: numpy types unwrapped, non-finite as text."""
    if isinstance(obj, dict):
        return {str(k): ref_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [ref_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [ref_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not np.isfinite(x):
            return repr(x)
        return x
    return obj


def ref_report_text(tree) -> str:
    """report.json as the stdlib encoder writes it: the format that
    cli._report_text reproduces byte for byte."""
    return json.dumps(ref_jsonable(tree), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def write_config(tmp_path, config, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


def identical_pair_config():
    return {
        "version": 1,
        "model": {"kind": "tabular", "states": 3,
                  "types": ["T0", "T1"],
                  "beliefs": [[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]],
                  "values": [2.0, 1.0]},
        "tasks": ["full"],
    }


def test_counterexample_preset_end_to_end(tmp_path):
    out = tmp_path / "out"
    config = counterexample_preset()
    config["grid"] = 41
    config["duality_grid"] = 17
    path = write_config(tmp_path, config)
    code = main(["analyze", str(path), "--out", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    classify = report["tasks"]["classify"]["types"]
    assert classify["t=0"]["chain_length"] == 2
    assert classify["t=1"]["chain_length"] == 2
    assert report["tasks"]["classify"]["counts"]["eventually_detectable"] == 2
    assert report["tasks"]["duality"]["virtual_extraction"] is True
    for name in ("curve.csv", "hull.csv", "surplus.csv"):
        assert (out / name).exists()


def test_curve_csv_first_row(tmp_path):
    out = tmp_path / "out"
    config = {"version": 1, "model": {"kind": "counterexample"},
              "tasks": ["classify"], "grid": 21}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    rows = (out / "curve.csv").read_text().splitlines()
    assert rows[0] == "t,x,y,pi1,pi2,pi3"
    first = rows[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(first[2]) == 1.0


def test_designed_failure_exit_one(tmp_path, capsys):
    out = tmp_path / "out"
    path = write_config(tmp_path, identical_pair_config())
    code = main(["analyze", str(path), "--out", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "NotAllDetectable" in captured.err
    report = json.loads((out / "report.json").read_text())
    assert report["tasks"]["full"]["error"] == "NotAllDetectable"
    assert report["tasks"]["full"]["lp_status"] == "infeasible"


def test_construction_error_is_a_failed_task(tmp_path, capsys):
    # on a 2-point grid the chain of t = 0 cannot separate its far set
    out = tmp_path / "out"
    config = {"version": 1, "model": {"kind": "counterexample"},
              "tasks": ["virtual", "compress"], "epsilon": 0.05, "grid": 2}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    assert "virtual: BudgetInfeasible" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    virtual, compress = report["tasks"]["virtual"], report["tasks"]["compress"]
    assert virtual["error"] == "BudgetInfeasible" and virtual["message"]
    assert compress["error"] == "NoVirtualMenu"
    assert report["failures"] == ["virtual: BudgetInfeasible",
                                  "compress: NoVirtualMenu"]
    assert not (out / "surplus.csv").exists()


@pytest.mark.parametrize("eps_emb, failures", [
    (1e-5, ["classify: ChainStalled"]),
    (1e-6, ["classify: NotExtreme", "virtual: NotExtreme",
            "compress: NoVirtualMenu"])])
def test_chain_errors_are_failed_tasks(tmp_path, capsys, eps_emb, failures):
    """A curve embedded this close to the simplex's edge ends some
    exposure chains in ChainStalled or NotExtreme: the run exits 1 and
    the report names the failed tasks, while duality still passes."""
    out = tmp_path / "out"
    config = counterexample_preset()
    config["model"] = {"kind": "counterexample", "eps_emb": eps_emb}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["failures"] == failures
    assert all(f"failed: {failure}" in err for failure in failures)
    assert report["tasks"]["classify"]["message"]
    assert report["tasks"]["duality"]["passed"] is True


def test_compress_before_virtual_is_a_config_error(tmp_path):
    config = {"version": 1, "model": {"kind": "counterexample"},
              "tasks": ["compress", "virtual"], "epsilon": 0.05, "grid": 11}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("model, tasks", [
    (identical_pair_config()["model"], ["classify", "virtual"]),
    (identical_pair_config()["model"], ["full", "sweep"]),
    ({"kind": "random_polytope", "types": 5, "states": 3},
     ["virtual", "compress"]),
    ({"kind": "counterexample"}, ["classify", "compress", "virtual"]),
    ({"kind": "random_polytope", "seed": 0, "types": 40, "states": 6},
     ["full", "full"]),
    ({"kind": "counterexample"}, ["duality", "full", "duality"])],
    ids=["tabular_virtual", "tabular_sweep", "polytope_compress",
         "compress_first", "full_twice", "duality_twice"])
def test_task_config_errors_exit_two_before_out_exists(tmp_path, capsys,
                                                       model, tasks):
    """A task the model cannot run, compress before virtual, or a task
    listed twice is found by validate_config: the CLI exits 2 before it
    creates --out or runs any task."""
    config = {"version": 1, "model": model, "tasks": tasks,
              "epsilon": 0.05, "grid": 11}
    with pytest.raises(ConfigError):
        validate_config(config)
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"x": "\xff"}')
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_deeply_nested_config_exits_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    out = tmp_path / "o"
    assert main(["analyze", str(path), "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_duplicate_type_labels_are_a_config_error(tmp_path, capsys):
    config = {"version": 1, "model": {
        "kind": "tabular", "states": 2, "types": ["a", "a"],
        "beliefs": [[0.5, 0.5], [0.2, 0.8]], "values": [1.0, 2.0]},
        "tasks": ["classify"]}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "labels must be unique" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("changes, message", [
    ({"states": 2.9}, "states must be an integer"),
    # True == 1, the state count of these beliefs
    ({"states": True, "beliefs": [[1.0], [1.0]]}, "states must be an integer"),
    ({"states": "2"}, "states must be an integer"),
    ({"types": "ab"}, "types must be a list of strings"),
    ({"types": [None, "b"]}, "types must be a list of strings")],
    ids=["states_float", "states_bool", "states_string", "types_string",
         "types_null_label"])
def test_tabular_field_types_are_config_errors(tmp_path, capsys, changes,
                                               message):
    config = {"version": 1, "model": {
        "kind": "tabular", "states": 2, "types": ["a", "b"],
        "beliefs": [[0.5, 0.5], [0.2, 0.8]], "values": [1.0, 2.0]},
        "tasks": ["classify"]}
    config["model"].update(changes)
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


def test_crash_leaves_no_earlier_report(tmp_path, monkeypatch):
    out = tmp_path / "out"
    config = {"version": 1, "model": {"kind": "counterexample"},
              "tasks": ["classify", "duality"], "grid": 9, "duality_grid": 9}
    run_scenario(config, out)
    assert (out / "report.json").exists()

    def crash(*args):
        raise RuntimeError("task crashed")

    monkeypatch.setattr(cli, "task_duality", crash)
    with pytest.raises(RuntimeError, match="task crashed"):
        run_scenario(config, out)
    assert not (out / "report.json").exists()


def test_epsilon_above_the_value_range_gives_flat_contracts(tmp_path):
    # with epsilon 1.5 every type of the middle of the curve is within
    # delta of every other, so it has no far set and pays its value flat
    out = tmp_path / "out"
    config = {"version": 1, "model": {"kind": "counterexample"},
              "tasks": ["virtual", "compress"], "epsilon": 1.5, "grid": 11}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    flat = [log for log in report["tasks"]["virtual"]["construction"]
            if log["case"] == "detectable" and log["alphas"] == [0.0]]
    assert len(flat) >= 5
    assert all(log["margins"] == [0.0] for log in flat[:5])


def test_empty_tasks_config_error(tmp_path):
    config = {"version": 1, "model": {"kind": "counterexample"}, "tasks": []}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2


def test_unknown_key_rejected():
    config = counterexample_preset()
    config["surprise"] = 1
    with pytest.raises(ConfigError):
        validate_config(config)
    bad_model = counterexample_preset()
    bad_model["model"]["extra"] = 2
    with pytest.raises(ConfigError):
        validate_config(bad_model)


def test_bad_version_and_unknown_task():
    config = counterexample_preset()
    config["version"] = 99
    with pytest.raises(ConfigError):
        validate_config(config)
    config = counterexample_preset()
    config["tasks"] = ["dance"]
    with pytest.raises(ConfigError):
        validate_config(config)


def test_compress_requires_virtual():
    config = counterexample_preset()
    config["tasks"] = ["compress"]
    with pytest.raises(ConfigError):
        validate_config(config)


def test_missing_config_file_exit_two(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 2


def test_report_byte_determinism(tmp_path):
    config = {"version": 1,
              "model": {"kind": "random_polytope", "seed": 3,
                        "types": 6, "states": 8},
              "tasks": ["classify", "full", "duality"]}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", str(path), "--out", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_jobs_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["counterexample", "--out", str(tmp_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_run_scenario_accepts_an_unread_jobs_keyword(tmp_path):
    # the benchmark harness passes jobs=1; tasks run serially either way
    config = {"version": 1, "model": {"kind": "counterexample"},
              "tasks": ["classify"], "grid": 9}
    run_scenario(config, tmp_path / "a")
    run_scenario(config, tmp_path / "b", jobs=1)
    assert ((tmp_path / "a" / "report.json").read_bytes()
            == (tmp_path / "b" / "report.json").read_bytes())


def test_rerun_into_same_directory_rewrites_identical_files(tmp_path):
    config = counterexample_preset()
    config["grid"] = 41
    config["duality_grid"] = 17
    args = ["analyze", str(write_config(tmp_path, config)),
            "--out", str(tmp_path / "out")]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert set(first) == {"report.json", "curve.csv", "hull.csv",
                          "surplus.csv"}
    assert main(args) == 0
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "out").iterdir()} == first


def test_seed_flag_changes_random_model(tmp_path):
    config = {"version": 1,
              "model": {"kind": "random_polytope", "seed": 3,
                        "types": 5, "states": 7},
              "tasks": ["duality"]}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", str(path), "--out", str(tmp_path / "b"),
                 "--seed", "9"]) == 0
    a = json.loads((tmp_path / "a" / "report.json").read_text())
    b = json.loads((tmp_path / "b" / "report.json").read_text())
    assert a["seed"] is None and b["seed"] == 9
    assert a["tasks"]["duality"] != b["tasks"]["duality"]


def test_tol_override_applies(tmp_path):
    # absurdly strict p_tol flips the duality verdict reported
    config = {"version": 1,
              "model": {"kind": "tabular", "states": 3,
                        "types": ["T0", "T1"],
                        "beliefs": [[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]],
                        "values": [2.0, 1.0]},
              "tasks": ["duality"]}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert report["tasks"]["duality"]["virtual_extraction"] is False
    code = main(["analyze", str(path), "--out", str(tmp_path / "b"),
                 "--tol-override", "p_tol=10.0"])
    assert code == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    assert report["tasks"]["duality"]["virtual_extraction"] is True
    assert main(["analyze", str(path), "--out", str(tmp_path / "c"),
                 "--tol-override", "bogus=1"]) == 2


def test_mass_tol_override_reaches_disintegration(tmp_path):
    # lambda sums to 1/2, so no type clears a mass floor of 1.0
    config = {"version": 1,
              "model": {"kind": "tabular", "states": 3,
                        "types": ["T0", "T1"],
                        "beliefs": [[0.5, 0.3, 0.2], [0.5, 0.3, 0.2]],
                        "values": [2.0, 1.0]},
              "tasks": ["duality"]}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "report.json").read_text())
    assert "disintegration" in report["tasks"]["duality"]["report"]
    assert main(["analyze", str(path), "--out", str(tmp_path / "b"),
                 "--tol-override", "mass_tol=1.0"]) == 0
    report = json.loads((tmp_path / "b" / "report.json").read_text())
    dual = report["tasks"]["duality"]["report"]
    assert "disintegration" not in dual
    assert (dual["diagnostics"]["disintegration_error"]
            == "all lambda mass below mass_tol")


def test_sweep_subcommand(tmp_path):
    config = {"version": 1, "model": {"kind": "counterexample"},
              "tasks": ["sweep"]}
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    code = main(["sweep", "--grids", "9,17,33", str(path),
                 "--out", str(out)])
    assert code == 0
    lines = (out / "margins.csv").read_text().splitlines()
    assert lines[0] == "grid_n,type0_margin,full_lp_contract_norm"
    margins = [float(r.split(",")[1]) for r in lines[1:]]
    norms = [float(r.split(",")[2]) for r in lines[1:]]
    assert margins[0] > margins[1] > margins[2]
    assert norms[0] < norms[1] < norms[2]


def test_sweep_without_grids_runs_the_config_grids(tmp_path):
    """sweep with no --grids runs the config's own sweep_grids, as analyze
    of the same config does, not the default ones."""
    path = write_config(tmp_path, {"version": 1,
                                   "model": {"kind": "counterexample"},
                                   "tasks": ["sweep"], "sweep_grids": [5, 9]})
    for argv in (["sweep", str(path)], ["analyze", str(path)]):
        out = tmp_path / argv[0]
        main([*argv, "--out", str(out)])
        report = json.loads((out / "report.json").read_text())
        assert report["tasks"]["sweep"]["grids"] == [5, 9], argv[0]


def test_sweep_validates_the_sweep_it_runs(tmp_path, capsys):
    """sweep replaces the file's task list before the config is checked,
    so a file whose tasks would need an epsilon runs its sweep, and a
    file that is not an object is still a config error."""
    path = write_config(tmp_path, {"version": 1,
                                   "model": {"kind": "counterexample"},
                                   "tasks": ["virtual"]})
    out = tmp_path / "out"
    assert main(["sweep", "--grids", "5,9", str(path), "--out",
                 str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert list(report["tasks"]) == ["sweep"]
    assert report["tasks"]["sweep"]["grids"] == [5, 9]
    path.write_text("[1, 2]")
    assert main(["sweep", "--grids", "5,9", str(path), "--out",
                 str(tmp_path / "list")]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "list").exists()


@pytest.mark.parametrize("grids", ["", ","])
def test_sweep_without_grids_is_a_config_error(tmp_path, capsys, grids):
    # an empty sweep solves nothing and once passed with a header-only CSV
    path = write_config(tmp_path, {"version": 1,
                                   "model": {"kind": "counterexample"},
                                   "tasks": ["sweep"]})
    out = tmp_path / "out"
    assert main(["sweep", "--grids", grids, str(path), "--out",
                 str(out)]) == 2
    assert "sweep_grids" in capsys.readouterr().err
    assert not out.exists()


def test_hull_cycle_closed_and_convex():
    ts = np.linspace(0, 1, 101)
    from surplex.models import curve_point
    x, y = curve_point(ts)
    pts = np.column_stack([x, y])
    idx = convex_hull_2d(pts)
    # strictly convex curve plus chord: every sample is a hull vertex
    assert len(idx) == 101
    hull = pts[idx]
    centered = hull - hull.mean(axis=0)
    angles = np.arctan2(centered[:, 1], centered[:, 0])
    rolled = np.unwrap(angles)
    assert rolled[-1] - rolled[0] > 0  # counterclockwise walk


def test_load_config_round_trip(tmp_path):
    path = write_config(tmp_path, counterexample_preset())
    config = load_config(path)
    assert config["model"]["kind"] == "counterexample"


@pytest.mark.parametrize("which", ["curve17", "table0"])
def test_classify_shared_grid_matches_per_type_calls(which):
    """One classify task on a shared table labels every type as a call on
    a freshly built model does, which shares no table or LP answer."""
    if which == "curve17":
        def build():
            return counterexample_model(validate=False)
        config = {"grid": 17}
        items = list(grid(17))
    else:
        def build():
            return random_tabular(0, 40, 6)
        config = {}
        items = list(build().labels)
    out = task_classify(build(), config, {})
    assert len(out["types"]) == len(items)
    for (label, got), t in zip(out["types"].items(), items):
        ref = classify_type(build(), t,
                            config.get("grid", 201)).to_jsonable()
        assert got["label"] == ref["label"], label
        assert got.get("chain_length") == ref.get("chain_length"), label
        for key in ("margin", "inf_margin"):
            assert (key in got) == (key in ref), label
            if key in ref:
                assert got[key] == pytest.approx(ref[key], rel=0, abs=1e-12)


def test_margin_tol_override_reaches_full_task(tmp_path):
    config = {"version": 1,
              "model": {"kind": "tabular", "states": 3,
                        "types": ["T0", "T1", "T2"],
                        "beliefs": [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2],
                                    [0.2, 0.2, 0.6]],
                        "values": [1.0, 2.0, 3.0]},
              "tasks": ["full"]}
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "a")]) == 0
    full = json.loads((tmp_path / "a" / "report.json").read_text())
    assert full["tasks"]["full"]["passed"] is True
    # no margin reaches 10 under |z|_inf <= 1, so no type is exposed
    assert main(["analyze", str(path), "--out", str(tmp_path / "b"),
                 "--tol-override", "margin_tol=10"]) == 1
    full = json.loads((tmp_path / "b" / "report.json").read_text())
    full = full["tasks"]["full"]
    assert full["passed"] is False
    assert full["error"] == "NotAllDetectable"
    assert full["failing_types"] == ["T0", "T1", "T2"]


def test_run_with_fewer_figures_removes_stale_ones(tmp_path):
    out = tmp_path / "out"
    path = write_config(tmp_path, counterexample_preset())
    assert main(["sweep", "--grids", "9,17", str(path),
                 "--out", str(out)]) == 0
    assert (out / "margins.csv").exists()
    (out / "notes.txt").write_text("not a surplex output\n")
    assert main(["counterexample", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["figures"] == ["curve.csv", "hull.csv", "surplus.csv"]
    assert sorted(p.name for p in out.iterdir()) == [
        "curve.csv", "hull.csv", "notes.txt", "report.json", "surplus.csv"]


def random_table_config(tasks, seed=0):
    return {"version": 1,
            "model": {"kind": "random_polytope", "seed": seed, "types": 40,
                      "states": 6},
            "tasks": tasks}


def test_every_solve_carries_its_family_label(tmp_path, driver_calls):
    """Every call of the LP driver on the preset, on a 40-type random
    table (classify, full and duality) and on the 4-grid sweep carries
    one of the library's family labels.  The preset solves its 99 virtual
    separators; the table solves one exposure LP per type and one
    extreme-point LP per unexposed type."""
    configs = {"preset": counterexample_preset(),
               "table": random_table_config(["classify", "full",
                                             "duality"]),
               "sweep": {**counterexample_preset(), "tasks": ["sweep"],
                         "sweep_grids": [9, 17, 33, 65]}}
    reports, programs = {}, {}
    for name, config in configs.items():
        driver_calls.clear()
        reports[name] = run_scenario(config, tmp_path / name)
        counts = programs[name] = dict.fromkeys(FAMILIES, 0)
        for family, n in driver_calls:
            assert family in FAMILIES, (name, family)
            counts[family] += n
    assert reports["table"]["tasks"]["classify"]["counts"] == {
        "strongly_detectable": 36, "not_detectable": 4}
    assert programs["preset"]["virtual"] == 99
    assert programs["table"]["separation"] == 40
    assert programs["table"]["extreme"] == 4
    assert programs["table"]["vse_primal"] == 40
    assert {family for family, n in programs["sweep"].items() if n} == {
        "separation", "full_block", "vse_primal"}


def test_classify_and_full_solve_no_program_alone(tmp_path, solved_alone):
    """On tables without exposure chains, classify and full stack every
    program: the exposure and extreme-point LPs, and the full-extraction
    blocks, but for the known-combination block that proves the first
    table infeasible.  The second table is feasible, so full solves all
    its blocks."""
    feasible = random_table_config(["classify", "full"])
    feasible["model"].update(types=10, states=6)
    for config, status in [(random_table_config(["classify", "full"]),
                            "infeasible"), (feasible, "optimal")]:
        report = run_scenario(config, tmp_path / status)
        assert ("eventually_detectable"
                not in report["tasks"]["classify"]["counts"])
        assert report["tasks"]["full"]["lp_status"] == status
    assert not solved_alone


@pytest.mark.parametrize("config", [
    counterexample_preset(),
    {**counterexample_preset(), "tolerances": {"margin_tol": 1e-3}},
    {**random_table_config(["classify", "full", "duality"], seed=1),
     "tolerances": {"margin_tol": 5e-2}},
    {"version": 1, "model": {"kind": "counterexample"},
     "tasks": ["classify", "full", "duality", "sweep"], "grid": 33},
    {"version": 1, "model": {"kind": "counterexample"},
     "tasks": ["duality", "sweep"]},
], ids=["preset", "preset_tol1e-3", "table1_tol5e-2", "shared33",
        "duality_sweep"])
def test_no_program_is_solved_twice(tmp_path, config, recorded_programs):
    """The classify and virtual tasks share the exposure chain of each
    declared-face type, and a chain on the whole belief set reads the
    exposure LP that classify remembers, so no program is solved twice.
    The margin_tol overrides send types that fail their exposure LP into
    discovered chains.  The full, duality and sweep tasks read the
    full-extraction and VSE blocks that the 33-point table remembers."""
    report = run_scenario(config, tmp_path)
    programs = [(prog.sense, prog.rows.shape,
                 *(a.tobytes() for a in (prog.objective, prog.rows,
                                         prog.codes, prog.rhs, prog.free)))
                for prog, _, _ in recorded_programs]
    if "classify" in report["tasks"]:
        assert report["tasks"]["classify"]["counts"]["eventually_detectable"]
    assert len(set(programs)) == len(programs)


library_configs = pytest.mark.parametrize("config, n_states", [
    (random_table_config(["classify", "full", "duality"]), 6),
    (counterexample_preset(), 3),
    ({**counterexample_preset(), "tasks": ["sweep"],
      "sweep_grids": [9, 17, 33, 65]}, 3),
    # 8 states over 6 types: every VSE block keeps artificials at its start
    ({**random_table_config(["classify", "full", "duality"], seed=3),
      "model": {"kind": "random_polytope", "seed": 3, "types": 6,
                "states": 8}}, 8),
    ({"version": 1, "model": {"kind": "counterexample"},
      "tasks": ["duality"], "duality_grid": 257}, 3),
], ids=["table0", "preset", "sweep65", "polytope3", "duality257"])


@library_configs
def test_every_lp_has_state_rows_and_no_upper_bound(tmp_path, config,
                                                    n_states,
                                                    recorded_programs):
    run_scenario(config, tmp_path)
    assert recorded_programs
    for prog, _, family in recorded_programs:
        assert prog.n_constraints <= n_states + 1, family
        # a bound other than x >= 0 would be an inequality on one variable
        lone = np.count_nonzero(prog.rows, axis=1) == 1
        assert not (lone & (prog.codes != 0)).any(), family


@library_configs
def test_every_labelled_solve_passes_its_certificate_check(
        tmp_path, config, n_states, recorded_programs):
    """Every program a scenario solves, of every family and status, comes
    with a certificate that lp.check_certificate accepts for it."""
    run_scenario(config, tmp_path)
    assert recorded_programs
    for k, (prog, sol, family) in enumerate(recorded_programs):
        rep = lp.check_certificate(prog, sol)
        assert rep.passed, (k, family, sol.status, rep.max_residual())


@pytest.mark.parametrize("model", [
    {"kind": "random_polytope", "seed": 0, "types": 40, "states": 6},
    {"kind": "counterexample"},
])
def test_task_order_leaves_task_blocks_unchanged(tmp_path, model):
    blocks = []
    for tasks in (["classify", "full"], ["full", "classify"]):
        out = tmp_path / "_".join(tasks)
        config = {"version": 1, "model": model, "tasks": tasks, "grid": 17}
        run_scenario(config, out)
        report = json.loads((out / "report.json").read_text())
        blocks.append({task: json.dumps(block, sort_keys=True)
                       for task, block in report["tasks"].items()})
    assert blocks[0] == blocks[1]


@pytest.mark.parametrize("change", [
    {"tolerances": {"margin_tol": "tiny"}},
    {"tolerances": {"margin_tol": float("nan")}},
    {"tolerances": {"mass_tol": -1.0}},
    {"tolerances": {"p_tol": True}},
    {"tolerances": {"margin_tol": 10 ** 400}},
    {"epsilon": True},
    {"epsilon": float("inf")},
    {"epsilon": float("nan")},
    {"epsilon": 10 ** 400},
    {"epsilon": 0},
    {"epsilon": "0.05"},
    {"grid": "x"},
    {"grid": 1},
    {"grid": 101.0},
    {"duality_grid": 1},
    {"verify_multiplier": 0},
    {"sweep_grids": [9, "x"]},
    {"sweep_grids": 9},
    {"sweep_grids": [], "tasks": ["sweep"]},
    {"model": {"kind": "counterexample", "eps_emb": "x"},
     "tasks": ["classify"]},
    {"model": {"kind": "counterexample", "eps_emb": 5},
     "tasks": ["classify"]},
    {"model": {"kind": "counterexample", "eps_emb": 0},
     "tasks": ["classify"]},
    {"model": {"kind": "counterexample", "eps_emb": float("inf")},
     "tasks": ["classify"]},
    {"model": {"kind": "counterexample", "eps_emb": 10 ** 400},
     "tasks": ["classify"]},
    {"model": {"kind": "random_polytope", "types": "x", "states": 6},
     "tasks": ["classify"]},
    {"model": {"kind": "random_polytope", "types": 4},
     "tasks": ["classify"]},
    {"model": {"kind": "random_polytope", "types": 0, "states": 6},
     "tasks": ["classify"]},
    {"model": {"kind": "random_polytope", "types": 2.7, "states": 6},
     "tasks": ["classify"]},
    {"model": {"kind": "random_polytope", "types": True, "states": 6},
     "tasks": ["classify"]},
    {"model": {"kind": "random_polytope", "types": "5", "states": 6},
     "tasks": ["classify"]},
    {"model": {"kind": "random_polytope", "seed": 1.9, "types": 5,
               "states": 6},
     "tasks": ["classify"]},
], ids=repr)
def test_malformed_numbers_are_config_errors(tmp_path, capsys, change):
    config = {**counterexample_preset(), **change}
    if "model" not in change:
        with pytest.raises(ConfigError):
            validate_config(config)
    path = write_config(tmp_path, config)
    assert main(["analyze", str(path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.json").exists()


@pytest.mark.parametrize("override", [
    "margin_tol=-1", "margin_tol=nan", "mass_tol=-1", "p_tol=inf",
])
def test_malformed_tolerance_overrides_are_config_errors(tmp_path, override):
    # margin_tol=-1 once labeled all 40 types of this table, its four
    # convex combinations too, strongly_detectable
    key, value = override.split("=")
    path = write_config(tmp_path, random_table_config(["classify",
                                                       "duality"]))
    assert main(["analyze", str(path), "--out", str(tmp_path / "o"),
                 "--tol-override", override]) == 2
    assert not (tmp_path / "o" / "report.json").exists()
    with pytest.raises(ConfigError):
        run_scenario(random_table_config(["classify"]), tmp_path / "p",
                     overrides={key: float(value)})
    # zero is a valid tolerance, and the four combinations stay undetectable
    assert main(["analyze", str(path), "--out", str(tmp_path / "z"),
                 "--tol-override", f"{key}=0"]) == 1
    report = json.loads((tmp_path / "z" / "report.json").read_text())
    assert report["tasks"]["classify"]["counts"]["not_detectable"] == 4


def test_preset_builds_each_grid_and_belief_set_once(tmp_path, monkeypatch,
                                                     recorded_programs):
    built = []
    calls = []
    base = counterexample_model(validate=False)

    def belief_fn(ts):
        calls.append(ts.size)
        return base.belief_fn(ts)

    def build(spec, seed=None):
        built.append(dataclasses.replace(base, belief_fn=belief_fn))
        return built[-1]

    monkeypatch.setattr(cli, "build_model", build)
    config = counterexample_preset()
    run_scenario(config, tmp_path)
    # classify, virtual, compress and the curve figure on grid 101, the
    # virtual certification grid 1001, duality on 33: one table each
    assert sorted(calls) == [33, 101, 1001]
    model, = built
    for n in (33, 101, 1001):
        tab = sample(model, n)
        assert tab is sample(model, n)
        assert tab.belief_set() is tab.belief_set()
        for arr in (tab.beliefs, tab.values, tab.ts):
            assert not arr.flags.writeable
    assert sorted(calls) == [33, 101, 1001]
    # classify and virtual ask the same set whether the endpoints are
    # extreme, so each of the two extreme-point programs is solved once
    extreme = [rec for rec in recorded_programs if rec.family == "extreme"]
    assert len(extreme) == 2


def test_stacked_solves_write_the_bytes_of_single_solves(tmp_path,
                                                         monkeypatch):
    """report.json and every CSV are byte-equal whether the LP driver
    stacks its programs or solves each alone, as lp.solve does: on the
    preset, the preset at epsilon 0.02, the virtual and compress tasks on
    grid 201, the duality curve at 65 and tables 0-3.  Each report.json
    is also the stdlib encoder's text of the report run_scenario
    returns."""
    curve = counterexample_preset()
    curve.update(tasks=["duality"], duality_grid=65)
    fine = counterexample_preset()
    fine.update(tasks=["virtual", "compress"], grid=201)
    configs = {"preset": counterexample_preset(), "curve": curve,
               "eps0.02": {**counterexample_preset(), "epsilon": 0.02},
               "grid201": fine}
    for seed in range(4):
        table = random_table_config(["classify", "full", "duality"])
        table["model"]["seed"] = seed
        configs[f"table{seed}"] = table

    def outputs(root):
        for name, config in configs.items():
            report = run_scenario(config, root / name)
            text = (root / name / "report.json").read_text()
            assert text == ref_report_text(report), name
        return {str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()}

    stacked = outputs(tmp_path / "stacked")
    driver = lp._solve_stack

    def alone(layout, rows, objectives, rhs, ws, family):
        programs = [program(layout, *args)
                    for args in zip(rows, objectives, rhs)]
        return [driver(p, p.rows[None], p.objective[None], p.rhs[None],
                       lp._Workspace(), family)[0] for p in programs]

    monkeypatch.setattr(lp, "_solve_stack", alone)
    single = outputs(tmp_path / "single")
    # reports; preset, epsilon 0.02 and grid 201 CSVs; curve CSVs
    assert len(stacked) == 8 + 3 * 3 + 2
    assert stacked == single


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, 1e300)


def json_trees():
    floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
    arrays = hnp.arrays(
        st.sampled_from([np.float64, np.float32, np.int64, np.bool_]),
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
        elements=None) | hnp.arrays(
        np.float64, st.integers(0, 5), elements=floats)
    leaves = (st.none() | st.booleans() | st.integers() | floats
              | st.text()
              | st.sampled_from(["", "\u00e9\u4e2d", "\x00\n\t\"\\"])
              | st.booleans().map(np.bool_)
              | st.integers(-2**63, 2**63 - 1).map(np.int64)
              | floats.map(np.float64) | arrays
              | st.lists(st.none() | floats)
              | st.lists(st.floats(allow_nan=False, allow_infinity=False)))
    return st.recursive(
        leaves,
        lambda children: (st.lists(children)
                          | st.lists(children).map(tuple)
                          | st.dictionaries(st.text() | st.integers(),
                                            children)),
        max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(json_trees())
@example({"b": [], "a": {}, 3: (-0.0, np.float64(-0.0)),
          "c": np.zeros((0, 2)), "d": [None, math.nan, 1.5],
          "e": np.array([-0.0, math.inf]), "f": {"g": {}}})
def test_report_text_matches_the_stdlib_encoder(tree):
    assert cli._report_text(tree) == ref_report_text(tree)


@pytest.mark.parametrize("bad", [
    object(), 1j, {1, 2}, b"bytes", np.array(1.5), np.array(0.0),
    np.array([1j]), {"a": [1.0, object()]}, [np.complex128(1)]])
def test_report_text_rejects_unsupported_objects(bad):
    with pytest.raises(TypeError):
        ref_report_text(bad)
    with pytest.raises(TypeError):
        cli._report_text(bad)
