"""End-to-end CLI tests: exit codes, artifacts, determinism."""

import json
import sys

import numpy as np
import pytest

from surplex import geometry
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
from surplex.models import counterexample_model, grid, random_tabular
from surplex.figures import convex_hull_2d


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
    assert main(["analyze", str(path), "--out", str(tmp_path / "b"),
                 "--jobs", "2"]) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_counterexample_byte_determinism_across_jobs(tmp_path):
    for jobs in ("1", "2"):
        assert main(["counterexample", "--out", str(tmp_path / jobs),
                     "--jobs", jobs]) == 0
    for name in ("report.json", "curve.csv", "hull.csv", "surplus.csv"):
        a = (tmp_path / "1" / name).read_bytes()
        assert a == (tmp_path / "2" / name).read_bytes(), name


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
    if which == "curve17":
        model = counterexample_model(validate=False)
        config = {"grid": 17}
        items = list(grid(17))
    else:
        model = random_tabular(0, 40, 6)
        config = {}
        items = list(model.labels)
    out = task_classify(model, config, {}, 1, {})
    assert len(out["types"]) == len(items)
    for (label, got), t in zip(out["types"].items(), items):
        ref = classify_type(model, t, config.get("grid", 201)).to_jsonable()
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


def random_table_config(tasks):
    return {"version": 1,
            "model": {"kind": "random_polytope", "seed": 0, "types": 40,
                      "states": 6},
            "tasks": tasks}


def test_classify_and_full_solve_each_type_lp_once(tmp_path, monkeypatch):
    # a solve belongs to the innermost of these callers on its stack
    family = {"expose_set": "separation", "is_extreme": "extreme",
              "exposure_chain": "chain", "full_extraction_lp": "full"}
    counts = dict.fromkeys(family.values(), 0)
    solve = geometry.lp.solve

    def record(prog):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in family:
            frame = frame.f_back
        if frame is not None:
            counts[family[frame.f_code.co_name]] += 1
        return solve(prog)

    monkeypatch.setattr(geometry.lp, "solve", record)
    report = run_scenario(random_table_config(["classify", "full"]),
                          tmp_path)
    assert report["tasks"]["classify"]["counts"] == {
        "strongly_detectable": 36, "not_detectable": 4}
    # one exposure LP per type, one extreme-point LP per unexposed type
    assert counts["separation"] == 40
    assert counts["extreme"] == 4


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
