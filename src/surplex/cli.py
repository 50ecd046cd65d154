"""Scenario runner: load a config, run tasks, emit report.json and CSVs.

Subcommands:
    surplex analyze <config.json>
    surplex counterexample            (preset scenario)
    surplex sweep [--grids 9,17,33,65] <config.json>

Common flags: --out DIR, --seed N, --tol-override key=value.
Exit codes: 0 all requested verdicts pass, 1 a task failed (the failing
assertion is named in the report), 2 the config is invalid.

Only main() loads argparse, so importing this module for run_scenario or
load_config does not pay for it.

Reports are byte-deterministic: keys are sorted, floats use shortest
round-trip repr, and no timestamps or machine state are recorded.

report.json is the text `json.dumps(tree, sort_keys=True, indent=2)`
gives, plus a final newline, written in one pass over the report by
_report_text:
- dict keys go through str() and are then sorted;
- the indent is 2 spaces, items are separated by "," and a newline plus
  the indent, keys by ": "; empty containers are {} and [];
- strings go through json.encoder.encode_basestring_ascii;
- finite floats, np.floating included, are float.__repr__ (-0.0 stays
  -0.0); non-finite ones are the quoted repr: "nan", "inf", "-inf";
- bool and np.bool_ are true and false (tested before int); int and
  np.integer are the int repr; None is null;
- tuples are lists, arrays are their tolist(); any other type, a 0-d
  array included, raises TypeError.
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from surplex import duality, lp
from surplex.extraction import (
    BudgetInfeasible,
    GridClassifier,
    InputMenuFails,
    NotAllDetectable,
    NotEventuallyDetectable,
    UncoveredType,
    compress_menu,
    full_extraction_lp,
    full_extraction_menu,
    verify_menu,
    virtual_extraction_menu,
)
from surplex.figures import (
    write_curve_csv,
    write_hull_csv,
    write_margins_csv,
    write_surplus_csv,
)
from surplex.geometry import (
    MARGIN_TOL,
    ChainStalled,
    NotExtreme,
    expose_set,
)
from surplex.models import (
    EPS_EMB,
    ParametricModel,
    TabularModel,
    counterexample_model,
    curve_in_simplex,
    curve_point,
    random_tabular,
    sample,
)

CONFIG_VERSION = 1
TASKS = ("classify", "full", "virtual", "compress", "duality", "sweep")
TOL_KEYS = ("p_tol", "mass_tol", "margin_tol")
FIGURES = ("curve.csv", "hull.csv", "surplus.csv", "margins.csv")
# the value of each optional grid setting that a config leaves out
DEFAULTS = {"grid": 201, "duality_grid": 33, "verify_multiplier": 10,
            "sweep_grids": (9, 17, 33, 65, 129)}


class ConfigError(ValueError):
    """Invalid scenario configuration."""


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def _tolerance(key: str, value) -> float:
    # compared, not converted: an int too large for a float is rejected
    # here instead of raising OverflowError
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 <= value <= sys.float_info.max):
        raise ConfigError(f"tolerance {key} must be a finite number >= 0, "
                          f"got {value!r}")
    return float(value)


def _integer(key: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{key} must be an integer >= {least}, "
                          f"got {value!r}")


def load_config(path) -> dict:
    config = _read_config(path)
    validate_config(config)
    return config


def _read_config(path):
    """The JSON value in the file at path, not yet validated."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError,
            RecursionError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(config, {"version", "model", "tasks", "epsilon", "grid",
                           "verify_multiplier", "duality_grid",
                           "sweep_grids", "tolerances"}, "config")
    if config.get("version") != CONFIG_VERSION:
        raise ConfigError(f"config version must be {CONFIG_VERSION}")
    model = config.get("model")
    if not isinstance(model, dict) or "kind" not in model:
        raise ConfigError("config.model must be an object with a kind")
    kind = model["kind"]
    if kind == "tabular":
        _require_keys(model, {"kind", "states", "types", "beliefs",
                              "values"}, "model")
    elif kind == "counterexample":
        _require_keys(model, {"kind", "eps_emb", "values"}, "model")
        if model.get("values", "linear") != "linear":
            raise ConfigError("counterexample values preset: only 'linear'")
    elif kind == "random_polytope":
        _require_keys(model, {"kind", "seed", "types", "states"}, "model")
        for key in ("types", "states"):
            _integer(key, model.get(key), 1)
        if "seed" in model:
            _integer("seed", model["seed"], 0)
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    tasks = config.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("config.tasks must be a nonempty list")
    for k, t in enumerate(tasks):
        if t not in TASKS:
            raise ConfigError(f"unknown task {t!r}")
        if t in tasks[:k]:
            raise ConfigError(f"task {t!r} is listed twice")
    if ("virtual" in tasks or "compress" in tasks):
        eps = config.get("epsilon")
        if (isinstance(eps, bool) or not isinstance(eps, (int, float))
                or not 0 < eps <= sys.float_info.max):
            raise ConfigError("epsilon must be a finite number > 0 for "
                              f"virtual/compress, got {eps!r}")
    if "compress" in tasks and ("virtual" not in tasks or tasks.index(
            "compress") < tasks.index("virtual")):
        raise ConfigError("compress requires the virtual task before it")
    parametric = [t for t in ("virtual", "compress", "sweep") if t in tasks]
    if kind != "counterexample" and parametric:
        raise ConfigError(f"tasks {parametric} need a parametric model, "
                          f"not a {kind} one")
    for key in ("grid", "duality_grid"):
        if key in config:
            _integer(key, config[key], 2)
    if "verify_multiplier" in config:
        _integer("verify_multiplier", config["verify_multiplier"], 1)
    if "sweep_grids" in config:
        grids = config["sweep_grids"]
        if not isinstance(grids, list) or not grids:
            raise ConfigError("sweep_grids must be a nonempty list of grid "
                              "sizes")
        for n in grids:
            _integer("each of sweep_grids", n, 2)
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    _require_keys(tol, TOL_KEYS, "tolerances")
    for key, value in tol.items():
        _tolerance(key, value)


def build_model(spec: dict, seed=None):
    kind = spec["kind"]
    try:
        if kind == "tabular":
            return TabularModel.from_dict(
                {k: spec[k] for k in ("states", "types", "beliefs",
                                      "values")})
        if kind == "counterexample":
            eps = spec.get("eps_emb", EPS_EMB)
            if (isinstance(eps, bool) or not isinstance(eps, (int, float))
                    or not math.isfinite(eps) or eps <= 0):
                raise ConfigError("eps_emb must be a finite number > 0, "
                                  f"got {eps!r}")
            if not curve_in_simplex(eps):
                raise ConfigError(f"eps_emb {eps!r} embeds the curve "
                                  "outside the simplex")
            return counterexample_model(eps_emb=float(eps), validate=False)
        if kind == "random_polytope":
            use_seed = seed if seed is not None else spec.get("seed", 0)
            return random_tabular(use_seed, spec["types"], spec["states"])
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"bad {kind} model: {err}") from err
    raise ConfigError(f"unknown model kind {kind!r}")


def _as_tabular(model, grid_n: int) -> TabularModel:
    if isinstance(model, TabularModel):
        return model
    return sample(model, grid_n)


# ---------------------------------------------------------------------------
# tasks

def _failed(err: Exception) -> dict:
    """A task ended by a construction error, named in the report."""
    return {"passed": False, "error": type(err).__name__,
            "message": str(err)}


def task_classify(model, config, tols) -> dict:
    margin_tol = tols.get("margin_tol", MARGIN_TOL)
    grid = GridClassifier(model, config.get("grid", DEFAULTS["grid"]))
    tab = grid.tab
    try:
        verdicts = grid.classify_all(margin_tol)
    except (ChainStalled, NotExtreme) as err:
        return _failed(err)
    per_type = {lbl: c.to_jsonable() for lbl, c in zip(tab.labels, verdicts)}
    counts: dict[str, int] = {}
    for c in verdicts:
        counts[c.label] = counts.get(c.label, 0) + 1
    undetectable = [lbl for lbl, c in zip(tab.labels, verdicts)
                    if c.label == "not_detectable"]
    return {"passed": not undetectable, "counts": counts,
            "types": per_type,
            "failing": undetectable}


def task_full(model, config, tols) -> dict:
    tab = _as_tabular(model, config.get("grid", DEFAULTS["grid"]))
    try:
        menu = full_extraction_menu(
            tab, margin_tol=tols.get("margin_tol", MARGIN_TOL))
    except NotAllDetectable as err:
        menu, failing = None, [lbl for lbl, _ in err.failing]
    # after the menu, so the known-combination blocks it found go first
    sol, _ = full_extraction_lp(tab)
    if menu is None:
        return {"passed": False, "error": "NotAllDetectable",
                "failing_types": failing, "lp_status": sol.status}
    rep = verify_menu(tab, menu, None, ("full",))
    return {
        "passed": bool(rep.passed and sol.status == lp.OPTIMAL),
        "verify": rep.to_jsonable(),
        "lp_status": sol.status,
        "lp_objective": None if sol.objective_value is None
        else float(sol.objective_value),
        "menu_size": len(menu),
    }


def task_virtual(model, config, results) -> dict:
    eps = float(config["epsilon"])
    grid_n = config.get("grid", DEFAULTS["grid"])
    mult = config.get("verify_multiplier", DEFAULTS["verify_multiplier"])
    try:
        menu, logs = virtual_extraction_menu(model, eps, grid_n)
    except (BudgetInfeasible, ChainStalled, NotEventuallyDetectable,
            NotExtreme) as err:
        results["virtual_menu"] = None      # the task ran and built none
        return _failed(err)
    rep = verify_menu(model, menu, mult * (grid_n - 1) + 1, ("virtual", eps))
    results["virtual_menu"] = menu
    results["virtual_report"] = rep
    return {"passed": bool(rep.passed), "verify": rep.to_jsonable(),
            "menu_size": len(menu),
            "construction": [log.to_jsonable() for log in logs]}


def task_compress(model, config, results) -> dict:
    eps = float(config["epsilon"])
    grid_n = config.get("grid", DEFAULTS["grid"])
    menu = results["virtual_menu"]
    if menu is None:
        return {"passed": False, "error": "NoVirtualMenu",
                "message": "the virtual task built no menu"}
    try:
        small = compress_menu(model, menu, eps, grid_n)
    except (InputMenuFails, UncoveredType) as err:
        return _failed(err)
    rep = verify_menu(model, small, grid_n, ("virtual", 2 * eps))
    best = rep.best
    ok = bool((best >= 0.0).all() and (best <= 2 * eps).all())
    return {"passed": ok, "size": len(small),
            "best_surplus_min": float(best.min()),
            "best_surplus_max": float(best.max())}


def task_duality(model, config, tols) -> dict:
    grid_n = config.get("duality_grid", DEFAULTS["duality_grid"])
    tab = _as_tabular(model, grid_n)
    rep = duality.analyze(tab, p_tol=tols.get("p_tol", duality.P_TOL),
                          mass_tol=tols.get("mass_tol", duality.MASS_TOL))
    ok = bool(rep.diagnostics["strong_duality_ok"] and rep.p_star >= -1e-9)
    return {"passed": ok, "report": rep.to_jsonable(),
            "virtual_extraction": bool(rep.verdict)}


def task_sweep(model, config) -> dict:
    grids = list(config.get("sweep_grids", DEFAULTS["sweep_grids"]))
    margins, norms, p_stars = [], [], []
    for n in grids:
        tab = sample(model, n)
        margins.append(expose_set(tab.belief_set(), [0],
                                  margin_tol=-np.inf)[1])
        sol, _ = full_extraction_lp(tab)
        norms.append(float(sol.objective_value) / n
                     if sol.status == lp.OPTIMAL else float("inf"))
        p_stars.append(float(
            duality.solve_primal(duality.VseInstance(tab)).p_star))
    monotone = all(a > b for a, b in zip(margins, margins[1:]))
    return {"passed": monotone, "grids": grids,
            "type0_margins": margins, "contract_norms": norms,
            "p_stars": p_stars, "margins_strictly_decreasing": monotone}


def emit_figures(model, results, out_dir: Path, config) -> list[str]:
    """Write the CSV plot-data files supported by the available results."""
    written = []
    if isinstance(model, ParametricModel):  # only the counterexample curve
        tab = sample(model, config.get("grid", DEFAULTS["grid"]))
        xs, ys = curve_point(tab.ts)
        write_curve_csv(out_dir / "curve.csv", tab.ts, xs, ys, tab.beliefs)
        write_hull_csv(out_dir / "hull.csv", np.column_stack([xs, ys]))
        written += ["curve.csv", "hull.csv"]

    rep = results.get("virtual_report")
    if rep is not None:
        write_surplus_csv(out_dir / "surplus.csv", rep.ts, rep.own,
                          rep.cross)
        written.append("surplus.csv")

    sweep = results.get("sweep_report")
    if sweep is not None:
        write_margins_csv(out_dir / "margins.csv", sweep["grids"],
                          sweep["type0_margins"], sweep["contract_norms"])
        written.append("margins.csv")
    return written


def _report_text(obj) -> str:
    """obj as report.json text; the module docstring states the format."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, newline: str, out: list) -> None:
    """Append obj's JSON text to out; newline is a line break followed by
    the indent of obj's own line."""
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(float.__repr__(x) if math.isfinite(x)
                   else f'"{float.__repr__(x)}"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        items = {str(k): v for k, v in obj.items()}
        sep = "{" + inner
        for key in sorted(items):
            out.append(sep + _quote(key) + ": ")
            _write_json(items[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if isinstance(obj, np.ndarray):
            if obj.ndim == 0:
                raise TypeError("a 0-d array has no report.json form")
            finite_floats = (obj.ndim == 1 and obj.dtype.kind == "f"
                             and np.isfinite(obj).all())
            obj = obj.tolist()
        else:
            finite_floats = (set(map(type, obj)) == {float}
                             and all(map(math.isfinite, obj)))
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if finite_floats:
            out.append("[" + inner + ("," + inner).join(
                map(float.__repr__, obj)) + newline + "]")
            return
        sep = "[" + inner
        for v in obj:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"{type(obj).__name__} has no report.json form")


# ---------------------------------------------------------------------------
# scenario driver

def run_scenario(config: dict, out_dir: Path, *, jobs: int = 1,
                 seed=None, overrides=None) -> dict:
    # jobs is read by nothing: tasks run serially.  It stays accepted
    # while the benchmark harness (perfbench/run.py) still passes jobs=1.
    validate_config(config)
    tols = dict(config.get("tolerances", {}))
    for key, value in (overrides or {}).items():
        if key not in TOL_KEYS:
            raise ConfigError(f"unsupported tolerance override {key!r}")
        tols[key] = _tolerance(key, value)

    model = build_model(config["model"], seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    # gone before any task runs, so that a crash leaves no earlier run's
    # report; it is written below as a fresh file, not a truncated one:
    # truncating an existing file makes some filesystems flush it on close
    path = out_dir / "report.json"
    path.unlink(missing_ok=True)

    report: dict = {"version": CONFIG_VERSION, "config": config,
                    "seed": seed, "tasks": {}, "failures": []}
    results: dict = {}
    for task in config["tasks"]:
        if task == "classify":
            out = task_classify(model, config, tols)
        elif task == "full":
            out = task_full(model, config, tols)
        elif task == "virtual":
            out = task_virtual(model, config, results)
        elif task == "compress":
            out = task_compress(model, config, results)
        elif task == "duality":
            out = task_duality(model, config, tols)
        elif task == "sweep":
            out = task_sweep(model, config)
            results["sweep_report"] = out
        report["tasks"][task] = out
        if not out.get("passed", False):
            name = out.get("error", f"{task} verdict failed")
            report["failures"].append(f"{task}: {name}")

    report["figures"] = emit_figures(model, results, out_dir, config)
    # a figure of an earlier run would sit beside a report not listing it
    for name in set(FIGURES) - set(report["figures"]):
        (out_dir / name).unlink(missing_ok=True)
    report["passed"] = not report["failures"]

    path.write_text(_report_text(report))
    return report


# ---------------------------------------------------------------------------
# argument parsing

def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ConfigError(f"--tol-override wants key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = float(value)
        except ValueError as err:
            raise ConfigError(f"override {key}: bad float {value!r}") from err
    return out


def counterexample_preset() -> dict:
    return {
        "version": 1,
        "model": {"kind": "counterexample", "eps_emb": 0.1,
                  "values": "linear"},
        "tasks": ["classify", "virtual", "compress", "duality"],
        "epsilon": 0.05,
        "grid": 101,
        "verify_multiplier": 10,
        "duality_grid": 33,
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="surplex",
        description="surplus-extraction scenarios: classification, menus, "
                    "duality diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="surplex-out",
                       help="output directory (report.json, CSVs)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol-override", action="append", default=[],
                       metavar="KEY=VALUE")

    p_analyze = sub.add_parser("analyze", help="run a scenario config")
    p_analyze.add_argument("config")
    common(p_analyze)

    p_counter = sub.add_parser("counterexample",
                               help="preset curve scenario")
    common(p_counter)

    p_sweep = sub.add_parser("sweep", help="grid-refinement sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--grids", help="comma-separated grid sizes, in "
                         "place of the config's sweep_grids")
    common(p_sweep)

    args = parser.parse_args(argv)
    try:
        # run_scenario validates the config, once its tasks and grids are
        # the ones that run
        if args.command == "counterexample":
            config = counterexample_preset()
        else:
            config = _read_config(args.config)
        if args.command == "sweep" and isinstance(config, dict):
            config["tasks"] = ["sweep"]
            if args.grids is not None:
                try:
                    grids = [int(x) for x in args.grids.split(",") if x]
                except ValueError as err:
                    raise ConfigError(f"bad --grids: {args.grids!r}") from err
                config["sweep_grids"] = grids
        overrides = _parse_overrides(args.tol_override)
        report = run_scenario(config, Path(args.out), seed=args.seed,
                              overrides=overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2

    for task, out in report["tasks"].items():
        status = "pass" if out.get("passed") else "FAIL"
        print(f"[{status}] {task}")
    for failure in report["failures"]:
        print(f"failed: {failure}", file=sys.stderr)
    print(f"report: {Path(args.out) / 'report.json'}")
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
