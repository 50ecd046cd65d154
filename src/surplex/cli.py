"""Scenario runner: load a config, run tasks, emit report.json and CSVs.

Subcommands:
    surplex analyze <config.json>
    surplex counterexample            (preset scenario)
    surplex sweep --grids 9,17,33,65 <config.json>

Common flags: --out DIR, --jobs K, --seed N, --tol-override key=value.
Exit codes: 0 all requested verdicts pass, 1 a task failed (the failing
assertion is named in the report), 2 the config is invalid.

Reports are byte-deterministic: keys are sorted, floats use shortest
round-trip repr, and no timestamps or machine state are recorded.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from surplex import duality, lp
from surplex.extraction import (
    NotAllDetectable,
    classify_type,
    compress_menu,
    full_extraction_lp,
    full_extraction_menu,
    verify_menu,
    virtual_extraction_menu,
)
from surplex.figures import (
    MissingResults,
    write_curve_csv,
    write_hull_csv,
    write_margins_csv,
    write_surplus_csv,
)
from surplex.geometry import MARGIN_TOL, expose_set
from surplex.models import (
    ParametricModel,
    TabularModel,
    counterexample_model,
    curve_point,
    random_tabular,
    sample,
)

CONFIG_VERSION = 1
TASKS = ("classify", "full", "virtual", "compress", "duality", "sweep")
TOL_KEYS = ("p_tol", "mass_tol", "margin_tol")
FIGURES = ("curve.csv", "hull.csv", "surplus.csv", "margins.csv")


class ConfigError(ValueError):
    """Invalid scenario configuration."""


class TaskFailure(RuntimeError):
    """A requested verdict did not hold; the message names it."""


def _require_keys(obj: dict, allowed, where: str) -> None:
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    validate_config(config)
    return config


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
    else:
        raise ConfigError(f"unknown model kind {kind!r}")
    tasks = config.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("config.tasks must be a nonempty list")
    for t in tasks:
        if t not in TASKS:
            raise ConfigError(f"unknown task {t!r}")
    if ("virtual" in tasks or "compress" in tasks):
        if not (isinstance(config.get("epsilon"), (int, float))
                and config["epsilon"] > 0):
            raise ConfigError("epsilon must be positive for virtual/compress")
    if "compress" in tasks and "virtual" not in tasks:
        raise ConfigError("compress requires the virtual task")
    tol = config.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigError("tolerances must be an object")
    _require_keys(tol, TOL_KEYS, "tolerances")


def build_model(spec: dict, seed=None):
    kind = spec["kind"]
    if kind == "tabular":
        try:
            return TabularModel.from_dict(
                {k: spec[k] for k in ("states", "types", "beliefs",
                                      "values")})
        except (KeyError, ValueError) as err:
            raise ConfigError(f"bad tabular model: {err}") from err
    if kind == "counterexample":
        return counterexample_model(eps_emb=float(spec.get("eps_emb", 0.1)),
                                    validate=False)
    if kind == "random_polytope":
        use_seed = seed if seed is not None else int(spec.get("seed", 0))
        return random_tabular(use_seed, int(spec["types"]),
                              int(spec["states"]))
    raise ConfigError(f"unknown model kind {kind!r}")


def _as_tabular(model, grid_n: int) -> TabularModel:
    if isinstance(model, TabularModel):
        return model
    return sample(model, grid_n)


def _grid_view(model, grid_n: int, results: dict):
    """(table, belief set) of the model on grid_n, built once per scenario
    and kept in results, so every task on that grid shares one set and
    solves each point's exposure and extreme-point LP once."""
    key = ("grid", grid_n)
    if key not in results:
        tab = _as_tabular(model, grid_n)
        results[key] = (tab, tab.belief_set(allow_duplicates=True))
    return results[key]


def _map_jobs(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# tasks

def task_classify(model, config, tols, jobs, results) -> dict:
    margin_tol = tols.get("margin_tol", MARGIN_TOL)
    grid_n = int(config.get("grid", 201))
    tab, bset = _grid_view(model, grid_n, results)
    items = (list(range(model.n_types)) if isinstance(model, TabularModel)
             else list(tab.ts))

    def one(t):
        return classify_type(model, t, grid_n, margin_tol=margin_tol,
                             bset=bset)

    verdicts = _map_jobs(one, items, jobs)
    per_type = {lbl: c.to_jsonable() for lbl, c in zip(tab.labels, verdicts)}
    counts: dict[str, int] = {}
    for c in verdicts:
        counts[c.label] = counts.get(c.label, 0) + 1
    undetectable = [lbl for lbl, c in zip(tab.labels, verdicts)
                    if c.label == "not_detectable"]
    return {"passed": not undetectable, "counts": counts,
            "types": per_type,
            "failing": undetectable}


def task_full(model, config, tols, results) -> dict:
    tab, bset = _grid_view(model, int(config.get("grid", 201)), results)
    out: dict = {}
    try:
        menu = full_extraction_menu(
            tab, bset=bset, margin_tol=tols.get("margin_tol", MARGIN_TOL))
    except NotAllDetectable as err:
        sol, _ = full_extraction_lp(tab)
        out.update({
            "passed": False,
            "error": "NotAllDetectable",
            "failing_types": [lbl for lbl, _ in err.failing],
            "lp_status": sol.status,
        })
        return out
    rep = verify_menu(tab, menu, None, ("full",))
    sol, _ = full_extraction_lp(tab)
    out.update({
        "passed": bool(rep.passed and sol.status == lp.OPTIMAL),
        "verify": rep.to_jsonable(),
        "lp_status": sol.status,
        "lp_objective": None if sol.objective_value is None
        else float(sol.objective_value),
        "menu_size": len(menu),
    })
    return out


def task_virtual(model, config, results) -> dict:
    if isinstance(model, TabularModel):
        raise ConfigError("virtual extraction needs a parametric model")
    eps = float(config["epsilon"])
    grid_n = int(config.get("grid", 201))
    mult = int(config.get("verify_multiplier", 10))
    menu, logs = virtual_extraction_menu(model, eps, grid_n)
    rep = verify_menu(model, menu, mult * (grid_n - 1) + 1, ("virtual", eps))
    results["virtual_menu"] = menu
    results["virtual_report"] = rep
    return {"passed": bool(rep.passed), "verify": rep.to_jsonable(),
            "menu_size": len(menu),
            "construction": [log.to_jsonable() for log in logs]}


def task_compress(model, config, results) -> dict:
    eps = float(config["epsilon"])
    grid_n = int(config.get("grid", 201))
    menu = results.get("virtual_menu")
    if menu is None:
        raise MissingResults("compress needs the virtual menu")
    small = compress_menu(model, menu, eps, grid_n)
    rep = verify_menu(model, small, grid_n, ("virtual", 2 * eps))
    best = rep.best
    ok = bool((best >= 0.0).all() and (best <= 2 * eps).all())
    results["compressed_menu"] = small
    results["compressed_report"] = rep
    return {"passed": ok, "size": len(small),
            "best_surplus_min": float(best.min()),
            "best_surplus_max": float(best.max())}


def task_duality(model, config, tols) -> dict:
    grid_n = int(config.get("duality_grid", 33))
    tab = _as_tabular(model, grid_n)
    rep = duality.analyze(tab, p_tol=tols.get("p_tol", duality.P_TOL),
                          mass_tol=tols.get("mass_tol", duality.MASS_TOL))
    ok = bool(rep.diagnostics["strong_duality_ok"] and rep.p_star >= -1e-9)
    return {"passed": ok, "report": rep.to_jsonable(),
            "virtual_extraction": bool(rep.verdict)}


def task_sweep(model, config, jobs) -> dict:
    if isinstance(model, TabularModel):
        raise ConfigError("sweep needs a parametric model")
    grids = config.get("sweep_grids", [9, 17, 33, 65, 129])
    if not isinstance(grids, list) or any(int(n) < 2 for n in grids):
        raise ConfigError("sweep_grids must be grid sizes >= 2")

    def one(n):
        tab = sample(model, int(n))
        bset = tab.belief_set(allow_duplicates=True)
        res = expose_set(bset, [0], margin_tol=-np.inf)
        margin = res[1] if res else 0.0
        sol, _ = full_extraction_lp(tab)
        norm = (float(sol.objective_value) / int(n)
                if sol.status == lp.OPTIMAL else float("inf"))
        p_star = duality.solve_primal(duality.VseInstance(tab)).p_star
        return float(margin), norm, float(p_star)

    rows = _map_jobs(one, [int(n) for n in grids], jobs)
    margins = [r[0] for r in rows]
    norms = [r[1] for r in rows]
    p_stars = [r[2] for r in rows]
    monotone = all(a > b for a, b in zip(margins, margins[1:]))
    return {"passed": monotone, "grids": [int(n) for n in grids],
            "type0_margins": margins, "contract_norms": norms,
            "p_stars": p_stars, "margins_strictly_decreasing": monotone}


def emit_figures(model, results, out_dir: Path, config,
                 which=None) -> list[str]:
    """Write the CSV plot-data files supported by the available results."""
    written = []
    wanted = set(which) if which is not None else None

    def want(name):
        return wanted is None or name in wanted

    if want("curve") or want("hull"):
        if isinstance(model, ParametricModel):
            tab = sample(model, int(config.get("grid", 201)))
            xs, ys = curve_point(tab.ts) if model.name == "counterexample" \
                else (np.zeros(tab.n_types), np.zeros(tab.n_types))
            if want("curve"):
                write_curve_csv(out_dir / "curve.csv", tab.ts, xs, ys,
                                tab.beliefs)
                written.append("curve.csv")
            if want("hull") and model.name == "counterexample":
                write_hull_csv(out_dir / "hull.csv",
                               np.column_stack([xs, ys]))
                written.append("hull.csv")
        elif wanted is not None:
            raise MissingResults("curve/hull need a parametric model")

    if want("surplus"):
        rep = results.get("virtual_report")
        if rep is not None:
            write_surplus_csv(out_dir / "surplus.csv", rep.ts, rep.own,
                              rep.cross)
            written.append("surplus.csv")
        elif wanted is not None:
            raise MissingResults("surplus.csv needs the virtual task")

    if want("margins"):
        sweep = results.get("sweep_report")
        if sweep is not None:
            write_margins_csv(out_dir / "margins.csv", sweep["grids"],
                              sweep["type0_margins"],
                              sweep["contract_norms"])
            written.append("margins.csv")
        elif wanted is not None:
            raise MissingResults("margins.csv needs the sweep task")

    return written


def _jsonable(obj):
    """Strictly JSON-safe tree: numpy types unwrapped, non-finite as text."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
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


# ---------------------------------------------------------------------------
# scenario driver

def run_scenario(config: dict, out_dir: Path, *, jobs: int = 1,
                 seed=None, overrides=None) -> dict:
    validate_config(config)
    tols = dict(config.get("tolerances", {}))
    for key, value in (overrides or {}).items():
        if key not in TOL_KEYS:
            raise ConfigError(f"unsupported tolerance override {key!r}")
        tols[key] = float(value)

    model = build_model(config["model"], seed=seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    report: dict = {"version": CONFIG_VERSION, "config": config,
                    "seed": seed, "tasks": {}, "failures": []}
    results: dict = {}
    for task in config["tasks"]:
        if task == "classify":
            out = task_classify(model, config, tols, jobs, results)
        elif task == "full":
            out = task_full(model, config, tols, results)
        elif task == "virtual":
            out = task_virtual(model, config, results)
        elif task == "compress":
            out = task_compress(model, config, results)
        elif task == "duality":
            out = task_duality(model, config, tols)
        elif task == "sweep":
            out = task_sweep(model, config, jobs)
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

    text = json.dumps(_jsonable(report), sort_keys=True, indent=2,
                      allow_nan=False)
    # a fresh file, not a truncated one: truncating an existing file
    # makes some filesystems flush it on close
    path = out_dir / "report.json"
    path.unlink(missing_ok=True)
    path.write_text(text + "\n")
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
    parser = argparse.ArgumentParser(
        prog="surplex",
        description="surplus-extraction scenarios: classification, menus, "
                    "duality diagnostics")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="surplex-out",
                       help="output directory (report.json, CSVs)")
        p.add_argument("--jobs", type=int, default=1)
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
    p_sweep.add_argument("--grids", default="9,17,33,65,129")
    common(p_sweep)

    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            config = load_config(args.config)
        elif args.command == "counterexample":
            config = counterexample_preset()
        else:
            config = load_config(args.config)
            try:
                grids = [int(x) for x in args.grids.split(",") if x]
            except ValueError as err:
                raise ConfigError(f"bad --grids: {args.grids!r}") from err
            config["tasks"] = ["sweep"]
            config["sweep_grids"] = grids
        overrides = _parse_overrides(args.tol_override)
        report = run_scenario(config, Path(args.out), jobs=args.jobs,
                              seed=args.seed, overrides=overrides)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except MissingResults as err:
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
