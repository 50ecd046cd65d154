"""Workload inputs and output checks for the surplex benchmark.

Each workload is a list of named scenario configs that the benchmark runs
through `surplex.cli.run_scenario`, the entry point behind the `surplex`
command.  Every scenario's report is checked against recorded references
(`references.json`, written by `make_references.py` at the commit that
introduced the benchmark) and against the acceptance bounds the library
promises.  A failed check is counted, never raised.

Why these workloads:

* preset - the `surplex counterexample` command.  Hundreds of small
  separation LPs and per-point belief evaluations dominate.
* duality_curve - one large dense dual LP (n = 65 curve grid); the primal
  takes the all-exposed shortcut, so the separation and models layers
  are nearly idle.
* tabular_mixed - three random 40 x 6 tables with interior types: medium
  LPs solved again and again, infeasible full-extraction blocks beside
  optimal ones, and the only path through primal row generation.

No workload depends on the seed.  The curve is closed-form, and the
tables are fixed (random_tabular seeds 0-2): the cost of a random table
varies by a factor of three between table seeds, so tables drawn per
seed would spread wall_s across seeds far beyond any useful bound.

Table 3 (random_tabular seed 3) carries a known solver defect: its dense
dual LP ends OPTIMAL with a feasibility residual of 6.9e-4, so
|p* - d*| = 3.3e-4 and its strong-duality check fails.  A timed workload
must be one on which no check fails, so table 3 is not part of
tabular_mixed; `known_defect_scenario` gives it to the self-test, which
requires it to count as exactly one failed check until the solver is
fixed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from surplex import cli, models

TABLE_SEEDS = (0, 1, 2)
KNOWN_DEFECT_TABLE_SEED = 3
TABLE_TYPES = 40
TABLE_STATES = 6

WITNESS_TOL = 1e-8
OWN_FLOOR = -1e-8
P_TOL = 1e-6
GAP_REL = 1e-7

REFERENCES_PATH = Path(__file__).with_name("references.json")


def tabular_config(tseed: int) -> dict:
    tab = models.random_tabular(tseed, TABLE_TYPES, TABLE_STATES)
    return {
        "version": 1,
        "model": {"kind": "tabular", "states": TABLE_STATES,
                  "types": list(tab.labels),
                  "beliefs": tab.beliefs.tolist(),
                  "values": tab.values.tolist()},
        "tasks": ["classify", "full", "duality"],
    }


def scenarios(workload: str) -> list[tuple[str, dict]]:
    """(name, config) pairs of one pass."""
    if workload == "preset":
        return [("preset", cli.counterexample_preset())]
    if workload == "duality_curve":
        config = cli.counterexample_preset()
        config["tasks"] = ["duality"]
        config["duality_grid"] = 65
        return [("duality_curve", config)]
    if workload == "tabular_mixed":
        return [(f"table{s}", tabular_config(s)) for s in TABLE_SEEDS]
    raise ValueError(f"unknown workload {workload!r}")


def known_defect_scenario() -> tuple[str, dict]:
    """The table whose dense dual LP returns a wrong optimum; checked like
    a tabular_mixed scenario."""
    seed = KNOWN_DEFECT_TABLE_SEED
    return f"table{seed}", tabular_config(seed)


def load_references() -> dict:
    with open(REFERENCES_PATH) as fh:
        return json.load(fh)


class Checks:
    """Counts output checks; a failure is recorded with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)


def gap_ok(p_star: float, d_star: float) -> bool:
    return abs(p_star - d_star) <= GAP_REL * (1.0 + abs(p_star))


def _check_duality(checks: Checks, name: str, duality: dict) -> None:
    rep = duality["report"]
    p, d = float(rep["p_star"]), float(rep["d_star"])
    checks.check(f"{name}.p_star<=1e-6", p <= P_TOL, f"p*={p!r}")
    checks.check(f"{name}.strong_duality", gap_ok(p, d),
                 f"p*={p!r} d*={d!r}")


def _check_curve(checks: Checks, name: str, config: dict, report: dict,
                 ref: dict) -> None:
    tasks = report["tasks"]
    for task, expected in ref["verdicts"].items():
        got = bool(tasks[task]["passed"])
        checks.check(f"{name}.{task}.verdict", got == expected,
                     f"passed={got}, recorded {expected}")
    if "virtual" in tasks:
        eps = float(config["epsilon"])
        verify = tasks["virtual"]["verify"]
        own = [float(x) for x in verify["own_surplus"] if x is not None]
        cross = [float(x) for x in verify["best_cross_surplus"]]
        checks.check(f"{name}.virtual.own_surplus",
                     bool(own) and OWN_FLOOR <= min(own)
                     and max(own) <= eps,
                     f"own in [{min(own, default=np.nan)!r}, "
                     f"{max(own, default=np.nan)!r}]")
        checks.check(f"{name}.virtual.cross_surplus", max(cross) <= eps,
                     f"max cross {max(cross)!r}")
    if "compress" in tasks:
        checks.check(f"{name}.compress.passed",
                     bool(tasks["compress"]["passed"]))
    if "duality" in tasks:
        _check_duality(checks, name, tasks["duality"])


def _check_table(checks: Checks, name: str, config: dict, report: dict,
                 ref: dict) -> None:
    tasks = report["tasks"]
    types = tasks["classify"]["types"]
    labels = {lbl: types[lbl]["label"] for lbl in config["model"]["types"]}
    checks.check(f"{name}.labels", labels == ref["labels"],
                 "labels differ from the recorded ones")

    beliefs = np.asarray(config["model"]["beliefs"], dtype=float)
    undetectable = []
    for i, lbl in enumerate(config["model"]["types"]):
        if labels[lbl] != "not_detectable":
            continue
        undetectable.append(lbl)
        mu = np.asarray(types[lbl].get("witness", []), dtype=float)
        if mu.shape != (beliefs.shape[0],):
            checks.check(f"{name}.{lbl}.witness", False, "no witness")
            continue
        resid = float(np.abs(mu @ beliefs - beliefs[i]).max())
        convex = (mu.min() >= 0.0 and mu[i] == 0.0
                  and abs(mu.sum() - 1.0) <= WITNESS_TOL)
        checks.check(f"{name}.{lbl}.witness",
                     convex and resid <= WITNESS_TOL,
                     f"residual {resid!r}, sum {mu.sum()!r}")

    status = tasks["full"]["lp_status"]
    checks.check(f"{name}.full.lp_status",
                 (status == "infeasible") == bool(undetectable),
                 f"status {status} with {len(undetectable)} undetectable")

    rep = tasks["duality"]["report"]
    p, d = float(rep["p_star"]), float(rep["d_star"])
    p_ref = float(ref["p_star"])
    checks.check(f"{name}.p_star.reference",
                 abs(p - p_ref) <= GAP_REL * (1.0 + abs(p_ref)),
                 f"p*={p!r}, recorded {p_ref!r}")
    checks.check(f"{name}.strong_duality", gap_ok(p, d),
                 f"p*={p!r} d*={d!r}")


def check_report(checks: Checks, workload: str, name: str, config: dict,
                 report: dict, references: dict) -> None:
    """Check one scenario report; a malformed report counts as a failure."""
    try:
        ref = references[name]
        if workload == "tabular_mixed":
            _check_table(checks, name, config, report, ref)
        else:
            _check_curve(checks, name, config, report, ref)
    except (KeyError, TypeError, ValueError, IndexError) as err:
        checks.check(f"{name}.report", False,
                     f"unreadable report: {type(err).__name__}: {err}")


def fingerprints(out_dir: Path) -> dict:
    """sha256 of each report.json and CSV a scenario wrote."""
    out = {}
    for path in sorted(out_dir.glob("*")):
        if path.name == "report.json" or path.suffix == ".csv":
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
