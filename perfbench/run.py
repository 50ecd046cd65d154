"""surplex benchmark: end-to-end and per-layer metrics of checked runs.

    python3 perfbench/run.py --workload preset --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 1

Workloads (workloads.py says why each exists): preset, duality_curve and
tabular_mixed; `all` runs each in its own process and prints a summary.
The benchmark drives `surplex.cli.run_scenario` from `src/` in one serial
process (jobs = 1) and leaves the BLAS thread count at its default.  No
workload depends on --seed.

A pass runs every scenario of the workload once.  The first pass checks
every report against references.json and the library's acceptance
bounds; each later pass must write the same bytes as the first, which
is one more check per scenario however many passes ran, so the number
of checks does not depend on the host's speed.  Passes repeat until the
next one would end after --seconds (at least two run).  With --trace 0
the last output line reports the end-to-end metrics:

* wall_s - per scenario, the fastest over passes of the time
  run_scenario takes to write its outputs; summed over the workload's
  scenarios.  The fastest pass is the one least slowed by other load on
  the host.
* setup_s - the fastest of SETUP_SAMPLES fresh processes, started back
  to back before the timed passes, of the time to import surplex and
  build the workload's models and configs.
* peak_rss_mib - peak resident memory of the benchmark process.
* pass_ratio - output checks passed / attempted.  It stands in for the
  failure ratio, which is 0 on a clean run and so cannot carry a
  relative bound.

With --trace 1, untraced and traced passes alternate; the last line
reports the per-layer metrics of tracer.layer_metrics (median over the
traced passes) and trace_overhead_s, the traced minus the untraced
wall_s.  In both modes `attempted`/`failed` count output checks.  Run
metadata, output fingerprints and failed checks go to
.perfbench/results/, the spans of traced passes to .perfbench/trace/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 9
# A scenario that runs longer is stopped and counted as a failed check, so
# that a solver stalling on some input cannot hold a run past its time
# limit.  Every scenario of the benchmark normally ends within 6 s.
SCENARIO_BUDGET_S = 20.0
WORKLOADS = ("preset", "duality_curve", "tabular_mixed")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB",
                    "pass_ratio": "ratio"}


def _import_surplex():
    """Import the benchmark modules against this checkout's src/ only."""
    if not (SRC / "surplex" / "__init__.py").is_file():
        raise SystemExit(f"error: no surplex sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import surplex
    if Path(surplex.__file__).resolve().parent != SRC / "surplex":
        raise SystemExit(f"error: imported surplex from {surplex.__file__}")
    import workloads
    return workloads


def setup_probe(workload: str) -> None:
    """Time import plus model and config construction in this process."""
    t0 = time.perf_counter()
    workloads = _import_surplex()
    from surplex import cli
    for _, config in workloads.scenarios(workload):
        cli.build_model(config["model"])
    print(repr(time.perf_counter() - t0))


def setup_sample(workload: str) -> float:
    """setup_probe's seconds, in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def blas_threads():
    """OpenBLAS thread count of the numpy build, or None if unknown."""
    import numpy as np
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        lib = ctypes.CDLL(lib_path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def metadata() -> dict:
    import numpy as np
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except OSError:
        git_sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "jobs": 1,
    }


class ScenarioTimeout(Exception):
    """A scenario ran past SCENARIO_BUDGET_S."""


def _on_alarm(signum, frame):
    raise ScenarioTimeout(f"stopped after {SCENARIO_BUDGET_S} s")


class Bench:
    """Runs a workload's scenarios and counts the checks on their outputs."""

    def __init__(self, workload: str):
        self.workloads = _import_surplex()
        from surplex import cli
        self.cli = cli
        self.workload = workload
        self.configs = self.workloads.scenarios(workload)
        self.references = self.workloads.load_references()
        self.checks = self.workloads.Checks()
        self.fingerprints: dict = {}      # of the first pass, per scenario
        self.changed: set[str] = set()    # scenarios a later pass changed
        signal.signal(signal.SIGALRM, _on_alarm)

    def run_scenario(self, name: str, config: dict, out_dir: Path):
        """The scenario's report, or None after a counted failure."""
        signal.setitimer(signal.ITIMER_REAL, SCENARIO_BUDGET_S)
        try:
            return self.cli.run_scenario(config, out_dir, jobs=1)
        except ScenarioTimeout as err:
            self.checks.check(f"{name}.within_budget", False, str(err))
        except Exception:  # a crash is a failed check, not a lost run
            self.checks.check(f"{name}.run_scenario", False,
                              traceback.format_exc(limit=3))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        return None

    def run_pass(self, tracer=None) -> list[float]:
        """Run every scenario once; returns each scenario's seconds."""
        times = []
        for name, config in self.configs:
            out_dir = OUT / "out" / self.workload / name
            shutil.rmtree(out_dir, ignore_errors=True)
            if tracer is not None:
                tracer.run_id += 1
            t0 = time.perf_counter()
            report = self.run_scenario(name, config, out_dir)
            times.append(time.perf_counter() - t0)
            prints = self.workloads.fingerprints(out_dir)
            if name in self.fingerprints:
                if prints != self.fingerprints[name]:
                    self.changed.add(name)
                continue
            self.fingerprints[name] = prints
            if report is not None:
                self.workloads.check_report(self.checks, self.workload, name,
                                            config, report, self.references)
        return times

    def check_repeats(self) -> None:
        """One check per scenario: every later pass wrote the same bytes."""
        for name, _ in self.configs:
            self.checks.check(f"{name}.same_bytes", name not in self.changed,
                              "a later pass wrote other outputs than the "
                              "first")

    def reference_prints(self) -> dict:
        return {name: self.references[name]["fingerprints"]
                for name, _ in self.configs}


def wall(pass_times: list[list[float]]) -> float:
    """Sum over scenarios of each scenario's fastest time across passes."""
    return sum(min(col) for col in zip(*pass_times))


def measure(bench: Bench, seconds: float, trace: bool):
    """Run passes for about `seconds`.

    Returns per-pass scenario times untraced and traced, the layer
    metrics of each traced pass and the tracer holding their spans.
    """
    from tracer import Tracer, layer_metrics

    tracer = Tracer() if trace else None
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(bench.run_pass())
        if trace:
            first = len(tracer.spans)
            tracer.install()
            try:
                traced.append(bench.run_pass(tracer))
            finally:
                tracer.restore()
            layers.append(layer_metrics(tracer.spans, first))
        elapsed = time.perf_counter() - start
        passes = len(untraced) + len(traced)
        if passes >= 2 and elapsed + elapsed / len(untraced) > seconds:
            break
    bench.check_repeats()
    return untraced, traced, layers, tracer


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    _import_surplex()
    from tracer import layer_units

    bench = Bench(workload)
    meta = metadata()
    setup = [] if trace else [setup_sample(workload)
                              for _ in range(SETUP_SAMPLES)]
    untraced, traced, layers, tracer = measure(bench, seconds, trace)
    checks = bench.checks

    if trace:
        metrics = {k: statistics.median(d[k] for d in layers)
                   for k in layers[0]}
        metrics["trace_overhead_s"] = wall(traced) - wall(untraced)
        units = layer_units(metrics)
    else:
        metrics = {
            "wall_s": wall(untraced),
            "setup_s": min(setup),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio":
                (checks.attempted - checks.failed) / checks.attempted,
        }
        units = END_TO_END_UNITS

    matches = bench.fingerprints == bench.reference_prints()
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "metadata": meta,
        "scenarios": [name for name, _ in bench.configs],
        "setup_samples": setup,
        "untraced_pass_seconds": untraced, "traced_pass_seconds": traced,
        "fingerprints": bench.fingerprints,
        "fingerprints_match_reference": matches,
        "checks_attempted": checks.attempted,
        "checks_failed": checks.failed, "failures": checks.failures,
        "metrics": metrics,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    if trace:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "trace" / f"{stem}.jsonl")

    print(json.dumps({"metadata": meta, "fingerprints": bench.fingerprints,
                      "fingerprints_match_reference": matches}))
    for failure in checks.failures:
        print(f"failed check: {failure.splitlines()[0]}")
    for key, value in metrics.items():
        print(f"{workload} {key} = {value:.6g} {units[key]}")
    print(f"{workload} fail_ratio = {checks.failed / checks.attempted:.6g} "
          f"ratio ({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0, "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process; prints every metric with its unit."""
    status = 0
    lines = []
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        lines.append(f"{workload}: {result['failed']} of "
                     f"{result['attempted']} checks failed, fail_ratio "
                     f"{result['failed'] / result['attempted']:.6g}")
        for key, m in result["metrics"].items():
            lines.append(f"  {key:45s} {m['value']:>14.6g} {m['unit']}")
    print("\n".join(lines))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: no workload depends on it")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
