"""Self-test of the benchmark harness; takes about half a minute.

    python3 perfbench/selftest.py

Checks that
* deterministic counts repeat exactly across two traced passes and equal
  the counts recorded when the benchmark was defined (preset: 354 LP
  solves, 39,019 pivots; duality_curve: 66 solves, 8,082 pivots), and
  that every LP solve is attributed to a family, and that the two
  passes write the same bytes;
* the tracer restores every surplex binding after each traced pass;
* the known bad dense dual (table 3, random_tabular(3, 40, 6), which
  returns OPTIMAL with a 6.9e-4 feasibility residual; kept out of the
  timed tabular_mixed workload) counts as exactly one failed check.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import sys

import run
from tracer import FAMILIES, Tracer, bindings, layer_metrics

EXPECTED = {"preset": {"lp.solve.calls": 354, "lp.pivots": 39019},
            "duality_curve": {"lp.solve.calls": 66, "lp.pivots": 8082}}


def traced_counts(bench: run.Bench, problems: list[str]) -> dict:
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        bench.run_pass(tracer)
    finally:
        tracer.restore()
    if bindings() != before:
        problems.append(f"{bench.workload}: bindings not restored")
    m = layer_metrics(tracer.spans)
    attributed = sum(m[f"lp.{f}.solves"] for f in FAMILIES)
    if attributed != m["lp.solve.calls"]:
        problems.append(f"{bench.workload}: {attributed} of "
                        f"{m['lp.solve.calls']} solves have a family")
    return {k: v for k, v in m.items()
            if not (k.endswith(".s") or k.endswith("_s"))}


def main() -> int:
    problems: list[str] = []
    for workload, expected in EXPECTED.items():
        bench = run.Bench(workload)
        first = traced_counts(bench, problems)
        second = traced_counts(bench, problems)
        bench.check_repeats()
        if first != second:
            diff = sorted(k for k in first if first[k] != second[k])
            problems.append(f"{workload}: counts differ between passes: "
                            f"{diff}")
        for key, value in expected.items():
            if first[key] != value:
                problems.append(f"{workload}: {key} = {first[key]}, "
                                f"expected {value}")
        if bench.checks.failed:
            problems.append(f"{workload}: failed checks "
                            f"{bench.checks.failures}")
        print(f"{workload}: lp.solve.calls {first['lp.solve.calls']}, "
              f"lp.pivots {first['lp.pivots']}")

    bench = run.Bench("tabular_mixed")
    bench.configs = [bench.workloads.known_defect_scenario()]
    bad_table = bench.configs[0][0]
    bench.run_pass()
    failures = bench.checks.failures
    if (bench.checks.failed != 1
            or not failures[0].startswith(f"{bad_table}.strong_duality")):
        problems.append(f"bad dual instance: expected one strong-duality "
                        f"failure, got {failures}")
    print(f"{bad_table}: {bench.checks.failed} of "
          f"{bench.checks.attempted} checks failed")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
