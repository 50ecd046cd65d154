"""Replay the LP solves of corpus configs and time them by LP family.

Usage: python scripts/lp_replay.py NAME... [--repeat N]

NAME is an entry of CORPUS in scripts/same_bytes.py.  Each config runs
once through `surplex.cli.run_scenario`, into a temporary directory that
is removed at the end, while every call of `lp._solve_stack`, the driver
that `lp.solve` and `lp.solve_chunks` both pass through, is recorded
with copies of its arguments (right-hand sides included), its workspace,
its family label and its answers; the driver's row-flip fallback solves
a call's programs again without re-entering it.  Then every recorded
call is replayed N times (default 5) in this process, and a table gives,
per family label and program shape (constraints x variables of the
program as built, before canonicalization): the calls, the programs they
solve, their pivots, the best and median over the repeats of the
family's total time in ms, and the minor page faults
(`resource.getrusage`) its calls took in the recorded run.  The faults
show allocation churn: the pages of the large arrays a call allocates,
about 4 KiB each.  In the recorded run every call's copies lie above the
arrays of the calls before it, so a large array a call allocates and
frees takes fresh pages, unless it reuses one of its workspace (the
chunks of one lp.solve_chunks call share it).  The replays show no
faults: their memory is already mapped.

The family is the label that the call site hands to `lp.solve_chunks`.
Exits 1 if a recorded call has no label (a library solve through
`lp.solve`, or a call site that passes none), or if any replayed answer
differs in any bit (signs of zeros included) from the recorded one,
else 0.  Only this checkout's `src` is imported.
"""

from __future__ import annotations

import argparse
import resource
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from same_bytes import CORPUS  # noqa: E402
from surplex import cli, lp  # noqa: E402


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def record(names):
    """Run each named config once; the list of recorded calls, each
    (driver arguments, answers, minor page faults); the family label is
    the last argument."""
    calls = []
    driver = lp._solve_stack

    def record_driver(layout, rows, objectives, rhs, ws, family):
        args = (layout, np.array(rows), np.array(objectives), np.array(rhs),
                ws, family)
        faults = _minflt()
        sols = driver(layout, rows, objectives, rhs, ws, family)
        calls.append((args, sols, _minflt() - faults))
        return sols

    lp._solve_stack = record_driver
    try:
        with tempfile.TemporaryDirectory(prefix="lp_replay_") as tmp:
            for name in names:
                config = CORPUS[name]
                if config is None:
                    config = cli.counterexample_preset()
                cli.run_scenario(config, Path(tmp) / name)
    finally:
        lp._solve_stack = driver
    return calls


def _bits(value) -> bytes | None:
    if value is None:
        return None
    return np.asarray(value, dtype=float).tobytes()


def same_answer(a: lp.LpSolution, b: lp.LpSolution) -> bool:
    """Equal down to the signs of zeros."""
    fields = ("primal", "duals", "objective_value", "ray")
    if (a.status, a.iterations) != (b.status, b.iterations):
        return False
    return all(_bits(getattr(a, f)) == _bits(getattr(b, f)) for f in fields)


def replay(calls, repeat: int):
    """Per (family, shape): [calls, programs, pivots, recorded faults,
    per-repeat ms], and the number of replayed answers that differ from
    the recorded ones."""
    rows = {}
    times = defaultdict(lambda: [0.0] * repeat)
    differ = 0
    clock = time.perf_counter
    for r in range(repeat):
        for args, want, faults in calls:
            prog, family = args[0], args[-1]
            key = (str(family), f"{prog.n_constraints} x {prog.n_vars}")
            start = clock()
            got = lp._solve_stack(*args)
            times[key][r] += 1e3 * (clock() - start)
            differ += sum(not same_answer(g, w) for g, w in zip(got, want))
            if r == 0:
                row = rows.setdefault(key, [0, 0, 0, 0])
                row[0] += 1
                row[1] += len(want)
                row[2] += sum(sol.iterations for sol in want)
                row[3] += faults
    return {key: row + [times[key]] for key, row in rows.items()}, differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="replay a corpus config's LP solves by LP family")
    parser.add_argument("names", nargs="+", metavar="NAME",
                        choices=sorted(CORPUS))
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    recorded = record(args.names)
    table, differ = replay(recorded, args.repeat)
    print(f"{'family':<12}{'shape':>12}{'calls':>7}{'programs':>10}"
          f"{'pivots':>8}{'best ms':>10}{'median ms':>11}{'faults':>8}")
    total = [0, 0, 0, 0, [0.0] * args.repeat]
    for (family, shape), (calls, programs, pivots, faults, ms) in sorted(
            table.items()):
        print(f"{family:<12}{shape:>12}{calls:>7}{programs:>10}{pivots:>8}"
              f"{min(ms):>10.2f}{statistics.median(ms):>11.2f}{faults:>8}")
        total[:4] = [a + b for a, b in
                     zip(total, (calls, programs, pivots, faults))]
        total[4] = [a + b for a, b in zip(total[4], ms)]
    calls, programs, pivots, faults, ms = total
    print(f"{'total':<24}{calls:>7}{programs:>10}{pivots:>8}"
          f"{min(ms):>10.2f}{statistics.median(ms):>11.2f}{faults:>8}")
    unnamed = sum(call_args[-1] is None for call_args, _, _ in recorded)
    if unnamed:
        print(f"{unnamed} recorded calls have no family label",
              file=sys.stderr)
    if differ:
        print(f"{differ} replayed answers differ from the recorded ones",
              file=sys.stderr)
    return 1 if unnamed or differ else 0


if __name__ == "__main__":
    sys.exit(main())
