"""Record the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py

Runs every scenario of every workload once and writes
perfbench/references.json, keyed by scenario: the task verdicts, the
sha256 of each output file and, for the tables, the classification
labels and p*.  The benchmark compares later runs with these records.
Takes about half a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from run import WORKLOADS  # noqa: E402
from surplex import cli  # noqa: E402


def main() -> int:
    refs = {}
    runs = [(w, s) for w in WORKLOADS for s in workloads.scenarios(w)]
    runs.append(("tabular_mixed", workloads.known_defect_scenario()))
    for workload, (name, config) in runs:
        out_dir = ROOT / ".perfbench" / "references" / name
        report = cli.run_scenario(config, out_dir)
        tasks = report["tasks"]
        ref = {"verdicts": {t: bool(out["passed"])
                            for t, out in tasks.items()},
               "fingerprints": workloads.fingerprints(out_dir)}
        if workload == "tabular_mixed":
            ref["labels"] = {lbl: c["label"] for lbl, c
                             in tasks["classify"]["types"].items()}
            ref["p_star"] = float(tasks["duality"]["report"]["p_star"])
        refs[name] = ref
        print(f"{name}: {ref['verdicts']}", flush=True)
    workloads.REFERENCES_PATH.write_text(
        json.dumps(refs, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
