"""Check that a revision's reports are byte-identical to this checkout's.

Usage: python scripts/same_bytes.py BASE_REV

Exports the `src` tree of BASE_REV (a commit, a branch, HEAD, ...) with
`git archive` into a temporary directory, then runs every config of
CORPUS twice, each time in a fresh process: once with that tree's `src`
and once with the `src` of the checkout this script lives in.  It
compares the exit codes and every file each run writes (report.json and
the CSVs), prints each difference, and exits 1 if there is any, 0 if
there is none.  BASE_REV = HEAD compares two processes of one tree, so
it checks that the whole corpus is deterministic.

Nothing is written into the repository: the runs go to a temporary
directory that is removed at the end.  BLAS products are not bit-stable
across numpy builds, so compare two trees on one machine, never bytes
recorded elsewhere.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _preset(**changes) -> dict:
    config = {"version": 1,
              "model": {"kind": "counterexample", "eps_emb": 0.1,
                        "values": "linear"},
              "tasks": ["classify", "virtual", "compress", "duality"],
              "epsilon": 0.05, "grid": 101, "verify_multiplier": 10,
              "duality_grid": 33}
    config.update(changes)
    return config


def _table(seed: int, types: int, states: int) -> dict:
    return {"version": 1,
            "model": {"kind": "random_polytope", "seed": seed,
                      "types": types, "states": states},
            "tasks": ["classify", "full", "duality"]}


def _curve(tasks, **changes) -> dict:
    return {"version": 1, "model": {"kind": "counterexample"},
            "tasks": tasks, **changes}


# name -> None for `surplex counterexample`, else an `analyze` config
CORPUS = {
    "preset": None,
    "preset_eps0.02": _preset(epsilon=0.02),
    "preset_emb0.05": _preset(model={"kind": "counterexample",
                                     "eps_emb": 0.05, "values": "linear"}),
    # exposure chains that start from the remembered exposure LPs
    "preset_tol1e-3": _preset(tolerances={"margin_tol": 1e-3}),
    "duality65": _curve(["duality"], duality_grid=65),
    # VSE blocks in three chunks: 128 + 128 + 1
    "duality257": _curve(["duality"], duality_grid=257),
    **{f"table{s}": _table(s, 40, 6) for s in range(6)},
    "classify_sweep": _curve(["classify", "sweep"],
                             sweep_grids=[9, 17, 33, 65, 129]),
    # tasks that share the 33-point table's full-extraction and VSE blocks
    "shared33": _curve(["classify", "full", "duality", "sweep"], grid=33),
    "virtual201": _curve(["virtual", "compress"], epsilon=0.05, grid=201),
    # the bits of verify_menu on an 8,001-point grid
    "virtual801": _curve(["virtual"], epsilon=0.05, grid=801),
    "polytope3": _table(3, 6, 8),
    "tabular7": _table(7, 5, 4),
    "eps1.5_grid11": _curve(["virtual", "compress"], epsilon=1.5, grid=11),
    "eps1.5_grid101": _preset(epsilon=1.5),
    "eps5_grid11": _curve(["virtual", "compress"], epsilon=5, grid=11),
    # virtual fails (BudgetInfeasible), so compress has no menu
    "virtual_grid2": _curve(["virtual", "compress"], epsilon=0.05, grid=2),
}


def _env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def _check_import(src: Path) -> None:
    """Fail unless a process with this PYTHONPATH imports surplex from src
    (an installed copy must not stand in for either tree)."""
    out = subprocess.run(
        [sys.executable, "-c", "import surplex; print(surplex.__file__)"],
        env=_env(src), cwd=src, capture_output=True, text=True, check=True)
    got = Path(out.stdout.strip()).resolve()
    if got.parent != (src / "surplex").resolve():
        sys.exit(f"error: {src} imports surplex from {got}")


def _run(src: Path, name: str, config, work: Path) -> tuple[int, Path]:
    """Run one corpus entry with src; its exit code and output directory."""
    out = work / "out" / name
    if config is None:
        argv = ["counterexample"]
    else:
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        argv = ["analyze", str(path)]
    proc = subprocess.run(
        [sys.executable, "-m", "surplex", *argv, "--out", str(out)],
        env=_env(src), cwd=work, capture_output=True, text=True)
    return proc.returncode, out


def _files(out: Path) -> dict[str, bytes]:
    if not out.is_dir():
        return {}
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _compare(name: str, base, head) -> list[str]:
    """Lines describing every difference between two runs of one entry."""
    (base_code, base_out), (head_code, head_out) = base, head
    diffs = []
    if base_code != head_code:
        diffs.append(f"{name}: exit code {base_code} -> {head_code}")
    a, b = _files(base_out), _files(head_out)
    for fname in sorted(set(a) | set(b)):
        if fname not in b:
            diffs.append(f"{name}/{fname}: only in base")
        elif fname not in a:
            diffs.append(f"{name}/{fname}: only in head")
        elif a[fname] != b[fname]:
            diffs.append(f"{name}/{fname}: differs")
            diffs += difflib.unified_diff(
                a[fname].decode(errors="replace").splitlines(),
                b[fname].decode(errors="replace").splitlines(),
                "base", "head", n=1, lineterm="")
    return diffs


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as tmp:
        tmp = Path(tmp)
        archive = tmp / "base.tar"
        subprocess.run(["git", "archive", "-o", str(archive), argv[0],
                        "src"], cwd=ROOT, check=True)
        (tmp / "base").mkdir()
        subprocess.run(["tar", "-xf", str(archive), "-C", str(tmp / "base")],
                       check=True)
        trees = {"base": tmp / "base" / "src", "head": ROOT / "src"}
        for src in trees.values():
            _check_import(src)
        diffs = []
        for name, config in CORPUS.items():
            runs = []
            for side, src in trees.items():
                work = tmp / side
                work.mkdir(exist_ok=True)
                runs.append(_run(src, name, config, work))
            found = _compare(name, *runs)
            print(f"{'DIFF' if found else 'same'} {name} "
                  f"(exit {runs[1][0]})")
            diffs += found
    for line in diffs:
        print(line)
    print(f"{len(CORPUS)} configs, "
          f"{'differences found' if diffs else 'all identical'}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
