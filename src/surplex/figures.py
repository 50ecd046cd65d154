"""Plot-data emitters: deterministic CSV files, no rendering.

Values print with 17 significant digits ('.' decimal, no locale; the t
column of surplus.csv with 12) so repeated runs are byte-identical.
"""

from __future__ import annotations

from itertools import starmap
from pathlib import Path

import numpy as np


def _write_lines(path, header, lines) -> None:
    path = Path(path)
    path.unlink(missing_ok=True)    # fresh file; see cli.run_scenario
    with open(path, "w", newline="") as fh:
        fh.write("\n".join([",".join(header), *lines]) + "\n")


def _write_csv(path, header, *columns) -> None:
    """One row per entry of the columns (a 2-D column adds one field per
    column of its own), every value with 17 significant digits."""
    rows = np.column_stack(columns).astype(float).tolist()
    _write_lines(path, header,
                 starmap(",".join(["{:.17g}"] * len(header)).format, rows))


def convex_hull_2d(points) -> np.ndarray:
    """Indices of hull vertices in counterclockwise order (monotone chain)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        return np.arange(pts.shape[0])
    order = np.lexsort((pts[:, 1], pts[:, 0])).tolist()
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()

    def cross(o, a, b):
        return ((xs[a] - xs[o]) * (ys[b] - ys[o])
                - (ys[a] - ys[o]) * (xs[b] - xs[o]))

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in order[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return np.array(lower[:-1] + upper[:-1], dtype=int)


def write_curve_csv(path, ts, xs, ys, beliefs) -> None:
    """t, plane coordinates, and the embedded belief components."""
    beliefs = np.asarray(beliefs)
    header = ["t", "x", "y"] + [f"pi{i + 1}" for i in
                                range(beliefs.shape[1])]
    _write_csv(path, header, ts, xs, ys, beliefs)


def write_hull_csv(path, plane_points) -> None:
    """Hull vertex cycle in plane coordinates; first vertex repeats last."""
    pts = np.asarray(plane_points, dtype=float)
    idx = convex_hull_2d(pts)
    _write_csv(path, ["x", "y"], pts[np.append(idx, idx[:1])])


def write_surplus_csv(path, ts, own, best_cross) -> None:
    """Per-type surpluses; t has the 12 significant digits of type labels."""
    own = np.asarray(own, dtype=float)
    rows = zip(np.asarray(ts, dtype=float).tolist(), own.tolist(),
               np.isnan(own).tolist(),
               np.asarray(best_cross, dtype=float).tolist())
    _write_lines(path, ["t", "own_surplus", "best_cross_surplus"],
                 [f"{t:.12g},{'' if nan else format(o, '.17g')},{c:.17g}"
                  for t, o, nan, c in rows])


def write_margins_csv(path, grid_sizes, margins, contract_norms) -> None:
    _write_csv(path, ["grid_n", "type0_margin", "full_lp_contract_norm"],
               grid_sizes, margins, contract_norms)
