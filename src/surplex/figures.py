"""Plot-data emitters: deterministic CSV files, no rendering.

Values print with 17 significant digits ('.' decimal, no locale; the t
column of surplus.csv with 12) so repeated runs are byte-identical.
"""

from __future__ import annotations

import numpy as np


class MissingResults(ValueError):
    """A figure was requested without the task results it needs."""


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v
                              for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def convex_hull_2d(points) -> np.ndarray:
    """Indices of hull vertices in counterclockwise order (monotone chain)."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        return np.arange(pts.shape[0])
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def cross(o, a, b):
        return ((pts[a, 0] - pts[o, 0]) * (pts[b, 1] - pts[o, 1])
                - (pts[a, 1] - pts[o, 1]) * (pts[b, 0] - pts[o, 0]))

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(int(i))
    upper: list[int] = []
    for i in order[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(int(i))
    return np.array(lower[:-1] + upper[:-1], dtype=int)


def write_curve_csv(path, ts, xs, ys, beliefs) -> None:
    """t, plane coordinates, and the embedded belief components."""
    beliefs = np.asarray(beliefs)
    header = ["t", "x", "y"] + [f"pi{i + 1}" for i in
                                range(beliefs.shape[1])]
    rows = [(t, x, y, *b) for t, x, y, b in zip(ts, xs, ys, beliefs)]
    _write_csv(path, header, rows)


def write_hull_csv(path, plane_points) -> None:
    """Hull vertex cycle in plane coordinates; first vertex repeats last."""
    pts = np.asarray(plane_points, dtype=float)
    idx = convex_hull_2d(pts)
    cycle = np.append(idx, idx[:1])
    _write_csv(path, ["x", "y"], [(pts[i, 0], pts[i, 1]) for i in cycle])


def write_surplus_csv(path, ts, own, best_cross) -> None:
    """Per-type surpluses; t has the 12 significant digits of type labels."""
    rows = []
    for t, o, c in zip(ts, own, best_cross):
        rows.append((f"{float(t):.12g}", "" if np.isnan(o) else _fmt(o),
                     _fmt(c)))
    _write_csv(path, ["t", "own_surplus", "best_cross_surplus"], rows)


def write_margins_csv(path, grid_sizes, margins, contract_norms) -> None:
    rows = list(zip(grid_sizes, margins, contract_norms))
    _write_csv(path, ["grid_n", "type0_margin", "full_lp_contract_norm"],
               rows)
