"""CSV plot data: the writers keep the bytes of their per-value forms."""

import numpy as np
import pytest

from surplex.figures import (
    convex_hull_2d,
    write_curve_csv,
    write_hull_csv,
    write_margins_csv,
    write_surplus_csv,
)


# Reference copies of the per-value writers the array-based ones replaced.

def ref_fmt(x) -> str:
    return f"{float(x):.17g}"


def ref_write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(ref_fmt(v) if not isinstance(v, str) else v
                              for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def ref_convex_hull_2d(points) -> np.ndarray:
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


def ref_write_curve_csv(path, ts, xs, ys, beliefs) -> None:
    beliefs = np.asarray(beliefs)
    header = ["t", "x", "y"] + [f"pi{i + 1}" for i in
                                range(beliefs.shape[1])]
    rows = [(t, x, y, *b) for t, x, y, b in zip(ts, xs, ys, beliefs)]
    ref_write_csv(path, header, rows)


def ref_write_hull_csv(path, plane_points) -> None:
    pts = np.asarray(plane_points, dtype=float)
    idx = ref_convex_hull_2d(pts)
    cycle = np.append(idx, idx[:1])
    ref_write_csv(path, ["x", "y"], [(pts[i, 0], pts[i, 1]) for i in cycle])


def ref_write_surplus_csv(path, ts, own, best_cross) -> None:
    rows = []
    for t, o, c in zip(ts, own, best_cross):
        rows.append((f"{float(t):.12g}", "" if np.isnan(o) else ref_fmt(o),
                     ref_fmt(c)))
    ref_write_csv(path, ["t", "own_surplus", "best_cross_surplus"], rows)


def ref_write_margins_csv(path, grid_sizes, margins, contract_norms) -> None:
    rows = list(zip(grid_sizes, margins, contract_norms))
    ref_write_csv(path, ["grid_n", "type0_margin", "full_lp_contract_norm"],
                  rows)


SPECIAL = np.array([-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 0.1,
                    1 / 3, 5e-324, np.nan, np.inf, -np.inf])


def special_columns(n, k, seed):
    """n x k values mixing SPECIAL with random magnitudes."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-12, 12,
                                                              (n, k))
    pick = rng.random((n, k)) < 0.4
    vals[pick] = rng.choice(SPECIAL, pick.sum())
    return vals


def assert_same_bytes(tmp_path, new, ref, *args):
    new(tmp_path / "new.csv", *args)
    ref(tmp_path / "ref.csv", *args)
    assert ((tmp_path / "new.csv").read_bytes()
            == (tmp_path / "ref.csv").read_bytes())


@pytest.mark.parametrize("seed", range(5))
def test_curve_csv_keeps_the_bytes(tmp_path, seed):
    n = 40
    ts = np.round(np.linspace(0.0, 1.0, n) + 1e-13 * seed, 12)
    cols = special_columns(n, 5, seed)
    assert_same_bytes(tmp_path, write_curve_csv, ref_write_curve_csv,
                      ts, cols[:, 0], cols[:, 1], cols[:, 2:])


@pytest.mark.parametrize("seed", range(5))
def test_surplus_csv_keeps_the_bytes(tmp_path, seed):
    """NaN own surpluses as in compressed menus, 12-digit t values."""
    n = 60
    rng = np.random.default_rng(seed)
    ts = rng.random(n) * 10.0 ** rng.integers(-3, 3, n)
    ts[:4] = [0.123456789012345, 0.5, 1 - 1e-13, -0.0]
    cols = special_columns(n, 2, 100 + seed)
    cols[rng.random(n) < 0.3, 0] = np.nan
    assert_same_bytes(tmp_path, write_surplus_csv, ref_write_surplus_csv,
                      ts, cols[:, 0], cols[:, 1])
    assert_same_bytes(tmp_path, write_surplus_csv, ref_write_surplus_csv,
                      list(ts), list(cols[:, 0]), list(cols[:, 1]))


def test_margins_csv_keeps_the_bytes(tmp_path):
    cols = special_columns(len(SPECIAL), 2, 7)
    cols[:, 0] = SPECIAL
    grids = [9, 17, 33, 65, 129, 257, 513, 1025, 2049, 4097, 8193, 16385]
    assert_same_bytes(tmp_path, write_margins_csv, ref_write_margins_csv,
                      grids, list(cols[:, 0]), list(cols[:, 1]))
    assert_same_bytes(tmp_path, write_margins_csv, ref_write_margins_csv,
                      [], [], [])


@pytest.mark.parametrize("seed", range(5))
def test_hull_keeps_its_vertices_and_bytes(tmp_path, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((30, 2)) * 10.0 ** rng.integers(-8, 8)
    pts[:3] = [[-0.0, 0.0], [1e-300, 0.0], [0.0, 1e-300]]
    pts[3:6] = pts[6:9]     # repeated and collinear points
    assert np.array_equal(convex_hull_2d(pts), ref_convex_hull_2d(pts))
    assert_same_bytes(tmp_path, write_hull_csv, ref_write_hull_csv, pts)
