"""Shared fixtures."""

from typing import NamedTuple

import numpy as np
import pytest

from surplex import extraction, geometry, lp
from surplex.models import sample

# the LP families the library labels its solves with
FAMILIES = ("separation", "chain", "extreme", "virtual", "full_block",
            "vse_primal")


class Solve(NamedTuple):
    program: lp.LinearProgram
    solution: lp.LpSolution
    family: str


def program(layout, rows, objective, rhs):
    """The LinearProgram with layout's relations, free variables, sense
    and start, and these constraint rows, objective and right-hand
    sides."""
    prog = lp.LinearProgram(objective, zip(rows, layout.relations, rhs),
                            free=layout.free, sense=layout.sense)
    prog.start = layout.start
    return prog


def full_separators(model, eps, grid_n):
    """The virtual construction's separation programs on model's grid_n
    grid as they were before sifting: one per delta-far type on no
    declared face, with a column per point of the certification grid.
    Returns (layout, rows, types): types holds the grid indices of the
    programs' types, and each program's point columns are the far cert
    points in grid order, each divided by its weight, then the near
    ones, on geometry.separation_layout with the type's belief as its
    zero point."""
    grid = extraction.GridClassifier(model, grid_n)
    tab = grid.tab
    cert = sample(model, extraction.CERT_MULT * (grid_n - 1) + 1)
    delta = eps / (2.0 * model.lipschitz_v)
    types = np.flatnonzero(~grid.on_face & (np.maximum(
        np.abs(cert.ts[0] - tab.ts), np.abs(cert.ts[-1] - tab.ts)) >= delta))
    N, S = cert.beliefs.shape
    near = np.abs(cert.ts - tab.ts[types, None]) < delta
    order = np.argsort(near, axis=1, kind="stable")
    n_far = N - np.count_nonzero(near, axis=1)
    weights = np.where(np.arange(N) < n_far[:, None], np.maximum(
        cert.values[order] - tab.values[types, None], eps / 2.0), 1.0)
    layout = geometry.separation_layout(N, 1, S)
    rows = np.empty((types.size, S + 1, layout.n_vars))
    geometry.separation_rows(rows, cert.beliefs, order, n_far,
                             tab.beliefs[types, None])
    rows[:, :S, :N] /= weights[:, None, :]
    return layout, rows, types


@pytest.fixture
def driver_calls():
    """(family, programs) of every call of lp._solve_stack, the driver
    that every solve passes through, while the test runs: the family
    label of the call (None from lp.solve, and from a solve_chunks call
    that passes none) and the number of programs it solves.  The
    driver's row-flip fallback re-enters no wrapper, so each program is in
    one call."""
    seen = []
    driver = lp._solve_stack

    def spy(layout, rows, objectives, rhs, ws, family):
        seen.append((family, len(rows)))
        return driver(layout, rows, objectives, rhs, ws, family)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_stack", spy)
        yield seen


@pytest.fixture
def recorded_programs():
    """Every program of a labelled driver call while the test runs, in
    order, as a list of Solve with the call's family; a test's own
    unlabelled reference solves are not recorded.  A program is rebuilt
    here, as the LinearProgram of its layout with copies of its own rows,
    objective and right-hand sides: callers refill their stacked arrays
    chunk after chunk.  (The program copies its rows and rhs; its
    objective is copied here.)"""
    seen = []
    driver = lp._solve_stack

    def record(layout, rows, objectives, rhs, ws, family):
        sols = driver(layout, rows, objectives, rhs, ws, family)
        if family is not None:
            seen.extend(Solve(program(layout, program_rows,
                                      np.array(objective), b), sol, family)
                        for program_rows, objective, b, sol
                        in zip(rows, objectives, rhs, sols))
        return sols

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_stack", record)
        yield seen


@pytest.fixture
def solved_alone():
    """The family of every labelled single-program driver call while the
    test runs, but for the two kinds solved one at a time by design: an
    exposure chain's stages (chain), and full_extraction_lp's blocks of
    the types its known_combinations call just returned, as many
    full_block calls as it returned types.  A family that should be
    stacked shows up here when it is solved one program at a time."""
    seen = []
    driver = lp._solve_stack
    known = extraction.known_combinations
    combinations = [0]      # full_block calls left to the last such call

    def recorded_known(bset):
        first = known(bset)
        combinations[0] = len(first)
        return first

    def spy(layout, rows, objectives, rhs, ws, family):
        if len(rows) == 1 and family not in (None, "chain"):
            if family == "full_block" and combinations[0]:
                combinations[0] -= 1
            else:
                seen.append(family)
        return driver(layout, rows, objectives, rhs, ws, family)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_stack", spy)
        patch.setattr(extraction, "known_combinations", recorded_known)
        yield seen
