"""Shared fixtures."""

from typing import NamedTuple

import numpy as np
import pytest

from surplex import extraction, lp

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
