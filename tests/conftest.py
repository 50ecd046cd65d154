"""Shared fixtures."""

import sys
from typing import NamedTuple

import numpy as np
import pytest

from surplex import extraction, lp


class Solve(NamedTuple):
    program: lp.LinearProgram
    solution: lp.LpSolution
    callers: tuple[str, ...]     # function names on the stack, innermost first


def _callers(driver):
    """Function names on the stack of the recorded call, innermost first,
    or None if the call is not the library's own: it comes from inside
    driver (its row-flip fallback), or no surplex module but lp is on
    the stack (a test's own reference solve)."""
    callers, library = [], False
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code is driver.__code__:
            return None
        module = frame.f_globals.get("__name__", "")
        library |= module.startswith("surplex.") and module != lp.__name__
        callers.append(frame.f_code.co_name)
        frame = frame.f_back
    return tuple(callers) if library else None


@pytest.fixture
def recorded_programs():
    """Every program the library solves while the test runs, in order, as
    a list of Solve, each with the stack of the call that solved it.  The
    recorder patches lp._solve_stack, the driver that every solve passes
    through, and records each program once: not again when the driver's
    row-flip fallback solves it alone, and not the test's own reference
    solves.  A program is rebuilt here, as the LinearProgram of its
    layout with copies of its own rows, objective and right-hand sides:
    callers refill their stacked arrays chunk after chunk.  (The program
    copies its rows and rhs; its objective is copied here.)"""
    seen = []
    driver = lp._solve_stack

    def record(layout, rows, objectives, rhs, ws):
        sols = driver(layout, rows, objectives, rhs, ws)
        callers = _callers(driver)
        if callers is not None:
            seen.extend(Solve(layout.with_rows(program_rows,
                                               np.array(objective), b),
                              sol, callers)
                        for program_rows, objective, b, sol
                        in zip(rows, objectives, rhs, sols))
        return sols

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_stack", record)
        yield seen


@pytest.fixture
def solved_alone():
    """The callers (innermost first) of every single-program call of the
    driver lp._solve_stack that the library makes while the test runs,
    but for the two kinds solved one at a time by design: an exposure
    chain's stages (_separation_lp), and full_extraction_lp's blocks of
    the types its known_combinations call just returned.  Such a block t
    is told by its column t + 1, which holds -pi_t.  As in
    recorded_programs, calls from inside the driver (its row-flip
    fallback) and the test's own solves are not counted.  A family that
    should be stacked shows up here when it is solved one program at a
    time."""
    seen = []
    driver = lp._solve_stack
    known = extraction.known_combinations
    last = []        # the beliefs and answer of the last known_combinations

    def recorded_known(bset):
        last[:] = bset.points, known(bset)
        return last[1]

    def combination_block(program_rows):
        pi, first = last
        return any(np.array_equal(program_rows[:pi.shape[1], t + 1], -pi[t])
                   for t in first)

    def spy(layout, rows, objectives, rhs, ws):
        if len(rows) == 1:
            callers = _callers(driver)
            if (callers is not None and "_separation_lp" not in callers
                    and not ("full_extraction_lp" in callers
                             and combination_block(rows[0]))):
                seen.append(callers)
        return driver(layout, rows, objectives, rhs, ws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "_solve_stack", spy)
        patch.setattr(extraction, "known_combinations", recorded_known)
        yield seen
