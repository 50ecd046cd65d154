"""Shared fixtures."""

import sys
from typing import NamedTuple

import pytest

from surplex import lp


class Solve(NamedTuple):
    program: lp.LinearProgram
    solution: lp.LpSolution
    callers: tuple[str, ...]     # function names on the stack, innermost first


def _callers():
    """Function names on the stack of the recorded call, innermost first."""
    callers = []
    frame = sys._getframe(2)
    while frame is not None:
        callers.append(frame.f_code.co_name)
        frame = frame.f_back
    return tuple(callers)


@pytest.fixture
def recorded_programs():
    """Every program the test solves, in order, as a list of Solve: one
    per lp.solve call and one per program of an lp.solve_all call, each
    with the stack of the call that solved it."""
    seen = []
    solve, solve_all = lp.solve, lp.solve_all

    def record(prog):
        sol = solve(prog)
        seen.append(Solve(prog, sol, _callers()))
        return sol

    def record_all(programs):
        programs = list(programs)
        sols = solve_all(programs)
        callers = _callers()
        seen.extend(Solve(prog, sol, callers)
                    for prog, sol in zip(programs, sols))
        return sols

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve", record)
        patch.setattr(lp, "solve_all", record_all)
        yield seen
