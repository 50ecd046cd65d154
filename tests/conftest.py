"""Shared fixtures."""

import sys
from typing import NamedTuple

import pytest

from surplex import lp


class Solve(NamedTuple):
    program: lp.LinearProgram
    solution: lp.LpSolution
    callers: tuple[str, ...]     # function names on the stack, innermost first


@pytest.fixture
def recorded_programs():
    """Every lp.solve call of the test, in order, as a list of Solve."""
    seen = []
    solve = lp.solve

    def record(prog):
        sol = solve(prog)
        callers = []
        frame = sys._getframe(1)
        while frame is not None:
            callers.append(frame.f_code.co_name)
            frame = frame.f_back
        seen.append(Solve(prog, sol, tuple(callers)))
        return sol

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve", record)
        yield seen

