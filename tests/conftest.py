"""Shared fixtures."""

import sys
from typing import NamedTuple

import numpy as np
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
    per lp.solve call and one per program of an lp.solve_stack call,
    each with the stack of the call that solved it.  A stacked program
    is rebuilt here, as the LinearProgram of its layout with copies of its
    own rows, objective and, when the call gives them, right-hand sides:
    callers refill their stacked arrays chunk after chunk.  (The program
    copies its rows and rhs; its objective is copied here.)"""
    seen = []
    solve, solve_stack = lp.solve, lp.solve_stack

    def record(prog):
        sol = solve(prog)
        seen.append(Solve(prog, sol, _callers()))
        return sol

    def record_stack(layout, rows, objectives, rhs=None):
        sols = solve_stack(layout, rows, objectives, rhs)
        callers = _callers()
        each_rhs = [None] * len(sols) if rhs is None else rhs
        seen.extend(Solve(layout.with_rows(program_rows,
                                           np.array(objective), b),
                          sol, callers)
                    for program_rows, objective, b, sol
                    in zip(rows, objectives, each_rhs, sols))
        return sols

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "solve", record)
        patch.setattr(lp, "solve_stack", record_stack)
        yield seen
