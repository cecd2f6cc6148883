"""Solve a :class:`~repro.solver.model.LinearProgram` with scipy's HiGHS.

:func:`scipy.optimize.milp` (HiGHS branch & cut) is the only solver of the
literal partition MIP (:mod:`repro.core.mip_formulation`), which the test
suite uses as a parity oracle for the planner's boundary search.
"""

from __future__ import annotations

import dataclasses
import enum
import math

import numpy as np
from scipy import optimize, sparse

from repro.solver.model import LinearProgram

__all__ = ["MIPSolution", "MIPStatus", "solve_milp_scipy"]


class MIPStatus(enum.Enum):
    OPTIMAL = "optimal"
    FEASIBLE = "feasible"  # stopped on the time limit with an incumbent
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"  # stopped on the time limit without one


@dataclasses.dataclass
class MIPSolution:
    """Outcome of a MIP solve; ``objective`` keeps the program's direction."""

    status: MIPStatus
    x: np.ndarray | None = None
    objective: float = math.nan

    @property
    def ok(self) -> bool:
        return self.status in (MIPStatus.OPTIMAL, MIPStatus.FEASIBLE)


def solve_milp_scipy(program: LinearProgram, *, time_limit: float = 60.0) -> MIPSolution:
    """Solve a MILP with :func:`scipy.optimize.milp` (HiGHS branch & cut)."""
    form = program.to_standard_form()
    constraints = []
    if form.a_ub.size:
        constraints.append(
            optimize.LinearConstraint(sparse.csr_matrix(form.a_ub), -np.inf, form.b_ub)
        )
    if form.a_eq.size:
        constraints.append(
            optimize.LinearConstraint(sparse.csr_matrix(form.a_eq), form.b_eq, form.b_eq)
        )
    result = optimize.milp(
        form.c,
        constraints=constraints or None,
        bounds=optimize.Bounds(form.lb, form.ub),
        integrality=form.integer.astype(int),
        options={"time_limit": time_limit},
    )
    if result.status == 2:
        return MIPSolution(MIPStatus.INFEASIBLE)
    if result.status == 3:
        return MIPSolution(MIPStatus.UNBOUNDED)
    if result.x is None:
        return MIPSolution(MIPStatus.NO_SOLUTION)
    x = np.asarray(result.x)
    x[form.integer] = np.round(x[form.integer])
    status = MIPStatus.OPTIMAL if result.status == 0 else MIPStatus.FEASIBLE
    return MIPSolution(status, x=x, objective=form.objective_value(x))
