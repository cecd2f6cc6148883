"""The literal partition MIP's algebra and solver.

An expression-level model builder (:mod:`repro.solver.model`) and a HiGHS
call through :func:`scipy.optimize.milp` (:mod:`repro.solver.scipy_backend`).
The planner does not use either: its partition comes from the boundary
search in :mod:`repro.core.partition`, and the test suite checks that
search against HiGHS on the literal Eqs. 3-11 MIP.
"""

from repro.solver.model import (
    Constraint,
    ConstraintSense,
    LinearExpr,
    LinearProgram,
    StandardForm,
    Variable,
)
from repro.solver.scipy_backend import MIPSolution, MIPStatus, solve_milp_scipy

__all__ = [
    "Constraint",
    "ConstraintSense",
    "LinearExpr",
    "LinearProgram",
    "MIPSolution",
    "MIPStatus",
    "StandardForm",
    "Variable",
    "solve_milp_scipy",
]
