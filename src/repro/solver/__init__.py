"""MILP solver substrate (replaces Gurobi, which the paper uses for §3.2).

Stack: algebraic model builder -> bounded-variable revised simplex (primal
+ dual, warm-startable basis) -> best-first branch & bound with root cuts,
primal heuristics, incremental bound propagation, and deterministic
node/pivot budgets — with optional scipy/HiGHS backends for
cross-validation.
"""

from repro.solver.branch_bound import BranchAndBoundSolver, MIPSolution, MIPStatus
from repro.solver.cuts import cover_cuts, gomory_cuts
from repro.solver.heuristics import dive, round_and_repair
from repro.solver.model import (
    Constraint,
    ConstraintSense,
    LinearExpr,
    LinearProgram,
    StandardForm,
    Variable,
)
from repro.solver.presolve import (
    PresolveResult,
    postsolve,
    presolve,
    propagate_bounds,
)
from repro.solver.scipy_backend import solve_lp_scipy, solve_milp_scipy
from repro.solver.simplex import (
    Basis,
    LPSolution,
    LPStatus,
    RevisedSimplex,
    SimplexError,
    solve_standard_form,
)
from repro.solver.warmstart import WarmStartContext

__all__ = [
    "Basis",
    "BranchAndBoundSolver",
    "Constraint",
    "ConstraintSense",
    "LPSolution",
    "LPStatus",
    "LinearExpr",
    "LinearProgram",
    "MIPSolution",
    "MIPStatus",
    "PresolveResult",
    "RevisedSimplex",
    "SimplexError",
    "StandardForm",
    "Variable",
    "WarmStartContext",
    "cover_cuts",
    "dive",
    "gomory_cuts",
    "postsolve",
    "presolve",
    "propagate_bounds",
    "round_and_repair",
    "solve_lp_scipy",
    "solve_milp_scipy",
    "solve_standard_form",
]
