"""Algebraic model builder for linear and mixed-integer programs.

The paper solves its partitioning MIP with the commercial Gurobi optimizer.
Here the literal MIP is built with this module and solved by HiGHS via
:func:`scipy.optimize.milp` (:mod:`repro.solver.scipy_backend`).

Example:
    >>> lp = LinearProgram("knapsack")
    >>> x = [lp.add_var(f"x{i}", ub=1, integer=True) for i in range(3)]
    >>> _ = lp.add_constraint(2 * x[0] + 3 * x[1] + 4 * x[2] <= 5)
    >>> lp.set_objective(3 * x[0] + 4 * x[1] + 5 * x[2], minimize=False)
    >>> lp.n_vars
    3
"""

from __future__ import annotations

import dataclasses
import enum
import math
from collections.abc import Iterable

import numpy as np

__all__ = [
    "Variable",
    "LinearExpr",
    "Constraint",
    "ConstraintSense",
    "LinearProgram",
    "StandardForm",
]


class ConstraintSense(enum.Enum):
    LE = "<="
    GE = ">="
    EQ = "=="


class LinearExpr:
    """An affine expression ``sum(coef_i * var_i) + const``.

    Supports ``+``, ``-``, scalar ``*``/``/`` and comparisons, which build
    :class:`Constraint` objects.
    """

    __slots__ = ("coefs", "const")

    def __init__(self, coefs: dict[int, float] | None = None, const: float = 0.0) -> None:
        self.coefs = dict(coefs or {})
        self.const = const

    @staticmethod
    def _as_expr(value: "LinearExpr | Variable | float | int") -> "LinearExpr":
        if isinstance(value, LinearExpr):
            return value
        if isinstance(value, Variable):
            return LinearExpr({value.index: 1.0})
        if isinstance(value, (int, float)):
            return LinearExpr(const=float(value))
        raise TypeError(f"cannot use {type(value).__name__} in a linear expression")

    def _combine(self, other, sign: float) -> "LinearExpr":
        other = self._as_expr(other)
        coefs = dict(self.coefs)
        for index, coef in other.coefs.items():
            coefs[index] = coefs.get(index, 0.0) + sign * coef
        return LinearExpr(coefs, self.const + sign * other.const)

    def __add__(self, other):
        return self._combine(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(other, -1.0)

    def __rsub__(self, other):
        return self._as_expr(other)._combine(self, -1.0)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float)):
            raise TypeError("linear expressions only support scalar multiplication")
        return LinearExpr(
            {i: c * scalar for i, c in self.coefs.items()}, self.const * scalar
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / scalar)

    def __neg__(self):
        return self * -1.0

    def __le__(self, other):
        return Constraint(self - other, ConstraintSense.LE)

    def __ge__(self, other):
        return Constraint(self - other, ConstraintSense.GE)

    def __eq__(self, other):  # type: ignore[override]
        return Constraint(self - other, ConstraintSense.EQ)

    __hash__ = None  # type: ignore[assignment]

    def evaluate(self, x: np.ndarray) -> float:
        """Value of the expression at point ``x``."""
        return self.const + sum(coef * x[i] for i, coef in self.coefs.items())


@dataclasses.dataclass(eq=False)
class Variable:
    """A decision variable; create through :meth:`LinearProgram.add_var`."""

    index: int
    name: str
    lb: float
    ub: float
    integer: bool

    # Arithmetic delegates to LinearExpr.
    def _expr(self) -> LinearExpr:
        return LinearExpr({self.index: 1.0})

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __sub__(self, other):
        return self._expr() - other

    def __rsub__(self, other):
        return other - self._expr()

    def __mul__(self, scalar):
        return self._expr() * scalar

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self._expr() / scalar

    def __neg__(self):
        return -self._expr()

    def __le__(self, other):
        return self._expr() <= other

    def __ge__(self, other):
        return self._expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self._expr() == other

    __hash__ = None  # type: ignore[assignment]


@dataclasses.dataclass
class Constraint:
    """``expr (<=|>=|==) 0`` — normalised so the RHS lives in ``expr.const``."""

    expr: LinearExpr
    sense: ConstraintSense
    name: str = ""

    @property
    def rhs(self) -> float:
        """Constraint right-hand side after moving the constant over."""
        return -self.expr.const


class LinearProgram:
    """A (mixed-integer) linear program under construction."""

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective: LinearExpr = LinearExpr()
        self.minimize = True

    def add_var(
        self,
        name: str = "",
        *,
        lb: float = 0.0,
        ub: float = math.inf,
        integer: bool = False,
    ) -> Variable:
        """Add a decision variable with bounds ``[lb, ub]``."""
        if lb > ub:
            raise ValueError(f"variable {name!r}: lb {lb} > ub {ub}")
        var = Variable(len(self.variables), name or f"x{len(self.variables)}", lb, ub, integer)
        self.variables.append(var)
        return var

    def add_binary(self, name: str = "") -> Variable:
        """Add a 0/1 integer variable."""
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built from expression comparisons."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a comparison of linear expressions, "
                f"got {type(constraint).__name__}"
            )
        if name:
            constraint.name = name
        self.constraints.append(constraint)
        return constraint

    def add_constraints(self, constraints: Iterable[Constraint]) -> None:
        for constraint in constraints:
            self.add_constraint(constraint)

    def set_objective(self, expr: LinearExpr | Variable | float, *, minimize: bool = True) -> None:
        """Set the objective; stored internally as-is with a direction flag."""
        self.objective = LinearExpr._as_expr(expr)
        self.minimize = minimize

    @property
    def n_vars(self) -> int:
        return len(self.variables)

    @property
    def integer_indices(self) -> list[int]:
        return [v.index for v in self.variables if v.integer]

    def to_standard_form(self) -> "StandardForm":
        """Export as dense arrays for the solvers (minimisation form)."""
        n = self.n_vars
        c = np.zeros(n)
        for index, coef in self.objective.coefs.items():
            c[index] = coef
        if not self.minimize:
            c = -c

        rows_ub: list[np.ndarray] = []
        rhs_ub: list[float] = []
        rows_eq: list[np.ndarray] = []
        rhs_eq: list[float] = []
        for constraint in self.constraints:
            row = np.zeros(n)
            for index, coef in constraint.expr.coefs.items():
                row[index] = coef
            rhs = constraint.rhs
            if constraint.sense is ConstraintSense.LE:
                rows_ub.append(row)
                rhs_ub.append(rhs)
            elif constraint.sense is ConstraintSense.GE:
                rows_ub.append(-row)
                rhs_ub.append(-rhs)
            else:
                rows_eq.append(row)
                rhs_eq.append(rhs)

        lb = np.array([v.lb for v in self.variables])
        ub = np.array([v.ub for v in self.variables])
        return StandardForm(
            c=c,
            a_ub=np.vstack(rows_ub) if rows_ub else np.zeros((0, n)),
            b_ub=np.array(rhs_ub),
            a_eq=np.vstack(rows_eq) if rows_eq else np.zeros((0, n)),
            b_eq=np.array(rhs_eq),
            lb=lb,
            ub=ub,
            integer=np.array([v.integer for v in self.variables]),
            flip_objective=not self.minimize,
        )


@dataclasses.dataclass
class StandardForm:
    """Dense minimisation-form arrays: ``min c.x`` s.t. ``a_ub.x <= b_ub``,
    ``a_eq.x == b_eq``, ``lb <= x <= ub``."""

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    flip_objective: bool

    def objective_value(self, x: np.ndarray) -> float:
        """Objective in the *user's* direction (undoing the min conversion)."""
        value = float(self.c @ x)
        return -value if self.flip_objective else value
