"""Tests for the LP/MIP model builder."""

import math

import numpy as np
import pytest

from repro.solver.model import ConstraintSense, LinearExpr, LinearProgram


class TestExpressions:
    def test_variable_arithmetic(self):
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        expr = 2 * x + 3 * y - 1
        assert expr.coefs == {0: 2.0, 1: 3.0}
        assert expr.const == -1.0

    def test_subtraction_and_negation(self):
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        expr = -(x - y) / 2
        assert expr.coefs == {0: -0.5, 1: 0.5}

    def test_rsub(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        expr = 5 - x
        assert expr.coefs == {0: -1.0}
        assert expr.const == 5.0

    def test_sum_builtin(self):
        lp = LinearProgram()
        xs = [lp.add_var() for _ in range(3)]
        expr = sum(xs)
        assert expr.coefs == {0: 1.0, 1: 1.0, 2: 1.0}

    def test_evaluate(self):
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        expr = 2 * x + y + 1
        assert expr.evaluate(np.array([3.0, 4.0])) == pytest.approx(11.0)

    def test_nonlinear_multiplication_rejected(self):
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        with pytest.raises(TypeError):
            _ = x * y


class TestConstraints:
    def test_senses(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        assert (x <= 3).sense is ConstraintSense.LE
        assert (x >= 3).sense is ConstraintSense.GE
        assert (x == 3).sense is ConstraintSense.EQ

    def test_rhs_extraction(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        constraint = 2 * x + 1 <= 5
        assert constraint.rhs == pytest.approx(4.0)

    def test_add_constraint_type_check(self):
        lp = LinearProgram()
        with pytest.raises(TypeError):
            lp.add_constraint(42)

    def test_variable_bounds_validated(self):
        lp = LinearProgram()
        with pytest.raises(ValueError):
            lp.add_var("x", lb=2, ub=1)

    def test_binary_helper(self):
        lp = LinearProgram()
        b = lp.add_binary("b")
        assert b.integer and b.lb == 0 and b.ub == 1


class TestStandardForm:
    def test_le_and_ge_rows(self):
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        lp.add_constraint(x + y <= 4)
        lp.add_constraint(x - y >= 1)
        lp.set_objective(x)
        form = lp.to_standard_form()
        assert form.a_ub.shape == (2, 2)
        np.testing.assert_allclose(form.a_ub[0], [1, 1])
        np.testing.assert_allclose(form.a_ub[1], [-1, 1])  # GE negated
        np.testing.assert_allclose(form.b_ub, [4, -1])

    def test_eq_rows(self):
        lp = LinearProgram()
        x = lp.add_var("x")
        lp.add_constraint(2 * x == 6)
        form = lp.to_standard_form()
        assert form.a_eq.shape == (1, 1)
        assert form.b_eq[0] == 6

    def test_maximisation_flips_objective(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=2)
        lp.set_objective(x, minimize=False)
        form = lp.to_standard_form()
        assert form.c[0] == -1.0
        assert form.objective_value(np.array([2.0])) == pytest.approx(2.0)

    def test_integrality_flags(self):
        lp = LinearProgram()
        lp.add_var("x")
        lp.add_binary("b")
        form = lp.to_standard_form()
        assert list(form.integer) == [False, True]

    def test_infinite_upper_bound_preserved(self):
        lp = LinearProgram()
        lp.add_var("x")
        form = lp.to_standard_form()
        assert math.isinf(form.ub[0])


class TestZeroCoefficientVariables:
    """Variables multiplied by zero (common when a prefetch term drops out
    of an Eq. 5 row) must not corrupt the standard form or the solve."""

    def test_zero_coef_kept_in_expression(self):
        lp = LinearProgram()
        x, y = lp.add_var("x"), lp.add_var("y")
        expr = x + 0 * y
        assert expr.coefs == {0: 1.0, 1: 0.0}
        assert expr.evaluate(np.array([2.0, 99.0])) == 2.0

    def test_standard_form_row_has_zero_entry(self):
        lp = LinearProgram()
        x, y = lp.add_var("x", ub=4), lp.add_var("y", ub=4)
        lp.add_constraint(x + 0 * y <= 3)
        lp.set_objective(x + y, minimize=False)
        form = lp.to_standard_form()
        assert form.a_ub.shape == (1, 2)
        assert form.a_ub[0, 1] == 0.0

    def test_solver_ignores_zero_coef_variable(self):
        from repro.solver.scipy_backend import MIPStatus, solve_milp_scipy

        lp = LinearProgram()
        x = lp.add_var("x", ub=4, integer=True)
        y = lp.add_var("y", ub=4, integer=True)
        lp.add_constraint(x + 0 * y <= 3)
        lp.set_objective(x + y, minimize=False)
        sol = solve_milp_scipy(lp)
        assert sol.status is MIPStatus.OPTIMAL
        # y is unconstrained by the row: it must reach its own upper bound.
        assert sol.objective == pytest.approx(7.0)
        assert list(sol.x) == [3, 4]

    def test_unreferenced_variable_survives_standard_form(self):
        lp = LinearProgram()
        x = lp.add_var("x", ub=2)
        lp.add_var("unused", ub=1)
        lp.add_constraint(x <= 2)
        lp.set_objective(x, minimize=False)
        form = lp.to_standard_form()
        assert form.c.shape == (2,)
        assert form.lb.shape == (2,) and form.ub.shape == (2,)
