"""Tests of the Model container and standard-form compilation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ModelingError
from repro.mip.model import Model, ObjectiveSense


class TestVariables:
    def test_add_var_assigns_indices(self):
        m = Model()
        x = m.continuous_var("x")
        y = m.binary_var("y")
        assert x.index == 0
        assert y.index == 1
        assert m.num_vars == 2

    def test_duplicate_name_rejected(self):
        m = Model()
        m.continuous_var("x")
        with pytest.raises(ModelingError):
            m.continuous_var("x")

    def test_counters(self):
        m = Model()
        m.binary_var("b")
        m.integer_var("i", ub=4)
        m.continuous_var("c")
        assert m.num_binary_vars == 1
        assert m.num_integral_vars == 2

    def test_get_var(self):
        m = Model()
        x = m.continuous_var("x")
        assert m.get_var("x") is x
        with pytest.raises(KeyError):
            m.get_var("missing")

    def test_fix_var(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=10)
        m.fix_var(x, 3.0)
        assert x.lb == x.ub == 3.0

    def test_fix_var_outside_bounds_rejected(self):
        m = Model()
        x = m.binary_var("x")
        with pytest.raises(ModelingError):
            m.fix_var(x, 2.0)

    def test_foreign_variable_rejected(self):
        m1, m2 = Model("a"), Model("b")
        x = m1.continuous_var("x")
        with pytest.raises(ModelingError):
            m2.add_constr(x <= 1)


class TestConstraints:
    def test_add_constr(self):
        m = Model()
        x = m.continuous_var("x")
        con = m.add_constr(x <= 5, name="cap")
        assert con.name == "cap"
        assert m.num_constraints == 1

    def test_non_constraint_rejected(self):
        m = Model()
        with pytest.raises(ModelingError):
            m.add_constr("x <= 5")  # type: ignore[arg-type]

    def test_trivially_true_constraint_dropped(self):
        m = Model()
        x = m.continuous_var("x")
        m.add_constr((x - x) <= 1)
        assert m.num_constraints == 0

    def test_trivially_false_constraint_raises(self):
        m = Model()
        x = m.continuous_var("x")
        with pytest.raises(ModelingError):
            m.add_constr((x - x) >= 1)


class TestObjective:
    def test_set_objective(self):
        m = Model()
        x = m.continuous_var("x")
        m.set_objective(2 * x + 1, ObjectiveSense.MAXIMIZE)
        assert m.objective.coefficient(x) == 2.0
        assert m.objective.constant == 1.0
        assert m.objective_sense is ObjectiveSense.MAXIMIZE

    def test_objective_is_copied(self):
        m = Model()
        x = m.continuous_var("x")
        expr = 2 * x
        m.set_objective(expr)
        expr.add_term(x, 5.0)
        assert m.objective.coefficient(x) == 2.0


class TestStandardForm:
    def make(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=4)
        y = m.binary_var("y")
        m.add_constr(x + 2 * y <= 6, name="le")
        m.add_constr(x - y >= 1, name="ge")
        m.add_constr(x + y == 3, name="eq")
        m.set_objective(x + 3 * y, ObjectiveSense.MAXIMIZE)
        return m, x, y

    def test_shapes(self):
        m, _, _ = self.make()
        form = m.to_standard_form()
        assert form.A.shape == (3, 2)
        assert form.num_vars == 2
        assert form.num_constraints == 3

    def test_row_bounds(self):
        m, _, _ = self.make()
        form = m.to_standard_form()
        assert form.row_ub[0] == 6 and form.row_lb[0] == -np.inf
        assert form.row_lb[1] == 1 and form.row_ub[1] == np.inf
        assert form.row_lb[2] == form.row_ub[2] == 3

    def test_maximization_sign_flip(self):
        m, x, y = self.make()
        form = m.to_standard_form()
        # internal minimization: c = -objective
        assert form.c[x.index] == -1.0
        assert form.c[y.index] == -3.0
        assert form.sense_sign == -1.0

    def test_user_objective_roundtrip(self):
        m, x, y = self.make()
        form = m.to_standard_form()
        point = np.array([2.0, 1.0])
        assert form.user_objective(point) == pytest.approx(5.0)

    def test_integrality_vector(self):
        m, x, y = self.make()
        form = m.to_standard_form()
        assert form.integrality[x.index] == 0
        assert form.integrality[y.index] == 1

    def test_empty_model_compiles(self):
        form = Model().to_standard_form()
        assert form.A.shape == (0, 0)

    def test_duplicate_terms_accumulate(self):
        m = Model()
        x = m.continuous_var("x")
        expr = x + x + x
        m.add_constr(expr <= 9)
        form = m.to_standard_form()
        assert form.A.toarray()[0, x.index] == pytest.approx(3.0)


class TestDiagnostics:
    def test_check_assignment_reports_violations(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=1)
        m.add_constr(x >= 0.5, name="half")
        bad = m.check_assignment({x: 0.0})
        assert len(bad) == 1
        ok = m.check_assignment({x: 0.7})
        assert not ok

    def test_check_assignment_bound_violation(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=1)
        bad = m.check_assignment({x: 2.0})
        assert len(bad) == 1

    def test_stats(self):
        m = Model()
        x = m.binary_var("x")
        y = m.continuous_var("y")
        m.add_constr(x + y <= 1)
        stats = m.stats()
        assert stats == {
            "variables": 2,
            "binary": 1,
            "integral": 1,
            "constraints": 1,
            "nonzeros": 2,
        }

    def test_repr(self):
        assert "Model" in repr(Model("m"))
