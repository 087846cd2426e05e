"""Tests of the backend registry."""

from __future__ import annotations

import pytest

from repro.exceptions import SolverError
from repro.mip import Model, ObjectiveSense, SolveStatus
from repro.runtime import (
    backend_names,
    get_backend,
    override_backend,
    register_backend,
)


def tiny_model() -> Model:
    m = Model()
    x = m.binary_var("x")
    m.set_objective(x, ObjectiveSense.MAXIMIZE)
    return m


class TestRegistry:
    def test_builtin_names(self):
        names = backend_names()
        assert {"highs", "bnb"} <= set(names)

    def test_get_by_name_solves(self):
        solution = get_backend("highs")(tiny_model())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(1.0)

    def test_unknown_name(self):
        with pytest.raises(SolverError, match="unknown backend"):
            get_backend("no-such-backend")

    def test_callable_passes_through(self):
        def backend(model, **kwargs):  # pragma: no cover - identity check
            raise AssertionError

        assert get_backend(backend) is backend

    def test_register_rejects_duplicates(self):
        with pytest.raises(SolverError):
            register_backend("highs", lambda model, **kwargs: None)

    def test_override_restores_previous(self):
        sentinel = object()
        original = get_backend("highs")
        with override_backend("highs", lambda model, **kwargs: sentinel):
            assert get_backend("highs")(None) is sentinel
        assert get_backend("highs") is original

    def test_override_new_name_removed_after(self):
        with override_backend("temp-backend", lambda model, **kwargs: None):
            assert "temp-backend" in backend_names()
        assert "temp-backend" not in backend_names()


class TestBudgetWiring:
    """Both concrete backends honor an exhausted SolveBudget."""

    @pytest.mark.parametrize("name", ["highs", "bnb"])
    def test_expired_budget_short_circuits(self, name):
        from repro.runtime import SolveBudget

        now = [0.0]
        budget = SolveBudget(5.0, clock=lambda: now[0])
        now[0] = 10.0
        solution = get_backend(name)(tiny_model(), budget=budget)
        assert solution.status is SolveStatus.NO_SOLUTION
        assert "budget" in solution.message

    @pytest.mark.parametrize("name", ["highs", "bnb"])
    def test_live_budget_clamps_but_solves(self, name):
        from repro.runtime import SolveBudget

        budget = SolveBudget(60.0, clock=lambda: 0.0)
        solution = get_backend(name)(
            tiny_model(), time_limit=600.0, budget=budget
        )
        assert solution.status is SolveStatus.OPTIMAL
