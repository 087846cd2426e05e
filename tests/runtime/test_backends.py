"""Tests of the backend registry."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import SolverError, ValidationError
from repro.mip import Model, ObjectiveSense, SolveStatus, solve
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


class TestTimeLimitValidation:
    """``repro.mip.solve`` checks ``time_limit`` before any backend runs."""

    @pytest.mark.parametrize("name", ["highs", "bnb"])
    @pytest.mark.parametrize("bad", [-5.0, float("nan"), float("inf"), -math.inf])
    def test_invalid_time_limit_rejected(self, name, bad):
        calls = []
        with override_backend(name, lambda model, **kwargs: calls.append(kwargs)):
            with pytest.raises(ValidationError, match="time limit"):
                solve(tiny_model(), backend=name, time_limit=bad)
        assert calls == []

    @pytest.mark.parametrize("name", ["highs", "bnb"])
    def test_valid_time_limit_reaches_backend(self, name):
        solution = solve(tiny_model(), backend=name, time_limit=5)
        assert solution.status is SolveStatus.OPTIMAL

    def test_model_solve_checks_too(self):
        with pytest.raises(ValidationError):
            tiny_model().solve(time_limit=-1.0)
