"""Tests of the deterministic fault-injection harness."""

from __future__ import annotations

import pytest

from repro.exceptions import SolverError
from repro.mip import Model, ObjectiveSense, SolveStatus, quicksum
from repro.runtime import (
    FaultInjector,
    FaultMode,
    get_backend,
    inject_faults,
)


def tiny() -> Model:
    m = Model()
    x = m.binary_var("x")
    y = m.binary_var("y")
    m.add_constr(x + y <= 1)
    m.set_objective(2 * x + y, ObjectiveSense.MAXIMIZE)
    return m


class TestFaultInjector:
    def test_clean_passthrough(self):
        injector = FaultInjector("highs")
        solution = injector(tiny())
        assert solution.status is SolveStatus.OPTIMAL
        assert injector.calls == 1
        assert injector.injected == []

    def test_scripted_error_is_deterministic(self):
        injector = FaultInjector("highs", script={2: FaultMode.ERROR})
        assert injector(tiny()).status is SolveStatus.OPTIMAL
        with pytest.raises(SolverError, match=r"injected highs failure \(call #2\)"):
            injector(tiny())
        assert injector(tiny()).status is SolveStatus.OPTIMAL
        assert injector.injected == [(2, FaultMode.ERROR)]

    def test_always_error(self):
        injector = FaultInjector("highs", always="error")
        for _ in range(3):
            with pytest.raises(SolverError):
                injector(tiny())
        assert injector.calls == 3

    def test_timeout_returns_no_solution(self):
        injector = FaultInjector("highs", always=FaultMode.TIMEOUT)
        solution = injector(tiny())
        assert solution.status is SolveStatus.NO_SOLUTION
        assert not solution.has_solution
        assert "injected timeout" in solution.message

    def test_string_modes_accepted(self):
        injector = FaultInjector("highs", script={1: "timeout"}, always="error")
        assert injector.script == {1: FaultMode.TIMEOUT}
        assert injector.always is FaultMode.ERROR


class TestInjectFaults:
    def test_poisons_the_registry_name(self):
        model = tiny()
        with inject_faults("highs", always="error") as injector:
            with pytest.raises(SolverError):
                get_backend("highs")(model)
        assert injector.calls == 1
        # registry restored: clean solve again
        assert get_backend("highs")(model).status is SolveStatus.OPTIMAL

    def test_whole_stack_sees_the_fault(self):
        # Model.solve resolves "highs" by name through the registry
        with inject_faults("highs", always="error"):
            with pytest.raises(SolverError):
                tiny().solve(backend="highs")
