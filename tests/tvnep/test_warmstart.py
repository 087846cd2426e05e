"""Warm starts at the TVNEP layer: schedule reconstruction and validation."""

from __future__ import annotations

import pytest

from repro.mip import solve_bnb
from repro.observability import MetricsRegistry, SolveTrace, use_registry, use_trace
from repro.tvnep import CSigmaModel
from repro.tvnep.warmstart import schedule_warm_start, validated_warm_start
from repro.workloads import small_scenario


@pytest.fixture(autouse=True)
def fresh_registry():
    # a scoped registry isolates cache stats (and all other counters)
    # from other tests — nothing to reset, nothing leaks out
    with use_registry(MetricsRegistry()) as registry:
        yield registry


def scenario_and_model(seed=0, num_requests=3, flexibility=1.0):
    scenario = small_scenario(seed, num_requests=num_requests).with_flexibility(
        flexibility
    )
    model = CSigmaModel(
        scenario.substrate,
        scenario.requests,
        fixed_mappings=scenario.node_mappings,
    )
    return scenario, model


def link_flow_values(raw):
    """The ``x_E`` values of a raw solution, by variable name."""
    return {
        var.name: value
        for var, value in raw.values.items()
        if var.name.startswith("xE[")
    }


def solution_schedule(scenario, solution):
    """``name -> (embedded, start, end)`` from a solved model; rejected
    requests are pinned to their earliest window (Definition 2.1 still
    needs times for them)."""
    by_name = {r.name: r for r in scenario.requests}
    schedule = {}
    for name, entry in solution.scheduled.items():
        if entry.embedded:
            schedule[name] = (True, entry.start, entry.end)
        else:
            request = by_name[name]
            schedule[name] = (
                False,
                request.earliest_start,
                request.earliest_start + request.duration,
            )
    return schedule


class TestScheduleWarmStart:
    def test_optimal_schedule_validates_and_matches_cold_solve(
        self, fresh_registry
    ):
        scenario, model = scenario_and_model()
        raw = model.solve_raw(backend="highs")
        solution = model.extract(raw)
        # link flows come from the previous solve — the schedule alone
        # does not determine them (greedy threads them the same way)
        warm = validated_warm_start(
            model, solution_schedule(scenario, solution), link_flow_values(raw)
        )
        assert warm is not None
        assert fresh_registry.counter("warmstart.validated") == 1
        assert fresh_registry.counter("warmstart.discarded") == 0

        cold_trace, warm_trace = SolveTrace(), SolveTrace()
        with use_trace(cold_trace):
            cold = solve_bnb(model.model)
        with use_trace(warm_trace):
            warmed = solve_bnb(model.model, warm_start=warm)
        assert warmed.objective == pytest.approx(cold.objective)
        assert warmed.node_count <= cold.node_count
        # the trace agrees with the solution on both counts
        event = warm_trace.last("warm_start")
        assert event is not None and event["accepted"] is True
        assert fresh_registry.counter("warmstart.used") == 1
        assert (
            warm_trace.last("solve_end")["nodes"]
            <= cold_trace.last("solve_end")["nodes"]
        )

    def test_incomplete_schedule_returns_none(self):
        _, model = scenario_and_model()
        assert schedule_warm_start(model, {}) is None
        assert validated_warm_start(model, {}) is None

    def test_garbage_schedule_never_raises(self, fresh_registry):
        scenario, model = scenario_and_model()
        schedule = {r.name: (True, -1e9, 1e9) for r in scenario.requests}
        assert validated_warm_start(model, schedule) is None
        assert fresh_registry.counter("warmstart.discarded") == 1
        assert fresh_registry.counter("warmstart.validated") == 0
