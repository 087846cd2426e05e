"""The exact link decomposition of ``TemporalModelBase.solve``.

``solve`` solves a node-only master, checks its schedule with the
fixed-schedule link LP and adds link blocks only for the requests whose
critical group fails; ``solve_raw`` solves the paper's full form as
built.  Their executable spec is that full form: the same status and
objective, and a schedule that ``verify_solution`` accepts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace

import pytest

from repro.exceptions import SolverError
from repro.mip import SolveStatus
from repro.mip import solve as registry_solve
from repro.observability import MetricsRegistry, SolveTrace, use_registry, use_trace
from repro.tvnep import (
    CSigmaModel,
    DeltaModel,
    SigmaModel,
    fixed_schedule,
    set_access_control,
    set_balance_node_load,
    set_disable_links,
    set_max_earliness,
    set_min_makespan,
    verify_solution,
)
from repro.workloads import paper_scenario, small_scenario

REFERENCE = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "perfbench", "reference.json"
)


def build(model_cls, scenario, **kwargs):
    return model_cls(
        scenario.substrate,
        scenario.requests,
        fixed_mappings=scenario.node_mappings,
        **kwargs,
    )


def solve_counted(model, **kwargs):
    """``model.solve(**kwargs)`` under a fresh registry; (solution, rounds)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        solution = model.solve(**kwargs)
    return solution, registry.counter("link_check.rounds")


def assert_matches_full(model, solution):
    raw = model.solve_raw(time_limit=120)
    assert solution.status == raw.status.value
    assert solution.objective == pytest.approx(raw.objective, rel=1e-6)
    assert verify_solution(solution).feasible


class TestMatchesFullModel:
    @pytest.mark.parametrize("model_cls", [DeltaModel, SigmaModel, CSigmaModel])
    @pytest.mark.parametrize("seed", range(2))
    def test_small_scenarios(self, model_cls, seed):
        scenario = small_scenario(seed, num_requests=4).with_flexibility(1.0)
        model = build(model_cls, scenario)
        solution, rounds = solve_counted(model, time_limit=120)
        assert rounds == 1  # links do not bind here
        assert_matches_full(model, solution)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("flexibility", [0.0, 1.0])
    def test_tight_links_add_link_blocks(self, seed, flexibility):
        """Links bind at capacity 1.5: the node-only master's schedule
        fails the link LP and a second round adds link blocks."""
        scenario = small_scenario(seed, link_capacity=1.5).with_flexibility(
            flexibility
        )
        model = build(CSigmaModel, scenario)
        solution, rounds = solve_counted(model, time_limit=120)
        assert rounds >= 2
        assert_matches_full(model, solution)

    def test_max_earliness_runs_the_loop(self):
        scenario = small_scenario(0, num_requests=4).with_flexibility(1.0)
        model = build(
            CSigmaModel, scenario, force_embedded=[r.name for r in scenario.requests]
        )
        set_max_earliness(model)
        solution, rounds = solve_counted(model, time_limit=120)
        assert rounds >= 1
        raw = model.solve_raw(time_limit=120)
        assert solution.status == raw.status.value
        if raw.has_solution:
            assert solution.objective == pytest.approx(raw.objective, rel=1e-6)
            assert verify_solution(solution, check_windows=False).feasible

    def test_paper_s11_needs_a_second_round(self):
        """The one ``exact-csigma`` band cell whose master fails the
        link LP (its master proves 336.14); round 2 proves the full
        model's optimum."""
        scenario = paper_scenario(11).with_flexibility(0.5)
        model = build(CSigmaModel, scenario)
        registry = MetricsRegistry()
        trace = SolveTrace()
        with use_registry(registry), use_trace(trace):
            solution = model.solve(time_limit=60, mip_gap=1e-6)
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(322.38492649564546, rel=1e-6)
        assert verify_solution(solution).feasible
        assert registry.counter("link_check.rounds") == 2
        checks = [e for e in trace.events if e["event"] == "link_check"]
        assert [(e["round"], e["feasible"]) for e in checks] == [
            (1, False),
            (2, True),
        ]
        assert checks[0]["added"] == registry.counter("link_check.requests_added") > 0
        assert checks[1]["added"] == 0


def traced_solve(model, **kwargs):
    """``model.solve(**kwargs)`` traced; (solution, rounds, built sizes)."""
    registry, trace = MetricsRegistry(), SolveTrace()
    with use_registry(registry), use_trace(trace):
        solution = model.solve(**kwargs)
    builds = [
        (e["num_vars"], e["num_constraints"])
        for e in trace.events
        if e["event"] == "model_build"
    ]
    return solution, registry.counter("link_check.rounds"), builds


class TestBuildsOnlyWhatIsSolved:
    """An access-control ``solve`` builds one master per round and never
    the full form; ``.model`` is built on first access."""

    @staticmethod
    def assert_masters_only(model, min_rounds):
        solution, rounds, builds = traced_solve(model, time_limit=120)
        assert rounds >= min_rounds
        assert len(builds) == rounds
        assert model.solved_stats["form"] == "master"
        solved = (model.solved_stats["variables"], model.solved_stats["constraints"])
        assert solved == builds[-1]
        full = model.stats()  # built here, on first use
        assert (full["variables"], full["constraints"]) not in builds
        assert_matches_full(model, solution)

    @pytest.mark.parametrize("model_cls", [DeltaModel, SigmaModel, CSigmaModel])
    @pytest.mark.parametrize("seed", range(2))
    def test_one_round(self, model_cls, seed):
        scenario = small_scenario(seed, num_requests=4).with_flexibility(1.0)
        self.assert_masters_only(build(model_cls, scenario), min_rounds=1)

    @pytest.mark.parametrize(
        "model_cls, seed, flexibility",
        [
            (DeltaModel, 0, 0.0),
            (DeltaModel, 2, 1.0),
            (SigmaModel, 0, 0.0),
            (SigmaModel, 3, 1.0),
            *((CSigmaModel, seed, flex) for seed in range(4) for flex in (0.0, 1.0)),
        ],
    )
    def test_tight_links(self, model_cls, seed, flexibility):
        scenario = small_scenario(seed, link_capacity=1.5).with_flexibility(
            flexibility
        )
        self.assert_masters_only(build(model_cls, scenario), min_rounds=2)

    def test_construction_and_default_objective_build_nothing(self):
        scenario = small_scenario(0, num_requests=3).with_flexibility(1.0)
        trace = SolveTrace()
        with use_trace(trace):
            model = build(CSigmaModel, scenario)
            set_access_control(model)
            assert trace.events == []
            size = model.stats()
        builds = [e for e in trace.events if e["event"] == "model_build"]
        assert [(e["num_vars"], e["num_constraints"]) for e in builds] == [
            (size["variables"], size["constraints"])
        ]
        assert model.stats() == size  # built once

    @pytest.mark.parametrize("model_cls", [DeltaModel, SigmaModel, CSigmaModel])
    def test_max_earliness_reads_and_writes_one_form(self, model_cls):
        """``set_max_earliness`` reads ``t_start`` before it writes
        ``.model``'s objective: both are the full form, built once, and
        the loop carries that objective to its masters (the objective is
        the one the eagerly built model reached)."""
        scenario = small_scenario(1, num_requests=4).with_flexibility(1.0)
        model = build(
            model_cls, scenario, force_embedded=[r.name for r in scenario.requests]
        )
        set_max_earliness(model)
        variables = model.model.variables
        assert all(variables[v.index] is v for v in model.model.objective.terms)
        solution, rounds, builds = traced_solve(model, time_limit=120)
        assert rounds == len(builds) >= 1
        assert solution.status == "optimal"
        assert solution.objective == pytest.approx(5.26484298310681, rel=1e-9)
        assert verify_solution(solution, check_windows=False).feasible


class TestScope:
    """Objectives that add rows or price links solve the model as built."""

    @pytest.mark.parametrize(
        "objective",
        [set_disable_links, set_balance_node_load, set_min_makespan],
    )
    def test_objectives_with_rows_record_no_round(self, objective):
        scenario = small_scenario(0, num_requests=3).with_flexibility(1.0)
        model = build(
            CSigmaModel, scenario, force_embedded=[r.name for r in scenario.requests]
        )
        objective(model)
        solution, rounds = solve_counted(model, time_limit=60)
        assert rounds == 0
        raw = model.solve_raw(time_limit=60)
        assert solution.status == raw.status.value

    def test_construction_is_the_full_form(self):
        """The master is private to ``solve``: ``.model`` keeps every
        ``x_E`` column before and after a solve."""
        scenario = small_scenario(0, num_requests=3).with_flexibility(1.0)
        model = build(CSigmaModel, scenario)
        size = (model.model.num_vars, model.model.num_constraints)
        assert all(emb.x_link for emb in model.embeddings.values())
        model.solve(time_limit=60)
        assert (model.model.num_vars, model.model.num_constraints) == size


class TestLimitsAndFailures:
    @staticmethod
    def stopped_at_limit(model, **kwargs):
        """A backend whose every answer is a limit-stopped incumbent."""
        solution = registry_solve(model, **kwargs)
        if solution.has_solution:
            solution = replace(solution, status=SolveStatus.FEASIBLE)
        return solution

    def test_limit_incumbent_failing_the_check_gives_no_solution(self):
        scenario = small_scenario(0, link_capacity=1.5).with_flexibility(1.0)
        model = build(CSigmaModel, scenario)
        solution, rounds = solve_counted(
            model, backend=self.stopped_at_limit, time_limit=60
        )
        assert rounds == 1
        assert solution.status == "no_solution"
        assert math.isnan(solution.objective)
        assert solution.num_embedded == 0

    def test_limit_incumbent_passing_the_check_is_reported(self):
        scenario = small_scenario(0, num_requests=4).with_flexibility(1.0)
        model = build(CSigmaModel, scenario)
        solution, rounds = solve_counted(
            model, backend=self.stopped_at_limit, time_limit=60
        )
        assert rounds == 1
        assert solution.status == "feasible"
        assert solution.objective == pytest.approx(
            model.solve_raw(time_limit=60).objective, rel=1e-6
        )
        assert verify_solution(solution).feasible

    def test_check_failing_with_every_link_block_raises(self, monkeypatch):
        """No fallback: a schedule the LP rejects although every embedded
        request has its link rows is an error, after one added round."""
        scenario = small_scenario(0, num_requests=3).with_flexibility(1.0)
        model = build(CSigmaModel, scenario)
        rejected = fixed_schedule.FixedScheduleResult(
            feasible=False, link_flows={}, reason="stub"
        )
        monkeypatch.setattr(
            fixed_schedule, "solve_fixed_schedule", lambda *args: rejected
        )
        monkeypatch.setattr(fixed_schedule, "unroutable_groups", lambda *args: [])
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(SolverError, match="stub"):
            model.solve(time_limit=60)
        assert registry.counter("link_check.rounds") == 2

    def test_infeasible_master_is_infeasible(self):
        """The master relaxes the full model: no schedule there, none here."""
        scenario = small_scenario(
            0, num_requests=3, node_capacity=0.5
        ).with_flexibility(1.0)
        names = [r.name for r in scenario.requests]
        model = build(CSigmaModel, scenario, force_embedded=names)
        assert model.solve_raw(time_limit=60).status is SolveStatus.INFEASIBLE
        solution, rounds = solve_counted(model, time_limit=60)
        assert solution.status == "infeasible"
        assert math.isnan(solution.objective)
        assert rounds == 1


def _reference_cells(algorithm: str, pool: str) -> list[tuple[str, float]]:
    """``(instance key, reference objective)`` of one benchmark pool."""
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    cells = []
    for key, _ in reference["pools"][pool]:
        outcome = reference["cells"][f"{algorithm}/{key}"]["outcome"]
        cells.append((key, outcome["objective"]))
    return cells


def _scenario(key: str):
    parts = key.split("-")
    seed, flexibility = int(parts[1][1:]), float(parts[-1][1:])
    if parts[0] == "paper":
        return paper_scenario(seed).with_flexibility(flexibility)
    return small_scenario(seed, num_requests=int(parts[2][1:])).with_flexibility(
        flexibility
    )


@pytest.mark.slow
@pytest.mark.parametrize(
    "algorithm, pool, backend",
    [("exact_highs", "exact-csigma", "highs"), ("exact_bnb", "exact-bnb", "bnb")],
)
def test_benchmark_pools_reach_the_reference(algorithm, pool, backend):
    """Every exact pool cell of the committed benchmark (46 + 48) proves
    the reference objective through the link decomposition."""
    cells = _reference_cells(algorithm, pool)
    assert len(cells) == {"exact-csigma": 46, "exact-bnb": 48}[pool]
    for key, objective in cells:
        solution = build(CSigmaModel, _scenario(key)).solve(
            backend=backend, time_limit=60, mip_gap=1e-6
        )
        assert solution.status == "optimal", key
        assert solution.objective == pytest.approx(objective, rel=1e-6), key
        assert verify_solution(solution).feasible, key
