"""Tests of the greedy algorithm cSigma^G_A (Sec. V)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelingError, SolverError
from repro.network import (
    Request,
    SubstrateNetwork,
    TemporalSpec,
    VirtualNetwork,
    line_substrate,
)
from repro.network.topologies import star
from repro.tvnep import CSigmaModel, greedy_csigma, verify_solution
from repro.vnep import random_node_mapping
from repro.workloads import small_scenario


def unit_request(name, t_s, t_e, d, demand=1.0):
    v = VirtualNetwork(name)
    v.add_node("v", demand)
    return Request(v, TemporalSpec(t_s, t_e, d))


def unit_mappings(requests, host="s"):
    return {r.name: {"v": host} for r in requests}


def one_node(cap=1.0):
    sub = SubstrateNetwork()
    sub.add_node("s", cap)
    return sub


class TestBasics:
    def test_accepts_when_feasible(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2), unit_request("B", 0, 4, 2)]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs))
        assert result.solution.num_embedded == 2
        assert verify_solution(result.solution).feasible

    def test_rejects_when_conflicting(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 2, 2), unit_request("B", 0, 2, 2)]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs))
        assert result.solution.num_embedded == 1
        assert len(result.accepted_order) == 1

    def test_processes_in_earliest_start_order(self):
        sub = one_node()
        reqs = [
            unit_request("late", 5, 8, 2),
            unit_request("early", 0, 3, 2),
        ]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs))
        assert result.accepted_order == ["early", "late"]

    def test_missing_mapping_rejected(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2)]
        with pytest.raises(SolverError):
            greedy_csigma(sub, reqs, {})

    def test_iteration_runtimes_recorded(self):
        sub = one_node()
        reqs = [unit_request(f"R{i}", i, i + 3, 1) for i in range(3)]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs))
        assert len(result.iteration_runtimes) == 3
        assert result.total_runtime > 0

    def test_everything_rejected_still_returns_solution(self):
        # substrate too small for any request
        sub = one_node(cap=0.5)
        reqs = [unit_request("A", 0, 4, 2), unit_request("B", 0, 4, 2)]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs))
        assert result.solution.num_embedded == 0
        assert len(result.solution.scheduled) == 2

    def test_accepted_requests_start_early(self):
        """Objective (21): accepted requests end as early as possible."""
        sub = one_node()
        reqs = [unit_request("A", 0, 10, 2)]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs))
        assert result.solution["A"].start == pytest.approx(0.0, abs=1e-6)

    def test_greedy_never_beats_exact(self):
        sub = one_node()
        reqs = [
            unit_request("A", 0, 5, 2),
            unit_request("B", 1, 5, 2),
            unit_request("C", 0, 3, 1),
        ]
        mappings = unit_mappings(reqs)
        greedy = greedy_csigma(sub, reqs, mappings)
        exact = CSigmaModel(sub, reqs, fixed_mappings=mappings).solve()
        assert greedy.solution.total_revenue() <= exact.objective + 1e-6


class TestWithLinks:
    def test_star_requests_on_line(self):
        sub = line_substrate(3, node_capacity=3.0, link_capacity=2.0)
        reqs = [
            Request(
                star(f"S{i}", leaves=2, node_demand=1.0, link_demand=1.0),
                TemporalSpec(float(i), float(i) + 4.0, 2.0),
            )
            for i in range(3)
        ]
        mappings = {
            r.name: random_node_mapping(sub, r, rng=i)
            for i, r in enumerate(reqs)
        }
        result = greedy_csigma(sub, reqs, mappings)
        report = verify_solution(result.solution)
        assert report.feasible, report.violations[:3]

    def test_link_reallocation_across_iterations(self):
        """Accepted requests' flows are re-optimized every iteration, so a
        later request can still fit even if the first greedy routing was
        wasteful."""
        sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
        # two chain requests forced onto opposite hosts, sharing one link
        from repro.network.topologies import chain

        reqs = [
            Request(
                chain(f"C{i}", length=2, node_demand=1.0, link_demand=0.5),
                TemporalSpec(0.0, 4.0, 4.0),
            )
            for i in range(2)
        ]
        mappings = {
            "C0": {"n0": "s0", "n1": "s1"},
            "C1": {"n0": "s0", "n1": "s1"},
        }
        result = greedy_csigma(sub, reqs, mappings)
        assert result.solution.num_embedded == 2
        assert verify_solution(result.solution).feasible


# ---------------------------------------------------------------------------
@st.composite
def greedy_instance(draw):
    count = draw(st.integers(2, 4))
    cap = draw(st.sampled_from([1.0, 2.0]))
    reqs = []
    for i in range(count):
        start = draw(st.integers(0, 3)) * 1.0
        duration = draw(st.integers(1, 3)) * 1.0
        flexibility = draw(st.integers(0, 3)) * 1.0
        demand = draw(st.sampled_from([0.5, 1.0]))
        reqs.append(
            unit_request(f"R{i}", start, start + duration + flexibility, duration, demand)
        )
    return cap, reqs


@settings(max_examples=15, deadline=None)
@given(greedy_instance())
def test_greedy_always_feasible_and_bounded_by_exact(instance):
    cap, reqs = instance
    sub = one_node(cap)
    mappings = unit_mappings(reqs)
    greedy = greedy_csigma(sub, reqs, mappings)
    assert verify_solution(greedy.solution).feasible
    exact = CSigmaModel(sub, reqs, fixed_mappings=mappings).solve(time_limit=60)
    assert greedy.solution.total_revenue() <= exact.objective + 1e-5


class TestHarshTimeLimits:
    def test_tiny_iteration_budget_still_covers_all_requests(self):
        """Iterations that time out without an incumbent conservatively
        reject, and the final solution still covers every request."""
        from repro.workloads import small_scenario

        scenario = small_scenario(0, num_requests=5).with_flexibility(2.0)
        result = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            scenario.node_mappings,
            time_limit_per_iteration=1e-4,
        )
        assert len(result.solution.scheduled) == 5
        assert verify_solution(result.solution).feasible


class TestGlobalBudget:
    def test_expired_budget_rejects_without_solving_iterations(self):
        from repro.runtime import SolveBudget, get_backend

        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2), unit_request("B", 0, 4, 2)]
        now = [0.0]
        budget = SolveBudget(10.0, clock=lambda: now[0])
        now[0] = 20.0  # already past the deadline

        calls: list[float | None] = []

        def counting(model, **kwargs):
            calls.append(kwargs.get("time_limit"))
            return get_backend("highs")(model, **kwargs)

        result = greedy_csigma(
            sub, reqs, unit_mappings(reqs), backend=counting, budget=budget
        )
        # every iteration was skipped; only the final (grace-period)
        # extraction solve ran
        assert len(calls) == 1
        assert result.solution.num_embedded == 0
        assert len(result.solution.scheduled) == 2
        assert verify_solution(result.solution).feasible

    def test_budget_divides_across_iterations(self):
        from repro.runtime import SolveBudget, get_backend

        sub = one_node(cap=2.0)
        reqs = [unit_request(n, 0, 8, 2) for n in "ABCD"]
        budget = SolveBudget(100.0, clock=lambda: 0.0)  # frozen clock

        limits: list[float | None] = []

        def counting(model, **kwargs):
            limits.append(kwargs.get("time_limit"))
            return get_backend("highs")(model, **kwargs)

        result = greedy_csigma(
            sub, reqs, unit_mappings(reqs), backend=counting, budget=budget
        )
        assert result.solution.num_embedded == 4
        # four iterations (fair shares of the remaining budget) + final
        assert len(limits) == 5
        for limit in limits[:-1]:
            assert limit is not None and limit <= 100.0

    def test_time_limit_builds_a_budget(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2)]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs), time_limit=60.0)
        assert result.solution.num_embedded == 1
        assert verify_solution(result.solution).feasible

    def test_iteration_solver_error_rejects_and_continues(self):
        from repro.runtime import FaultMode, inject_faults

        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2), unit_request("B", 0, 4, 2)]
        # first iteration's solve dies; the second and final are clean
        with inject_faults("highs", script={1: FaultMode.ERROR}):
            result = greedy_csigma(sub, reqs, unit_mappings(reqs))
        assert result.solution.num_embedded == 1
        assert not result.solution["A"].embedded
        assert result.solution["B"].embedded
        assert verify_solution(result.solution).feasible


class TestErrorsSurface:
    def test_backend_type_error_propagates_without_a_retry(self):
        from repro.runtime import get_backend

        scenario = small_scenario(0, num_requests=3).with_flexibility(1.0)
        calls: list[int] = []

        def flaky(model, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise TypeError("bug inside the backend")
            return get_backend("highs")(model, **kwargs)

        with pytest.raises(TypeError, match="bug inside the backend"):
            greedy_csigma(
                scenario.substrate,
                scenario.requests,
                scenario.node_mappings,
                backend=flaky,
            )
        assert len(calls) == 2

    def test_unbuildable_embedding_raises_before_further_solves(self):
        from repro.runtime import get_backend

        scenario = small_scenario(0, num_requests=4)
        mappings = dict(scenario.node_mappings)
        mappings["R01"] = {v: "no-such-node" for v in mappings["R01"]}
        calls: list[int] = []

        def counting(model, **kwargs):
            calls.append(1)
            return get_backend("highs")(model, **kwargs)

        with pytest.raises(ModelingError, match="R01"):
            greedy_csigma(
                scenario.substrate, scenario.requests, mappings, backend=counting
            )
        # only the requests ordered before R01 were solved
        bad_start = next(
            r.earliest_start for r in scenario.requests if r.name == "R01"
        )
        earlier = [r for r in scenario.requests if r.earliest_start < bad_start]
        assert earlier
        assert len(calls) == len(earlier)
