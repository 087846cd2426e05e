"""Tests of the greedy algorithm cSigma^G_A (Sec. V)."""

from __future__ import annotations

from unittest import mock

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
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.tvnep import CSigmaModel, fixed_schedule, greedy_csigma, verify_solution
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
        """Requests left when the budget runs out are rejected untested,
        and the final solution still covers every request."""
        from repro.workloads import small_scenario

        scenario = small_scenario(0, num_requests=5).with_flexibility(2.0)
        result = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            scenario.node_mappings,
            time_limit=1e-4,
        )
        assert len(result.solution.scheduled) == 5
        assert verify_solution(result.solution).feasible


class TestGlobalBudget:
    def test_expired_budget_rejects_without_solving_iterations(self):
        from repro.runtime import SolveBudget

        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2), unit_request("B", 0, 4, 2)]
        now = [0.0]
        budget = SolveBudget(10.0, clock=lambda: now[0])
        now[0] = 20.0  # already past the deadline

        registry = MetricsRegistry()
        with use_registry(registry), mock.patch.object(
            fixed_schedule, "solve_highs", wraps=fixed_schedule.solve_highs
        ) as lp:
            result = greedy_csigma(sub, reqs, unit_mappings(reqs), budget=budget)
        # every request was rejected untested, so nothing was solved
        assert lp.call_count == 0
        assert registry.counter("fixed_schedule.path_accepts") == 0
        assert registry.counter("greedy.rejected") == 2
        assert result.iteration_runtimes == [0.0, 0.0]
        assert result.solution.num_embedded == 0
        assert len(result.solution.scheduled) == 2
        assert verify_solution(result.solution).feasible

    def test_time_limit_builds_a_budget(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2)]
        result = greedy_csigma(sub, reqs, unit_mappings(reqs), time_limit=60.0)
        assert result.solution.num_embedded == 1
        assert verify_solution(result.solution).feasible


class TestErrorsSurface:
    def test_unbuildable_embedding_raises_before_further_solves(self):
        scenario = small_scenario(0, num_requests=4)
        mappings = dict(scenario.node_mappings)
        mappings["R01"] = {v: "no-such-node" for v in mappings["R01"]}
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(ModelingError, match="R01"):
            greedy_csigma(scenario.substrate, scenario.requests, mappings)
        # the loop stopped at R01: only the requests ordered before it
        # were decided
        bad_start = next(
            r.earliest_start for r in scenario.requests if r.name == "R01"
        )
        earlier = [r for r in scenario.requests if r.earliest_start < bad_start]
        assert earlier
        assert registry.counter("greedy.iterations") == len(earlier) + 1
        decided = registry.counter("greedy.accepted") + registry.counter(
            "greedy.rejected"
        )
        assert decided == len(earlier)

    def test_lp_failure_propagates(self):
        scenario = small_scenario(0, num_requests=3).with_flexibility(1.0)
        with mock.patch.object(
            fixed_schedule, "solve_highs", side_effect=SolverError("LP died")
        ):
            with pytest.raises(SolverError, match="LP died"):
                greedy_csigma(
                    scenario.substrate, scenario.requests, scenario.node_mappings
                )


#: Outcomes of the historical fresh-model-per-iteration MIP loop, which
#: the admission loop matches exactly: ``(accepted order, objective,
#: {name: (embedded, start, end)})``.
GREEDY_OUTCOMES = {
    0: (
        ["R00", "R01", "R03"],
        30.31637090810265,
        {
            "R00": (True, 0.6799319039689098, 3.233314315327134),
            "R01": (True, 1.6995290054347743, 3.340970996693962),
            "R02": (False, 1.7193356680238296, 3.4574971770043863),
            "R03": (True, 1.7216049947050576, 5.07826165219967),
            "R04": (False, 2.271947867344106, 7.194448484080511),
        },
    ),
    1: (
        ["R00", "R01", "R02", "R03", "R04"],
        34.53731148284954,
        {
            "R00": (True, 1.0730290263725388, 3.7561593516871983),
            "R01": (True, 1.381482170497823, 2.7937698152139396),
            "R02": (True, 6.756919043105951, 8.242074087973263),
            "R03": (True, 7.123346156005781, 7.468097904150883),
            "R04": (True, 7.238708195112585, 8.98692617914278),
        },
    ),
    2: (
        ["R00", "R02", "R03", "R04"],
        27.40270637601431,
        {
            "R00": (True, 0.1298611360039863, 2.4448326197698873),
            "R01": (False, 0.34864400252205674, 1.3438621491792238),
            "R02": (True, 0.8621229959064691, 1.6975555099900457),
            "R03": (True, 1.5696107998980777, 2.9917921675068486),
            "R04": (True, 2.7827652247077204, 4.299566623684647),
        },
    ),
}
#: the same MIP loop run on the ``bnb`` backend
BNB_GREEDY_OUTCOME = (
    ["R01", "R02"],
    19.088357624109307,
    {
        "R00": (False, 0.6799319039689096, 2.1636338587280832),
        "R01": (True, 1.6995290054347745, 4.252911416792999),
        "R02": (True, 1.71933566802383, 3.360777659283018),
        "R03": (False, 1.7216049947050578, 3.4597665036856142),
    },
)


def assert_outcome(order, solution, expected) -> None:
    expected_order, expected_objective, expected_schedules = expected
    assert order == expected_order
    assert solution.objective == pytest.approx(expected_objective, abs=1e-6)
    assert set(solution.scheduled) == set(expected_schedules)
    for name, (embedded, start, end) in expected_schedules.items():
        sched = solution.scheduled[name]
        assert sched.embedded is embedded, name
        assert sched.start == pytest.approx(start, abs=1e-6), name
        assert sched.end == pytest.approx(end, abs=1e-6), name


class TestPinnedOutcomes:
    """End-to-end: the admission loop reproduces the pinned outcomes."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_greedy_reproduces_pinned_outcome(self, seed):
        scenario = small_scenario(seed, num_requests=5).with_flexibility(1.0)
        result = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
        )
        assert_outcome(result.accepted_order, result.solution, GREEDY_OUTCOMES[seed])

    def test_greedy_reproduces_bnb_pinned_outcome(self):
        scenario = small_scenario(0, num_requests=4).with_flexibility(1.0)
        result = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
        )
        assert_outcome(result.accepted_order, result.solution, BNB_GREEDY_OUTCOME)
