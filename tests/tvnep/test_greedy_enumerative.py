"""Tests of the greedy's admission loop (Sec. V's polynomiality argument).

``greedy_enumerative`` is an alias of ``greedy_csigma``; both names are
exercised here.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network import Request, SubstrateNetwork, TemporalSpec, VirtualNetwork
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.tvnep import (
    fixed_schedule,
    greedy_csigma,
    greedy_enumerative,
    verify_solution,
)
from repro.workloads import paper_scenario, small_scenario

from .reference_greedy import assert_matches_reference
from .reference_mip_greedy import assert_matches_mip_greedy


def unit_request(name, t_s, t_e, d, demand=1.0):
    v = VirtualNetwork(name)
    v.add_node("v", demand)
    return Request(v, TemporalSpec(t_s, t_e, d))


def one_node(cap=1.0):
    sub = SubstrateNetwork()
    sub.add_node("s", cap)
    return sub


def unit_mappings(requests):
    return {r.name: {"v": "s"} for r in requests}


class TestBasics:
    def test_accepts_and_serializes(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2), unit_request("B", 0, 4, 2)]
        result = greedy_enumerative(sub, reqs, unit_mappings(reqs))
        assert result.solution.num_embedded == 2
        assert verify_solution(result.solution).feasible

    def test_earliest_start_chosen(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 10, 2)]
        result = greedy_enumerative(sub, reqs, unit_mappings(reqs))
        assert result.solution["A"].start == pytest.approx(0.0)

    def test_start_at_accepted_end(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 2, 2), unit_request("B", 0, 6, 2)]
        result = greedy_enumerative(sub, reqs, unit_mappings(reqs))
        assert result.solution["B"].start == pytest.approx(2.0)

    def test_reject_when_no_candidate_fits(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 2, 2), unit_request("B", 0, 2, 2)]
        result = greedy_enumerative(sub, reqs, unit_mappings(reqs))
        assert result.solution.num_embedded == 1

    def test_missing_mapping_rejected(self):
        from repro.exceptions import SolverError

        sub = one_node()
        with pytest.raises(SolverError):
            greedy_enumerative(sub, [unit_request("A", 0, 4, 2)], {})

    def test_polynomial_iteration_count(self):
        """Each request triggers at most |accepted|+1 LP solves.

        A request tries at most |accepted|+1 candidate starts, and a
        candidate costs at most two LPs (residual, then joint); here the
        path search admits every request, so only the final LP is left.
        """
        sub = one_node(cap=10.0)
        reqs = [unit_request(f"R{i}", 0, 20, 1) for i in range(6)]
        with mock.patch.object(
            fixed_schedule, "solve_highs", wraps=fixed_schedule.solve_highs
        ) as lp:
            result = greedy_enumerative(sub, reqs, unit_mappings(reqs))
        assert result.solution.num_embedded == 6
        assert len(result.iteration_runtimes) == 6
        assert lp.call_count <= 1 + sum(2 * (accepted + 1) for accepted in range(6))
        assert lp.call_count == 1

    def test_runtime_includes_final_lp(self):
        sub = one_node(cap=10.0)
        reqs = [unit_request(f"R{i}", 0, 20, 1) for i in range(3)]
        result = greedy_enumerative(sub, reqs, unit_mappings(reqs))
        assert result.solution.runtime > sum(result.iteration_runtimes)

    def test_failed_final_lp_raises(self):
        from repro.exceptions import SolverError
        from repro.tvnep.fixed_schedule import FixedScheduleResult

        sub = one_node()
        reqs = [unit_request("A", 0, 4, 2)]
        infeasible = FixedScheduleResult(feasible=False, link_flows={}, reason="x")
        with mock.patch.object(
            fixed_schedule, "solve_fixed_schedule", return_value=infeasible
        ):
            with pytest.raises(SolverError, match="final link-embedding LP"):
                greedy_enumerative(sub, reqs, unit_mappings(reqs))

    def test_counters(self):
        sub = one_node()
        reqs = [unit_request("A", 0, 2, 2), unit_request("B", 0, 2, 2)]
        registry = MetricsRegistry()
        with use_registry(registry):
            greedy_enumerative(sub, reqs, unit_mappings(reqs))
        assert registry.counter("greedy.iterations") == 2
        assert registry.counter("greedy.accepted") == 1
        assert registry.counter("greedy.rejected") == 1
        # B fails the node check, which solves nothing
        assert registry.counter("fixed_schedule.path_accepts") == 1
        assert registry.counter("fixed_schedule.joint_lps") == 0



class TestAgreementWithMipGreedy:
    """Same decisions as the paper's per-iteration MIP (``reference_mip_greedy``)."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("flexibility", [0.0, 1.0])
    def test_same_acceptance_on_scenarios(self, seed, flexibility):
        args = _small(seed, flexibility, num_requests=4)
        result = greedy_csigma(*args)
        assert_matches_mip_greedy(result, *args, presolve=False)
        assert verify_solution(result.solution).feasible


#: ``(seed, flexibility h) -> (objective, accepted order, start per accepted
#: request)`` of the enumerative greedy on ``paper_scenario(seed)``,
#: recorded from the ``Model``-compiled fixed-schedule LP
PAPER_PINS = {
    (0, 0.0): (
        335.68075983964616,
        {
            "R00": 0.6799319, "R01": 1.699529, "R04": 2.2719479,
            "R07": 5.3307726, "R08": 8.1475586, "R09": 14.2053117,
            "R10": 17.4917399, "R11": 17.4930277, "R13": 19.83462,
            "R14": 20.9040203, "R16": 24.902862, "R17": 25.2568721,
        },
    ),
    (0, 2.0): (
        365.9973800811426,
        {
            "R00": 0.6799319, "R01": 1.699529, "R02": 3.1710225,
            "R04": 2.2719479, "R07": 5.3307726, "R08": 8.1475586,
            "R09": 14.2053117, "R10": 17.4917399, "R11": 17.4930277,
            "R13": 19.83462, "R14": 20.9040203, "R16": 24.902862,
            "R17": 25.2568721,
        },
    ),
    (0, 4.0): (
        418.9488173827751,
        {
            "R00": 0.6799319, "R01": 1.699529, "R02": 3.1710225,
            "R04": 2.2719479, "R05": 7.5447892, "R07": 5.3307726,
            "R08": 10.1174768, "R09": 15.3713723, "R10": 17.6463115,
            "R11": 17.4930277, "R13": 19.83462, "R14": 20.9040203,
            "R15": 25.0003059, "R16": 24.902862, "R17": 25.2568721,
        },
    ),
    (1, 0.0): (
        295.7559484995671,
        {
            "R00": 1.073029, "R03": 7.1233462, "R05": 9.0385053,
            "R06": 9.5371444, "R11": 12.1544061, "R13": 14.0402374,
            "R16": 15.8781575, "R17": 16.3405215, "R19": 19.6782859,
        },
    ),
    (1, 2.0): (
        393.4981765498623,
        {
            "R00": 1.073029, "R03": 7.1233462, "R05": 9.0385053,
            "R06": 9.5371444, "R08": 11.3314833, "R09": 11.3314833,
            "R10": 12.8236664, "R12": 14.3283167, "R14": 14.8264929,
            "R16": 15.8781575, "R17": 16.5907658, "R19": 19.6782859,
        },
    ),
    (1, 4.0): (
        454.3239831780206,
        {
            "R00": 1.073029, "R01": 5.2958515, "R03": 7.1233462,
            "R05": 9.0385053, "R06": 9.5371444, "R08": 11.3314833,
            "R09": 11.3314833, "R10": 12.8236664, "R12": 14.3283167,
            "R14": 14.8264929, "R16": 15.8781575, "R17": 16.5907658,
            "R18": 19.1204925, "R19": 23.3227558,
        },
    ),
}


def _paper(seed, flexibility):
    scenario = paper_scenario(seed).with_flexibility(flexibility)
    return scenario.substrate, scenario.requests, scenario.node_mappings


class TestPaperScale:
    """Link-bearing LPs at the paper's scale (20 stars on the 4x5 grid)."""

    @pytest.mark.parametrize("seed, flexibility", list(PAPER_PINS))
    def test_outcome_pinned(self, seed, flexibility):
        objective, starts = PAPER_PINS[(seed, flexibility)]
        substrate, requests, mappings = _paper(seed, flexibility)
        result = greedy_enumerative(substrate, requests, mappings)
        solution = result.solution
        # accepted in processing order, i.e. by (earliest start, name)
        assert result.accepted_order == list(starts)
        assert sorted(solution.rejected_names()) == sorted(
            {r.name for r in requests} - set(starts)
        )
        for name, start in starts.items():
            assert solution[name].start == pytest.approx(start, abs=1e-6)
        assert solution.objective == pytest.approx(objective, rel=1e-12)
        assert verify_solution(solution).feasible

    def test_accepts_r19_on_seed_22_at_4h(self):
        """A cell where the MIP loop with HiGHS presolve on rejects R19."""
        solution = greedy_enumerative(*_paper(22, 4.0)).solution
        assert solution["R19"].embedded
        assert solution.objective == pytest.approx(420.067, abs=1e-3)
        assert verify_solution(solution).feasible


def _small(seed, flexibility, **kwargs):
    scenario = small_scenario(seed, **kwargs).with_flexibility(flexibility)
    return scenario.substrate, scenario.requests, scenario.node_mappings


#: ``(seed, flexibility)`` of ``small_scenario(seed, link_capacity=1.5)``
#: grid instances tight enough that every admission step decides
TIGHT_LINKS = ((0, 2.0), (4, 1.0), (2, 1.0))


class TestMatchesReference:
    """Bit-identical to the one-LP-per-candidate loop of ``reference_greedy``."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("flexibility", [0.0, 1.0])
    def test_small_scenarios(self, seed, flexibility):
        args = _small(seed, flexibility)
        assert_matches_reference(greedy_enumerative(*args), *args)

    def test_tight_links_exercise_every_step(self):
        registry = MetricsRegistry()
        for seed, flexibility in TIGHT_LINKS:
            args = _small(seed, flexibility, link_capacity=1.5)
            with use_registry(registry):
                result = greedy_enumerative(*args)
            assert_matches_reference(result, *args)
        path = registry.counter("fixed_schedule.path_accepts")
        residual = registry.counter("fixed_schedule.residual_lp_accepts")
        joint_lps = registry.counter("fixed_schedule.joint_lps")
        joint_accepts = registry.counter("greedy.accepted") - path - residual
        assert path >= 1
        assert residual >= 1
        assert joint_accepts >= 1
        assert joint_lps - joint_accepts >= 1  # a joint LP rejected


@pytest.mark.slow
@pytest.mark.parametrize("flexibility", [0.0, 2.0, 4.0])
@pytest.mark.parametrize("seed", range(24))
def test_matches_reference_on_paper_instances(seed, flexibility):
    args = _paper(seed, flexibility)
    assert_matches_reference(greedy_enumerative(*args), *args)


@pytest.mark.slow
@pytest.mark.parametrize("flexibility", [0.0, 2.0, 4.0])
@pytest.mark.parametrize("seed", range(24))
def test_matches_mip_spec_on_paper_instances(seed, flexibility):
    args = _paper(seed, flexibility)
    assert_matches_mip_greedy(greedy_csigma(*args), *args, presolve=False)


@pytest.mark.parametrize("seed", [22, 20])
def test_matches_mip_spec_at_paper_scale(seed):
    """The two paper cells the MIP loop decides wrongly with presolve on."""
    args = _paper(seed, 4.0)
    result = greedy_csigma(*args)
    assert_matches_mip_greedy(result, *args, presolve=False)
    solution = result.solution
    if seed == 22:
        assert solution["R19"].embedded
        assert solution.objective == pytest.approx(420.067, abs=1e-3)
    else:
        assert solution["R15"].start == pytest.approx(10.2095, abs=5e-5)


@st.composite
def instance(draw):
    count = draw(st.integers(2, 5))
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
@given(instance())
def test_enumerative_matches_mip_greedy(params):
    cap, reqs = params
    sub = one_node(cap)
    mappings = unit_mappings(reqs)
    result = greedy_csigma(sub, reqs, mappings)
    assert_matches_mip_greedy(result, sub, reqs, mappings, backend="bnb")
    assert verify_solution(result.solution).feasible
