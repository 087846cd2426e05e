"""Tests of the heavy-hitters hybrid (the paper's Sec. VIII sketch)."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelingError, SolverError, ValidationError
from repro.network import Request, SubstrateNetwork, TemporalSpec, VirtualNetwork
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.tvnep import CSigmaModel, verify_solution
from repro.tvnep.hybrid import hybrid_heavy_hitters
from repro.workloads import small_scenario

from .test_greedy import assert_outcome


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


class TestSplit:
    def test_revenue_split(self):
        sub = one_node(cap=10.0)
        reqs = [
            unit_request("big", 0, 10, 5, demand=2.0),     # revenue 10
            unit_request("mid", 0, 10, 3, demand=1.0),     # revenue 3
            unit_request("tiny", 0, 10, 1, demand=0.5),    # revenue 0.5
        ]
        result = hybrid_heavy_hitters(
            sub, reqs, unit_mappings(reqs), heavy_fraction=0.34
        )
        assert result.heavy_names == ["big"]
        assert set(result.small_names) == {"mid", "tiny"}

    def test_at_least_one_heavy(self):
        sub = one_node(cap=10.0)
        reqs = [unit_request("a", 0, 10, 1), unit_request("b", 0, 10, 1)]
        result = hybrid_heavy_hitters(
            sub, reqs, unit_mappings(reqs), heavy_fraction=0.0
        )
        assert len(result.heavy_names) == 1

    def test_all_heavy_equals_exact(self):
        sub = one_node()
        reqs = [unit_request("a", 0, 4, 2), unit_request("b", 0, 4, 2)]
        mappings = unit_mappings(reqs)
        result = hybrid_heavy_hitters(sub, reqs, mappings, heavy_fraction=1.0)
        exact = CSigmaModel(sub, reqs, fixed_mappings=mappings).solve()
        assert result.solution.objective == pytest.approx(exact.objective)
        assert result.small_names == []

    def test_bad_fraction_rejected(self):
        sub = one_node()
        reqs = [unit_request("a", 0, 4, 2)]
        with pytest.raises(ValidationError):
            hybrid_heavy_hitters(sub, reqs, unit_mappings(reqs), heavy_fraction=1.5)

    def test_missing_mapping_rejected(self):
        sub = one_node()
        with pytest.raises(SolverError):
            hybrid_heavy_hitters(sub, [unit_request("a", 0, 4, 2)], {})


class TestErrorsSurface:
    def test_unbuildable_embedding_raises_before_further_solves(self):
        scenario = small_scenario(0, num_requests=4)
        # R01 carries the most revenue and is the one heavy-hitter, so
        # break the small request R02 (small order: R00, R02, R03)
        mappings = dict(scenario.node_mappings)
        mappings["R02"] = {v: "no-such-node" for v in mappings["R02"]}
        registry = MetricsRegistry()
        with use_registry(registry), pytest.raises(ModelingError, match="R02"):
            hybrid_heavy_hitters(
                scenario.substrate,
                scenario.requests,
                mappings,
                heavy_fraction=0.25,
            )
        # R00 was decided; the insertions stopped at R02
        assert registry.counter("hybrid.insertions") == 2
        decided = registry.counter("hybrid.accepted") + registry.counter(
            "hybrid.rejected"
        )
        assert decided == 1

    def test_exact_placements_that_do_not_fit_raise(self):
        from unittest import mock

        from repro.tvnep import ScheduledRequest, TemporalSolution

        sub = one_node()
        reqs = [unit_request("a", 0, 4, 2), unit_request("b", 0, 4, 2)]
        # an exact phase that claims both at once on a unit-capacity node
        overlapping = TemporalSolution(
            sub,
            {
                r.name: ScheduledRequest(r, True, 0.0, 2.0, {"v": "s"})
                for r in reqs
            },
        )
        with mock.patch.object(CSigmaModel, "solve", return_value=overlapping):
            with pytest.raises(SolverError, match="does not fit"):
                hybrid_heavy_hitters(sub, reqs, unit_mappings(reqs), heavy_fraction=1.0)


class TestQuality:
    def test_heavy_hitter_prioritized_over_greedy_order(self):
        """Greedy (earliest-start order) grabs the early small request
        and blocks the lucrative late one; the hybrid reserves the
        heavy-hitter first."""
        from repro.tvnep import greedy_csigma

        sub = one_node(cap=1.0)
        reqs = [
            unit_request("small-early", 0, 3, 3, demand=1.0),   # revenue 3
            unit_request("heavy-late", 1, 4, 3, demand=1.0),    # revenue 3... make heavier
        ]
        # make the late one clearly heavier
        reqs[1] = unit_request("heavy-late", 1, 4, 3, demand=2.0)  # revenue 6
        mappings = unit_mappings(reqs)
        # demand 2 > capacity 1: heavy can't embed; adjust capacity
        sub = one_node(cap=2.0)
        greedy = greedy_csigma(sub, reqs, mappings)
        hybrid = hybrid_heavy_hitters(sub, reqs, mappings, heavy_fraction=0.5)
        # greedy accepts small-early (start 0..3) then cannot fit heavy
        # (needs [1,4] with demand 2, capacity left 1): revenue 3
        assert greedy.solution.objective == pytest.approx(3.0)
        # hybrid solves heavy exactly first: revenue 6
        assert hybrid.solution.objective == pytest.approx(6.0)
        assert verify_solution(hybrid.solution).feasible

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bounded_by_exact_and_feasible(self, seed):
        scenario = small_scenario(seed, num_requests=5).with_flexibility(1.0)
        exact = CSigmaModel(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
        ).solve(time_limit=60)
        result = hybrid_heavy_hitters(
            scenario.substrate,
            scenario.requests,
            scenario.node_mappings,
            heavy_fraction=0.4,
        )
        assert verify_solution(result.solution).feasible
        assert result.solution.objective <= exact.objective + 1e-5
        assert result.exact_runtime > 0
        assert len(result.greedy_runtimes) == len(result.small_names)


@st.composite
def hybrid_instance(draw):
    count = draw(st.integers(2, 5))
    cap = draw(st.sampled_from([1.0, 2.0]))
    fraction = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))
    reqs = []
    for i in range(count):
        start = draw(st.integers(0, 3)) * 1.0
        duration = draw(st.integers(1, 3)) * 1.0
        flexibility = draw(st.integers(0, 3)) * 1.0
        demand = draw(st.sampled_from([0.5, 1.0]))
        reqs.append(
            unit_request(f"R{i}", start, start + duration + flexibility, duration, demand)
        )
    return cap, fraction, reqs


class TestGlobalBudget:
    def test_expired_budget_still_yields_feasible_solution(self):
        from repro.runtime import SolveBudget

        sub = one_node(cap=2.0)
        reqs = [unit_request(n, 0, 8, 2) for n in "ABCD"]
        now = [0.0]
        budget = SolveBudget(10.0, clock=lambda: now[0])
        now[0] = 20.0

        result = hybrid_heavy_hitters(
            sub, reqs, unit_mappings(reqs), budget=budget
        )
        # all insertions were skipped, but the result is still complete
        assert len(result.solution.scheduled) == 4
        assert verify_solution(result.solution).feasible

    def test_budget_bounds_both_phases(self):
        from repro.runtime import SolveBudget

        sub = one_node(cap=2.0)
        reqs = [unit_request(n, 0, 8, 2) for n in "ABCD"]
        budget = SolveBudget(120.0, clock=lambda: 0.0)
        result = hybrid_heavy_hitters(
            sub, reqs, unit_mappings(reqs), budget=budget
        )
        assert verify_solution(result.solution).feasible
        assert result.solution.num_embedded == 4


#: all heavy; the exact times of this solution meet back to back only up
#: to solver noise, which the seeded admission must not read as overlap
BACK_TO_BACK = (
    1.0,
    1.0,
    [
        unit_request("R0", 1, 2, 1, 1.0),
        unit_request("R1", 1, 4, 1, 1.0),
        unit_request("R2", 0, 5, 2, 0.5),
    ],
)


@settings(max_examples=10, deadline=None)
@given(hybrid_instance())
@example(BACK_TO_BACK)
def test_hybrid_always_feasible_and_bounded(params):
    cap, fraction, reqs = params
    sub = one_node(cap)
    mappings = unit_mappings(reqs)
    result = hybrid_heavy_hitters(sub, reqs, mappings, heavy_fraction=fraction)
    assert verify_solution(result.solution).feasible
    exact = CSigmaModel(sub, reqs, fixed_mappings=mappings).solve(time_limit=60)
    assert result.solution.objective <= exact.objective + 1e-5


#: Outcome of the historical per-insertion MIP loop, which the admission
#: loop matches exactly: ``(request order in the solution, objective,
#: {name: (embedded, start, end)})``, the order being the heavy-hitters
#: by revenue, then the small requests by earliest start.
HYBRID_OUTCOME = (
    ["R05", "R02", "R00", "R01", "R03", "R04"],
    35.717252994116436,
    {
        "R05": (True, 5.7006900823925655, 9.360000665545275),
        "R02": (True, 1.8992126443709818, 3.900173980287982),
        "R00": (True, 0.11001481267803959, 1.428417655614922),
        "R01": (True, 0.4996716862517435, 1.140275370404153),
        "R03": (True, 4.099360740152362, 4.614367689170664),
        "R04": (False, 4.4428545593206845, 5.786372899731656),
    },
)


class TestPinnedOutcomes:
    def test_hybrid_reproduces_pinned_outcome(self):
        scenario = small_scenario(3, num_requests=6).with_flexibility(1.0)
        result = hybrid_heavy_hitters(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
            heavy_fraction=0.34,
        )
        assert_outcome(
            list(result.solution.scheduled), result.solution, HYBRID_OUTCOME
        )
