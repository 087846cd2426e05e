"""Tests of the paper's workload scenario generator."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.workloads import (
    PAPER_FLEXIBILITIES,
    Scenario,
    paper_scenario,
    small_scenario,
)


class TestPaperScenario:
    def test_paper_parameters(self):
        sc = paper_scenario(0)
        assert sc.substrate.num_nodes == 20
        assert sc.substrate.num_links == 62
        assert sc.num_requests == 20
        for request in sc.requests:
            assert request.vnet.num_nodes == 5
            assert request.vnet.num_links == 4
            assert request.flexibility == pytest.approx(0.0, abs=1e-9)
            for v in request.vnet.nodes:
                assert 1.0 <= request.vnet.node_demand(v) <= 2.0
            for lv in request.vnet.links:
                assert 1.0 <= request.vnet.link_demand(lv) <= 2.0

    def test_mappings_complete(self):
        sc = paper_scenario(1)
        for request in sc.requests:
            mapping = sc.node_mappings[request.name]
            assert set(mapping) == set(request.vnet.nodes)
            assert all(sc.substrate.has_node(host) for host in mapping.values())

    def test_seeds_differ(self):
        a, b = paper_scenario(0), paper_scenario(1)
        assert a.requests[0].duration != b.requests[0].duration

    def test_reproducible(self):
        a, b = paper_scenario(5), paper_scenario(5)
        assert [r.duration for r in a.requests] == [r.duration for r in b.requests]
        assert a.node_mappings == b.node_mappings

    def test_both_star_directions_occur(self):
        sc = paper_scenario(0)
        directions = set()
        for request in sc.requests:
            link = request.vnet.links[0]
            directions.add("from" if link[0] == "center" else "to")
        assert directions == {"from", "to"}


class TestFlexibility:
    def test_with_flexibility_widens_windows(self):
        sc = paper_scenario(0)
        widened = sc.with_flexibility(2.0)
        for base, wide in zip(sc.requests, widened.requests):
            assert wide.flexibility == pytest.approx(2.0, abs=1e-9)
            assert wide.earliest_start == base.earliest_start
            assert wide.duration == base.duration

    def test_negative_flexibility_rejected(self):
        with pytest.raises(ValidationError):
            paper_scenario(0).with_flexibility(-1.0)

    def test_sweep_levels(self):
        assert len(PAPER_FLEXIBILITIES) == 11
        assert PAPER_FLEXIBILITIES[0] == 0.0
        assert PAPER_FLEXIBILITIES[-1] == pytest.approx(5.0)  # 300 minutes
        base = small_scenario(0)
        sweep = [base.with_flexibility(f) for f in PAPER_FLEXIBILITIES]
        assert len(sweep) == 11
        assert sweep[3].metadata["flexibility"] == pytest.approx(1.5)


class TestSmallScenario:
    def test_shape(self):
        sc = small_scenario(0)
        assert sc.num_requests == 6
        assert sc.substrate.num_nodes == 9
        for request in sc.requests:
            assert request.vnet.num_nodes == 3

    def test_custom_size(self):
        sc = small_scenario(0, num_requests=3, leaves=1, grid=(2, 2))
        assert sc.num_requests == 3
        assert sc.substrate.num_nodes == 4

    def test_horizon_and_demand(self):
        sc = small_scenario(0)
        assert sc.horizon() == max(r.latest_end for r in sc.requests)
        assert sc.total_demand() == pytest.approx(
            sum(r.revenue() for r in sc.requests)
        )


class TestSubset:
    def test_subset_keeps_order_and_mappings(self):
        sc = small_scenario(0)
        names = [sc.requests[2].name, sc.requests[0].name]
        sub = sc.subset(names)
        assert [r.name for r in sub.requests] == [
            sc.requests[0].name,
            sc.requests[2].name,
        ]
        assert set(sub.node_mappings) == set(names)

    def test_subset_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            small_scenario(0).subset(["ZZZ"])


class TestValidation:
    def test_missing_mapping_rejected(self):
        sc = small_scenario(0)
        with pytest.raises(ValidationError):
            Scenario(
                substrate=sc.substrate,
                requests=sc.requests,
                node_mappings={},
            )

    def test_duplicate_names_rejected(self):
        sc = small_scenario(0)
        with pytest.raises(ValidationError):
            Scenario(
                substrate=sc.substrate,
                requests=[sc.requests[0], sc.requests[0]],
                node_mappings=sc.node_mappings,
            )


class TestWanScenario:
    def test_structure(self):
        from repro.workloads import wan_scenario

        sc = wan_scenario(0, num_sites=5, num_transfers=4)
        assert sc.substrate.num_nodes == 5
        assert sc.num_requests == 4
        for request in sc.requests:
            assert request.vnet.num_nodes == 2
            assert request.vnet.num_links == 1
            mapping = sc.node_mappings[request.name]
            assert set(mapping) == {"n0", "n1"}

    def test_solvable_and_feasible(self):
        from repro.tvnep import CSigmaModel, verify_solution
        from repro.workloads import wan_scenario

        sc = wan_scenario(2).with_flexibility(1.0)
        solution = CSigmaModel(
            sc.substrate, sc.requests, fixed_mappings=sc.node_mappings
        ).solve(time_limit=60)
        assert verify_solution(solution).feasible

    def test_reproducible(self):
        from repro.workloads import wan_scenario

        a, b = wan_scenario(3), wan_scenario(3)
        assert a.node_mappings == b.node_mappings
        assert [r.duration for r in a.requests] == [r.duration for r in b.requests]
