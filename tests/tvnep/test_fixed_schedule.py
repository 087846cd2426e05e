"""Tests of the fixed-schedule link-embedding LP.

Every instance that reaches the LP is a module-level builder listed in
:data:`INSTANCES`; ``test_golden_forms.py`` pins the compiled arrays of
each one.
"""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.network import Request, SubstrateNetwork, TemporalSpec, line_substrate
from repro.network.topologies import chain, star
from repro.temporal import Interval
from repro.tvnep import FixedPlacement, solve_fixed_schedule
from repro.tvnep.fixed_schedule import unroutable_groups


def star_request(name, leaves=1, node_demand=1.0, link_demand=1.0):
    return Request(
        star(name, leaves=leaves, node_demand=node_demand, link_demand=link_demand),
        TemporalSpec(0, 100, 1),
    )


def chain_request(name, link_demand=1.0):
    return Request(
        chain(name, length=2, node_demand=0.5, link_demand=link_demand),
        TemporalSpec(0, 100, 1),
    )


# ---------------------------------------------------------------------------
# instances: () -> (substrate, placements)
# ---------------------------------------------------------------------------
def disjoint_in_time():
    sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(star_request("A"), {"center": "s0", "leaf0": "s0"}, Interval(0, 2)),
        FixedPlacement(star_request("B"), {"center": "s0", "leaf0": "s0"}, Interval(2, 4)),
    ]


def node_overload():
    sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(star_request("A"), {"center": "s0", "leaf0": "s0"}, Interval(0, 2)),
        FixedPlacement(star_request("B"), {"center": "s0", "leaf0": "s0"}, Interval(1, 3)),
    ]


def flows_returned():
    sub = line_substrate(3, node_capacity=1.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(chain_request("A"), {"n0": "s0", "n1": "s2"}, Interval(0, 2))
    ]


def link_contention():
    sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(chain_request("A"), {"n0": "s0", "n1": "s1"}, Interval(0, 2)),
        FixedPlacement(chain_request("B"), {"n0": "s0", "n1": "s1"}, Interval(1, 3)),
    ]


def contention_resolved_by_time():
    sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(chain_request("A"), {"n0": "s0", "n1": "s1"}, Interval(0, 2)),
        FixedPlacement(chain_request("B"), {"n0": "s0", "n1": "s1"}, Interval(2, 4)),
    ]


def splittable_routing():
    # two parallel 0.6-capacity paths, demand 1.0 -> must split
    sub = SubstrateNetwork()
    for n in ("a", "b", "c", "d"):
        sub.add_node(n, 2.0)
    sub.add_link("a", "b", 0.6)
    sub.add_link("b", "d", 0.6)
    sub.add_link("a", "c", 0.6)
    sub.add_link("c", "d", 0.6)
    return sub, [
        FixedPlacement(chain_request("A"), {"n0": "a", "n1": "d"}, Interval(0, 2))
    ]


def colocated():
    sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(chain_request("A"), {"n0": "s0", "n1": "s0"}, Interval(0, 2))
    ]


def empty_placements():
    return line_substrate(2, 1.0, 1.0), []


def degenerate_interval():
    sub = line_substrate(2, node_capacity=0.5, link_capacity=1.0)
    return sub, [
        FixedPlacement(
            star_request("A"), {"center": "s0", "leaf0": "s0"}, Interval(1, 1)
        )
    ]


def touching_intervals():
    sub = line_substrate(2, node_capacity=1.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(
            star_request("A", node_demand=0.5),
            {"center": "s0", "leaf0": "s1"},
            Interval(0, 2),
        ),
        FixedPlacement(
            star_request("B", node_demand=0.5),
            {"center": "s0", "leaf0": "s1"},
            Interval(2, 4),
        ),
    ]


def zero_demand_link():
    # a demand-free virtual link routes but adds no capacity row
    sub = line_substrate(3, node_capacity=2.0, link_capacity=1.0)
    return sub, [
        FixedPlacement(
            chain_request("A", link_demand=0.0), {"n0": "s0", "n1": "s2"}, Interval(0, 2)
        ),
        FixedPlacement(chain_request("B"), {"n0": "s2", "n1": "s0"}, Interval(1, 3)),
    ]


INSTANCES = {
    builder.__name__: builder
    for builder in (
        disjoint_in_time,
        node_overload,
        flows_returned,
        link_contention,
        contention_resolved_by_time,
        splittable_routing,
        colocated,
        empty_placements,
        degenerate_interval,
        touching_intervals,
        zero_demand_link,
    )
}


def solve(builder):
    return solve_fixed_schedule(*builder())


class TestNodeFeasibility:
    def test_disjoint_in_time_ok(self):
        assert solve(disjoint_in_time).feasible

    def test_node_overload_detected(self):
        result = solve(node_overload)
        assert not result.feasible
        assert "node" in result.reason

    def test_missing_mapping_rejected(self):
        sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
        with pytest.raises(ValidationError):
            solve_fixed_schedule(
                sub,
                [FixedPlacement(star_request("A"), {"center": "s0"}, Interval(0, 2))],
            )

    def test_unknown_host_rejected(self):
        sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
        placement = FixedPlacement(
            chain_request("A"), {"n0": "s0", "n1": "nowhere"}, Interval(0, 2)
        )
        with pytest.raises(ValidationError, match="unknown substrate node"):
            solve_fixed_schedule(sub, [placement])


class TestLinkFeasibility:
    def test_flows_returned(self):
        result = solve(flows_returned)
        assert result.feasible
        flows = result.link_flows["A"][("n0", "n1")]
        assert flows[("s0", "s1")] == pytest.approx(1.0)
        assert flows[("s1", "s2")] == pytest.approx(1.0)

    def test_link_contention_infeasible(self):
        result = solve(link_contention)
        assert not result.feasible
        assert "LP infeasible" in result.reason

    def test_link_contention_resolved_by_time(self):
        assert solve(contention_resolved_by_time).feasible

    def test_splittable_routing_used(self):
        result = solve(splittable_routing)
        assert result.feasible
        flows = result.link_flows["A"][("n0", "n1")]
        assert sum(f for ls, f in flows.items() if ls[0] == "a") == pytest.approx(1.0)
        assert all(f <= 0.6 + 1e-6 for f in flows.values())

    def test_colocated_needs_no_flow(self):
        result = solve(colocated)
        assert result.feasible
        assert result.link_flows["A"] == {}

    def test_zero_demand_link_still_routed(self):
        result = solve(zero_demand_link)
        assert result.feasible
        assert result.link_flows["A"][("n0", "n1")] == {
            ("s0", "s1"): 1.0,
            ("s1", "s2"): 1.0,
        }

    def test_endpoint_without_links_is_infeasible(self):
        sub = line_substrate(2, node_capacity=2.0, link_capacity=1.0)
        sub.add_node("island", 2.0)
        placement = FixedPlacement(
            chain_request("A"), {"n0": "s0", "n1": "island"}, Interval(0, 2)
        )
        result = solve_fixed_schedule(sub, [placement])
        assert not result.feasible
        assert "'island', which has no substrate link" in result.reason


class TestUnroutableGroups:
    """The critical groups that fail on their own (``solve`` adds the
    link blocks of their members)."""

    @pytest.mark.parametrize("make", [link_contention, node_overload])
    def test_the_overlapping_pair_fails_alone(self, make):
        sub, placements = make()
        groups = unroutable_groups(sub, placements)
        assert [[p.request.name for p in group] for group in groups] == [["A", "B"]]

    @pytest.mark.parametrize(
        "make", [contention_resolved_by_time, flows_returned, empty_placements]
    )
    def test_a_feasible_schedule_has_none(self, make):
        assert unroutable_groups(*make()) == []


class TestEdgeCases:
    def test_empty_placements(self):
        result = solve(empty_placements)
        assert result.feasible
        assert result.link_flows == {}

    def test_degenerate_interval_ignored(self):
        assert solve(degenerate_interval).feasible

    def test_touching_intervals_do_not_contend(self):
        assert solve(touching_intervals).feasible
