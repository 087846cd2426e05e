"""Tests of the static mapping heuristics."""

from __future__ import annotations

from repro.network import Request, SubstrateNetwork, TemporalSpec, line_substrate
from repro.network.topologies import star
from repro.vnep import greedy_node_mapping, random_node_mapping


def star_request(name="R", leaves=2, node_demand=1.0):
    return Request(
        star(name, leaves=leaves, node_demand=node_demand, link_demand=1.0),
        TemporalSpec(0, 10, 1),
    )


class TestRandomMapping:
    def test_covers_all_nodes(self):
        sub = line_substrate(4, 2.0, 2.0)
        request = star_request()
        mapping = random_node_mapping(sub, request, rng=0)
        assert set(mapping) == set(request.vnet.nodes)
        assert all(sub.has_node(host) for host in mapping.values())

    def test_reproducible(self):
        sub = line_substrate(4, 2.0, 2.0)
        request = star_request()
        a = random_node_mapping(sub, request, rng=7)
        b = random_node_mapping(sub, request, rng=7)
        assert a == b

    def test_no_capacity_check(self):
        """The paper's methodology: collisions are allowed."""
        sub = SubstrateNetwork()
        sub.add_node("only", 0.5)
        mapping = random_node_mapping(sub, star_request(), rng=0)
        assert set(mapping.values()) == {"only"}


class TestGreedyMapping:
    def test_respects_capacity(self):
        sub = line_substrate(3, node_capacity=1.0, link_capacity=2.0)
        mapping = greedy_node_mapping(sub, star_request())
        assert mapping is not None
        assert len(set(mapping.values())) == 3

    def test_packs_when_capacity_allows(self):
        sub = line_substrate(3, node_capacity=3.0, link_capacity=2.0)
        mapping = greedy_node_mapping(sub, star_request())
        assert mapping is not None
        # best-fit packs all three unit demands on one host
        assert len(set(mapping.values())) == 1

    def test_returns_none_when_impossible(self):
        sub = SubstrateNetwork()
        sub.add_node("s", 1.5)
        mapping = greedy_node_mapping(sub, star_request())  # needs 3 units
        assert mapping is None

    def test_residual_capacities_respected(self):
        sub = line_substrate(2, node_capacity=2.0, link_capacity=2.0)
        mapping = greedy_node_mapping(
            sub, star_request(leaves=1), residual_node_capacity={"s0": 0.0, "s1": 2.0}
        )
        assert mapping is not None
        assert set(mapping.values()) == {"s1"}

    def test_biggest_demand_placed_first(self):
        sub = SubstrateNetwork()
        sub.add_node("big", 2.0)
        sub.add_node("small", 1.0)
        vnet = star("R", leaves=1, node_demand=[2.0, 1.0], link_demand=1.0)
        request = Request(vnet, TemporalSpec(0, 5, 1))
        mapping = greedy_node_mapping(sub, request)
        assert mapping == {"center": "big", "leaf0": "small"}

