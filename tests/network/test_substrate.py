"""Tests of the substrate network data structure."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.network import SubstrateNetwork


def triangle() -> SubstrateNetwork:
    net = SubstrateNetwork("tri")
    for n in "abc":
        net.add_node(n, 2.0)
    net.add_link("a", "b", 1.0)
    net.add_link("b", "c", 1.5)
    net.add_link("c", "a", 2.5)
    return net


class TestConstruction:
    def test_nodes_and_links(self):
        net = triangle()
        assert net.nodes == ("a", "b", "c")
        assert net.links == (("a", "b"), ("b", "c"), ("c", "a"))
        assert net.num_nodes == 3
        assert net.num_links == 3

    def test_duplicate_node_rejected(self):
        net = triangle()
        with pytest.raises(ValidationError):
            net.add_node("a", 1.0)

    def test_duplicate_link_rejected(self):
        net = triangle()
        with pytest.raises(ValidationError):
            net.add_link("a", "b", 1.0)

    def test_reverse_link_allowed(self):
        net = triangle()
        net.add_link("b", "a", 1.0)
        assert net.has_link(("b", "a"))

    def test_self_loop_rejected(self):
        net = triangle()
        with pytest.raises(ValidationError):
            net.add_link("a", "a", 1.0)

    def test_link_needs_existing_endpoints(self):
        net = triangle()
        with pytest.raises(ValidationError):
            net.add_link("a", "zzz", 1.0)

    def test_negative_capacity_rejected(self):
        net = SubstrateNetwork()
        with pytest.raises(ValidationError):
            net.add_node("n", -1.0)
        net.add_node("n", 1.0)
        net.add_node("m", 1.0)
        with pytest.raises(ValidationError):
            net.add_link("n", "m", -2.0)

    def test_bidirectional_helper(self):
        net = SubstrateNetwork()
        net.add_node("u", 1.0)
        net.add_node("v", 1.0)
        fwd, bwd = net.add_bidirectional_link("u", "v", 3.0)
        assert fwd == ("u", "v") and bwd == ("v", "u")
        assert net.link_capacity(fwd) == net.link_capacity(bwd) == 3.0


class TestQueries:
    def test_capacities(self):
        net = triangle()
        assert net.node_capacity("a") == 2.0
        assert net.link_capacity(("b", "c")) == 1.5
        assert net.capacity("a") == 2.0
        assert net.capacity(("c", "a")) == 2.5

    def test_unknown_resource_raises(self):
        net = triangle()
        with pytest.raises(ValidationError):
            net.node_capacity("zzz")
        with pytest.raises(ValidationError):
            net.link_capacity(("a", "zzz"))

    def test_incidence(self):
        net = triangle()
        assert net.out_links("a") == (("a", "b"),)
        assert net.in_links("a") == (("c", "a"),)

    def test_contains(self):
        net = triangle()
        assert "a" in net
        assert ("a", "b") in net
        assert "zzz" not in net

    def test_resources_order(self):
        net = triangle()
        assert net.resources[:3] == net.nodes
        assert net.resources[3:] == net.links

    def test_totals(self):
        net = triangle()
        assert net.total_node_capacity() == pytest.approx(6.0)
        assert net.total_link_capacity() == pytest.approx(5.0)

    def test_iteration(self):
        assert list(triangle()) == ["a", "b", "c"]


class TestConversions:
    def test_to_networkx(self):
        g = triangle().to_networkx()
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3
        assert g.nodes["a"]["capacity"] == 2.0
        assert g.edges["a", "b"]["capacity"] == 1.0

    def test_strong_connectivity(self):
        assert triangle().is_strongly_connected()
        net = SubstrateNetwork()
        net.add_node("u", 1.0)
        net.add_node("v", 1.0)
        net.add_link("u", "v", 1.0)
        assert not net.is_strongly_connected()

    def test_repr(self):
        assert "tri" in repr(triangle())
