"""Tests of the standalone static VNEP model."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.network import (
    Request,
    SubstrateNetwork,
    TemporalSpec,
    VirtualNetwork,
    line_substrate,
)
from repro.network.topologies import star
from repro.vnep import StaticVNEPModel


def unit_request(name, demand=1.0):
    v = VirtualNetwork(name)
    v.add_node("v", demand)
    return Request(v, TemporalSpec(0, 10, 1))


def star_request(name, leaves=2, node_demand=1.0, link_demand=1.0):
    return Request(
        star(name, leaves=leaves, node_demand=node_demand, link_demand=link_demand),
        TemporalSpec(0, 10, 1),
    )


class TestAccessControl:
    def test_all_fit(self):
        sub = line_substrate(2, node_capacity=2.0, link_capacity=2.0)
        model = StaticVNEPModel(sub, [unit_request("A"), unit_request("B")])
        res = model.solve()
        assert res.objective == pytest.approx(2.0)
        assert sorted(res.embedded_requests()) == ["A", "B"]

    def test_capacity_limits_acceptance(self):
        sub = SubstrateNetwork()
        sub.add_node("s", 1.0)
        model = StaticVNEPModel(sub, [unit_request("A"), unit_request("B")])
        res = model.solve()
        assert res.objective == pytest.approx(1.0)
        assert len(res.embedded_requests()) == 1

    def test_revenue_prefers_bigger_request(self):
        sub = SubstrateNetwork()
        sub.add_node("s", 2.0)
        model = StaticVNEPModel(
            sub, [unit_request("small", 1.0), unit_request("big", 2.0)]
        )
        res = model.solve()
        assert res.embedded_requests() == ["big"]

    def test_duplicate_names_rejected(self):
        sub = line_substrate(2, 1.0, 1.0)
        with pytest.raises(ValidationError):
            StaticVNEPModel(sub, [unit_request("A"), unit_request("A")])


class TestLinksAndMappings:
    def test_star_embedding_with_links(self):
        sub = line_substrate(3, node_capacity=1.0, link_capacity=2.0)
        model = StaticVNEPModel(sub, [star_request("S", leaves=2)])
        res = model.solve()
        assert res.embedded_requests() == ["S"]
        mapping = res.node_mapping("S")
        assert len(mapping) == 3
        assert len(set(mapping.values())) == 3  # node caps force distinct hosts
        flows = res.link_flows("S")
        assert len(flows) == 2

    def test_fixed_mapping_respected(self):
        sub = line_substrate(3, node_capacity=3.0, link_capacity=2.0)
        mapping = {"center": "s2", "leaf0": "s0", "leaf1": "s1"}
        model = StaticVNEPModel(
            sub, [star_request("S")], fixed_mappings={"S": mapping}
        )
        res = model.solve()
        assert res.node_mapping("S") == mapping

    def test_infeasible_fixed_mapping_rejects_request(self):
        sub = line_substrate(2, node_capacity=1.0, link_capacity=2.0)
        # both star nodes forced onto one host of capacity 1 -> reject
        mapping = {"center": "s0", "leaf0": "s0"}
        model = StaticVNEPModel(
            sub,
            [star_request("S", leaves=1)],
            fixed_mappings={"S": mapping},
        )
        res = model.solve()
        assert res.embedded_requests() == []

    def test_force_all_infeasible(self):
        sub = SubstrateNetwork()
        sub.add_node("s", 1.0)
        model = StaticVNEPModel(
            sub, [unit_request("A"), unit_request("B")], force_all=True
        )
        res = model.solve()
        assert not res.has_solution

    def test_node_mapping_of_rejected_raises(self):
        sub = SubstrateNetwork()
        sub.add_node("s", 1.0)
        model = StaticVNEPModel(sub, [unit_request("A"), unit_request("B")])
        res = model.solve()
        rejected = (
            {"A", "B"} - set(res.embedded_requests())
        ).pop()
        with pytest.raises(ValidationError):
            res.node_mapping(rejected)

