"""Tests of the virtual-network topology builders."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.network.topologies import bipartite_shuffle, chain, ring, star


class TestStar:
    def test_to_center(self):
        v = star("s", leaves=3, node_demand=1.0, link_demand=2.0)
        assert v.num_nodes == 4
        assert v.num_links == 3
        assert all(link[1] == "center" for link in v.links)

    def test_from_center(self):
        v = star("s", leaves=2, node_demand=1.0, link_demand=2.0, direction="from_center")
        assert all(link[0] == "center" for link in v.links)

    def test_per_element_demands(self):
        v = star(
            "s",
            leaves=2,
            node_demand=[3.0, 1.0, 2.0],
            link_demand=[0.5, 0.7],
        )
        assert v.node_demand("center") == 3.0
        assert v.node_demand("leaf1") == 2.0
        assert v.link_demand(("leaf1", "center")) == 0.7

    def test_wrong_demand_count_rejected(self):
        with pytest.raises(ValidationError):
            star("s", leaves=2, node_demand=[1.0], link_demand=1.0)

    def test_bad_direction_rejected(self):
        with pytest.raises(ValidationError):
            star("s", leaves=2, node_demand=1, link_demand=1, direction="sideways")

    def test_needs_a_leaf(self):
        with pytest.raises(ValidationError):
            star("s", leaves=0, node_demand=1, link_demand=1)

    def test_paper_shape(self):
        """The paper's request: 5-node star with 4 links."""
        v = star("s", leaves=4, node_demand=1.5, link_demand=1.5)
        assert v.num_nodes == 5
        assert v.num_links == 4


class TestChain:
    def test_structure(self):
        v = chain("c", length=4, node_demand=1.0, link_demand=1.0)
        assert v.num_nodes == 4
        assert v.links == (("n0", "n1"), ("n1", "n2"), ("n2", "n3"))

    def test_min_length(self):
        with pytest.raises(ValidationError):
            chain("c", length=1, node_demand=1, link_demand=1)


class TestRing:
    def test_structure(self):
        v = ring("r", size=3, node_demand=1.0, link_demand=1.0)
        assert v.num_links == 3
        assert ("n2", "n0") in v.links

    def test_min_size(self):
        with pytest.raises(ValidationError):
            ring("r", size=2, node_demand=1, link_demand=1)


class TestBipartiteShuffle:
    def test_structure(self):
        v = bipartite_shuffle("s", mappers=2, reducers=3, node_demand=1, link_demand=1)
        assert v.num_nodes == 5
        assert v.num_links == 6
        assert ("m1", "r2") in v.links

    def test_bad_params(self):
        with pytest.raises(ValidationError):
            bipartite_shuffle("s", mappers=0, reducers=1, node_demand=1, link_demand=1)

