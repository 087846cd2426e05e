"""Tests of the substrate generators."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.network.generators import (
    fat_tree_substrate,
    grid_substrate,
    line_substrate,
    ring_substrate,
)
from repro.workloads import paper_scenario


class TestGrid:
    def test_paper_dimensions(self):
        """Sec. VI-A: 4x5 grid, 20 nodes, 62 directed links."""
        net = paper_scenario(0).substrate
        assert net.num_nodes == 20
        assert net.num_links == 62
        assert net.node_capacity("s(0,0)") == 3.5
        assert net.link_capacity(("s(0,0)", "s(0,1)")) == 5.0

    def test_small_grid(self):
        net = grid_substrate(2, 2, node_capacity=1.0, link_capacity=1.0)
        assert net.num_nodes == 4
        assert net.num_links == 8  # 4 undirected edges x 2

    def test_single_node_grid(self):
        net = grid_substrate(1, 1, node_capacity=1.0, link_capacity=1.0)
        assert net.num_nodes == 1
        assert net.num_links == 0

    def test_strongly_connected(self):
        assert grid_substrate(3, 3, 1.0, 1.0).is_strongly_connected()

    def test_bad_dimensions(self):
        with pytest.raises(ValidationError):
            grid_substrate(0, 3, 1.0, 1.0)


class TestFatTree:
    def test_k4_counts(self):
        net = fat_tree_substrate(
            4, host_capacity=8.0, switch_capacity=0.0, link_capacity=10.0
        )
        # k=4: 4 core, 4 pods x (2 agg + 2 edge), 2 hosts per edge
        hosts = [n for n in net.nodes if str(n).startswith("host")]
        cores = [n for n in net.nodes if str(n).startswith("core")]
        assert len(cores) == 4
        assert len(hosts) == 16
        assert net.num_nodes == 4 + 4 * 4 + 16

    def test_strongly_connected(self):
        net = fat_tree_substrate(2, 1.0, 0.0, 1.0)
        assert net.is_strongly_connected()

    def test_odd_k_rejected(self):
        with pytest.raises(ValidationError):
            fat_tree_substrate(3, 1.0, 0.0, 1.0)


class TestLineAndRing:
    def test_line(self):
        net = line_substrate(4, 1.0, 2.0)
        assert net.num_nodes == 4
        assert net.num_links == 6

    def test_line_single(self):
        assert line_substrate(1, 1.0, 1.0).num_links == 0

    def test_ring(self):
        net = ring_substrate(5, 1.0, 1.0)
        assert net.num_links == 10
        assert net.is_strongly_connected()

    def test_bad_sizes(self):
        with pytest.raises(ValidationError):
            line_substrate(0, 1.0, 1.0)
        with pytest.raises(ValidationError):
            ring_substrate(2, 1.0, 1.0)
