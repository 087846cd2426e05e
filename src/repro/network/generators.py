"""Substrate-network generators.

:func:`grid_substrate` builds the paper's evaluation substrate (a
directed 4x5 grid: 20 nodes, 62 directed links, node capacity 3.5, link
capacity 5).  The other generators provide common data-center and WAN
shapes for the examples and extension benchmarks.
"""

from __future__ import annotations

from repro.exceptions import ValidationError
from repro.network.substrate import SubstrateNetwork

__all__ = [
    "grid_substrate",
    "fat_tree_substrate",
    "line_substrate",
    "ring_substrate",
]


def grid_substrate(
    rows: int,
    cols: int,
    node_capacity: float,
    link_capacity: float,
    name: str | None = None,
) -> SubstrateNetwork:
    """A directed ``rows x cols`` grid.

    Every undirected grid edge becomes two directed links.  A 4x5 grid
    yields ``2 * (3*5 + 4*4) = 62`` directed links, matching Sec. VI-A.
    """
    if rows < 1 or cols < 1:
        raise ValidationError("grid needs rows >= 1 and cols >= 1")
    net = SubstrateNetwork(name or f"grid{rows}x{cols}")
    for r in range(rows):
        for c in range(cols):
            net.add_node(f"s({r},{c})", node_capacity)
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                net.add_bidirectional_link(
                    f"s({r},{c})", f"s({r},{c+1})", link_capacity
                )
            if r + 1 < rows:
                net.add_bidirectional_link(
                    f"s({r},{c})", f"s({r+1},{c})", link_capacity
                )
    return net


def fat_tree_substrate(
    k: int,
    host_capacity: float,
    switch_capacity: float,
    link_capacity: float,
    name: str | None = None,
) -> SubstrateNetwork:
    """A k-ary fat-tree data-center fabric (k even, k >= 2).

    Standard three-tier fat-tree: ``(k/2)^2`` core switches, ``k`` pods
    of ``k/2`` aggregation plus ``k/2`` edge switches, and ``(k/2)``
    hosts per edge switch.  Hosts carry ``host_capacity`` compute;
    switches carry ``switch_capacity`` (use 0 to make them pure transit
    nodes).  All links are bidirectional with ``link_capacity``.
    """
    if k < 2 or k % 2:
        raise ValidationError("fat-tree parameter k must be even and >= 2")
    half = k // 2
    net = SubstrateNetwork(name or f"fattree{k}")
    cores = [
        net.add_node(f"core{i}", switch_capacity) for i in range(half * half)
    ]
    for pod in range(k):
        aggs = [
            net.add_node(f"agg{pod}.{a}", switch_capacity) for a in range(half)
        ]
        edges = [
            net.add_node(f"edge{pod}.{e}", switch_capacity) for e in range(half)
        ]
        for a, agg in enumerate(aggs):
            for c in range(half):
                net.add_bidirectional_link(agg, cores[a * half + c], link_capacity)
            for edge in edges:
                net.add_bidirectional_link(agg, edge, link_capacity)
        for e, edge in enumerate(edges):
            for h in range(half):
                host = net.add_node(f"host{pod}.{e}.{h}", host_capacity)
                net.add_bidirectional_link(edge, host, link_capacity)
    return net


def line_substrate(
    length: int, node_capacity: float, link_capacity: float
) -> SubstrateNetwork:
    """A bidirectional path — the smallest interesting substrate."""
    if length < 1:
        raise ValidationError("line needs >= 1 node")
    net = SubstrateNetwork(f"line{length}")
    for i in range(length):
        net.add_node(f"s{i}", node_capacity)
    for i in range(length - 1):
        net.add_bidirectional_link(f"s{i}", f"s{i+1}", link_capacity)
    return net


def ring_substrate(
    size: int, node_capacity: float, link_capacity: float
) -> SubstrateNetwork:
    """A bidirectional ring (simple WAN backbone shape)."""
    if size < 3:
        raise ValidationError("ring needs >= 3 nodes")
    net = SubstrateNetwork(f"ring{size}")
    for i in range(size):
        net.add_node(f"s{i}", node_capacity)
    for i in range(size):
        net.add_bidirectional_link(f"s{i}", f"s{(i+1) % size}", link_capacity)
    return net
