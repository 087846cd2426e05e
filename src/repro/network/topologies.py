"""Virtual-network topology builders.

The paper's workload uses five-node *stars* ("a classical master-slave
relationship, or a Virtual Cluster"), with all links either directed
toward the center or away from it.  This module provides that builder
plus the other standard VNet shapes used by the examples and extension
benchmarks (chains, rings, bipartite shuffles).

All builders take demands either as scalars (uniform) or per-element
sequences, and return :class:`~repro.network.request.VirtualNetwork`.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import ValidationError
from repro.network.request import VirtualNetwork

__all__ = [
    "star",
    "chain",
    "ring",
    "bipartite_shuffle",
]


def _demand_list(demand: float | Sequence[float], count: int, what: str) -> list[float]:
    if isinstance(demand, (int, float)):
        return [float(demand)] * count
    values = [float(d) for d in demand]
    if len(values) != count:
        raise ValidationError(
            f"expected {count} {what} demands, got {len(values)}"
        )
    return values


def star(
    name: str,
    leaves: int,
    node_demand: float | Sequence[float],
    link_demand: float | Sequence[float],
    direction: str = "to_center",
) -> VirtualNetwork:
    """A star VNet: one center plus ``leaves`` surrounding nodes.

    Parameters
    ----------
    direction:
        ``"to_center"`` — all links point from the leaves to the center
        (workers push to master); ``"from_center"`` — links point away
        (master distributes).  These are the paper's two request shapes.
    node_demand:
        Scalar or per-node sequence ordered ``[center, leaf_0, ...]``.
    link_demand:
        Scalar or per-link sequence ordered by leaf index.
    """
    if leaves < 1:
        raise ValidationError("star needs at least one leaf")
    if direction not in ("to_center", "from_center"):
        raise ValidationError(
            f"direction must be 'to_center' or 'from_center', got {direction!r}"
        )
    node_demands = _demand_list(node_demand, leaves + 1, "node")
    link_demands = _demand_list(link_demand, leaves, "link")
    vnet = VirtualNetwork(name)
    center = vnet.add_node("center", node_demands[0])
    for i in range(leaves):
        leaf = vnet.add_node(f"leaf{i}", node_demands[i + 1])
        if direction == "to_center":
            vnet.add_link(leaf, center, link_demands[i])
        else:
            vnet.add_link(center, leaf, link_demands[i])
    return vnet


def chain(
    name: str,
    length: int,
    node_demand: float | Sequence[float],
    link_demand: float | Sequence[float],
) -> VirtualNetwork:
    """A directed path ``n0 -> n1 -> ... -> n_{length-1}`` (pipelines)."""
    if length < 2:
        raise ValidationError("chain needs at least two nodes")
    node_demands = _demand_list(node_demand, length, "node")
    link_demands = _demand_list(link_demand, length - 1, "link")
    vnet = VirtualNetwork(name)
    for i in range(length):
        vnet.add_node(f"n{i}", node_demands[i])
    for i in range(length - 1):
        vnet.add_link(f"n{i}", f"n{i+1}", link_demands[i])
    return vnet


def ring(
    name: str,
    size: int,
    node_demand: float | Sequence[float],
    link_demand: float | Sequence[float],
) -> VirtualNetwork:
    """A directed cycle over ``size`` nodes (token-ring style traffic)."""
    if size < 3:
        raise ValidationError("ring needs at least three nodes")
    node_demands = _demand_list(node_demand, size, "node")
    link_demands = _demand_list(link_demand, size, "link")
    vnet = VirtualNetwork(name)
    for i in range(size):
        vnet.add_node(f"n{i}", node_demands[i])
    for i in range(size):
        vnet.add_link(f"n{i}", f"n{(i+1) % size}", link_demands[i])
    return vnet


def bipartite_shuffle(
    name: str,
    mappers: int,
    reducers: int,
    node_demand: float,
    link_demand: float,
) -> VirtualNetwork:
    """A MapReduce shuffle: every mapper sends to every reducer.

    This is the network-intensive phase the paper's introduction
    motivates (the "duce shuffle phase") and is used in the
    ``examples/mapreduce_shuffle.py`` scenario.
    """
    if mappers < 1 or reducers < 1:
        raise ValidationError("need at least one mapper and one reducer")
    vnet = VirtualNetwork(name)
    for i in range(mappers):
        vnet.add_node(f"m{i}", float(node_demand))
    for j in range(reducers):
        vnet.add_node(f"r{j}", float(node_demand))
    for i in range(mappers):
        for j in range(reducers):
            vnet.add_link(f"m{i}", f"r{j}", float(link_demand))
    return vnet
