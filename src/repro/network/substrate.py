"""The physical (substrate) network — Table I of the paper.

A :class:`SubstrateNetwork` is a directed graph whose nodes and links
both carry a single capacity value ``c_S : V_S ∪ E_S → R+``.  Node and
link identifiers are arbitrary hashable objects (the built-in generators
use strings like ``"s(0,1)"``).
"""

from __future__ import annotations

from collections.abc import Hashable
from typing import Iterator

import networkx as nx

from repro.exceptions import ValidationError

__all__ = ["SubstrateNetwork"]

NodeId = Hashable
LinkId = tuple[Hashable, Hashable]


class SubstrateNetwork:
    """A capacitated directed substrate network.

    Parameters
    ----------
    name:
        Identifier used in reports and model names.

    Notes
    -----
    Links are directed: ``(u, v)`` and ``(v, u)`` are distinct resources
    with independent capacities, matching the paper's directed 4x5 grid
    with 62 directed edges.
    """

    def __init__(self, name: str = "substrate") -> None:
        self.name = name
        self._node_capacity: dict[NodeId, float] = {}
        self._link_capacity: dict[LinkId, float] = {}
        self._out: dict[NodeId, list[LinkId]] = {}
        self._in: dict[NodeId, list[LinkId]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId, capacity: float) -> NodeId:
        """Add a substrate node with the given capacity."""
        if node in self._node_capacity:
            raise ValidationError(f"substrate node {node!r} already exists")
        if not capacity >= 0:
            raise ValidationError(f"node {node!r}: capacity must be >= 0")
        self._node_capacity[node] = float(capacity)
        self._out[node] = []
        self._in[node] = []
        return node

    def add_link(self, tail: NodeId, head: NodeId, capacity: float) -> LinkId:
        """Add a directed link ``tail -> head`` with the given capacity."""
        if tail not in self._node_capacity or head not in self._node_capacity:
            raise ValidationError(
                f"link ({tail!r}, {head!r}): both endpoints must exist"
            )
        if tail == head:
            raise ValidationError(f"self-loop on {tail!r} not allowed")
        link = (tail, head)
        if link in self._link_capacity:
            raise ValidationError(f"substrate link {link!r} already exists")
        if not capacity >= 0:
            raise ValidationError(f"link {link!r}: capacity must be >= 0")
        self._link_capacity[link] = float(capacity)
        self._out[tail].append(link)
        self._in[head].append(link)
        return link

    def add_bidirectional_link(
        self, u: NodeId, v: NodeId, capacity: float
    ) -> tuple[LinkId, LinkId]:
        """Add both ``u -> v`` and ``v -> u`` with the same capacity."""
        return self.add_link(u, v, capacity), self.add_link(v, u, capacity)

    # ------------------------------------------------------------------
    # queries (Tables I / V notation)
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[NodeId, ...]:
        """``V_S`` in insertion order."""
        return tuple(self._node_capacity)

    @property
    def links(self) -> tuple[LinkId, ...]:
        """``E_S`` in insertion order."""
        return tuple(self._link_capacity)

    @property
    def num_nodes(self) -> int:
        return len(self._node_capacity)

    @property
    def num_links(self) -> int:
        return len(self._link_capacity)

    def node_capacity(self, node: NodeId) -> float:
        """``c_S(node)``."""
        try:
            return self._node_capacity[node]
        except KeyError:
            raise ValidationError(f"unknown substrate node {node!r}") from None

    def link_capacity(self, link: LinkId) -> float:
        """``c_S(link)``."""
        try:
            return self._link_capacity[link]
        except KeyError:
            raise ValidationError(f"unknown substrate link {link!r}") from None

    def capacity(self, resource: NodeId | LinkId) -> float:
        """``c_S(r)`` for a node or link resource."""
        if resource in self._link_capacity:
            return self._link_capacity[resource]  # type: ignore[index]
        return self.node_capacity(resource)

    @property
    def resources(self) -> tuple[Hashable, ...]:
        """All resources ``V_S ∪ E_S`` (nodes first, then links)."""
        return self.nodes + self.links

    def out_links(self, node: NodeId) -> tuple[LinkId, ...]:
        """``δ⁺(node)`` — outgoing links."""
        try:
            return tuple(self._out[node])
        except KeyError:
            raise ValidationError(f"unknown substrate node {node!r}") from None

    def in_links(self, node: NodeId) -> tuple[LinkId, ...]:
        """``δ⁻(node)`` — incoming links."""
        try:
            return tuple(self._in[node])
        except KeyError:
            raise ValidationError(f"unknown substrate node {node!r}") from None

    def has_node(self, node: NodeId) -> bool:
        return node in self._node_capacity

    def has_link(self, link: LinkId) -> bool:
        return link in self._link_capacity

    def __contains__(self, resource: Hashable) -> bool:
        return resource in self._node_capacity or resource in self._link_capacity

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._node_capacity)

    # ------------------------------------------------------------------
    # whole-graph views
    # ------------------------------------------------------------------
    def to_networkx(self) -> nx.DiGraph:
        """Export to a :class:`networkx.DiGraph` (capacities as attrs)."""
        graph = nx.DiGraph(name=self.name)
        for node, cap in self._node_capacity.items():
            graph.add_node(node, capacity=cap)
        for (u, v), cap in self._link_capacity.items():
            graph.add_edge(u, v, capacity=cap)
        return graph

    def is_strongly_connected(self) -> bool:
        """Whether every node reaches every other node."""
        if self.num_nodes <= 1:
            return True
        return nx.is_strongly_connected(self.to_networkx())

    def total_node_capacity(self) -> float:
        return sum(self._node_capacity.values())

    def total_link_capacity(self) -> float:
        return sum(self._link_capacity.values())

    def __repr__(self) -> str:
        return (
            f"SubstrateNetwork({self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )
