"""VNet requests — Tables II (static) and VI (temporal) of the paper.

A :class:`VirtualNetwork` is the *what*: a directed graph of virtual
nodes and links with resource demands.  A :class:`TemporalSpec` is the
*when*: duration ``d``, earliest start ``t^s`` and latest end ``t^e``.
A :class:`Request` combines both and is the unit handed to the TVNEP
models.
"""

from __future__ import annotations

import math
from collections.abc import Hashable
from dataclasses import dataclass

from repro.exceptions import ValidationError

__all__ = ["VirtualNetwork", "TemporalSpec", "Request"]

VNodeId = Hashable
VLinkId = tuple[Hashable, Hashable]


class VirtualNetwork:
    """A directed virtual network with node and link demands.

    Parameters
    ----------
    name:
        Request identifier (must be unique within a request set).
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValidationError("virtual network needs a non-empty name")
        self.name = name
        self._node_demand: dict[VNodeId, float] = {}
        self._link_demand: dict[VLinkId, float] = {}

    def add_node(self, node: VNodeId, demand: float) -> VNodeId:
        """Add a virtual node (VM) with resource demand ``c_R(node)``."""
        if node in self._node_demand:
            raise ValidationError(f"{self.name}: virtual node {node!r} exists")
        if not demand >= 0:
            raise ValidationError(f"{self.name}: node demand must be >= 0")
        self._node_demand[node] = float(demand)
        return node

    def add_link(self, tail: VNodeId, head: VNodeId, demand: float) -> VLinkId:
        """Add a directed virtual link with bandwidth demand ``c_R(link)``."""
        for endpoint in (tail, head):
            if endpoint not in self._node_demand:
                raise ValidationError(
                    f"{self.name}: link endpoint {endpoint!r} not a virtual node"
                )
        if tail == head:
            raise ValidationError(f"{self.name}: self-loop not allowed")
        link = (tail, head)
        if link in self._link_demand:
            raise ValidationError(f"{self.name}: virtual link {link!r} exists")
        if not demand >= 0:
            raise ValidationError(f"{self.name}: link demand must be >= 0")
        self._link_demand[link] = float(demand)
        return link

    @property
    def nodes(self) -> tuple[VNodeId, ...]:
        """``V_R`` in insertion order."""
        return tuple(self._node_demand)

    @property
    def links(self) -> tuple[VLinkId, ...]:
        """``E_R`` in insertion order."""
        return tuple(self._link_demand)

    @property
    def num_nodes(self) -> int:
        return len(self._node_demand)

    @property
    def num_links(self) -> int:
        return len(self._link_demand)

    def node_demand(self, node: VNodeId) -> float:
        """``c_R(node)``."""
        try:
            return self._node_demand[node]
        except KeyError:
            raise ValidationError(
                f"{self.name}: unknown virtual node {node!r}"
            ) from None

    def link_demand(self, link: VLinkId) -> float:
        """``c_R(link)``."""
        try:
            return self._link_demand[link]
        except KeyError:
            raise ValidationError(
                f"{self.name}: unknown virtual link {link!r}"
            ) from None

    def total_node_demand(self) -> float:
        """Sum of all virtual node demands (the paper's revenue basis)."""
        return sum(self._node_demand.values())

    def total_link_demand(self) -> float:
        return sum(self._link_demand.values())

    def __repr__(self) -> str:
        return (
            f"VirtualNetwork({self.name!r}, nodes={self.num_nodes}, "
            f"links={self.num_links})"
        )


@dataclass(frozen=True)
class TemporalSpec:
    """Temporal request parameters (Table VI).

    Attributes
    ----------
    start:
        ``t^s`` — earliest possible start.
    end:
        ``t^e`` — latest possible end.
    duration:
        ``d`` — execution time; must satisfy ``0 < d <= end - start``.
    """

    start: float
    end: float
    duration: float

    def __post_init__(self) -> None:
        if not (self.start >= 0 and math.isfinite(self.start)):
            raise ValidationError(f"t^s must be finite and >= 0, got {self.start}")
        if not (math.isfinite(self.end) and self.end >= self.start):
            raise ValidationError(
                f"t^e must be finite and >= t^s, got [{self.start}, {self.end}]"
            )
        if not (self.duration > 0 and math.isfinite(self.duration)):
            raise ValidationError(f"duration must be > 0, got {self.duration}")
        if self.duration > self.end - self.start + 1e-12:
            raise ValidationError(
                f"duration {self.duration} does not fit in window "
                f"[{self.start}, {self.end}]"
            )

    @property
    def flexibility(self) -> float:
        """Scheduling slack ``(t^e - t^s) - d`` (0 = fixed schedule)."""
        return (self.end - self.start) - self.duration

    @property
    def latest_start(self) -> float:
        """Latest feasible start ``t^e - d``."""
        return self.end - self.duration

    @property
    def earliest_end(self) -> float:
        """Earliest feasible end ``t^s + d``."""
        return self.start + self.duration

    def widened(self, extra_flexibility: float) -> "TemporalSpec":
        """Spec with ``extra_flexibility`` added to the window's end.

        This is exactly the paper's evaluation knob: flexibility levels
        are generated by widening each request's window in 30-"minute"
        steps while keeping arrival time and duration fixed.
        """
        if extra_flexibility < 0:
            raise ValidationError("extra flexibility must be >= 0")
        return TemporalSpec(self.start, self.end + extra_flexibility, self.duration)

    def contains_schedule(self, start: float, end: float, tol: float = 1e-9) -> bool:
        """Whether ``[start, end]`` is a valid schedule for this spec."""
        return (
            start >= self.start - tol
            and end <= self.end + tol
            and abs((end - start) - self.duration) <= tol
        )


@dataclass(frozen=True)
class Request:
    """A VNet request: topology + demands + temporal specification."""

    vnet: VirtualNetwork
    spec: TemporalSpec

    @property
    def name(self) -> str:
        return self.vnet.name

    @property
    def duration(self) -> float:
        """``d_R``."""
        return self.spec.duration

    @property
    def earliest_start(self) -> float:
        """``t^s_R``."""
        return self.spec.start

    @property
    def latest_end(self) -> float:
        """``t^e_R``."""
        return self.spec.end

    @property
    def flexibility(self) -> float:
        return self.spec.flexibility

    def revenue(self) -> float:
        """Access-control revenue term ``d_R * sum_v c_R(v)`` (Sec. IV-E.1)."""
        return self.duration * self.vnet.total_node_demand()

    def with_flexibility(self, extra: float) -> "Request":
        """Copy of the request with a widened temporal window."""
        return Request(self.vnet, self.spec.widened(extra))

    def with_schedule(self, start: float, end: float) -> "Request":
        """Copy whose window is pinned to an exact schedule.

        Sets ``t^s = start`` and ``t^e = end``.  The MIP specification
        of the greedy (``tests/tvnep/reference_mip_greedy.py``) pins each
        accepted request this way, and the verifier-mutation tests build
        their mutated schedules with it.
        """
        if abs((end - start) - self.duration) > 1e-6:
            raise ValidationError(
                f"{self.name}: schedule [{start}, {end}] does not match "
                f"duration {self.duration}"
            )
        return Request(self.vnet, TemporalSpec(start, end, self.duration))

    def __repr__(self) -> str:
        return (
            f"Request({self.name!r}, d={self.duration:g}, "
            f"window=[{self.earliest_start:g}, {self.latest_end:g}])"
        )
