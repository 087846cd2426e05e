"""Solution objects for the TVNEP.

A :class:`TemporalSolution` is the output promised by Definition 2.1: a
static embedding ``(x_R, x_V, x_E)`` plus start/end times per request.
It is deliberately decoupled from the MIP machinery — the greedy
algorithm, the exact models and hand-written tests all produce the same
type, and the independent verifier in :mod:`repro.tvnep.feasibility`
consumes it.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping
from dataclasses import dataclass, field

from repro.exceptions import ValidationError
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.temporal.interval import Interval

__all__ = ["ScheduledRequest", "TemporalSolution"]


@dataclass
class ScheduledRequest:
    """One request's part of a TVNEP solution.

    Attributes
    ----------
    request:
        The original request.
    embedded:
        ``x_R`` — whether the request was accepted.
    start, end:
        ``t^+ / t^-``.  Definition 2.1 fixes these even for rejected
        requests; they simply carry no allocations then.
    node_mapping:
        ``virtual node -> substrate node`` (empty when rejected).
    link_flows:
        ``{virtual link: {substrate link: fraction}}`` — the splittable
        unit flow per virtual link (empty when rejected or co-located).
    """

    request: Request
    embedded: bool
    start: float
    end: float
    node_mapping: dict[Hashable, Hashable] = field(default_factory=dict)
    link_flows: dict[tuple, dict[tuple, float]] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.request.name

    @property
    def interval(self) -> Interval:
        """The activity interval ``[t^+, t^-]``."""
        return Interval(self.start, self.end)

    def node_usage(self) -> dict[Hashable, float]:
        """Substrate-node demand while active (empty when rejected)."""
        if not self.embedded:
            return {}
        usage: dict[Hashable, float] = {}
        for v, s in self.node_mapping.items():
            usage[s] = usage.get(s, 0.0) + self.request.vnet.node_demand(v)
        return usage

    def link_usage(self) -> dict[tuple, float]:
        """Substrate-link bandwidth while active (empty when rejected)."""
        if not self.embedded:
            return {}
        usage: dict[tuple, float] = {}
        for lv, flows in self.link_flows.items():
            demand = self.request.vnet.link_demand(lv)
            for ls, fraction in flows.items():
                usage[ls] = usage.get(ls, 0.0) + demand * fraction
        return usage


class TemporalSolution:
    """A complete TVNEP solution across all requests.

    Parameters
    ----------
    substrate:
        The substrate the solution lives on.
    scheduled:
        Per-request :class:`ScheduledRequest` entries.
    objective:
        Objective value reported by the producing algorithm (NaN when
        not applicable).
    model_name:
        Which algorithm/formulation produced the solution.
    runtime, gap, node_count:
        Solver statistics carried along for the evaluation harness.
    status:
        Raw solve status (``"optimal"``, ``"feasible"``, ``"error"``,
        ...; empty for hand-built solutions).
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        scheduled: Mapping[str, ScheduledRequest],
        objective: float = math.nan,
        model_name: str = "",
        runtime: float = 0.0,
        gap: float = 0.0,
        node_count: int = 0,
        status: str = "",
    ) -> None:
        self.substrate = substrate
        self.scheduled = dict(scheduled)
        self.objective = objective
        self.model_name = model_name
        self.runtime = runtime
        self.gap = gap
        self.node_count = node_count
        self.status = status

    # ------------------------------------------------------------------
    def __getitem__(self, request_name: str) -> ScheduledRequest:
        try:
            return self.scheduled[request_name]
        except KeyError:
            raise ValidationError(
                f"solution has no request {request_name!r}"
            ) from None

    def __contains__(self, request_name: str) -> bool:
        return request_name in self.scheduled

    def __len__(self) -> int:
        return len(self.scheduled)

    @property
    def requests(self) -> list[Request]:
        return [entry.request for entry in self.scheduled.values()]

    def embedded_names(self) -> list[str]:
        """Names of accepted requests."""
        return [name for name, s in self.scheduled.items() if s.embedded]

    def rejected_names(self) -> list[str]:
        return [name for name, s in self.scheduled.items() if not s.embedded]

    @property
    def num_embedded(self) -> int:
        return len(self.embedded_names())

    def acceptance_ratio(self) -> float:
        """Fraction of requests accepted."""
        if not self.scheduled:
            return 0.0
        return self.num_embedded / len(self.scheduled)

    def total_revenue(self) -> float:
        """Access-control revenue of the accepted set (Sec. IV-E.1)."""
        return sum(
            s.request.revenue() for s in self.scheduled.values() if s.embedded
        )

    def makespan(self) -> float:
        """Latest end time among accepted requests (0 when none)."""
        ends = [s.end for s in self.scheduled.values() if s.embedded]
        return max(ends, default=0.0)

    def summary(self) -> str:
        return (
            f"{self.model_name or 'solution'}: "
            f"{self.num_embedded}/{len(self.scheduled)} embedded, "
            f"objective={self.objective:.6g}, runtime={self.runtime:.3f}s, "
            f"gap={'inf' if math.isinf(self.gap) else f'{100 * self.gap:.2f}%'}"
        )

    def __repr__(self) -> str:
        return f"TemporalSolution({self.summary()})"
