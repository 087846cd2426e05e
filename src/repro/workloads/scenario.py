"""The paper's synthetic data-center workload (Sec. VI-A).

A *scenario* is one "day of work": a substrate plus a request sequence
with arrival times, durations, demands and fixed random node mappings.
The evaluation sweeps each scenario over increasing temporal
flexibilities — :meth:`Scenario.with_flexibility` widens every
request's window by the same amount while keeping everything else
fixed, exactly as the paper's x-axes do.

Paper parameters (reproduced by :func:`paper_scenario`):

* substrate: directed 4x5 grid, node capacity 3.5, link capacity 5;
* 20 requests, Poisson arrivals with mean inter-arrival 1 h;
* request topology: 5-node stars, orientation (to/from center) chosen
  uniformly; node and link demands U[1, 2];
* durations Weibull(shape 2, scale 4) hours;
* node mappings drawn uniformly at random per virtual node;
* flexibility sweep: 0 to 300 "minutes" in 30-minute steps
  (11 levels; 24 scenarios x 11 levels = the paper's 264 runs).

:func:`small_scenario` provides a laptop-scale variant with the same
structure (3x3 grid, 3-node stars, fewer requests) used by the default
benchmark configuration; EXPERIMENTS.md records both.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ValidationError
from repro.network.generators import grid_substrate
from repro.network.request import Request, TemporalSpec
from repro.network.substrate import SubstrateNetwork
from repro.network.topologies import star
from repro.vnep.heuristics import random_node_mapping
from repro.workloads.arrival import poisson_arrivals
from repro.workloads.duration import weibull_durations

__all__ = [
    "Scenario",
    "paper_scenario",
    "small_scenario",
    "wan_scenario",
    "PAPER_FLEXIBILITIES",
]

#: the paper's 11 flexibility levels, in hours (0 .. 300 minutes)
PAPER_FLEXIBILITIES: tuple[float, ...] = tuple(i * 0.5 for i in range(11))


@dataclass
class Scenario:
    """One workload instance: substrate + requests + fixed mappings.

    The requests carry their *base* windows (flexibility 0: window
    exactly fits the duration).  Use :meth:`with_flexibility` to widen.
    """

    substrate: SubstrateNetwork
    requests: list[Request]
    node_mappings: dict[str, dict[Hashable, Hashable]]
    seed: int | None = None
    label: str = ""
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = [r.name for r in self.requests]
        if len(set(names)) != len(names):
            raise ValidationError("scenario request names must be unique")
        missing = [n for n in names if n not in self.node_mappings]
        if missing:
            raise ValidationError(f"scenario misses node mappings for {missing}")

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def with_flexibility(self, flexibility: float) -> "Scenario":
        """Scenario copy whose request windows are widened by ``flexibility``.

        The widening extends each request's latest end (arrival time and
        duration stay fixed), giving every request the same scheduling
        slack — the paper's sweep semantics.
        """
        if flexibility < 0:
            raise ValidationError("flexibility must be >= 0")
        return Scenario(
            substrate=self.substrate,
            requests=[r.with_flexibility(flexibility) for r in self.requests],
            node_mappings=self.node_mappings,
            seed=self.seed,
            label=f"{self.label}+flex{flexibility:g}",
            metadata={**self.metadata, "flexibility": flexibility},
        )

    def subset(self, names: "list[str] | tuple[str, ...]") -> "Scenario":
        """Scenario restricted to the given request names (order kept).

        Used by the fixed-set objectives (Figures 5/6): the accepted set
        of an access-control run becomes its own instance.
        """
        wanted = set(names)
        unknown = wanted - {r.name for r in self.requests}
        if unknown:
            raise ValidationError(f"subset names not in scenario: {unknown}")
        requests = [r for r in self.requests if r.name in wanted]
        return Scenario(
            substrate=self.substrate,
            requests=requests,
            node_mappings={r.name: self.node_mappings[r.name] for r in requests},
            seed=self.seed,
            label=f"{self.label}|{len(requests)}req",
            metadata=dict(self.metadata),
        )

    def horizon(self) -> float:
        """Smallest valid time horizon ``T``."""
        return max(r.latest_end for r in self.requests)

    def total_demand(self) -> float:
        """Sum of request revenues (upper bound on any access-control run)."""
        return sum(r.revenue() for r in self.requests)


def _random_star_requests(
    substrate: SubstrateNetwork,
    count: int,
    leaves: int,
    mean_interarrival: float,
    weibull_shape: float,
    weibull_scale: float,
    demand_low: float,
    demand_high: float,
    rng: np.random.Generator,
) -> tuple[list[Request], dict[str, dict[Hashable, Hashable]]]:
    arrivals = poisson_arrivals(count, mean_interarrival, rng=rng)
    durations = weibull_durations(
        count, shape=weibull_shape, scale=weibull_scale, rng=rng
    )
    requests: list[Request] = []
    mappings: dict[str, dict[Hashable, Hashable]] = {}
    for i in range(count):
        name = f"R{i:02d}"
        direction = "to_center" if rng.random() < 0.5 else "from_center"
        node_demands = rng.uniform(demand_low, demand_high, size=leaves + 1)
        link_demands = rng.uniform(demand_low, demand_high, size=leaves)
        vnet = star(
            name,
            leaves=leaves,
            node_demand=node_demands.tolist(),
            link_demand=link_demands.tolist(),
            direction=direction,
        )
        spec = TemporalSpec(
            start=float(arrivals[i]),
            end=float(arrivals[i]) + float(durations[i]),
            duration=float(durations[i]),
        )
        request = Request(vnet, spec)
        requests.append(request)
        mappings[name] = random_node_mapping(substrate, request, rng)
    return requests, mappings


def paper_scenario(seed: int) -> Scenario:
    """One of the paper's 24 workloads, at flexibility 0.

    Parameters follow Sec. VI-A exactly; the seed indexes the scenario
    (the paper uses 24 independent workloads: seeds 0..23).
    """
    rng = np.random.default_rng(seed)
    substrate = grid_substrate(4, 5, node_capacity=3.5, link_capacity=5.0)
    requests, mappings = _random_star_requests(
        substrate,
        count=20,
        leaves=4,
        mean_interarrival=1.0,
        weibull_shape=2.0,
        weibull_scale=4.0,
        demand_low=1.0,
        demand_high=2.0,
        rng=rng,
    )
    return Scenario(
        substrate=substrate,
        requests=requests,
        node_mappings=mappings,
        seed=seed,
        label=f"paper-s{seed}",
        metadata={"scale": "paper"},
    )


def small_scenario(
    seed: int,
    num_requests: int = 6,
    leaves: int = 2,
    grid: tuple[int, int] = (3, 3),
    node_capacity: float = 3.5,
    link_capacity: float = 5.0,
) -> Scenario:
    """A laptop-scale scenario with the paper's structure.

    Same generative process as :func:`paper_scenario`, shrunk: smaller
    grid, fewer and smaller star requests.  Durations and arrivals are
    scaled down proportionally (mean inter-arrival 1 h is kept, Weibull
    scale reduced to 2 h) so contention levels stay comparable.
    """
    rng = np.random.default_rng(seed)
    rows, cols = grid
    substrate = grid_substrate(
        rows, cols, node_capacity=node_capacity, link_capacity=link_capacity
    )
    requests, mappings = _random_star_requests(
        substrate,
        count=num_requests,
        leaves=leaves,
        mean_interarrival=1.0,
        weibull_shape=2.0,
        weibull_scale=2.0,
        demand_low=1.0,
        demand_high=2.0,
        rng=rng,
    )
    return Scenario(
        substrate=substrate,
        requests=requests,
        node_mappings=mappings,
        seed=seed,
        label=f"small-s{seed}",
        metadata={"scale": "small"},
    )


def wan_scenario(
    seed: int,
    num_sites: int = 6,
    num_transfers: int = 5,
    link_capacity: float = 2.0,
    mean_interarrival: float = 1.0,
) -> Scenario:
    """B4-style WAN bulk transfers on a ring backbone.

    The paper's WAN motivation: a centrally controlled backbone plans
    bandwidth-intensive site-to-site copies.  Each request is a
    two-node chain (source site -> destination site) with a deadline;
    node demands are negligible (the copies cost bandwidth, not
    compute), so all contention is on the ring links — the setting
    where splittable routing and temporal flexibility interact most.
    """
    from repro.network.generators import ring_substrate
    from repro.network.topologies import chain

    rng = np.random.default_rng(seed)
    substrate = ring_substrate(
        num_sites, node_capacity=10.0, link_capacity=link_capacity
    )
    sites = list(substrate.nodes)
    arrivals = poisson_arrivals(num_transfers, mean_interarrival, rng=rng)
    durations = weibull_durations(num_transfers, shape=2.0, scale=2.0, rng=rng)
    requests: list[Request] = []
    mappings: dict[str, dict[Hashable, Hashable]] = {}
    for i in range(num_transfers):
        name = f"W{i:02d}"
        vnet = chain(
            name,
            length=2,
            node_demand=0.1,
            link_demand=float(rng.uniform(0.5, 1.5)),
        )
        spec = TemporalSpec(
            start=float(arrivals[i]),
            end=float(arrivals[i]) + float(durations[i]),
            duration=float(durations[i]),
        )
        request = Request(vnet, spec)
        requests.append(request)
        src = sites[rng.integers(num_sites)]
        dst = sites[rng.integers(num_sites)]
        mappings[name] = {"n0": src, "n1": dst}
    return Scenario(
        substrate=substrate,
        requests=requests,
        node_mappings=mappings,
        seed=seed,
        label=f"wan-s{seed}",
        metadata={"scale": "wan"},
    )
