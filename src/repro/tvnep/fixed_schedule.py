"""Link embedding for a *fixed* schedule and node mapping.

When every request's start/end time and node mapping are fixed, the
TVNEP loses all its integer structure: the only remaining freedom is
the splittable routing of virtual links, which is a pure LP —

* flow-conservation rows per (request, virtual link, substrate node):
  the block ``kron(I_K, B)`` over the ``K`` (placement, virtual link)
  pairs, with ``B`` the substrate's node-link incidence matrix;
* one capacity row per (critical interval, substrate link): the block
  ``kron(w_g, I)`` per critical group ``g``, where ``w_g`` holds the
  link demands of the group's members and the critical intervals come
  from sweeping the fixed activity intervals (Sec. III-A's event-point
  insight applied directly).  Node capacities are constants here and
  are checked before any LP is built.

The structure is fixed, so the LP is assembled straight from
``scipy.sparse`` blocks and handed to HiGHS as arrays, with no
:class:`~repro.mip.model.Model` in between.

This LP is the decision rule of the greedy cSigma^G_A
(:func:`repro.tvnep.greedy.greedy_csigma`), and doubles as a
standalone "can these tenants coexist?" feasibility oracle.  The greedy
applies the rule through :class:`PathFirstAdmission`, which keeps a
feasible flow assignment for the accepted set and accepts most
candidates by a path search over the residual link capacities, solving
an LP only when that search fails.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Mapping
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ValidationError

# called through this module attribute, which perfbench/tracing.py wraps
# as the ``mip.lp`` layer
from repro.mip.highs_backend import solve_arrays as solve_highs
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.observability.metrics import get_registry
from repro.temporal.interval import Interval

__all__ = [
    "FixedPlacement",
    "FixedScheduleResult",
    "PathFirstAdmission",
    "solve_fixed_schedule",
]


@dataclass(frozen=True)
class FixedPlacement:
    """One request pinned in space and time."""

    request: Request
    node_mapping: Mapping[Hashable, Hashable]
    interval: Interval

    def node_usage(self) -> dict[Hashable, float]:
        usage: dict[Hashable, float] = {}
        for v, host in self.node_mapping.items():
            usage[host] = usage.get(host, 0.0) + self.request.vnet.node_demand(v)
        return usage


@dataclass
class FixedScheduleResult:
    """Outcome of the fixed-schedule link-embedding LP."""

    feasible: bool
    #: ``{request name: {virtual link: {substrate link: fraction}}}``
    link_flows: dict[str, dict[tuple, dict[tuple, float]]]
    #: reason when infeasible ("" otherwise)
    reason: str = ""
    runtime: float = 0.0


def _critical_groups(
    placements: list[FixedPlacement],
) -> list[list[int]]:
    """Indices of simultaneously active placements per critical interval.

    Activity intervals are open, so groups are formed at the midpoints
    between consecutive critical times.
    """
    points = sorted(
        {p.interval.lo for p in placements} | {p.interval.hi for p in placements}
    )
    groups: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for lo, hi in zip(points, points[1:]):
        mid = 0.5 * (lo + hi)
        active = [
            i
            for i, p in enumerate(placements)
            if p.interval.lo < mid < p.interval.hi
        ]
        key = tuple(active)
        if active and key not in seen:
            seen.add(key)
            groups.append(active)
    return groups


def solve_fixed_schedule(
    substrate: SubstrateNetwork,
    placements: list[FixedPlacement],
) -> FixedScheduleResult:
    """Decide whether the pinned placements can coexist; return flows.

    Node feasibility is pure arithmetic (mappings are constants); link
    feasibility solves one LP.  Placements with a degenerate interval
    contribute nothing (they never hold resources).
    """
    _check_mappings(placements)
    active_placements = [p for p in placements if not p.interval.is_degenerate]
    groups = _critical_groups(active_placements)
    reason = _node_overload(substrate, active_placements, groups)
    if reason:
        return FixedScheduleResult(feasible=False, link_flows={}, reason=reason)
    capacity = np.array([substrate.link_capacity(ls) for ls in substrate.links])
    return _link_lp(substrate, active_placements, groups, capacity)


def _check_mappings(placements: list[FixedPlacement]) -> None:
    for placement in placements:
        missing = [
            v
            for v in placement.request.vnet.nodes
            if v not in placement.node_mapping
        ]
        if missing:
            raise ValidationError(
                f"{placement.request.name}: mapping misses {missing}"
            )


def _node_overload(
    substrate: SubstrateNetwork,
    placements: list[FixedPlacement],
    groups: list[list[int]],
) -> str:
    """Why some critical group overloads a node ("" when none does).

    Node capacities are constants here, so this is plain arithmetic.
    """
    for group in groups:
        usage: dict[Hashable, float] = {}
        for index in group:
            for host, amount in placements[index].node_usage().items():
                usage[host] = usage.get(host, 0.0) + amount
        for host, amount in usage.items():
            if amount > substrate.node_capacity(host) + 1e-9:
                members = ", ".join(placements[i].request.name for i in group)
                return (
                    f"node {host!r} over capacity "
                    f"({amount:.3f} > {substrate.node_capacity(host):g}) "
                    f"while {{{members}}} are active"
                )
    return ""


def _link_lp(
    substrate: SubstrateNetwork,
    placements: list[FixedPlacement],
    groups: list[list[int]],
    capacity: np.ndarray,
) -> FixedScheduleResult:
    """Route the placements' virtual links by one LP.

    Each critical group gets one capacity row per substrate link, with
    right-hand side ``capacity`` (indexed like ``substrate.links``).
    """
    # columns: placement -> virtual link -> substrate link; rows: one
    # incidence block per (placement, virtual link) pair, then one
    # capacity row per substrate link per critical group
    links = substrate.links
    num_links = len(links)
    incidence, node_row = _incidence(substrate)
    num_node_rows = incidence.shape[0]

    pairs: list[tuple[int, tuple]] = []
    demands: list[float] = []
    supply_rows: list[int] = []
    supply: list[float] = []
    for index, placement in enumerate(placements):
        vnet = placement.request.vnet
        for lv in vnet.links:
            src = placement.node_mapping[lv[0]]
            dst = placement.node_mapping[lv[1]]
            if src != dst:
                stranded = [h for h in (src, dst) if h not in node_row]
                if stranded:
                    return FixedScheduleResult(
                        feasible=False,
                        link_flows={},
                        reason=(
                            f"{placement.request.name}: virtual link {lv} "
                            f"ends on {stranded[0]!r}, which has no "
                            "substrate link"
                        ),
                    )
                offset = len(pairs) * num_node_rows
                supply_rows += [offset + node_row[src], offset + node_row[dst]]
                supply += [1.0, -1.0]
            pairs.append((index, lv))
            demands.append(vnet.link_demand(lv))

    num_pairs = len(pairs)
    owner = np.array([index for index, _ in pairs], dtype=np.int64)
    weight = np.array(demands, dtype=np.float64)
    # one demand vector w_g per critical group; all-zero ones add no row
    weights = [np.where(np.isin(owner, group), weight, 0.0) for group in groups]
    weights = [w_g for w_g in weights if w_g.any()]
    W = sp.csr_matrix(np.array(weights).reshape(len(weights), num_pairs))

    flow_block = sp.kron(sp.identity(num_pairs), incidence, format="csr")
    capacity_block = sp.kron(W, sp.identity(num_links), format="csr")
    A = sp.vstack([flow_block, capacity_block], format="csr")
    balance = np.zeros(flow_block.shape[0])
    balance[supply_rows] = supply
    no_floor = np.full(capacity_block.shape[0], -np.inf)
    # + 0.0 normalises signed zeros
    row_lb = np.concatenate([balance, no_floor]) + 0.0
    row_ub = np.concatenate([balance, np.tile(capacity, len(weights))]) + 0.0

    # minimizing total flow keeps routings cycle-free and canonical;
    # every flow is a fraction in [0, 1]
    num_vars = A.shape[1]
    ones = np.ones(num_vars)
    solution = solve_highs(ones, A, row_lb, row_ub, np.zeros(num_vars), ones)
    if not solution.has_solution:
        return FixedScheduleResult(
            feasible=False,
            link_flows={},
            reason="link-embedding LP infeasible",
            runtime=solution.runtime,
        )

    flows: dict[str, dict[tuple, dict[tuple, float]]] = {}
    x = solution.x.reshape(num_pairs, num_links)
    for k, e in zip(*np.nonzero(x > 1e-7)):
        index, lv = pairs[k]
        name = placements[index].request.name
        value = min(float(x[k, e]), 1.0)
        flows.setdefault(name, {}).setdefault(lv, {})[links[e]] = value
    # placements with no active links still appear with empty flows
    for placement in placements:
        flows.setdefault(placement.request.name, {})
    return FixedScheduleResult(
        feasible=True, link_flows=flows, runtime=solution.runtime
    )


class PathFirstAdmission:
    """A growing accepted set and one feasible flow assignment for it.

    :meth:`admit` tests one more placement against the accepted ones,
    trying the cheapest sufficient test first:

    0. node capacities, by arithmetic (the rule of
       :func:`solve_fixed_schedule`);
    1. a path search: each link's *residual* is its capacity minus the
       largest accepted load over the critical intervals that overlap
       the placement's window (exact, since the placement is constant
       over its window); each virtual link is then routed unsplit by
       BFS over links whose residual covers its demand, which is
       subtracted as it goes;
    2. the link-embedding LP over the placement's flows alone, with the
       residuals as capacities;
    3. the joint LP (:func:`solve_fixed_schedule` over accepted + new),
       which decides and whose flows become the assignment.

    Steps 1 and 2 accept only when a joint flow exists (the accepted
    loads stay as they are), so every decision is the joint LP's.  The
    assignment is kept as one per-link load vector per placement.
    """

    def __init__(self, substrate: SubstrateNetwork) -> None:
        self.substrate = substrate
        #: the accepted placements, in acceptance order
        self.placements: list[FixedPlacement] = []
        self._loads: list[np.ndarray] = []
        links = substrate.links
        self._link_index = {link: e for e, link in enumerate(links)}
        self._capacity = np.array([substrate.link_capacity(ls) for ls in links])
        self._out: dict[Hashable, list[tuple[int, Hashable]]] = {}
        for e, (tail, head) in enumerate(links):
            self._out.setdefault(tail, []).append((e, head))

    def admit(self, trial: FixedPlacement) -> bool:
        """Accept ``trial`` if it can join the accepted set."""
        _check_mappings([trial])
        placements = [*self.placements, trial]
        new = len(self.placements)
        # the accepted set alone fits, so only the critical intervals
        # that overlap the new window can overload (degenerate
        # placements join no critical group)
        groups = [g for g in _critical_groups(placements) if new in g]
        if _node_overload(self.substrate, placements, groups):
            return False
        held = np.zeros_like(self._capacity)
        for group in groups:
            others = sum(self._loads[i] for i in group if i != new)
            held = np.maximum(held, others)
        residual = self._capacity - held

        registry = get_registry()
        load = self._route(trial, residual.copy())
        if load is not None:
            registry.inc("fixed_schedule.path_accepts")
            self._accept(trial, load)
            return True
        result = _link_lp(self.substrate, [trial], [[0]], residual)
        if result.feasible:
            registry.inc("fixed_schedule.residual_lp_accepts")
            self._accept(trial, self._load(trial, result.link_flows))
            return True
        registry.inc("fixed_schedule.joint_lps")
        result = solve_fixed_schedule(self.substrate, placements)
        if not result.feasible:
            return False
        self.placements = placements
        self._loads = [self._load(p, result.link_flows) for p in placements]
        return True

    def _accept(self, trial: FixedPlacement, load: np.ndarray) -> None:
        self.placements.append(trial)
        self._loads.append(load)

    def _load(self, placement: FixedPlacement, flows: Mapping) -> np.ndarray:
        """Per-link load of ``placement`` under the LP ``flows``."""
        load = np.zeros_like(self._capacity)
        vnet = placement.request.vnet
        for lv, on_links in flows.get(placement.request.name, {}).items():
            for link, value in on_links.items():
                load[self._link_index[link]] += vnet.link_demand(lv) * value
        return load

    def _route(
        self, placement: FixedPlacement, residual: np.ndarray
    ) -> np.ndarray | None:
        """Per-link load of an unsplit routing within ``residual``, if any."""
        load = np.zeros_like(residual)
        vnet = placement.request.vnet
        for lv in vnet.links:
            src = placement.node_mapping[lv[0]]
            dst = placement.node_mapping[lv[1]]
            if src == dst:
                continue
            demand = vnet.link_demand(lv)
            path = self._bfs(src, dst, residual >= demand)
            if path is None:
                return None
            residual[path] -= demand
            load[path] += demand
        return load

    def _bfs(
        self, src: Hashable, dst: Hashable, usable: np.ndarray
    ) -> list[int] | None:
        """Link indices of a fewest-hop ``src -> dst`` path over ``usable`` links."""
        reached: dict[Hashable, tuple[int, Hashable] | None] = {src: None}
        frontier = deque([src])
        while frontier:
            node = frontier.popleft()
            for e, head in self._out.get(node, ()):
                if not usable[e] or head in reached:
                    continue
                reached[head] = (e, node)
                if head == dst:
                    path = []
                    step = reached[dst]
                    while step is not None:
                        path.append(step[0])
                        step = reached[step[1]]
                    return path
                frontier.append(head)
        return None


def _incidence(
    substrate: SubstrateNetwork,
) -> tuple[sp.csr_matrix, dict[Hashable, int]]:
    """Node-link incidence ``B`` of the substrate, and each node's row.

    ``B[v, e]`` is +1 when ``v`` is the tail of link ``e`` and -1 when
    it is the head, in ``substrate.nodes`` / ``substrate.links`` order.
    Nodes without any link have an all-zero row, which carries no
    conservation constraint: it is dropped and the node gets no row.
    """
    position = {node: i for i, node in enumerate(substrate.nodes)}
    links = substrate.links
    tails = np.array([position[u] for u, _ in links], dtype=np.int64)
    heads = np.array([position[v] for _, v in links], dtype=np.int64)
    linked = np.zeros(len(position), dtype=bool)
    linked[tails] = linked[heads] = True
    row = np.cumsum(linked) - 1
    columns = np.arange(len(links))
    B = sp.csr_matrix(
        (
            np.concatenate([np.ones(len(links)), -np.ones(len(links))]),
            (
                np.concatenate([row[tails], row[heads]]),
                np.concatenate([columns, columns]),
            ),
        ),
        shape=(int(linked.sum()), len(links)),
    )
    node_row = {node: int(row[i]) for node, i in position.items() if linked[i]}
    return B, node_row
