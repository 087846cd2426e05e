"""Fast heuristics for static node mapping.

The paper's evaluation fixes node mappings *uniformly at random*
(Sec. VI-A); real deployments do better.  This module provides:

* :func:`random_node_mapping` — the paper's methodology,
* :func:`greedy_node_mapping` — capacity-aware best-fit-decreasing
  placement for callers that track residual capacities.

The scenario generators draw their a-priori mappings with the first;
the examples use the second.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

import numpy as np

from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork

__all__ = ["random_node_mapping", "greedy_node_mapping"]


def random_node_mapping(
    substrate: SubstrateNetwork,
    request: Request,
    rng: np.random.Generator | int | None = None,
) -> dict[Hashable, Hashable]:
    """Map every virtual node to a uniformly random substrate node.

    This is exactly the paper's a-priori mapping methodology: substrate
    nodes are drawn independently (several virtual nodes may share a
    host), and no capacity check is performed — infeasible placements
    simply lead to the request being rejected by the models.
    """
    rng = np.random.default_rng(rng)
    nodes = list(substrate.nodes)
    return {v: nodes[rng.integers(len(nodes))] for v in request.vnet.nodes}


def greedy_node_mapping(
    substrate: SubstrateNetwork,
    request: Request,
    residual_node_capacity: Mapping[Hashable, float] | None = None,
) -> dict[Hashable, Hashable] | None:
    """Capacity-aware placement: biggest demands first, fullest-fit hosts.

    Virtual nodes are placed in decreasing demand order onto the
    admissible substrate node with the *least* remaining capacity that
    still fits (best-fit packs requests densely, leaving large hosts
    free for later requests).  Returns ``None`` when some node cannot be
    placed.

    Parameters
    ----------
    residual_node_capacity:
        Remaining capacity per substrate node; defaults to the full
        capacities.
    """
    residual = dict(
        residual_node_capacity
        if residual_node_capacity is not None
        else {s: substrate.node_capacity(s) for s in substrate.nodes}
    )
    mapping: dict[Hashable, Hashable] = {}
    order = sorted(
        request.vnet.nodes,
        key=lambda v: -request.vnet.node_demand(v),
    )
    for v in order:
        demand = request.vnet.node_demand(v)
        candidates = [s for s in substrate.nodes if residual.get(s, 0.0) >= demand]
        if not candidates:
            return None
        best = min(candidates, key=lambda s: (residual[s] - demand, str(s)))
        mapping[v] = best
        residual[best] -= demand
    return mapping

