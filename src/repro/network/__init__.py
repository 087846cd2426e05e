"""Substrate networks, virtual-network requests and generators.

The data model follows the paper's notation:

* :class:`SubstrateNetwork` — ``(V_S, E_S, c_S)`` (Table I),
* :class:`VirtualNetwork` — ``(V_R, E_R, c_R)`` (Table II),
* :class:`TemporalSpec` / :class:`Request` — ``(t^s, t^e, d)`` (Table VI).
"""

from repro.network.generators import (
    fat_tree_substrate,
    grid_substrate,
    line_substrate,
    ring_substrate,
)
from repro.network.request import Request, TemporalSpec, VirtualNetwork
from repro.network.substrate import SubstrateNetwork
from repro.network.validation import LintReport, lint_instance
from repro.network.topologies import bipartite_shuffle, chain, ring, star

__all__ = [
    "SubstrateNetwork",
    "VirtualNetwork",
    "TemporalSpec",
    "Request",
    "grid_substrate",
    "fat_tree_substrate",
    "line_substrate",
    "ring_substrate",
    "star",
    "chain",
    "ring",
    "bipartite_shuffle",
    "LintReport",
    "lint_instance",
]
