"""Search-tree nodes for the pure-Python branch-and-bound solver.

A node is a set of bound tightenings relative to the root problem.  To
keep memory bounded on deep trees, each node stores only its own local
bound changes plus a parent pointer; the effective bound arrays are
materialized on demand by walking to the root.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["BranchNode"]

_node_counter = itertools.count()


@dataclass
class BranchNode:
    """One node of the branch-and-bound tree.

    Attributes
    ----------
    parent:
        Parent node (``None`` for the root).
    var_index:
        Column whose bound was tightened to create this node.
    local_lb, local_ub:
        The tightened bounds for ``var_index`` (only one of them differs
        from the parent for a standard branching, but both are stored to
        support bound-tightening presolve at nodes).
    depth:
        Distance from the root.
    lp_bound:
        Objective bound inherited from the parent's LP relaxation (in the
        *user's* optimization sense); refined once this node's own
        relaxation is solved.
    basis:
        Opaque LP basis token (a HiGHS basis, see
        :mod:`repro.mip.lp_engine`).  Set from this node's own
        relaxation when it has been solved, else inherited from the
        parent, so a child LP hot-starts the dual simplex from the
        closest solved ancestor.
    cached_outcome:
        The :class:`~repro.mip.lp_engine.LPResult` of this node's
        relaxation, kept between the eager bounding solve at branch
        time and the node being popped from the frontier, so the
        identical LP is not solved twice.  Cleared on consumption to
        bound memory.
    """

    parent: Optional["BranchNode"] = None
    var_index: int = -1
    local_lb: float = -math.inf
    local_ub: float = math.inf
    depth: int = 0
    lp_bound: float = math.nan
    seq: int = field(default_factory=lambda: next(_node_counter))
    basis: object = field(default=None, repr=False, compare=False)
    cached_outcome: object = field(default=None, repr=False, compare=False)

    def child(self, var_index: int, lb: float, ub: float, lp_bound: float) -> "BranchNode":
        """Create a child node tightening ``var_index`` to ``[lb, ub]``.

        The child inherits this node's basis so its first relaxation
        hot-starts from the parent — the two LPs differ by one bound.
        """
        return BranchNode(
            parent=self,
            var_index=var_index,
            local_lb=lb,
            local_ub=ub,
            depth=self.depth + 1,
            lp_bound=lp_bound,
            basis=self.basis,
        )

    def materialize_bounds(
        self, root_lb: np.ndarray, root_ub: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Effective bound arrays for this node.

        Walks ancestor bound changes from the root down so that deeper
        (more recent) tightenings win, intersecting with anything already
        applied for the same column.
        """
        lb = root_lb.copy()
        ub = root_ub.copy()
        chain: list[BranchNode] = []
        node: Optional[BranchNode] = self
        while node is not None and node.parent is not None:
            chain.append(node)
            node = node.parent
        for entry in reversed(chain):
            i = entry.var_index
            lb[i] = max(lb[i], entry.local_lb)
            ub[i] = min(ub[i], entry.local_ub)
        return lb, ub

    def path_description(self) -> str:
        """Human-readable branching path (for debug logging)."""
        parts = []
        node: Optional[BranchNode] = self
        while node is not None and node.parent is not None:
            parts.append(f"x{node.var_index}∈[{node.local_lb:g},{node.local_ub:g}]")
            node = node.parent
        return " ∧ ".join(reversed(parts)) or "<root>"
