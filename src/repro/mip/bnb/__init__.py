"""Pure-Python LP-based branch-and-bound MILP solver.

See :class:`repro.mip.bnb.solver.BranchAndBoundSolver` for the entry
point and the module docstring for why this backend exists alongside
HiGHS.
"""

from repro.mip.bnb.branching import (
    BranchingRule,
    MostFractionalBranching,
    PseudoCostBranching,
    make_branching_rule,
)
from repro.mip.bnb.node import BranchNode
from repro.mip.bnb.presolve import PresolveResult, tighten_bounds
from repro.mip.bnb.node_selection import (
    BestBoundSelection,
    DepthFirstSelection,
    HybridSelection,
    NodeSelection,
    make_node_selection,
)
from repro.mip.bnb.solver import BranchAndBoundSolver, solve

__all__ = [
    "BranchAndBoundSolver",
    "solve",
    "BranchNode",
    "tighten_bounds",
    "PresolveResult",
    "BranchingRule",
    "MostFractionalBranching",
    "PseudoCostBranching",
    "make_branching_rule",
    "NodeSelection",
    "BestBoundSelection",
    "DepthFirstSelection",
    "HybridSelection",
    "make_node_selection",
]
