"""Branching-variable selection rules for the branch-and-bound solver.

Two classic rules are provided:

* :class:`MostFractionalBranching` — pick the integral column whose LP
  value is farthest from an integer (the textbook default).
* :class:`PseudoCostBranching` — track per-column objective degradations
  observed in past branchings and pick the column with the best expected
  product score (Achterberg's product rule); falls back to
  most-fractional until enough history accumulates.

All rules operate on raw NumPy arrays for speed.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "BranchingRule",
    "MostFractionalBranching",
    "PseudoCostBranching",
    "fractional_columns",
    "make_branching_rule",
]

#: LP values within this distance of an integer count as integral.
INTEGRALITY_TOL = 1e-6


def fractional_columns(
    x: np.ndarray, integrality: np.ndarray, tol: float = INTEGRALITY_TOL
) -> np.ndarray:
    """Indices of integral columns with fractional LP values."""
    frac = np.abs(x - np.round(x))
    return np.flatnonzero((integrality.astype(bool)) & (frac > tol))


class BranchingRule(ABC):
    """Strategy interface: choose the column to branch on."""

    @abstractmethod
    def select(self, x: np.ndarray, integrality: np.ndarray) -> int:
        """Return the column index to branch on.

        Precondition: at least one fractional integral column exists.
        """

    def observe(
        self, var_index: int, direction: str, parent_bound: float, child_bound: float
    ) -> None:
        """Record the outcome of a past branching (hook for stateful rules).

        Parameters
        ----------
        var_index:
            Column that was branched on.
        direction:
            ``"down"`` (ub floored) or ``"up"`` (lb ceiled).
        parent_bound, child_bound:
            Internal-sense (minimization) LP bounds before/after.
        """


class MostFractionalBranching(BranchingRule):
    """Branch on the column whose fractional part is closest to 0.5."""

    def select(self, x: np.ndarray, integrality: np.ndarray) -> int:
        candidates = fractional_columns(x, integrality)
        if candidates.size == 0:
            raise ValueError("no fractional column to branch on")
        frac = x[candidates] - np.floor(x[candidates])
        score = np.abs(frac - 0.5)
        return int(candidates[np.argmin(score)])


class PseudoCostBranching(BranchingRule):
    """Pseudo-cost branching with the product scoring rule.

    For each column we maintain average per-unit objective degradations
    for down- and up-branches.  A column's score is
    ``max(eps, down_gain) * max(eps, up_gain)``; the highest score wins.
    Columns without history use the running average of all observed
    pseudo-costs (standard initialization), which reduces to
    most-fractional behaviour at the start of the search.
    """

    def __init__(self, reliability: int = 1) -> None:
        #: minimum observations per direction before trusting a column
        self.reliability = max(0, reliability)
        self._sum: dict[tuple[int, str], float] = {}
        self._count: dict[tuple[int, str], int] = {}

    def observe(
        self, var_index: int, direction: str, parent_bound: float, child_bound: float
    ) -> None:
        if math.isnan(parent_bound) or math.isnan(child_bound):
            return
        if math.isinf(child_bound):
            # infeasible child: strong signal, recorded with a large gain
            gain = abs(parent_bound) + 1.0
        else:
            gain = max(0.0, child_bound - parent_bound)
        key = (var_index, direction)
        self._sum[key] = self._sum.get(key, 0.0) + gain
        self._count[key] = self._count.get(key, 0) + 1

    def _avg(self, var_index: int, direction: str, global_avg: float) -> float:
        key = (var_index, direction)
        count = self._count.get(key, 0)
        if count < max(1, self.reliability):
            return global_avg
        return self._sum[key] / count

    def select(self, x: np.ndarray, integrality: np.ndarray) -> int:
        candidates = fractional_columns(x, integrality)
        if candidates.size == 0:
            raise ValueError("no fractional column to branch on")
        total = sum(self._sum.values())
        count = sum(self._count.values())
        global_avg = total / count if count else 1.0
        eps = 1e-8
        best, best_score = int(candidates[0]), -1.0
        for idx in candidates:
            idx = int(idx)
            frac = x[idx] - math.floor(x[idx])
            down = frac * self._avg(idx, "down", global_avg)
            up = (1.0 - frac) * self._avg(idx, "up", global_avg)
            score = max(eps, down) * max(eps, up)
            if score > best_score:
                best, best_score = idx, score
        return best


def make_branching_rule(name: str) -> BranchingRule:
    """Factory: ``"most_fractional"`` or ``"pseudocost"``."""
    table = {
        "most_fractional": MostFractionalBranching,
        "pseudocost": PseudoCostBranching,
    }
    try:
        return table[name]()
    except KeyError:
        raise ValueError(
            f"unknown branching rule {name!r}; expected one of {sorted(table)}"
        ) from None
