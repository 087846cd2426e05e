"""Solve results for MIP/LP models.

:class:`Solution` bundles the solver status, the incumbent assignment, the
objective value, and the branch-and-bound statistics (best bound, gap,
node count, runtime) that the paper's evaluation reports (Figures 3-6).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SolverError
from repro.mip.expr import LinExpr, Variable

__all__ = ["SolveStatus", "Solution", "relative_gap"]


class SolveStatus(enum.Enum):
    """Outcome of a solve.

    ``OPTIMAL``
        Proven optimal (within the solver's gap tolerance).
    ``FEASIBLE``
        A feasible incumbent exists but optimality was not proven
        (typically due to a time or node limit).
    ``INFEASIBLE``
        The model admits no feasible solution.
    ``UNBOUNDED``
        The objective is unbounded in the optimization direction.
    ``NO_SOLUTION``
        Terminated by a limit without finding any incumbent; the paper's
        gap plots render this case as an infinite gap (Figure 4's
        ``inf`` marker for the Delta-Model).
    ``ERROR``
        The backend failed.
    """

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    NO_SOLUTION = "no_solution"
    ERROR = "error"

    @property
    def has_solution(self) -> bool:
        """Whether an incumbent assignment is available."""
        return self in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)


def relative_gap(objective: float, bound: float) -> float:
    """Relative MIP gap ``|bound - objective| / max(1e-10, |objective|)``.

    Matches the conventional branch-and-bound gap definition used by
    Gurobi, which the paper's Figures 4 and 6 plot.  Returns ``inf`` when
    either value is missing (NaN) — the paper's "no solution found" case.
    """
    if math.isnan(objective) or math.isnan(bound):
        return math.inf
    if math.isinf(objective) or math.isinf(bound):
        return math.inf
    return abs(bound - objective) / max(1e-10, abs(objective))


@dataclass
class Solution:
    """Result of solving a :class:`~repro.mip.model.Model`.

    Attributes
    ----------
    status:
        Outcome of the solve.
    objective:
        Objective value of the incumbent (NaN when none exists).
    values:
        Incumbent assignment keyed by :class:`Variable` (empty when no
        incumbent exists).
    best_bound:
        Best proven dual bound (NaN if unavailable).
    runtime:
        Wall-clock seconds spent in the backend.
    node_count:
        Number of branch-and-bound nodes processed (0 for pure LPs).
    solver:
        Name of the backend that produced the result.
    message:
        Free-form backend diagnostics.
    x:
        The incumbent as a column vector in standard-form column order
        (``None`` when no incumbent exists or the backend works on
        variables only); set by the HiGHS backend's array-level entry.
    """

    status: SolveStatus
    objective: float = math.nan
    values: dict[Variable, float] = field(default_factory=dict)
    best_bound: float = math.nan
    runtime: float = 0.0
    node_count: int = 0
    solver: str = ""
    message: str = ""
    x: np.ndarray | None = field(default=None, repr=False)

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL

    @property
    def has_solution(self) -> bool:
        return self.status.has_solution

    @property
    def gap(self) -> float:
        """Relative optimality gap of the incumbent (0.0 when optimal)."""
        if self.status is SolveStatus.OPTIMAL:
            return 0.0
        if not self.has_solution:
            return math.inf
        return relative_gap(self.objective, self.best_bound)

    # -- value access -------------------------------------------------------
    def value(self, item: Variable | LinExpr, default: float | None = None) -> float:
        """Value of a variable or linear expression under the incumbent.

        Parameters
        ----------
        item:
            A model variable or an affine expression over model variables.
        default:
            Value used for variables absent from the assignment; when
            ``None`` a missing variable raises :class:`SolverError`.
        """
        if not self.has_solution:
            raise SolverError(
                f"no incumbent available (status={self.status.value})"
            )
        if isinstance(item, Variable):
            if item in self.values:
                return self.values[item]
            if default is None:
                raise SolverError(f"variable {item.name!r} not in solution")
            return default
        total = item.constant
        for var, coef in item.terms.items():
            total += coef * self.value(var, default)
        return total

    def value_map(self, mapping: Mapping, default: float | None = None) -> dict:
        """Evaluate every entry of a ``key -> Variable/LinExpr`` mapping."""
        return {k: self.value(v, default) for k, v in mapping.items()}

    def rounded(self, item: Variable | LinExpr, tol: float = 1e-4) -> int:
        """Integer value of an integral quantity, validating integrality."""
        raw = self.value(item)
        nearest = round(raw)
        if abs(raw - nearest) > tol:
            raise SolverError(f"value {raw} of {item} is not integral")
        return int(nearest)

    def summary(self) -> str:
        """One-line human-readable summary."""
        gap = self.gap
        gap_text = "inf" if math.isinf(gap) else f"{100 * gap:.2f}%"
        return (
            f"{self.solver or 'solver'}: {self.status.value}, "
            f"objective={self.objective:.6g}, bound={self.best_bound:.6g}, "
            f"gap={gap_text}, nodes={self.node_count}, "
            f"time={self.runtime:.3f}s"
        )
