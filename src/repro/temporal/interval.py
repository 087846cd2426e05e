"""Closed-interval algebra on the real line.

The TVNEP's feasibility condition (Definition 2.1) quantifies over all
points in time; in practice everything reduces to manipulating closed
intervals ``[lo, hi]`` and open activity intervals ``(t+, t-)``.  This
module provides the small algebra the feasibility verifier and event
machinery build on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ValidationError

__all__ = ["Interval"]


@dataclass(frozen=True, order=True)
class Interval:
    """A closed interval ``[lo, hi]`` with ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValidationError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValidationError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def is_degenerate(self) -> bool:
        """True for a single point ``[t, t]``."""
        return self.lo == self.hi

    def contains(self, t: float, tol: float = 0.0) -> bool:
        """Whether ``t`` lies in the closed interval (with tolerance)."""
        return self.lo - tol <= t <= self.hi + tol

    def contains_interval(self, other: "Interval", tol: float = 0.0) -> bool:
        return other.lo >= self.lo - tol and other.hi <= self.hi + tol

    def overlaps(self, other: "Interval", strict: bool = False) -> bool:
        """Whether the intervals intersect.

        With ``strict=True``, touching at a single endpoint does not
        count — this matches the paper's *open* activity intervals
        ``(t+, t-)``: a request ending exactly when another starts does
        not contend for resources.
        """
        if strict:
            return self.lo < other.hi and other.lo < self.hi
        return self.lo <= other.hi and other.lo <= self.hi

    def intersection(self, other: "Interval") -> "Interval | None":
        """The overlap interval, or ``None`` when disjoint."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        return Interval(lo, hi)

    def union_hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (not a set union)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def shifted(self, delta: float) -> "Interval":
        return Interval(self.lo + delta, self.hi + delta)

    def clamp(self, t: float) -> float:
        """Nearest point of the interval to ``t``."""
        return min(max(t, self.lo), self.hi)

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"

