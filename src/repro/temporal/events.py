"""Abstract event points and state timelines (Sec. III-A).

The continuous-time models replace "for all t in [0, T]" with finitely
many *states* between consecutive *event points*.  This module provides:

* :class:`EventSpace` — the index bookkeeping shared by the Delta-,
  Sigma- and cSigma-Models (how many events, which events may host
  starts/ends, which states lie between them).
* :class:`Timeline` — a concrete schedule's piecewise-constant
  allocation profile, used by the feasibility verifier and the load
  metrics.
"""

from __future__ import annotations

import bisect
from collections.abc import Hashable, Mapping
from dataclasses import dataclass

from repro.exceptions import ValidationError
from repro.temporal.interval import Interval

__all__ = ["EventSpace", "Timeline"]


@dataclass(frozen=True)
class EventSpace:
    """Index structure over abstract event points.

    Parameters
    ----------
    num_requests:
        ``|R|``.
    compact:
        ``False`` — the Delta-/Sigma-Model layout with ``2|R|`` events
        (starts and ends both bijective);
        ``True`` — the cSigma layout with ``|R|+1`` events (starts
        bijective on the first ``|R|`` events, ends many-to-one on
        events ``2 .. |R|+1``).

    Events are 1-indexed (``e_1 .. e_n``) to match the paper; states
    ``s_i`` sit between ``e_i`` and ``e_{i+1}``.
    """

    num_requests: int
    compact: bool

    def __post_init__(self) -> None:
        if self.num_requests < 1:
            raise ValidationError("event space needs at least one request")

    @property
    def num_events(self) -> int:
        """``|E|`` — total number of abstract event points."""
        return self.num_requests + 1 if self.compact else 2 * self.num_requests

    @property
    def num_states(self) -> int:
        """``|S|`` — states between consecutive events."""
        return self.num_events - 1

    @property
    def events(self) -> range:
        """Event indices ``1 .. |E|``."""
        return range(1, self.num_events + 1)

    @property
    def states(self) -> range:
        """State indices ``1 .. |S|`` (state ``i`` spans ``[e_i, e_{i+1}]``)."""
        return range(1, self.num_states + 1)

    @property
    def start_events(self) -> range:
        """Events that may host a request *start*.

        Compact layout: ``e_1 .. e_|R|`` (Table XI, Constraint 10).
        Full layout: all events.
        """
        if self.compact:
            return range(1, self.num_requests + 1)
        return self.events

    @property
    def end_events(self) -> range:
        """Events that may host a request *end*.

        Compact layout: ``e_2 .. e_{|R|+1}`` (Table XI, Constraint 11).
        Full layout: all events.
        """
        if self.compact:
            return range(2, self.num_requests + 2)
        return self.events


class Timeline:
    """Piecewise-constant per-resource allocation profile of a schedule.

    Built by sweeping request activity intervals; answers "how much of
    resource ``r`` is used at time ``t``" and "what is the peak usage of
    ``r``" — the primitives behind the feasibility verifier and the
    load-balancing metrics.
    """

    def __init__(self) -> None:
        # resource -> list of (time, delta) pairs
        self._deltas: dict[Hashable, list[tuple[float, float]]] = {}
        self._compiled: dict[Hashable, tuple[list[float], list[float]]] = {}
        self._dirty = False

    def add_usage(
        self, resource: Hashable, interval: Interval, amount: float
    ) -> None:
        """Record ``amount`` of usage of ``resource`` during ``interval``.

        The activity interval is treated as *open* ``(lo, hi)`` per
        Definition 2.1: usage that ends at ``t`` does not overlap usage
        starting at ``t``.
        """
        if amount < 0:
            raise ValidationError("usage amount must be >= 0")
        if amount == 0 or interval.is_degenerate:
            return
        events = self._deltas.setdefault(resource, [])
        events.append((interval.lo, amount))
        events.append((interval.hi, -amount))
        self._dirty = True

    def add_usages(
        self,
        usages: Mapping[Hashable, float],
        interval: Interval,
    ) -> None:
        """Record several resources' usage over the same interval."""
        for resource, amount in usages.items():
            self.add_usage(resource, interval, amount)

    def _compile(self) -> None:
        if not self._dirty and self._compiled:
            return
        self._compiled = {}
        for resource, events in self._deltas.items():
            # ends sort before starts at the same instant (open intervals)
            ordered = sorted(events, key=lambda td: (td[0], td[1]))
            times: list[float] = []
            levels: list[float] = []
            level = 0.0
            for t, delta in ordered:
                level += delta
                if times and times[-1] == t:
                    levels[-1] = level
                else:
                    times.append(t)
                    levels.append(level)
            self._compiled[resource] = (times, levels)
        self._dirty = False

    def usage_at(self, resource: Hashable, t: float) -> float:
        """Usage of ``resource`` at time ``t`` (open-interval semantics).

        ``t`` exactly at a breakpoint reports the level *just after* the
        simultaneous ends/starts settle — consistent with open activity
        intervals where boundary instants are contention-free.
        """
        self._compile()
        times, levels = self._compiled.get(resource, ([], []))
        idx = bisect.bisect_right(times, t) - 1
        if idx < 0:
            return 0.0
        return levels[idx]

    def peak(self, resource: Hashable) -> float:
        """Maximum usage of ``resource`` over all time."""
        self._compile()
        _, levels = self._compiled.get(resource, ([], []))
        return max(levels, default=0.0)

    def breakpoints(self, resource: Hashable) -> list[float]:
        """Times at which the resource's usage level changes."""
        self._compile()
        times, _ = self._compiled.get(resource, ([], []))
        return list(times)

    def resources(self) -> list[Hashable]:
        return list(self._deltas)

    def violations(
        self, capacities: Mapping[Hashable, float], tol: float = 1e-6
    ) -> dict[Hashable, float]:
        """Resources whose peak exceeds capacity, with the excess amount."""
        out: dict[Hashable, float] = {}
        for resource in self._deltas:
            cap = capacities.get(resource)
            if cap is None:
                continue
            excess = self.peak(resource) - cap
            if excess > tol:
                out[resource] = excess
        return out
