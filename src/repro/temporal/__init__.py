"""Continuous-time machinery: intervals, event spaces, dependency graphs."""

from repro.temporal.dependency import DepNode, PointKind, TemporalDependencyGraph
from repro.temporal.events import EventSpace, Timeline
from repro.temporal.interval import Interval

__all__ = [
    "Interval",
    "EventSpace",
    "Timeline",
    "TemporalDependencyGraph",
    "DepNode",
    "PointKind",
]
