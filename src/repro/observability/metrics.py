"""A process-scoped metrics registry with deterministic merge semantics.

Design constraints (they shape everything here):

1. **Scoping.**  Metrics used to live in ad-hoc process globals
   (``repro.mip.model._CACHE_STATS``) that leaked across tests and
   parallel workers.  A :class:`MetricsRegistry` is an explicit object;
   the *active* one is the top of a stack manipulated with
   :func:`use_registry`, so a test or a sweep cell can measure in
   isolation and fold its numbers back up afterwards.
2. **Deterministic merging.**  The parallel sweep engine snapshots each
   worker's registry and merges the snapshots into the parent.  Merging
   counters and histograms is commutative and associative, so the merged
   result is independent of worker scheduling — a serial run and a
   ``--workers N`` run produce identical merged telemetry.
3. **Wall-clock quarantine.**  Any metric whose name ends in ``_ms`` is
   wall-clock timing by convention.  :func:`deterministic_snapshot`
   strips those, yielding the part of a snapshot that must be equal
   between repeated runs (the telemetry regression tests and the CI
   ``telemetry-smoke`` job diff exactly this).
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "merge_snapshots",
    "deterministic_snapshot",
    "telemetry_block",
    "TIMING_SUFFIX",
]

#: metric names ending in this are wall-clock and excluded from the
#: determinism contract
TIMING_SUFFIX = "_ms"


class MetricsRegistry:
    """Counters, gauges, histograms and monotonic timers.

    All values are plain numbers; a *snapshot* is a nested dict of
    builtins only (JSON-ready, picklable for the sweep workers).
    """

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    # -- counters -----------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        """Increment a monotone counter."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> float:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(name, 0)

    # -- gauges -------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (last write wins on merge)."""
        self._gauges[name] = value

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    # -- histograms ---------------------------------------------------------
    def observe(self, name: str, value: float) -> None:
        """Record one observation (count/sum/min/max summary)."""
        h = self._histograms.get(name)
        if h is None:
            self._histograms[name] = {
                "count": 1,
                "sum": float(value),
                "min": float(value),
                "max": float(value),
            }
        else:
            h["count"] += 1
            h["sum"] += value
            h["min"] = min(h["min"], value)
            h["max"] = max(h["max"], value)

    def histogram(self, name: str) -> dict[str, float] | None:
        return self._histograms.get(name)

    # -- timers -------------------------------------------------------------
    @contextmanager
    def timer(self, name: str):
        """Accumulate wall-clock milliseconds into counter ``{name}_ms``.

        The ``_ms`` suffix marks the counter as timing, excluding it
        from :func:`deterministic_snapshot` — timers never participate
        in the byte-level determinism contract.
        """
        tick = time.perf_counter()
        try:
            yield
        finally:
            self.inc(name + TIMING_SUFFIX, (time.perf_counter() - tick) * 1000.0)

    def add_ms(self, name: str, milliseconds: float) -> None:
        """Record already-measured wall time under ``{name}_ms``."""
        self.inc(name + TIMING_SUFFIX, milliseconds)

    # -- snapshot / merge / reset -------------------------------------------
    def snapshot(self) -> dict:
        """A deep, JSON-ready copy of the registry contents."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {k: dict(v) for k, v in self._histograms.items()},
        }

    def merge(self, snap: dict) -> None:
        """Fold a snapshot in: counters add, histograms combine, gauges
        take the incoming value.  Counter/histogram merging is
        commutative, so the result is independent of merge order —
        the property the parallel sweep relies on."""
        for name, value in snap.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snap.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, h in snap.get("histograms", {}).items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = dict(h)
            else:
                mine["count"] += h["count"]
                mine["sum"] += h["sum"]
                mine["min"] = min(mine["min"], h["min"])
                mine["max"] = max(mine["max"], h["max"])

    def reset(self) -> None:
        """Zero everything (per-registry; other registries unaffected)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def summary_lines(self) -> list[str]:
        """Sorted ``name value`` lines for ``--metrics-summary`` output.

        Deterministic metrics come first, timing (``*_ms``) metrics
        after a blank separator, so scripts can cut at the separator
        and diff the reproducible half.
        """
        det: list[str] = []
        timing: list[str] = []
        for name in sorted(self._counters):
            value = self._counters[name]
            text = f"{name} {value:.3f}" if name.endswith(TIMING_SUFFIX) else (
                f"{name} {value:g}"
            )
            (timing if name.endswith(TIMING_SUFFIX) else det).append(text)
        for name in sorted(self._gauges):
            (timing if name.endswith(TIMING_SUFFIX) else det).append(
                f"{name} {self._gauges[name]:g}"
            )
        for name in sorted(self._histograms):
            h = self._histograms[name]
            line = (
                f"{name} count={h['count']:g} sum={h['sum']:g} "
                f"min={h['min']:g} max={h['max']:g}"
            )
            (timing if name.endswith(TIMING_SUFFIX) else det).append(line)
        return det + ([""] if timing else []) + timing


def merge_snapshots(snapshots) -> dict:
    """Merge snapshots into one (fresh) snapshot, order-independently."""
    merged = MetricsRegistry()
    for snap in snapshots:
        merged.merge(snap)
    return merged.snapshot()


def deterministic_snapshot(snap: dict) -> dict:
    """The snapshot minus every wall-clock (``*_ms``) metric.

    This is the portion covered by the determinism contract: for a
    fixed seed it must be identical across repeated runs, and merged
    across workers it must equal the serial run's value.
    """
    return {
        "counters": {
            k: v
            for k, v in snap.get("counters", {}).items()
            if not k.endswith(TIMING_SUFFIX)
        },
        "gauges": {
            k: v
            for k, v in snap.get("gauges", {}).items()
            if not k.endswith(TIMING_SUFFIX)
        },
        "histograms": {
            k: dict(v)
            for k, v in snap.get("histograms", {}).items()
            if not k.endswith(TIMING_SUFFIX)
        },
    }


def telemetry_block(snap: dict) -> dict:
    """The per-record ``telemetry`` block derived from a cell snapshot.

    Every evaluation record carries this summary of the solver effort
    behind it (see ``docs/observability.md`` for the metric names it
    rolls up).  All fields except ``wall_ms`` are deterministic;
    ``canonical_record`` neutralizes ``wall_ms`` before comparing
    serial and parallel record sets.
    """
    counters = snap.get("counters", {})
    wall_ms = {
        name[: -len(TIMING_SUFFIX)].split(".", 1)[-1]: round(value, 3)
        for name, value in sorted(counters.items())
        if name.endswith(TIMING_SUFFIX)
    }
    hot = counters.get("solver.lp_hot_starts", 0)
    cold = counters.get("solver.lp_cold_starts", 0)
    return {
        "solves": int(counters.get("solver.solves", 0)),
        "nodes": int(counters.get("solver.nodes", 0)),
        "lp_iterations": int(counters.get("solver.lp_iterations", 0)),
        "lp_hot_starts": int(hot),
        "lp_cold_starts": int(cold),
        "basis_reuse_ratio": round(hot / (hot + cold), 6) if hot + cold else 0.0,
        "rc_fixed_cols": int(counters.get("solver.rc_fixed_cols", 0)),
        "cache_hits": int(counters.get("cache.standard_form_hits", 0)),
        "cache_misses": int(counters.get("cache.standard_form_misses", 0)),
        "warm_start_used": counters.get("warmstart.used", 0) > 0,
        "wall_ms": wall_ms,
    }


#: the registry stack; the top entry is the active registry
_STACK: list[MetricsRegistry] = [MetricsRegistry()]


def get_registry() -> MetricsRegistry:
    """The active registry (instrumented code reports here)."""
    return _STACK[-1]


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Replace the active registry; returns the previous one."""
    previous = _STACK[-1]
    _STACK[-1] = registry
    return previous


@contextmanager
def use_registry(registry: MetricsRegistry):
    """Make ``registry`` active for the duration of the block.

    Used by tests for isolation and by sweep cells/workers to measure
    one unit of work; the caller decides whether to ``merge`` the
    scoped snapshot back into the enclosing registry.
    """
    _STACK.append(registry)
    try:
        yield registry
    finally:
        _STACK.pop()
