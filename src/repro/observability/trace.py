"""Structured per-solve traces (JSONL event streams).

A :class:`SolveTrace` is an append-only sequence of events describing
one solve (or one sweep cell): presolve outcome, root relaxation,
node expansions, cut rounds, incumbent updates, warm-start acceptance
and the bnb's time/node-limit stops.  The event
vocabulary and required fields are published in
:mod:`repro.observability.schema`.

**Determinism contract** (enforced by tests and the CI smoke job): an
event payload never contains wall-clock data — no timestamps, no
runtimes, no remaining-time seconds.  Everything recorded (bounds,
objective values, node/cut counts, statuses) is a pure function of the
model and the solver configuration, so a fixed-seed solve serializes to
a *byte-identical* trace on every run, and a parallel sweep writes the
same trace file as a serial one.  Wall-clock observations belong in the
:mod:`~repro.observability.metrics` registry, whose ``*_ms`` metrics
are explicitly outside the contract.

Instrumented code emits into the *active* trace (:func:`current_trace`),
which is ``None`` unless a caller opted in with :func:`use_trace` —
tracing off costs one ``is None`` check per event site.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

__all__ = ["SolveTrace", "current_trace", "use_trace"]


def _jsonable(value):
    """Coerce numpy scalars etc. to JSON-ready builtins."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return float(value)  # numpy.float64 is a float subclass
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    try:
        as_float = float(value)
    except (TypeError, ValueError):
        return str(value)
    if as_float == int(as_float) and abs(as_float) < 2**53 and not isinstance(
        value, float
    ):
        # numpy integer scalars
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    return _jsonable(as_float)


class SolveTrace:
    """An ordered, schema-conforming event stream for one solve.

    Parameters
    ----------
    context:
        Key/value pairs stamped onto every event (e.g. the sweep-cell
        label).  Context values must themselves be deterministic.
    """

    def __init__(self, context: dict | None = None) -> None:
        self.events: list[dict] = []
        self.context = dict(context or {})

    def emit(self, event: str, **payload) -> dict:
        """Append one event; returns the stored (coerced) dict."""
        entry = {"seq": len(self.events), "event": event}
        for key, value in self.context.items():
            entry[key] = _jsonable(value)
        for key, value in payload.items():
            entry[key] = _jsonable(value)
        self.events.append(entry)
        return entry

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def select(self, event: str) -> list[dict]:
        """All events of one type, in emission order."""
        return [e for e in self.events if e["event"] == event]

    def last(self, event: str) -> dict | None:
        """The most recent event of one type, or ``None``."""
        for entry in reversed(self.events):
            if entry["event"] == event:
                return entry
        return None

    # -- serialization ------------------------------------------------------
    def to_jsonl(self) -> str:
        """Canonical JSONL: sorted keys, minimal separators, ``\\n`` ends.

        The canonical form is what the byte-identity guarantee is
        stated over; two traces with equal events serialize equally.
        """
        return "".join(
            json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"
            for entry in self.events
        )

    def write(self, path: str, append: bool = False) -> int:
        """Write (or append) the canonical JSONL; returns #events."""
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(self.to_jsonl())
        return len(self.events)

    @staticmethod
    def read_events(path: str) -> list[dict]:
        """Parse a JSONL trace file back into event dicts."""
        events: list[dict] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
        return events


#: the trace stack; ``None`` entries mean "tracing off" for the scope
_STACK: list[SolveTrace | None] = [None]


def current_trace() -> SolveTrace | None:
    """The active trace, or ``None`` when tracing is off."""
    return _STACK[-1]


@contextmanager
def use_trace(trace: SolveTrace | None):
    """Make ``trace`` the active trace for the duration of the block.

    Passing ``None`` explicitly *disables* tracing for the scope (used
    to shield inner solves that should not pollute an outer trace).
    """
    _STACK.append(trace)
    try:
        yield trace
    finally:
        _STACK.pop()
