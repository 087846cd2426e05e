"""Solver observability: metrics, structured traces, and their schema.

The paper's whole evaluation (Sec. V/VI) argues about *solver effort* —
node counts, relaxation strength, the payoff of cuts and presolve — so
this subpackage gives every solve a measurable shape:

* :class:`MetricsRegistry` — process-scoped counters, gauges,
  histograms and wall-clock timers with deterministic snapshot/merge
  semantics, so per-worker metrics from a parallel sweep fold back into
  exactly the numbers a serial run produces.
* :class:`SolveTrace` — a structured per-solve event stream (presolve,
  root relaxation, node expansions, cut rounds, incumbent updates,
  warm-start acceptance) serialized as JSONL.  Traces carry **no wall-clock data**, which is what makes them
  byte-identical across runs for a fixed seed — see
  ``docs/observability.md`` for the determinism contract.
* :mod:`repro.observability.schema` — the published event schema and a
  validator (``python -m repro.observability.schema trace.jsonl``).

Backends and orchestration layers report into the *active* registry and
trace (``get_registry()`` / ``current_trace()``); tests and sweep
workers isolate themselves with ``use_registry`` / ``use_trace``.
"""

from repro.observability.metrics import (
    MetricsRegistry,
    deterministic_snapshot,
    get_registry,
    merge_snapshots,
    set_registry,
    telemetry_block,
    use_registry,
)
from repro.observability.schema import (
    TRACE_SCHEMA,
    validate_event,
    validate_trace_file,
)
from repro.observability.trace import SolveTrace, current_trace, use_trace

__all__ = [
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
    "merge_snapshots",
    "deterministic_snapshot",
    "telemetry_block",
    "SolveTrace",
    "current_trace",
    "use_trace",
    "TRACE_SCHEMA",
    "validate_event",
    "validate_trace_file",
]
