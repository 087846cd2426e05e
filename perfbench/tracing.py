"""Outside-in spans around the public layer entry points (traced runs only).

:func:`install` patches the public functions named in :data:`LAYERS` for
the duration of a ``with`` block; nothing is patched in untraced runs.
Spans ``(name, start, end, parent, cell)`` are kept in memory by a
:class:`Tracer` and written out once, by :meth:`Tracer.write`, when the
run ends.  Wall times stay in the spans: they never enter the program's
own ``MetricsRegistry`` snapshots or ``SolveTrace`` events.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import ExitStack, contextmanager

#: registry backends that consume a ``warm_start`` (``repro.mip.highs_backend``
#: accepts and ignores it; ``repro.mip.bnb`` seeds its incumbent with it)
CONSUMES_WARM_START = frozenset({"bnb"})
#: registry backends wrapped as ``mip.milp``
MILP_BACKENDS = ("highs", "bnb")


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or None, cell id or None]``
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self.cell: str | None = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.cell])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a ``name`` span; ``after(result, args, kwargs)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``{span name: (calls, self seconds)}``.

        A span's self time is its duration minus the durations of its
        direct children (children nest inside their parent).
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals: dict[str, tuple[int, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls, seconds = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, seconds + (end - start) - child_time[index])
        return totals

    def write(self, path: str) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, cell in self.spans:
                record = {
                    "name": name,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent,
                    "cell": cell,
                }
                fh.write(json.dumps(record) + "\n")


def _patch(stack: ExitStack, owner, attribute: str, replacement) -> None:
    original = getattr(owner, attribute)
    setattr(owner, attribute, replacement)
    stack.callback(setattr, owner, attribute, original)


@contextmanager
def install(tracer: Tracer):
    """Wrap every traced layer entry point for the duration of the block."""
    from repro import tvnep
    from repro.mip.model import Model
    from repro.runtime import get_backend, override_backend
    from repro.tvnep import fixed_schedule, greedy, hybrid
    from repro.tvnep.base import TemporalModelBase
    from repro.tvnep.csigma_model import CSigmaModel
    from repro.tvnep.incremental import IncrementalCSigmaModel

    def built_warm_start(result, args, kwargs):
        tracer.count("warmstart.built", int(result is not None))

    def milp_done(name):
        def after(result, args, kwargs):
            tracer.count("milp.nodes", result.node_count)
            if name in CONSUMES_WARM_START and kwargs.get("warm_start") is not None:
                tracer.count("warmstart.consumed")

        return after

    with ExitStack() as stack:
        for owner, attribute, name in (
            (IncrementalCSigmaModel, "insert", "tvnep.build_embed"),
            (IncrementalCSigmaModel, "rebuild_tail", "tvnep.build_temporal"),
            (CSigmaModel, "__init__", "tvnep.build_full"),
            (TemporalModelBase, "extract", "tvnep.extract"),
            (tvnep, "verify_solution", "tvnep.verify"),
            (fixed_schedule, "solve_fixed_schedule", "tvnep.fixed_schedule"),
            (fixed_schedule, "solve_highs", "mip.lp"),
            (Model, "to_standard_form", "mip.compile"),
        ):
            _patch(stack, owner, attribute, tracer.wrap(name, getattr(owner, attribute)))
        # both insertion loops bound the name at import
        for module in (greedy, hybrid):
            wrapped = tracer.wrap(
                "tvnep.warmstart", module.validated_warm_start, built_warm_start
            )
            _patch(stack, module, "validated_warm_start", wrapped)
        for backend in MILP_BACKENDS:
            wrapped = tracer.wrap("mip.milp", get_backend(backend), milp_done(backend))
            stack.enter_context(override_backend(backend, wrapped))
        yield tracer
