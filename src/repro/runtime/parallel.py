"""The process-pool sweep engine.

The evaluation sweep is a grid of *independent* solve cells
(seed × flexibility × algorithm × objective); this module shards those
cells across worker processes:

* **Determinism.**  Cells carry their position in the serial sweep
  order (``SweepCell.index``); workers receive a round-robin partition
  and the merged results are re-sorted by index, so the integrated
  record sequence is identical to a serial run (scenario generation is
  seeded per cell, nothing depends on worker scheduling).  Only the
  wall-clock ``runtime`` fields differ between runs — compare record
  sets with :func:`canonical_records`.
* **Budget sharing.**  A global
  :class:`~repro.runtime.budget.SolveBudget` is split fairly: each
  worker gets ``remaining / workers`` seconds for its whole chunk and
  applies the usual per-cell clamping inside it.  With ``workers=1``
  the caller's budget object is consumed directly (exact serial
  semantics).
* **Crash safety.**  Each worker appends finished records to its own
  shard file (``<store>.shard-NNN``) as it goes; the parent persists
  the merged results to the main store and discards the shards.  After
  a mid-sweep crash the shards survive and
  :class:`~repro.evaluation.persistence.RecordStore` folds them back
  in on the next run, so no completed cell is ever re-solved.
* **Fault-injection transparency.**  Workers are forked where the
  platform allows, so a registry poisoned via
  :func:`repro.runtime.faults.inject_faults` (or any
  ``override_backend``) is inherited and the failure path is exercised
  identically in every worker.  Spawn-only platforms lose the
  poisoning (children re-import a clean registry).

Budget-skipped cells yield ``CellResult.skipped`` and are *not*
persisted, so a resumed sweep still solves them — matching the serial
skip-without-persist contract.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
import os
from dataclasses import asdict, dataclass

from repro.runtime.budget import SolveBudget

__all__ = [
    "SweepCell",
    "CellContext",
    "CellResult",
    "run_cell",
    "execute_cells",
    "canonical_record",
    "canonical_records",
]

logger = logging.getLogger("repro.runtime")


@dataclass(frozen=True)
class SweepCell:
    """One solve cell, tagged with its position in the serial order."""

    index: int
    phase: str  # "access" | "greedy" | "objective"
    seed: int
    flexibility: float
    algorithm: str  # model name, or "greedy" for the greedy phase
    objective: str = "access_control"
    force_embedded: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        what = self.objective if self.phase == "objective" else self.algorithm
        return f"seed={self.seed} flex={self.flexibility:g} {what}"


@dataclass(frozen=True)
class CellContext:
    """The slice of :class:`EvaluationConfig` a worker needs.

    Kept primitive (no scenario/network objects) so the payload pickles
    cheaply and workers rebuild scenarios from the seed — the generator
    is deterministic, so every worker sees byte-identical instances.
    """

    scale: str
    num_requests: int
    time_limit: float
    backend: str
    fallback: bool
    load_fraction: float
    capture_trace: bool = False

    @classmethod
    def from_config(cls, config) -> "CellContext":
        return cls(
            scale=config.scale,
            num_requests=config.num_requests,
            time_limit=config.time_limit,
            backend=config.backend,
            fallback=config.fallback,
            load_fraction=config.load_fraction,
            capture_trace=getattr(config, "capture_trace", False),
        )


@dataclass
class CellResult:
    """Outcome of one cell; ``skipped`` marks budget-starved cells.

    ``metrics`` is the cell's scoped registry snapshot (merged into the
    parent's registry by :func:`execute_cells` — commutatively, so a
    parallel run merges to the same totals as a serial one);
    ``trace_events`` are the cell's :class:`SolveTrace` events when the
    context asked for ``capture_trace`` (plain dicts, pool-picklable).
    """

    index: int
    record: object | None  # RunRecord | None
    skipped: bool = False
    metrics: dict | None = None
    trace_events: list | None = None


def _make_scenario(ctx: CellContext, cell: SweepCell):
    from repro.workloads.scenario import paper_scenario, small_scenario

    if ctx.scale == "paper":
        base = paper_scenario(cell.seed)
    else:
        base = small_scenario(cell.seed, num_requests=ctx.num_requests)
    scenario = base.with_flexibility(cell.flexibility)
    if cell.force_embedded:
        scenario = scenario.subset(cell.force_embedded)
    return scenario


def run_cell(cell: SweepCell, ctx: CellContext, budget: SolveBudget | None = None):
    """Solve one cell; returns its ``RunRecord`` or ``None`` if skipped.

    Mirrors the serial sweep exactly: an expired budget skips the cell
    (without a record, so a resumed run re-solves it), a failed solve
    becomes an explicit ``status="error"`` record, and solved
    access-control cells carry their embedded request names in
    ``model_stats`` for the fixed-objective phase.

    The cell's scoped metrics snapshot is folded into the *ambient*
    registry, so direct callers keep accumulating process totals.
    """
    from repro.observability import get_registry

    result = _run_cell_result(cell, ctx, budget)
    if result.metrics is not None:
        get_registry().merge(result.metrics)
    return result.record


def _run_cell_result(
    cell: SweepCell, ctx: CellContext, budget: SolveBudget | None = None
) -> CellResult:
    """Solve one cell under a fresh registry (and trace, when asked).

    The cell's telemetry is computed from a registry scoped to exactly
    this cell, so it is identical whether the cell ran serially or on a
    worker — the foundation of the serial/parallel telemetry-identity
    contract.  The snapshot is *returned*, not merged; the caller
    decides which registry it folds into.
    """
    from repro.observability import (
        MetricsRegistry,
        SolveTrace,
        telemetry_block,
        use_registry,
        use_trace,
    )

    if budget is not None and budget.expired:
        logger.warning("sweep budget exhausted; skipping %s", cell.label)
        return CellResult(index=cell.index, record=None, skipped=True)
    scenario = _make_scenario(ctx, cell)
    registry = MetricsRegistry()
    trace = SolveTrace(context={"cell": cell.label}) if ctx.capture_trace else None
    with use_registry(registry), use_trace(trace):
        record = _solve_cell(cell, ctx, budget, scenario)
    snapshot = registry.snapshot()
    if record is not None:
        record.telemetry = telemetry_block(snapshot)
    return CellResult(
        index=cell.index,
        record=record,
        skipped=record is None,
        metrics=snapshot,
        trace_events=list(trace.events) if trace is not None else None,
    )


def _solve_cell(cell: SweepCell, ctx: CellContext, budget, scenario):
    from repro.evaluation.runner import error_record, run_exact, run_greedy
    from repro.exceptions import ReproError

    try:
        if cell.phase == "greedy":
            record, _ = run_greedy(scenario, time_limit=ctx.time_limit, budget=budget)
        elif cell.phase == "objective":
            kwargs = (
                {"load_fraction": ctx.load_fraction}
                if cell.objective == "balance_node_load"
                else {}
            )
            record, _ = run_exact(
                scenario,
                algorithm=cell.algorithm,
                objective=cell.objective,
                time_limit=ctx.time_limit,
                backend=ctx.backend,
                force_embedded=cell.force_embedded,
                objective_kwargs=kwargs,
                budget=budget,
                fallback=ctx.fallback,
            )
        else:
            record, solution = run_exact(
                scenario,
                algorithm=cell.algorithm,
                objective="access_control",
                time_limit=ctx.time_limit,
                backend=ctx.backend,
                budget=budget,
                fallback=ctx.fallback,
                degrade_to_greedy=ctx.fallback,
            )
            if record.solved and solution is not None:
                record.model_stats["embedded_names"] = list(
                    solution.embedded_names()
                )
    except ReproError as exc:
        logger.error("cell %s failed: %s", cell.label, exc)
        algorithm = "greedy" if cell.phase == "greedy" else cell.algorithm
        record = error_record(scenario, algorithm, cell.objective, str(exc))
    return record


def _run_cell_batch(payload):
    """Worker entry point: solve a chunk, appending to a shard file."""
    cells, ctx, budget_seconds, shard = payload
    from repro.evaluation.persistence import append_record

    budget = SolveBudget(budget_seconds) if budget_seconds is not None else None
    results = []
    for cell in cells:
        result = _run_cell_result(cell, ctx, budget)
        if result.record is not None and shard is not None:
            append_record(result.record, shard)
        results.append(result)
    return results


def _pool_context():
    """Fork where possible so registry overrides reach the workers."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def execute_cells(
    cells: list[SweepCell],
    ctx: CellContext,
    workers: int = 1,
    budget: SolveBudget | None = None,
    store_path: str | None = None,
) -> list[CellResult]:
    """Run sweep cells, in-process or across a process pool.

    Returns one :class:`CellResult` per cell, sorted by serial index —
    the integration loop in :class:`~repro.evaluation.experiments.Evaluation`
    therefore observes the exact serial order regardless of ``workers``.
    Persisting merged records to the main store is the *caller's* job
    (single-writer); worker shards exist purely for crash recovery and
    are discarded once the pool has delivered everything.
    """
    if not cells:
        return []
    if workers <= 1 or len(cells) == 1:
        return _merge_results(
            [_run_cell_result(cell, ctx, budget) for cell in cells]
        )

    from repro.evaluation.persistence import shard_path

    chunks = [cells[k::workers] for k in range(workers)]
    chunks = [chunk for chunk in chunks if chunk]
    per_worker = None
    if budget is not None:
        per_worker = max(budget.remaining() / len(chunks), 0.0)
    payloads = [
        (
            chunk,
            ctx,
            per_worker,
            shard_path(store_path, k) if store_path is not None else None,
        )
        for k, chunk in enumerate(chunks)
    ]
    context = _pool_context()
    logger.info(
        "dispatching %d cells to %d workers (%s start method)",
        len(cells),
        len(chunks),
        context.get_start_method(),
    )
    with context.Pool(processes=len(chunks)) as pool:
        batches = pool.map(_run_cell_batch, payloads)
    results = [result for batch in batches for result in batch]
    results.sort(key=lambda r: r.index)
    # everything was delivered in-memory; the crash-safety shards have
    # served their purpose (the caller persists to the main store next)
    if store_path is not None:
        for k in range(len(chunks)):
            path = shard_path(store_path, k)
            if os.path.exists(path):
                os.remove(path)
    return _merge_results(results)


def _merge_results(results: list[CellResult]) -> list[CellResult]:
    """Fold per-cell metrics snapshots into the ambient registry.

    Results arrive sorted by serial index and counter/histogram merging
    is commutative, so the merged totals are identical for serial and
    parallel execution of the same cells.
    """
    from repro.observability import get_registry

    registry = get_registry()
    for result in results:
        if result.metrics is not None:
            registry.merge(result.metrics)
    return results


# ----------------------------------------------------------------------
# record comparison
# ----------------------------------------------------------------------
def canonical_record(record) -> dict:
    """A record as a dict with wall-clock-dependent fields neutralized.

    ``runtime`` is pure wall-clock and differs between any two runs;
    everything else (objective, gap, node counts, statuses, error
    messages) is deterministic for a deterministic backend and must
    match between serial and parallel sweeps.  Non-finite floats are
    encoded as strings so record dicts compare by equality (NaN never
    equals itself).
    """
    payload = asdict(record)
    payload["runtime"] = 0.0
    telemetry = payload.get("telemetry")
    if isinstance(telemetry, dict) and "wall_ms" in telemetry:
        telemetry["wall_ms"] = {}  # wall-clock, like runtime
    for key in ("objective", "gap"):
        value = payload[key]
        if isinstance(value, float) and not math.isfinite(value):
            payload[key] = str(value)  # "nan" / "inf" / "-inf"
    return payload


def canonical_records(records) -> list[dict]:
    """Canonicalized records sorted by cell key, ready to compare."""
    return sorted(
        (canonical_record(r) for r in records),
        key=lambda p: (
            -1 if p["seed"] is None else p["seed"],
            p["flexibility"],
            p["algorithm"],
            p["objective_name"],
        ),
    )
