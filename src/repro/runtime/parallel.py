"""The process-pool sweep engine.

The evaluation sweep is a grid of *independent* solve cells
(seed × flexibility × algorithm × objective); :func:`execute_cells`
runs them in-process or across a process pool and yields each cell's
result the moment the cell finishes:

* **Determinism.**  Cells carry their position in the serial sweep
  order (``SweepCell.index``), and each cell rebuilds its scenario from
  its seed (the generator is deterministic), so a cell's record does
  not depend on where or when it ran.  Results arrive in completion
  order; :class:`~repro.evaluation.experiments.Evaluation` integrates
  them by index, so the record sequence, merged metrics and trace file
  are identical to a serial run.  Only the wall-clock ``runtime``
  fields differ between runs — compare record sets with
  :func:`canonical_records`.  Each cell is bounded only by its own
  ``time_limit``, so ``workers=N`` yields the same records as a serial
  run.
* **One writer.**  Workers write nothing; the caller persists each
  yielded record, so a crash loses only the cells still running, in
  either mode.
* **Fault-injection transparency.**  Workers are forked where the
  platform allows, so a registry poisoned via
  :func:`repro.runtime.faults.inject_faults` (or any
  ``override_backend``) is inherited and the failure path is exercised
  identically in every worker.  Spawn-only platforms lose the
  poisoning (children re-import a clean registry).

Every cell yields a record: ``solved``, ``no_solution`` or ``error``.
"""

from __future__ import annotations

import logging
import math
import multiprocessing
from dataclasses import asdict, dataclass
from typing import Iterator

__all__ = [
    "SweepCell",
    "CellResult",
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


@dataclass
class CellResult:
    """Outcome of one cell: its record plus its telemetry.

    ``metrics`` is the cell's scoped registry snapshot, for the caller
    to fold into its registry; ``trace_events`` are the cell's
    :class:`SolveTrace` events (plain dicts, pool-picklable) when a
    trace was active at dispatch, else ``None``.
    """

    index: int
    record: object  # RunRecord
    metrics: dict
    trace_events: list | None = None


def _run_cell(task) -> CellResult:
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

    cell, config, traced = task
    scenario = config.make_scenario(cell.seed).with_flexibility(cell.flexibility)
    if cell.force_embedded:
        scenario = scenario.subset(cell.force_embedded)
    registry = MetricsRegistry()
    trace = SolveTrace(context={"cell": cell.label}) if traced else None
    with use_registry(registry), use_trace(trace):
        record = _solve_cell(cell, config, scenario)
    snapshot = registry.snapshot()
    record.telemetry = telemetry_block(snapshot)
    return CellResult(
        index=cell.index,
        record=record,
        metrics=snapshot,
        trace_events=list(trace.events) if trace is not None else None,
    )


def _solve_cell(cell: SweepCell, config, scenario):
    from repro.evaluation.runner import error_record, run_exact, run_greedy
    from repro.exceptions import ReproError

    try:
        if cell.phase == "greedy":
            record, _ = run_greedy(scenario, time_limit=config.time_limit)
        elif cell.phase == "objective":
            kwargs = (
                {"load_fraction": config.load_fraction}
                if cell.objective == "balance_node_load"
                else {}
            )
            record, _ = run_exact(
                scenario,
                algorithm=cell.algorithm,
                objective=cell.objective,
                time_limit=config.time_limit,
                backend=config.backend,
                force_embedded=cell.force_embedded,
                objective_kwargs=kwargs,
            )
        else:
            record, solution = run_exact(
                scenario,
                algorithm=cell.algorithm,
                objective="access_control",
                time_limit=config.time_limit,
                backend=config.backend,
            )
            if record.solved and solution is not None:
                record.model_stats["embedded_names"] = list(
                    solution.embedded_names()
                )
    except ReproError as exc:
        logger.error("cell %s failed: %s", cell.label, exc)
        record = error_record(scenario, cell.algorithm, cell.objective, str(exc))
    return record


def _pool_context():
    """Fork where possible so registry overrides reach the workers."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def execute_cells(
    cells: list[SweepCell], config, workers: int = 1
) -> Iterator[CellResult]:
    """Run sweep cells and yield each result as soon as its cell finishes.

    ``config`` is the sweep's
    :class:`~repro.evaluation.experiments.EvaluationConfig`.  With
    ``workers=1`` the cells run in-process, in the given order;
    otherwise ``min(workers, len(cells))`` forked processes take one
    cell at a time and results arrive in completion order.  Each cell
    captures its trace events when a trace is active (see
    :func:`repro.observability.use_trace`) at the first ``next()``.
    """
    from repro.observability import current_trace

    traced = current_trace() is not None
    tasks = [(cell, config, traced) for cell in cells]
    if workers <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield _run_cell(task)
        return
    context = _pool_context()
    processes = min(workers, len(tasks))
    logger.info(
        "dispatching %d cells to %d workers (%s start method)",
        len(tasks),
        processes,
        context.get_start_method(),
    )
    with context.Pool(processes=processes) as pool:
        yield from pool.imap_unordered(_run_cell, tasks)


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
