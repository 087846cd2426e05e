"""The paper's computational evaluation, figure by figure (Sec. VI).

:class:`Evaluation` runs the full sweep once and derives every figure
from the cached records:

========  ==========================================================
Figure 3  runtime of Delta/Sigma/cSigma vs. flexibility (access ctrl)
Figure 4  objective gap of the three formulations after the timeout
Figure 5  runtime of cSigma under the three fixed-set objectives
Figure 6  gap of cSigma under the three fixed-set objectives
Figure 7  relative performance of greedy cSigma^G_A vs. cSigma
Figure 8  number of requests embedded by cSigma
Figure 9  relative improvement of the objective over flexibility 0
========  ==========================================================

Scale is configurable: :meth:`EvaluationConfig.quick` (seconds, used in
tests), the default laptop scale, and :meth:`EvaluationConfig.paper`
(the original 24 scenarios x 11 flexibilities x 1 h timeouts).
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, field, replace
from itertools import product

from repro.evaluation.aggregate import series_over_flexibility
from repro.evaluation.metrics import relative_improvement, relative_performance
from repro.evaluation.report import render_flexibility_figure
from repro.evaluation.runner import RunRecord
from repro.exceptions import ValidationError
from repro.mip import check_time_limit
from repro.workloads.scenario import Scenario, paper_scenario, small_scenario

__all__ = ["EvaluationConfig", "Evaluation", "FIXED_OBJECTIVES"]

logger = logging.getLogger("repro.runtime")

#: the config fields a record depends on beyond its cell key; a record
#: store keeps them in its header so a resume never mixes sweeps
_SWEEP_IDENTITY: tuple[str, ...] = (
    "scale",
    "num_requests",
    "time_limit",
    "backend",
    "load_fraction",
)

#: the fixed-set objectives evaluated in Figures 5/6
FIXED_OBJECTIVES: tuple[str, ...] = (
    "max_earliness",
    "balance_node_load",
    "disable_links",
)


def check_seed(seed):
    """``seed`` unchanged; a negative or non-integer scenario seed raises
    :class:`~repro.exceptions.ValidationError`."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def check_flexibility(flexibility):
    """``flexibility`` unchanged; a negative or non-finite temporal
    flexibility [h] raises :class:`~repro.exceptions.ValidationError`."""
    if not 0.0 <= flexibility < math.inf:  # NaN fails both comparisons
        raise ValidationError(
            "flexibility must be a non-negative finite number of hours, "
            f"got {flexibility!r}"
        )
    return flexibility


def check_num_requests(num_requests):
    """``num_requests`` unchanged; fewer than one request raises
    :class:`~repro.exceptions.ValidationError`."""
    if not isinstance(num_requests, numbers.Integral) or num_requests < 1:
        raise ValidationError(
            f"num_requests must be an integer of at least 1, got {num_requests!r}"
        )
    return num_requests


@dataclass(frozen=True)
class EvaluationConfig:
    """Sweep configuration.

    Attributes mirror the paper's knobs; the defaults run on a laptop
    in minutes.  ``scale`` chooses between the paper-size workload
    generator and the shrunk one (see
    :func:`repro.workloads.scenario.small_scenario`).
    """

    seeds: tuple[int, ...] = (0, 1, 2)
    flexibilities: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)
    scale: str = "small"
    models: tuple[str, ...] = ("delta", "sigma", "csigma")
    time_limit: float = 30.0
    backend: str = "highs"
    load_fraction: float = 0.5
    num_requests: int = 6
    #: worker processes for the sweep; 1 runs in-process.  Parallel runs
    #: produce the same record set as serial ones (modulo wall-clock
    #: ``runtime`` fields) — see :mod:`repro.runtime.parallel`.
    workers: int = 1

    def __post_init__(self) -> None:
        # a bad limit would otherwise persist every cell as an error
        check_time_limit(self.time_limit)
        if self.scale not in ("small", "paper"):
            raise ValidationError(f"unknown scale {self.scale!r}")
        if self.workers < 1:
            raise ValidationError(f"workers must be at least 1, got {self.workers}")
        for seed in self.seeds:
            check_seed(seed)
        for flexibility in self.flexibilities:
            check_flexibility(flexibility)
        check_num_requests(self.num_requests)

    def make_scenario(self, seed: int) -> Scenario:
        if self.scale == "paper":
            return paper_scenario(seed)
        return small_scenario(seed, num_requests=self.num_requests)

    @classmethod
    def quick(cls) -> "EvaluationConfig":
        """A seconds-scale configuration for tests and smoke runs."""
        return cls(
            seeds=(0, 1),
            flexibilities=(0.0, 1.0),
            time_limit=15.0,
            num_requests=4,
        )

    @classmethod
    def paper(cls) -> "EvaluationConfig":
        """The original Sec. VI-A configuration (hours of compute)."""
        return cls(
            seeds=tuple(range(24)),
            flexibilities=tuple(i * 0.5 for i in range(11)),
            scale="paper",
            time_limit=3600.0,
            num_requests=20,
        )

    def with_models(self, *models: str) -> "EvaluationConfig":
        return replace(self, models=tuple(models))


@dataclass
class Evaluation:
    """Runs the sweep lazily and renders the figures.

    Pass ``store_path`` to persist every record the moment its cell
    finishes (JSON-lines via :mod:`repro.evaluation.persistence`);
    re-creating the Evaluation with the same path and sweep settings
    *resumes*: cells already on disk are loaded instead of re-solved.
    """

    config: EvaluationConfig = field(default_factory=EvaluationConfig)
    store_path: str | None = None
    #: when set, every freshly-computed cell's trace events are appended
    #: here as canonical JSONL, in serial cell order (identical for
    #: serial and parallel sweeps — see docs/observability.md)
    trace_path: str | None = None
    #: access-control records of the exact formulations (Figs. 3/4/8/9)
    access_records: list[RunRecord] = field(default_factory=list)
    #: greedy records (Fig. 7)
    greedy_records: list[RunRecord] = field(default_factory=list)
    #: fixed-objective records of cSigma (Figs. 5/6)
    objective_records: list[RunRecord] = field(default_factory=list)
    #: accepted request sets per (seed, flexibility), from cSigma runs
    accepted_sets: dict[tuple[int, float], tuple[str, ...]] = field(
        default_factory=dict
    )
    _ran_access: bool = False
    _ran_greedy: bool = False
    _ran_objectives: bool = False
    _trace_started: bool = field(default=False, init=False, repr=False)

    def _store(self):
        if self.store_path is None:
            return None
        if not hasattr(self, "_store_instance"):
            from repro.evaluation.persistence import RecordStore

            sweep = {name: getattr(self.config, name) for name in _SWEEP_IDENTITY}
            self._store_instance = RecordStore(self.store_path, sweep)
        return self._store_instance

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    def _run_phase(self, cells) -> list[RunRecord]:
        """Run one phase's cells and return their records in serial order
        (the cells come in that order: ``cells[i].index == i``).

        Cells already in the store are loaded; the rest go to
        :func:`repro.runtime.parallel.execute_cells`, and each fresh
        record is appended to the store and logged (one INFO line on
        ``repro.runtime``) the moment it arrives, in completion order
        when ``workers > 1``.  Then, in serial order,
        the fresh cells' metrics are folded into the active registry and
        their trace events appended to the trace file — so records,
        metrics and trace are the same whatever ``workers`` is.
        """
        from repro.observability import SolveTrace, get_registry, use_trace
        from repro.runtime.parallel import execute_cells

        store = self._store()
        stored = {}
        if store is not None:
            for cell in cells:
                record = store.get(
                    cell.seed, cell.flexibility, cell.algorithm, cell.objective
                )
                if record is not None:
                    stored[cell.index] = record
        pending = [cell for cell in cells if cell.index not in stored]
        trace = SolveTrace() if self.trace_path is not None else None
        fresh = {}
        # an active trace makes every cell capture its own events
        with use_trace(trace):
            for result in execute_cells(pending, self.config, self.config.workers):
                if store is not None:
                    store.add(result.record)
                fresh[result.index] = result
                cell, record = cells[result.index], result.record
                logger.info(
                    "[%s] %s: obj=%.4g gap=%.3g t=%.2fs",
                    cell.phase,
                    cell.label,
                    record.objective,
                    record.gap,
                    record.runtime,
                )
        registry = get_registry()
        records = []
        for cell in cells:
            result = fresh.get(cell.index)
            if result is None:
                records.append(stored[cell.index])
                continue
            records.append(result.record)
            registry.merge(result.metrics)
            if trace is not None and result.trace_events:
                trace.events.extend(result.trace_events)
        if trace is not None:
            trace.write(self.trace_path, append=self._trace_started)
            self._trace_started = True
        return records

    def run_access_control(self) -> list[RunRecord]:
        """Figures 3/4/8/9 sweep: every model on every scenario cell."""
        if self._ran_access:
            return self.access_records
        from repro.runtime.parallel import SweepCell

        cfg = self.config
        cells = [
            SweepCell(
                index=index,
                phase="access",
                seed=seed,
                flexibility=flexibility,
                algorithm=model_name,
            )
            for index, (seed, flexibility, model_name) in enumerate(
                product(cfg.seeds, cfg.flexibilities, cfg.models)
            )
        ]
        for record in self._run_phase(cells):
            self.access_records.append(record)
            names = record.model_stats.get("embedded_names")
            if record.algorithm == "csigma" and names is not None:
                self.accepted_sets[(record.seed, record.flexibility)] = tuple(
                    names
                )
        self._ran_access = True
        return self.access_records

    def run_greedy(self) -> list[RunRecord]:
        """Figure 7 sweep: greedy on every scenario cell."""
        if self._ran_greedy:
            return self.greedy_records
        from repro.runtime.parallel import SweepCell

        cfg = self.config
        cells = [
            SweepCell(
                index=index,
                phase="greedy",
                seed=seed,
                flexibility=flexibility,
                algorithm="greedy",
            )
            for index, (seed, flexibility) in enumerate(
                product(cfg.seeds, cfg.flexibilities)
            )
        ]
        self.greedy_records.extend(self._run_phase(cells))
        self._ran_greedy = True
        return self.greedy_records

    def run_fixed_objectives(self) -> list[RunRecord]:
        """Figures 5/6 sweep: cSigma on the accepted set, per objective.

        The paper evaluates the fixed-set objectives on "a given set of
        requests"; we use the set accepted by the access-control cSigma
        run of the same cell (see DESIGN.md interpretation notes).
        """
        if self._ran_objectives:
            return self.objective_records
        self.run_access_control()
        from repro.runtime.parallel import SweepCell

        cfg = self.config
        grid = [
            (seed, flexibility, self.accepted_sets[(seed, flexibility)], objective)
            for seed, flexibility in product(cfg.seeds, cfg.flexibilities)
            if self.accepted_sets.get((seed, flexibility))
            for objective in FIXED_OBJECTIVES
        ]
        cells = [
            SweepCell(
                index=index,
                phase="objective",
                seed=seed,
                flexibility=flexibility,
                algorithm="csigma",
                objective=objective,
                force_embedded=accepted,
            )
            for index, (seed, flexibility, accepted, objective) in enumerate(grid)
        ]
        self.objective_records.extend(self._run_phase(cells))
        self._ran_objectives = True
        return self.objective_records

    def run_all(self) -> None:
        self.run_access_control()
        self.run_greedy()
        self.run_fixed_objectives()

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------
    def figure3_runtime(self) -> str:
        """Runtime of the MIP formulations vs. flexibility (Figure 3)."""
        self.run_access_control()
        series = {
            model: series_over_flexibility(
                self.access_records, lambda r: r.runtime, algorithm=model
            )
            for model in self.config.models
        }
        return render_flexibility_figure(
            "Figure 3 — runtime [s] of MIP formulations (access control)",
            series,
        )

    def figure4_gap(self) -> str:
        """Objective gap after the timeout (Figure 4)."""
        self.run_access_control()
        series = {
            model: series_over_flexibility(
                self.access_records, lambda r: r.gap, algorithm=model
            )
            for model in self.config.models
        }
        return render_flexibility_figure(
            "Figure 4 — objective gap of formulations (inf = no incumbent)",
            series,
        )

    def figure5_objective_runtime(self) -> str:
        """cSigma runtime under the fixed-set objectives (Figure 5)."""
        self.run_fixed_objectives()
        series = {
            objective: series_over_flexibility(
                [r for r in self.objective_records if r.objective_name == objective],
                lambda r: r.runtime,
            )
            for objective in FIXED_OBJECTIVES
        }
        return render_flexibility_figure(
            "Figure 5 — runtime [s] of cSigma under fixed-set objectives",
            series,
        )

    def figure6_objective_gap(self) -> str:
        """cSigma gap under the fixed-set objectives (Figure 6)."""
        self.run_fixed_objectives()
        series = {
            objective: series_over_flexibility(
                [r for r in self.objective_records if r.objective_name == objective],
                lambda r: r.gap,
            )
            for objective in FIXED_OBJECTIVES
        }
        return render_flexibility_figure(
            "Figure 6 — objective gap of cSigma under fixed-set objectives",
            series,
        )

    def figure7_greedy_performance(self) -> str:
        """Greedy's shortfall vs. the exact cSigma optimum (Figure 7)."""
        self.run_access_control()
        self.run_greedy()
        exact = {
            (r.seed, r.flexibility): r.objective
            for r in self.access_records
            if r.algorithm == "csigma"
        }
        shortfalls: list[RunRecord] = []
        for record in self.greedy_records:
            opt = exact.get((record.seed, record.flexibility), math.nan)
            shortfall = relative_performance(record.objective, opt)
            shortfalls.append(replace(record, objective=shortfall))
        series = {
            "greedy vs csigma": series_over_flexibility(
                shortfalls, lambda r: r.objective
            )
        }
        return render_flexibility_figure(
            "Figure 7 — relative performance gap of greedy (0 = optimal)",
            series,
            fmt="{:.1%}",
        )

    def _accepted_series(self) -> dict:
        """Figure 8's series; a cell without an incumbent is missing
        data, not zero accepted requests."""
        self.run_access_control()
        return {
            "csigma": series_over_flexibility(
                [r for r in self.access_records if r.algorithm == "csigma"],
                lambda r: float(r.num_embedded) if r.solved else math.nan,
            )
        }

    def figure8_accepted(self) -> str:
        """Requests embedded by cSigma per flexibility (Figure 8)."""
        return render_flexibility_figure(
            "Figure 8 — number of requests embedded by cSigma",
            self._accepted_series(),
        )

    def figure9_improvement(self) -> str:
        """Objective improvement over flexibility 0 (Figure 9)."""
        self.run_access_control()
        baselines = {
            r.seed: r.objective
            for r in self.access_records
            if r.algorithm == "csigma" and r.flexibility == 0.0
        }
        improvements: list[RunRecord] = []
        for record in self.access_records:
            if record.algorithm != "csigma":
                continue
            base = baselines.get(record.seed, math.nan)
            improvements.append(
                replace(
                    record, objective=relative_improvement(record.objective, base)
                )
            )
        series = {
            "csigma vs flex 0": series_over_flexibility(
                improvements, lambda r: r.objective
            )
        }
        return render_flexibility_figure(
            "Figure 9 — relative improvement of access-control objective",
            series,
            fmt="{:.1%}",
        )

    def figure3_chart(self) -> str:
        """Figure 3 as a log-scale bar chart (the paper's log y-axis)."""
        from repro.evaluation.charts import series_chart

        self.run_access_control()
        series = {
            model: series_over_flexibility(
                self.access_records, lambda r: r.runtime, algorithm=model
            )
            for model in self.config.models
        }
        return series_chart(
            series,
            title="Figure 3 (chart) — runtime [s], log scale",
            log_scale=True,
        )

    def figure8_chart(self) -> str:
        """Figure 8 as a bar chart."""
        from repro.evaluation.charts import series_chart

        return series_chart(
            self._accepted_series(), title="Figure 8 (chart) — requests embedded"
        )

    def render_all(self, charts: bool = False) -> str:
        """All seven figures, ready for EXPERIMENTS.md.

        With ``charts=True`` the runtime and acceptance figures are
        additionally rendered as bar charts.
        """
        self.run_all()
        parts = [
            self.figure3_runtime(),
            self.figure4_gap(),
            self.figure5_objective_runtime(),
            self.figure6_objective_gap(),
            self.figure7_greedy_performance(),
            self.figure8_accepted(),
            self.figure9_improvement(),
        ]
        if charts:
            parts.insert(1, self.figure3_chart())
            parts.append(self.figure8_chart())
        return "\n\n".join(parts)

