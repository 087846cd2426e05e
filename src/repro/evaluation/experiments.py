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

import math
from dataclasses import dataclass, field, replace

from repro.evaluation.aggregate import series_over_flexibility
from repro.evaluation.metrics import relative_improvement, relative_performance
from repro.evaluation.report import render_flexibility_figure
from repro.evaluation.runner import RunRecord
from repro.exceptions import ValidationError
from repro.mip import check_time_limit
from repro.workloads.scenario import Scenario, paper_scenario, small_scenario

__all__ = ["EvaluationConfig", "Evaluation", "FIXED_OBJECTIVES"]

#: the fixed-set objectives evaluated in Figures 5/6
FIXED_OBJECTIVES: tuple[str, ...] = (
    "max_earliness",
    "balance_node_load",
    "disable_links",
)


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
    #: capture a structured :class:`~repro.observability.SolveTrace` per
    #: cell (see docs/observability.md).  Usually enabled indirectly by
    #: setting ``Evaluation.trace_path``.
    capture_trace: bool = False

    def __post_init__(self) -> None:
        # a bad limit would otherwise persist every cell as an error
        check_time_limit(self.time_limit)

    def make_scenario(self, seed: int) -> Scenario:
        if self.scale == "paper":
            return paper_scenario(seed)
        if self.scale == "small":
            return small_scenario(seed, num_requests=self.num_requests)
        raise ValidationError(f"unknown scale {self.scale!r}")

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

    Pass ``store_path`` to persist every record as it is produced
    (JSON-lines via :mod:`repro.evaluation.persistence`); re-creating
    the Evaluation with the same path *resumes*: cells already on disk
    are loaded instead of re-solved.
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

    def _store(self):
        if self.store_path is None:
            return None
        if not hasattr(self, "_store_instance"):
            from repro.evaluation.persistence import RecordStore

            self._store_instance = RecordStore(self.store_path)
        return self._store_instance

    def _stored_record(self, seed, flexibility, algorithm, objective):
        store = self._store()
        if store is None or not store.has(seed, flexibility, algorithm, objective):
            return None
        for record in store.records:
            if (
                record.seed == seed
                and record.flexibility == flexibility
                and record.algorithm == algorithm
                and record.objective_name == objective
            ):
                return record
        return None

    def _persist(self, record: RunRecord) -> None:
        store = self._store()
        if store is not None:
            store.add(record)

    # ------------------------------------------------------------------
    # sweeps
    # ------------------------------------------------------------------
    # Each sweep builds its cells in the canonical serial order, hands
    # the not-yet-stored ones to repro.runtime.parallel (which runs them
    # in-process for workers=1 and across a fork pool otherwise), then
    # integrates stored and computed records back in that same order —
    # so resume semantics and record-file ordering are identical no
    # matter how many workers ran.

    def _execute(self, cells) -> dict[int, RunRecord]:
        """Run pending sweep cells; maps cell index -> record."""
        from dataclasses import replace as dc_replace

        from repro.runtime.parallel import CellContext, execute_cells

        ctx = CellContext.from_config(self.config)
        if self.trace_path is not None and not ctx.capture_trace:
            ctx = dc_replace(ctx, capture_trace=True)
        results = execute_cells(
            cells,
            ctx,
            workers=self.config.workers,
            store_path=self.store_path,
        )
        if self.trace_path is not None:
            self._write_trace(results)
        return {result.index: result.record for result in results}

    def _write_trace(self, results) -> None:
        """Append the cells' trace events (serial index order) to the
        trace file; the first write of this Evaluation truncates."""
        from repro.observability import SolveTrace

        trace = SolveTrace()
        for result in results:  # already sorted by serial index
            if result.trace_events:
                trace.events.extend(result.trace_events)
        trace.write(self.trace_path, append=getattr(self, "_trace_started", False))
        self._trace_started = True

    def run_access_control(self, verbose: bool = False) -> list[RunRecord]:
        """Figures 3/4/8/9 sweep: every model on every scenario cell."""
        if self._ran_access:
            return self.access_records
        from repro.runtime.parallel import SweepCell

        cfg = self.config
        entries: list[RunRecord | SweepCell] = []
        index = 0
        for seed in cfg.seeds:
            for flexibility in cfg.flexibilities:
                for model_name in cfg.models:
                    stored = self._stored_record(
                        seed, flexibility, model_name, "access_control"
                    )
                    entries.append(
                        stored
                        if stored is not None
                        else SweepCell(
                            index=index,
                            phase="access",
                            seed=seed,
                            flexibility=flexibility,
                            algorithm=model_name,
                        )
                    )
                    index += 1
        computed = self._execute([e for e in entries if isinstance(e, SweepCell)])
        for entry in entries:
            fresh = isinstance(entry, SweepCell)
            record = computed[entry.index] if fresh else entry
            if fresh:
                self._persist(record)
            self.access_records.append(record)
            names = record.model_stats.get("embedded_names")
            if record.algorithm == "csigma" and names is not None:
                self.accepted_sets[(record.seed, record.flexibility)] = tuple(
                    names
                )
            if fresh and verbose:
                print(
                    f"[access] seed={record.seed} "
                    f"flex={record.flexibility:g} "
                    f"{record.algorithm}: obj={record.objective:.4g} "
                    f"gap={record.gap:.3g} t={record.runtime:.2f}s"
                )
        self._ran_access = True
        return self.access_records

    def run_greedy(self, verbose: bool = False) -> list[RunRecord]:
        """Figure 7 sweep: greedy on every scenario cell."""
        if self._ran_greedy:
            return self.greedy_records
        from repro.runtime.parallel import SweepCell

        cfg = self.config
        entries: list[RunRecord | SweepCell] = []
        index = 0
        for seed in cfg.seeds:
            for flexibility in cfg.flexibilities:
                stored = self._stored_record(
                    seed, flexibility, "greedy", "access_control"
                )
                entries.append(
                    stored
                    if stored is not None
                    else SweepCell(
                        index=index,
                        phase="greedy",
                        seed=seed,
                        flexibility=flexibility,
                        algorithm="greedy",
                    )
                )
                index += 1
        computed = self._execute([e for e in entries if isinstance(e, SweepCell)])
        for entry in entries:
            fresh = isinstance(entry, SweepCell)
            record = computed[entry.index] if fresh else entry
            if fresh:
                self._persist(record)
            self.greedy_records.append(record)
            if fresh and verbose:
                print(
                    f"[greedy] seed={record.seed} "
                    f"flex={record.flexibility:g}: "
                    f"obj={record.objective:.4g} t={record.runtime:.2f}s"
                )
        self._ran_greedy = True
        return self.greedy_records

    def run_fixed_objectives(self, verbose: bool = False) -> list[RunRecord]:
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
        entries: list[RunRecord | SweepCell] = []
        index = 0
        for seed in cfg.seeds:
            for flexibility in cfg.flexibilities:
                accepted = self.accepted_sets.get((seed, flexibility), ())
                if not accepted:
                    continue
                for objective in FIXED_OBJECTIVES:
                    stored = self._stored_record(
                        seed, flexibility, "csigma", objective
                    )
                    entries.append(
                        stored
                        if stored is not None
                        else SweepCell(
                            index=index,
                            phase="objective",
                            seed=seed,
                            flexibility=flexibility,
                            algorithm="csigma",
                            objective=objective,
                            force_embedded=tuple(accepted),
                        )
                    )
                    index += 1
        computed = self._execute([e for e in entries if isinstance(e, SweepCell)])
        for entry in entries:
            fresh = isinstance(entry, SweepCell)
            record = computed[entry.index] if fresh else entry
            if fresh:
                self._persist(record)
            self.objective_records.append(record)
            if fresh and verbose:
                print(
                    f"[{record.objective_name}] seed={record.seed} "
                    f"flex={record.flexibility:g}: "
                    f"obj={record.objective:.4g} t={record.runtime:.2f}s"
                )
        self._ran_objectives = True
        return self.objective_records

    def run_all(self, verbose: bool = False) -> None:
        self.run_access_control(verbose)
        self.run_greedy(verbose)
        self.run_fixed_objectives(verbose)

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
            shortfalls.append(
                replace_record(record, objective=shortfall)
            )
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
                replace_record(
                    record,
                    objective=relative_improvement(record.objective, base),
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


def replace_record(record: RunRecord, **changes) -> RunRecord:
    """Shallow copy of a record with fields replaced."""
    from dataclasses import replace as dc_replace

    return dc_replace(record, **changes)
