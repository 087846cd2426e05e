"""Single-run execution and record keeping for the evaluation harness.

A :class:`RunRecord` captures everything the paper's figures plot about
one (scenario, flexibility, algorithm, objective) cell: runtime,
objective value, branch-and-bound gap, acceptance count, and whether
the independent verifier approved the extracted solution.

Resilience (see :mod:`repro.runtime`): ``run_exact``/``run_greedy``
accept a global :class:`~repro.runtime.budget.SolveBudget`; ``run_exact``
can route through the HiGHS → branch-and-bound fallback chain
(``fallback=True``) and degrade all the way to the
greedy heuristic (``degrade_to_greedy=True``) when no exact backend
produced an incumbent — the record is then tagged with the rung that
actually answered.  A cell that fails terminally is captured by
:func:`error_record` so a sweep persists the failure and moves on.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ReproError, ValidationError
from repro.runtime.budget import SolveBudget
from repro.runtime.resilient import default_chain
from repro.tvnep.base import ModelOptions, TemporalModelBase
from repro.tvnep.csigma_model import CSigmaModel
from repro.tvnep.delta_model import DeltaModel
from repro.tvnep.greedy import greedy_csigma
from repro.tvnep.objectives import OBJECTIVES
from repro.tvnep.sigma_model import SigmaModel
from repro.tvnep.feasibility import verify_solution
from repro.tvnep.solution import TemporalSolution
from repro.workloads.scenario import Scenario

__all__ = [
    "RunRecord",
    "MODEL_REGISTRY",
    "run_exact",
    "run_greedy",
    "error_record",
]

logger = logging.getLogger("repro.runtime")

#: formulation name -> model class
MODEL_REGISTRY: dict[str, type[TemporalModelBase]] = {
    "delta": DeltaModel,
    "sigma": SigmaModel,
    "csigma": CSigmaModel,
}


@dataclass
class RunRecord:
    """One evaluation cell (a single solve).

    ``status`` is ``"solved"``, ``"no_solution"``, ``"degraded"`` (the
    greedy rung answered for a failed exact solve) or ``"error"``
    (nothing answered; ``error`` carries the diagnostic).  ``rung``
    names the fallback-chain rung that produced the result — empty for
    a plain first-choice solve.
    """

    scenario: str
    seed: int | None
    flexibility: float
    algorithm: str
    objective_name: str
    objective: float = math.nan
    gap: float = math.inf
    runtime: float = 0.0
    num_embedded: int = 0
    num_requests: int = 0
    node_count: int = 0
    status: str = ""
    verified_feasible: bool = False
    model_stats: dict = field(default_factory=dict)
    rung: str = ""
    error: str = ""
    #: solver-effort summary for the cell (see
    #: ``repro.observability.telemetry_block``); ``wall_ms`` is the only
    #: non-deterministic part and is neutralized by ``canonical_record``
    telemetry: dict = field(default_factory=dict)

    @property
    def solved(self) -> bool:
        """Whether any incumbent was found."""
        return not math.isnan(self.objective)

    @property
    def failed(self) -> bool:
        """Whether the cell terminated without any usable answer."""
        return self.status == "error"

    @property
    def proved_optimal(self) -> bool:
        return self.gap <= 1e-6


def error_record(
    scenario: Scenario,
    algorithm: str,
    objective_name: str,
    message: str,
    runtime: float = 0.0,
) -> RunRecord:
    """A record for a cell whose solve failed terminally.

    Persisting the failure (instead of aborting the sweep) keeps the
    record file append-consistent and lets figures render the cell as
    missing data rather than losing the whole run.
    """
    return RunRecord(
        scenario=scenario.label,
        seed=scenario.seed,
        flexibility=float(scenario.metadata.get("flexibility", 0.0)),
        algorithm=algorithm,
        objective_name=objective_name,
        runtime=runtime,
        status="error",
        error=message,
    )


def _record_from_solution(
    scenario: Scenario,
    algorithm: str,
    objective_name: str,
    solution: TemporalSolution,
    model_stats: dict | None = None,
    check_windows: bool = True,
    status: str | None = None,
) -> RunRecord:
    report = verify_solution(solution, check_windows=check_windows)
    if status is None:
        if solution.status == "error":
            status = "error"
        elif math.isnan(solution.objective):
            status = "no_solution"
        else:
            status = "solved"
    if status == "error":
        # an errored solve has no incumbent to report, even if the
        # producing algorithm fabricated an all-rejected placeholder
        return RunRecord(
            scenario=scenario.label,
            seed=scenario.seed,
            flexibility=float(scenario.metadata.get("flexibility", 0.0)),
            algorithm=algorithm,
            objective_name=objective_name,
            runtime=solution.runtime,
            num_requests=len(solution.scheduled),
            status="error",
            rung=solution.rung,
            error="solver reported an error status",
        )
    return RunRecord(
        scenario=scenario.label,
        seed=scenario.seed,
        flexibility=float(scenario.metadata.get("flexibility", 0.0)),
        algorithm=algorithm,
        objective_name=objective_name,
        objective=solution.objective,
        gap=solution.gap,
        runtime=solution.runtime,
        num_embedded=solution.num_embedded,
        num_requests=len(solution.scheduled),
        node_count=solution.node_count,
        status=status,
        verified_feasible=report.feasible,
        model_stats=model_stats or {},
        rung=solution.rung,
    )


def _resolve_backend(backend, fallback: bool):
    """Wrap a named backend in the default fallback chain if requested."""
    if fallback and isinstance(backend, str) and backend != "resilient":
        return default_chain(primary=backend)
    return backend


def run_exact(
    scenario: Scenario,
    algorithm: str = "csigma",
    objective: str = "access_control",
    time_limit: float | None = None,
    backend: str = "highs",
    options: ModelOptions | None = None,
    force_embedded: tuple[str, ...] = (),
    objective_kwargs: dict | None = None,
    budget: SolveBudget | None = None,
    fallback: bool = False,
    degrade_to_greedy: bool = False,
) -> tuple[RunRecord, TemporalSolution]:
    """Build and solve one exact model on a scenario.

    Parameters
    ----------
    scenario:
        The workload (already at the desired flexibility level).
    algorithm:
        ``"delta"``, ``"sigma"`` or ``"csigma"``.
    objective:
        A key of :data:`repro.tvnep.objectives.OBJECTIVES`.  Objectives
        other than access control require ``force_embedded`` to pin the
        request set (the paper's fixed-set semantics).
    time_limit:
        Per-solve wall-clock limit (the paper used one hour).
    backend:
        Backend name or callable.
    budget:
        Global wall-clock budget; tightens ``time_limit`` to the
        remaining sweep time.
    fallback:
        Route the solve through the HiGHS → branch-and-bound fallback
        chain (:func:`repro.runtime.resilient.default_chain`) so single
        backend failures degrade instead of raising.
    degrade_to_greedy:
        When the exact solve ends without an incumbent and the
        objective is access control, answer with the greedy heuristic
        instead (the record is tagged ``status="degraded"``,
        ``rung="greedy"``) — the last rung of the paper-style
        degrade-gracefully chain.
    """
    try:
        model_cls = MODEL_REGISTRY[algorithm]
    except KeyError:
        raise ValidationError(
            f"unknown algorithm {algorithm!r}; expected {sorted(MODEL_REGISTRY)}"
        ) from None
    try:
        objective_fn: Callable = OBJECTIVES[objective]
    except KeyError:
        raise ValidationError(
            f"unknown objective {objective!r}; expected {sorted(OBJECTIVES)}"
        ) from None

    backend = _resolve_backend(backend, fallback)
    kwargs: dict = {"fixed_mappings": scenario.node_mappings}
    if options is not None:
        kwargs["options"] = options
    if force_embedded:
        kwargs["force_embedded"] = list(force_embedded)
    model = model_cls(scenario.substrate, scenario.requests, **kwargs)
    objective_fn(model, **(objective_kwargs or {}))
    solution = model.solve(backend=backend, time_limit=time_limit, budget=budget)

    if (
        degrade_to_greedy
        and math.isnan(solution.objective)
        and objective == "access_control"
        and scenario.node_mappings
    ):
        degraded = _degrade_to_greedy(scenario, algorithm, time_limit, budget)
        if degraded is not None:
            return degraded

    record = _record_from_solution(
        scenario,
        algorithm,
        objective,
        solution,
        model_stats=model.stats(),
        # objectives over a fixed set keep rejected requests at their
        # defaults; window checks only make sense for embedded ones
        check_windows=(objective == "access_control"),
    )
    return record, solution


def _degrade_to_greedy(
    scenario: Scenario,
    algorithm: str,
    time_limit: float | None,
    budget: SolveBudget | None,
) -> tuple[RunRecord, TemporalSolution] | None:
    """The greedy heuristic as the degraded-mode answer for a failed
    exact solve; ``None`` when the greedy fails too."""
    logger.warning(
        "exact %s solve on %s produced no incumbent; degrading to greedy",
        algorithm,
        scenario.label,
    )
    try:
        result = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            scenario.node_mappings,
            time_limit=time_limit if budget is None else None,
            budget=budget,
        )
    except ReproError as exc:
        logger.warning("greedy degraded-mode answer failed too: %s", exc)
        return None
    solution = result.solution
    if solution.status == "error" or math.isnan(solution.objective):
        # the greedy found nothing either; let the exact record stand
        return None
    solution.rung = "greedy"
    record = _record_from_solution(
        scenario,
        algorithm,
        "access_control",
        solution,
        status="degraded",
    )
    record.rung = "greedy"
    return record, solution


def run_greedy(
    scenario: Scenario,
    time_limit: float | None = None,
    budget: SolveBudget | None = None,
) -> tuple[RunRecord, TemporalSolution]:
    """Run Algorithm cSigma^G_A on a scenario (access control).

    ``time_limit``/``budget`` bound the whole run (see
    :func:`repro.tvnep.greedy.greedy_csigma`).
    """
    result = greedy_csigma(
        scenario.substrate,
        scenario.requests,
        scenario.node_mappings,
        time_limit=time_limit,
        budget=budget,
    )
    record = _record_from_solution(
        scenario, "greedy", "access_control", result.solution
    )
    return record, result.solution
