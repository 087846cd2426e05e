"""Scaling studies: how far does "moderately sized" reach?

The paper's evaluation question (2) asks "to which extent can we
compute optimal solutions to the TVNEP using the cSigma formulation?".
Its answer is implicit (20 requests within an hour); this module makes
the scaling curve explicit — runtime, gap and model size as functions
of the request count — for any of the formulations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.evaluation.report import render_table
from repro.evaluation.runner import MODEL_REGISTRY
from repro.exceptions import ValidationError
from repro.tvnep.feasibility import verify_solution
from repro.workloads.scenario import Scenario, small_scenario

__all__ = ["ScalingPoint", "scaling_study", "render_scaling_table"]


@dataclass
class ScalingPoint:
    """One (algorithm, instance size) measurement."""

    algorithm: str
    num_requests: int
    seed: int
    build_time: float
    solve_time: float
    objective: float
    gap: float
    num_embedded: int
    model_vars: int = 0
    model_constraints: int = 0
    verified_feasible: bool = False

    @property
    def total_time(self) -> float:
        return self.build_time + self.solve_time


def scaling_study(
    request_counts: tuple[int, ...] = (2, 4, 6, 8),
    seeds: tuple[int, ...] = (0,),
    algorithm: str = "csigma",
    flexibility: float = 1.0,
    time_limit: float = 60.0,
    backend: str = "highs",
    scenario_factory=None,
) -> list[ScalingPoint]:
    """Measure build+solve cost across instance sizes.

    Parameters
    ----------
    request_counts:
        Instance sizes to measure (each gets its own generated
        workload so contention scales naturally).
    scenario_factory:
        ``(seed, num_requests) -> Scenario`` (defaults to
        :func:`repro.workloads.scenario.small_scenario`).
    """
    try:
        model_cls = MODEL_REGISTRY[algorithm]
    except KeyError:
        raise ValidationError(
            f"unknown algorithm {algorithm!r}; expected {sorted(MODEL_REGISTRY)}"
        ) from None
    factory = scenario_factory or (
        lambda seed, n: small_scenario(seed, num_requests=n)
    )
    points: list[ScalingPoint] = []
    for count in request_counts:
        for seed in seeds:
            scenario: Scenario = factory(seed, count).with_flexibility(flexibility)
            # the full form is built on first use: here, by stats()
            tick = time.perf_counter()
            model = model_cls(
                scenario.substrate,
                scenario.requests,
                fixed_mappings=scenario.node_mappings,
            )
            stats = model.stats()
            build_time = time.perf_counter() - tick
            solution = model.solve(backend=backend, time_limit=time_limit)
            report = verify_solution(solution)
            points.append(
                ScalingPoint(
                    algorithm=algorithm,
                    num_requests=count,
                    seed=seed,
                    build_time=build_time,
                    solve_time=solution.runtime,
                    objective=solution.objective,
                    gap=solution.gap,
                    num_embedded=solution.num_embedded,
                    model_vars=stats["variables"],
                    model_constraints=stats["constraints"],
                    verified_feasible=report.feasible,
                )
            )
    return points


def render_scaling_table(points: list[ScalingPoint], title: str = "") -> str:
    """One row per measurement, ready for EXPERIMENTS.md."""
    rows = []
    for p in sorted(points, key=lambda p: (p.algorithm, p.num_requests, p.seed)):
        gap = "inf" if math.isinf(p.gap) else f"{100 * p.gap:.1f}%"
        rows.append(
            [
                p.algorithm,
                str(p.num_requests),
                str(p.seed),
                f"{p.build_time:.2f}s",
                f"{p.solve_time:.2f}s",
                gap,
                f"{p.num_embedded}/{p.num_requests}",
                str(p.model_vars),
                str(p.model_constraints),
            ]
        )
    return render_table(
        [
            "model",
            "|R|",
            "seed",
            "build",
            "solve",
            "gap",
            "accepted",
            "vars",
            "constrs",
        ],
        rows,
        title=title or "scaling study",
    )
