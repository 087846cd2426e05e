"""The heavy-hitters hybrid the paper's conclusion sketches.

    "[the greedy] could also be used in combination with the optimal
    algorithms, e.g., for allocating many smaller VNets while more
    rigorous optimizations are performed on the resource-intensive
    VNets (the 'heavy-hitters')."  — Sec. VIII

:func:`hybrid_heavy_hitters` implements exactly that division of
labor:

1. split the request set by revenue (``d_R * sum_v c_R(v)``): the top
   ``heavy_fraction`` are *heavy-hitters*, the rest are *small*;
2. solve the heavy-hitters **exactly** with the cSigma-Model (access
   control), obtaining their accept/reject decisions and schedules;
3. insert the small requests **greedily** (earliest-start order, each
   at its earliest feasible start with everything placed so far pinned
   — the admission loop of Algorithm cSigma^G_A, seeded with the
   heavy-hitters' accepted placements instead of starting empty).

The result is always feasible, dominates pure greedy whenever the
heavy-hitters carry most of the revenue (they get the optimal
treatment), and costs one moderately sized exact solve plus cheap
greedy insertions instead of one big exact solve.  The paper's
per-insertion cSigma MIP is the specification of phase 3
(``tests/tvnep/reference_mip_greedy.py``); the insertions themselves
are the greedy's path-first admissions, with no MILP.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace

from repro.exceptions import SolverError, ValidationError
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.runtime.budget import SolveBudget
from repro.temporal.interval import Interval
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.tvnep.feasibility import _snap_times
from repro.tvnep.fixed_schedule import FixedPlacement, PathFirstAdmission
from repro.tvnep.greedy import (
    _accepted_entry,
    _admit_in_order,
    _final_solution,
    _rejected_entry,
    _require_mappings,
)
from repro.tvnep.solution import ScheduledRequest, TemporalSolution
# nothing here calls it; only perfbench/tracing.py patches this name
from repro.tvnep.warmstart import validated_warm_start  # noqa: F401
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["HybridResult", "hybrid_heavy_hitters"]


@dataclass
class HybridResult:
    """Outcome of the heavy-hitters hybrid.

    Attributes
    ----------
    solution:
        Final temporal solution over all requests.
    heavy_names / small_names:
        The revenue split used.
    exact_runtime:
        Seconds spent on the heavy-hitters' exact solve.
    greedy_runtimes:
        Per-insertion seconds for the small requests.
    """

    solution: TemporalSolution
    heavy_names: list[str] = field(default_factory=list)
    small_names: list[str] = field(default_factory=list)
    exact_runtime: float = 0.0
    greedy_runtimes: list[float] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return self.exact_runtime + sum(self.greedy_runtimes)


def hybrid_heavy_hitters(
    substrate: SubstrateNetwork,
    requests: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
    heavy_fraction: float = 0.3,
    options: ModelOptions | None = None,
    backend: str = "highs",
    exact_time_limit: float | None = None,
    time_limit: float | None = None,
    budget: SolveBudget | None = None,
) -> HybridResult:
    """Exact on the heavy-hitters, greedy on the rest (Sec. VIII).

    The insertion phase is the greedy's own admission loop, seeded with
    the heavy-hitters' accepted placements instead of starting empty.

    Parameters
    ----------
    heavy_fraction:
        Fraction of requests (by count, after sorting by revenue
        descending) treated exactly; clamped to at least one request
        when the set is non-empty.
    options, backend, exact_time_limit:
        Formulation options, MIP backend and time limit of the exact
        phase.
    time_limit / budget:
        One global wall-clock budget for the whole run (a
        :class:`~repro.runtime.budget.SolveBudget`, or seconds to build
        one from): the exact phase receives half the remaining time, and
        once the budget has expired the remaining insertions reject
        untested, so the hybrid always terminates on schedule.

    Raises
    ------
    ModelingError
        When a request's mapping targets a node the substrate lacks.
    SolverError
        When the exact phase's accepted placements do not fit together.
    """
    if not 0.0 <= heavy_fraction <= 1.0:
        raise ValidationError("heavy_fraction must lie in [0, 1]")
    _require_mappings(requests, fixed_mappings, "hybrid")
    options = options or ModelOptions()
    if options.time_horizon is None:
        options = replace(
            options, time_horizon=max(r.latest_end for r in requests)
        )
    if budget is None and time_limit is not None:
        budget = SolveBudget(time_limit)

    by_revenue = sorted(requests, key=lambda r: (-r.revenue(), r.name))
    num_heavy = max(1, round(heavy_fraction * len(by_revenue))) if by_revenue else 0
    heavy = by_revenue[:num_heavy]
    small = sorted(
        by_revenue[num_heavy:], key=lambda r: (r.earliest_start, r.name)
    )

    # -- phase 1: exact on the heavy-hitters ------------------------------
    # the exact phase gets half the remaining global budget
    if budget is not None:
        half = budget.remaining() * 0.5
        exact_time_limit = (
            half if exact_time_limit is None else min(exact_time_limit, half)
        )
    tick = time.perf_counter()
    exact_solution = CSigmaModel(
        substrate,
        heavy,
        fixed_mappings={r.name: fixed_mappings[r.name] for r in heavy},
        options=options,
    ).solve(backend=backend, time_limit=exact_time_limit)
    exact_runtime = time.perf_counter() - tick

    # -- phase 2: greedy insertion of the small requests -------------------
    # seed the admission with the heavy-hitters' accepted placements, in
    # revenue order; a subset of a jointly feasible set always fits.  The
    # exact times meet back to back only up to solver tolerance, so they
    # are snapped as verify_solution snaps them
    snapped = _snap_times(exact_solution, 1e-6)
    admission = PathFirstAdmission(substrate)
    scheduled: dict[str, ScheduledRequest] = {}
    for request in heavy:
        entry = exact_solution.scheduled.get(request.name)
        if entry is None or not entry.embedded:
            scheduled[request.name] = _rejected_entry(request)
            continue
        placement = FixedPlacement(
            request=request,
            node_mapping=fixed_mappings[request.name],
            interval=Interval(snapped[entry.start], snapped[entry.end]),
        )
        if not admission.admit(placement):
            raise SolverError(
                f"hybrid: the exact phase's placement of {request.name} "
                f"at {placement.interval} does not fit"
            )
        scheduled[request.name] = _accepted_entry(placement)
    greedy_runtimes = _admit_in_order(
        admission,
        small,
        fixed_mappings,
        scheduled,
        budget=budget,
        label="hybrid",
        step="insertions",
    )
    solution = _final_solution(admission, scheduled, "hybrid-heavy-hitters")
    solution.runtime += exact_runtime + sum(greedy_runtimes)
    return HybridResult(
        solution=solution,
        heavy_names=[r.name for r in heavy],
        small_names=[r.name for r in small],
        exact_runtime=exact_runtime,
        greedy_runtimes=greedy_runtimes,
    )
