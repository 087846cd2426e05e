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
   as one cSigma solve with everything placed so far pinned — the
   insertion loop of Algorithm cSigma^G_A, started from the
   heavy-hitters' outcomes instead of an empty model).

The result is always feasible, dominates pure greedy whenever the
heavy-hitters carry most of the revenue (they get the optimal
treatment), and costs one moderately sized exact solve plus cheap
greedy iterations instead of one big exact solve.
"""

from __future__ import annotations

import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import SolverError, ValidationError
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.runtime.budget import SolveBudget
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.tvnep.greedy import (
    _earliest_slot,
    _insert_all,
    _link_flow_values,
    _reconcile,
    _with_horizon,
)
from repro.tvnep.incremental import IncrementalCSigmaModel
from repro.tvnep.solution import TemporalSolution
# perfbench/tracing.py patches this name on both loop modules
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
    time_limit_per_iteration: float | None = None,
    time_limit: float | None = None,
    budget: SolveBudget | None = None,
) -> HybridResult:
    """Exact on the heavy-hitters, greedy on the rest (Sec. VIII).

    The insertion phase is the greedy's own loop over one growing
    :class:`~repro.tvnep.incremental.IncrementalCSigmaModel`, seeded
    with the heavy-hitters' pinned outcomes instead of starting empty.

    Parameters
    ----------
    heavy_fraction:
        Fraction of requests (by count, after sorting by revenue
        descending) treated exactly; clamped to at least one request
        when the set is non-empty.
    exact_time_limit / time_limit_per_iteration:
        Budgets for the exact phase and each greedy insertion.
    time_limit / budget:
        One global wall-clock budget for the whole run (a
        :class:`~repro.runtime.budget.SolveBudget`, or seconds to build
        one from): the exact phase receives half the remaining time and
        the greedy insertions divide the rest fairly, so the hybrid
        always terminates on schedule.

    Raises
    ------
    ModelingError
        When a request's embedding block cannot be built (e.g. a mapping
        target that is not a substrate node).
    """
    if not 0.0 <= heavy_fraction <= 1.0:
        raise ValidationError("heavy_fraction must lie in [0, 1]")
    missing = [r.name for r in requests if r.name not in fixed_mappings]
    if missing:
        raise SolverError(
            f"hybrid needs fixed node mappings for all requests; missing {missing}"
        )
    options = options or ModelOptions()
    if budget is None and time_limit is not None:
        budget = SolveBudget(time_limit)
    horizon = max(r.latest_end for r in requests)
    options = _with_horizon(options, horizon)

    by_revenue = sorted(requests, key=lambda r: (-r.revenue(), r.name))
    num_heavy = max(1, round(heavy_fraction * len(by_revenue))) if by_revenue else 0
    heavy = by_revenue[:num_heavy]
    small = sorted(
        by_revenue[num_heavy:], key=lambda r: (r.earliest_start, r.name)
    )

    # -- phase 1: exact on the heavy-hitters ------------------------------
    # the exact phase gets half the remaining global budget; the greedy
    # insertions divide the rest
    if budget is not None:
        half = budget.remaining() * 0.5
        exact_time_limit = (
            half if exact_time_limit is None else min(exact_time_limit, half)
        )
    tick = time.perf_counter()
    exact_model = CSigmaModel(
        substrate,
        heavy,
        fixed_mappings={r.name: fixed_mappings[r.name] for r in heavy},
        options=options,
    )
    exact_raw = exact_model.solve_raw(backend=backend, time_limit=exact_time_limit)
    exact_solution = exact_model.extract(exact_raw)
    exact_runtime = time.perf_counter() - tick

    # -- phase 2: greedy insertion of the small requests -------------------
    # seed one growing model with the heavy-hitters' pinned outcomes
    inc = IncrementalCSigmaModel(substrate, options=options, horizon=horizon)
    accepted: list[str] = []
    for request in heavy:
        inc.insert(request, fixed_mappings[request.name])
        entry = exact_solution.scheduled.get(request.name)
        if entry is not None and entry.embedded:
            accepted.append(request.name)
            pinned = request.with_schedule(entry.start, entry.end)
            inc.decide(request.name, True, pinned)
        else:
            inc.decide(request.name, False, _earliest_slot(request))
    # x_E values of the exact phase seed the insertion warm starts
    solution, greedy_runtimes = _insert_all(
        inc,
        small,
        fixed_mappings,
        accepted,
        _link_flow_values(exact_raw) if exact_raw.has_solution else {},
        backend=backend,
        time_limit_per_iteration=time_limit_per_iteration,
        budget=budget,
        label="hybrid",
        step="insertions",
    )
    return HybridResult(
        solution=_reconcile(
            solution,
            requests,
            "hybrid-heavy-hitters",
            exact_runtime + sum(greedy_runtimes),
        ),
        heavy_names=[r.name for r in heavy],
        small_names=[r.name for r in small],
        exact_runtime=exact_runtime,
        greedy_runtimes=greedy_runtimes,
    )
