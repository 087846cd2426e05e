"""The greedy admission algorithm cSigma^G_A (Sec. V).

The algorithm processes requests in order of earliest possible start.
For request ``L[i]`` it solves a cSigma model over all requests seen so
far in which

* node mappings are fixed a priori (Constraint 23),
* previously accepted requests are forced in (Constraint 24) with their
  windows pinned to the exact schedule chosen when they were accepted,
* previously rejected requests are forced out (Constraint 25) with
  their schedule pinned to the earliest slot (their times must still be
  fixed, per Definition 2.1), and
* the objective (21) ``max T * x_R(L[i]) + (T - t^-_{L[i]})`` embeds the
  new request if at all possible and then as early as possible.

Link allocations of accepted requests are *not* frozen — they are
re-optimized in every iteration (the paper stresses this), which is why
acceptance never degrades: a previously feasible flow assignment stays
feasible and better ones may appear.

Because all but one request have zero temporal flexibility in each
iteration, the dependency-graph event ranges collapse almost all event
assignments a priori, making each iteration's MIP tiny — the paper
reports ~0.1 s per iteration and argues polynomial solvability via
event-order enumeration + LPs.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ModelingError, SolverError
from repro.mip.model import ObjectiveSense
from repro.mip.solution import Solution
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.observability.metrics import get_registry
from repro.runtime.budget import SolveBudget
from repro.tvnep.base import ModelOptions
from repro.tvnep.incremental import IncrementalCSigmaModel
from repro.tvnep.solution import ScheduledRequest, TemporalSolution
from repro.tvnep.warmstart import validated_warm_start
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["GreedyResult", "greedy_csigma", "greedy_enumerative"]

logger = logging.getLogger("repro.runtime")


def _earliest_slot(request: Request) -> Request:
    """A rejected request's pinned copy: times fixed anyway (Definition 2.1)."""
    return request.with_schedule(
        request.earliest_start, request.earliest_start + request.duration
    )


def _pinned_schedule(
    requests: Sequence[Request],
    accepted: Sequence[str],
    candidate: str | None = None,
) -> dict[str, tuple[bool, float, float]]:
    """The warm-start schedule implied by the iteration state.

    Every processed request sits at its pinned window; the candidate
    (if any) is proposed rejected at its earliest slot — exactly the
    feasible state the previous iteration established.
    """
    accepted_set = set(accepted)
    schedule: dict[str, tuple[bool, float, float]] = {}
    for request in requests:
        if request.name == candidate:
            schedule[request.name] = (
                False,
                request.earliest_start,
                request.earliest_start + request.duration,
            )
        else:
            # pinned copies carry the chosen window as their only window
            schedule[request.name] = (
                request.name in accepted_set,
                request.earliest_start,
                request.latest_end,
            )
    return schedule


def _link_flow_values(raw: Solution) -> dict[str, float]:
    """Extract ``x_E`` values by name for reuse in the next iteration."""
    return {
        var.name: value
        for var, value in raw.values.items()
        if var.name.startswith("xE[")
    }


@dataclass
class GreedyResult:
    """Outcome of the greedy run.

    Attributes
    ----------
    solution:
        The final temporal solution over all requests.
    iteration_runtimes:
        Per-iteration wall-clock seconds (the paper reports ~0.1 s).
    accepted_order:
        Request names in the order they were accepted.
    """

    solution: TemporalSolution
    iteration_runtimes: list[float] = field(default_factory=list)
    accepted_order: list[str] = field(default_factory=list)

    @property
    def total_runtime(self) -> float:
        return sum(self.iteration_runtimes)


def greedy_csigma(
    substrate: SubstrateNetwork,
    requests: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
    options: ModelOptions | None = None,
    backend: str = "highs",
    time_limit_per_iteration: float | None = None,
    time_limit: float | None = None,
    budget: SolveBudget | None = None,
) -> GreedyResult:
    """Run Algorithm cSigma^G_A.

    The run keeps **one** growing
    :class:`~repro.tvnep.incremental.IncrementalCSigmaModel`: each
    iteration appends the new request's embedding block and rebuilds
    only the temporal tail, and a decision is a bound update.  The
    heavy-hitters hybrid runs the same insertion loop from a seeded
    model (:func:`repro.tvnep.hybrid.hybrid_heavy_hitters`).

    Parameters
    ----------
    substrate, requests:
        The TVNEP instance.
    fixed_mappings:
        A-priori node mapping per request name (required — the
        algorithm only optimizes link embedding and scheduling; compute
        one with e.g. :func:`repro.vnep.random_node_mapping`).
    options:
        Formulation options for the per-iteration cSigma models
        (defaults to all reductions on — essential for speed).
    backend:
        MIP backend for the iterations (a registry name or callable,
        e.g. a :class:`~repro.runtime.resilient.ResilientBackend`); it
        receives every iteration's ``warm_start``.
    time_limit_per_iteration:
        Optional safety limit; an iteration that cannot prove
        embeddability in time conservatively rejects the request.
    time_limit:
        Global wall-clock limit for the *whole* run; it is divided
        fairly across the remaining iterations (deadline-aware), so the
        greedy degrades — rejecting the tail of the request list — but
        always terminates on schedule.
    budget:
        An existing :class:`~repro.runtime.budget.SolveBudget` to
        consume instead of creating one from ``time_limit`` (used when
        the caller threads one global budget through several phases).

    Raises
    ------
    SolverError
        When a request has no fixed mapping, or the final pinned solve
        fails.
    ModelingError
        When a request's embedding block cannot be built (e.g. a mapping
        target that is not a substrate node).
    """
    missing = [r.name for r in requests if r.name not in fixed_mappings]
    if missing:
        raise SolverError(
            f"greedy needs fixed node mappings for all requests; missing {missing}"
        )
    options = options or ModelOptions()
    if budget is None and time_limit is not None:
        budget = SolveBudget(time_limit)
    horizon = max(r.latest_end for r in requests)
    inc = IncrementalCSigmaModel(
        substrate, options=_with_horizon(options, horizon), horizon=horizon
    )
    accepted: list[str] = []
    # L <- R ordered by earliest possible start (stable for ties)
    solution, runtimes = _insert_all(
        inc,
        sorted(requests, key=lambda r: (r.earliest_start, r.name)),
        fixed_mappings,
        accepted,
        {},
        backend=backend,
        time_limit_per_iteration=time_limit_per_iteration,
        budget=budget,
        label="greedy",
        step="iterations",
    )
    return GreedyResult(
        solution=_reconcile(solution, requests, "csigma-greedy", sum(runtimes)),
        iteration_runtimes=runtimes,
        accepted_order=accepted,
    )


def _insert_all(
    inc: IncrementalCSigmaModel,
    order: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
    accepted: list[str],
    flow_values: dict[str, float],
    *,
    backend,
    time_limit_per_iteration: float | None,
    budget: SolveBudget | None,
    label: str,
    step: str,
) -> tuple[TemporalSolution, list[float]]:
    """Insert ``order`` one request at a time, then solve fully pinned.

    ``inc`` may already hold decided requests (the hybrid's
    heavy-hitters); ``accepted`` names the accepted ones and grows in
    acceptance order, and ``flow_values`` holds the ``x_E`` values that
    warm-start the first solve.  Each iteration solves with objective
    (21) and pins the outcome; a solve that fails rejects the request,
    while an embedding block that cannot be built raises at once.

    Returns the extraction of the final fully-pinned solve (over the
    pinned request copies) and the per-iteration runtimes.  Counters are
    ``<label>.<step>``, ``<label>.accepted`` and ``<label>.rejected``.
    """
    registry = get_registry()
    horizon = inc.T
    runtimes: list[float] = []

    def decide(pinned: Request, embedded: bool) -> None:
        if embedded:
            accepted.append(pinned.name)
        registry.inc(f"{label}.{'accepted' if embedded else 'rejected'}")
        inc.decide(pinned.name, embedded, pinned)

    for position, request in enumerate(order):
        registry.inc(f"{label}.{step}")
        inc.insert(request, fixed_mappings[request.name])
        if budget is not None and budget.expired:
            # out of wall-clock: conservatively reject the tail instead
            # of blowing past the deadline
            logger.warning(
                "%s budget exhausted after %d/%d %s; rejecting %s without solving",
                label,
                position,
                len(order),
                step,
                request.name,
            )
            runtimes.append(0.0)
            decide(_earliest_slot(request), False)
            continue
        # fair share of the remaining budget for this iteration (the
        # +1 reserves a slot for the final fully-pinned solve)
        iteration_limit = time_limit_per_iteration
        if budget is not None:
            share = budget.per_iteration(len(order) - position + 1, floor=0.05)
            iteration_limit = (
                share if iteration_limit is None else min(iteration_limit, share)
            )
        tick = time.perf_counter()
        try:
            inc.rebuild_tail()
            # objective (21): embed L[i] if possible, then end it early
            target = inc.embeddings[request.name]
            inc.model.set_objective(
                target.x_embed * horizon + (horizon - inc.t_end[request.name]),
                ObjectiveSense.MAXIMIZE,
            )
            # warm-start with the previous accepted state (candidate
            # proposed rejected) — the search then starts with a known
            # incumbent instead of cold
            warm = validated_warm_start(
                inc,
                _pinned_schedule(inc.requests, accepted, candidate=request.name),
                flow_values,
            )
            raw = inc.solve_raw(
                backend=backend, time_limit=iteration_limit, warm_start=warm
            )
        except (SolverError, ModelingError) as exc:
            # a failed iteration conservatively rejects the request —
            # the run degrades instead of dying (Sec. V semantics: a
            # request that cannot be *proven* embeddable is rejected)
            logger.warning(
                "%s solve for %s failed (%s); rejecting", label, request.name, exc
            )
            runtimes.append(time.perf_counter() - tick)
            decide(_earliest_slot(request), False)
            continue
        runtimes.append(time.perf_counter() - tick)

        # flows are time-invariant, so the last solve's x_E values stay
        # feasible and warm-start the next one
        if raw.has_solution:
            flow_values = _link_flow_values(raw)
        if raw.has_solution and raw.rounded(target.x_embed) == 1:
            # pin the window to the chosen schedule
            start = raw.value(inc.t_start[request.name])
            end = raw.value(inc.t_end[request.name])
            decide(request.with_schedule(start, end), True)
        else:
            decide(_earliest_slot(request), False)

    # one final fully-pinned solve over *all* requests: with every
    # schedule and accept/reject decision fixed, this is cheap, and it
    # guarantees the extraction covers the whole request set even if a
    # per-iteration time limit left some intermediate solve empty.  It
    # gets a grace second even when the budget just ran out, because
    # without it there is nothing to extract
    inc.rebuild_tail()
    final_limit = None if budget is None else max(budget.clamp(None), 1.0)
    try:
        final_warm = validated_warm_start(
            inc, _pinned_schedule(inc.requests, accepted), flow_values
        )
        final_raw = inc.solve_raw(
            backend=backend, time_limit=final_limit, warm_start=final_warm
        )
    except SolverError as exc:
        raise SolverError(f"{label} final extraction solve failed: {exc}") from exc
    return inc.extract(final_raw), runtimes


def greedy_enumerative(
    substrate: SubstrateNetwork,
    requests: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
) -> GreedyResult:
    """The provably polynomial variant of Algorithm cSigma^G_A.

    Sec. V argues the greedy is polynomial because, with all previously
    processed requests pinned in time, only polynomially many event
    placements exist for the new request, each reducing to an LP.  This
    function implements that argument directly:

    * candidate starts for the new request are its earliest start plus
      the end times of already-accepted requests inside its window — a
      left-shift exchange argument shows the earliest feasible start is
      always among them;
    * each candidate is tested with the fixed-schedule link-embedding
      LP (:func:`repro.tvnep.fixed_schedule.solve_fixed_schedule`);
    * the first feasible candidate (earliest) is chosen, matching the
      MIP variant's objective (21).

    Produces the same acceptance decisions and schedules as
    :func:`greedy_csigma` (tested), with strictly polynomial work:
    O(|R|) LPs per request.
    """
    from repro.temporal.interval import Interval
    from repro.tvnep.fixed_schedule import FixedPlacement, solve_fixed_schedule

    missing = [r.name for r in requests if r.name not in fixed_mappings]
    if missing:
        raise SolverError(
            f"greedy needs fixed node mappings for all requests; missing {missing}"
        )
    order = sorted(requests, key=lambda r: (r.earliest_start, r.name))

    accepted: list[FixedPlacement] = []
    accepted_order: list[str] = []
    runtimes: list[float] = []
    scheduled: dict[str, ScheduledRequest] = {}
    latest_flows: dict[str, dict] = {}

    for request in order:
        tick = time.perf_counter()
        candidates = sorted(
            {request.earliest_start}
            | {
                placement.interval.hi
                for placement in accepted
                if request.earliest_start
                < placement.interval.hi
                <= request.latest_end - request.duration + 1e-12
            }
        )
        chosen: FixedPlacement | None = None
        for start in candidates:
            trial = FixedPlacement(
                request=request,
                node_mapping=fixed_mappings[request.name],
                interval=Interval(start, start + request.duration),
            )
            result = solve_fixed_schedule(substrate, accepted + [trial])
            if result.feasible:
                chosen = trial
                latest_flows = result.link_flows
                break
        runtimes.append(time.perf_counter() - tick)

        if chosen is not None:
            accepted.append(chosen)
            accepted_order.append(request.name)
            scheduled[request.name] = ScheduledRequest(
                request=request,
                embedded=True,
                start=chosen.interval.lo,
                end=chosen.interval.hi,
                node_mapping=dict(fixed_mappings[request.name]),
            )
        else:
            scheduled[request.name] = ScheduledRequest(
                request=request,
                embedded=False,
                start=request.earliest_start,
                end=request.earliest_start + request.duration,
            )

    # attach the final (jointly re-optimized) flows to the accepted set
    for name, entry in scheduled.items():
        if entry.embedded:
            entry.link_flows = latest_flows.get(name, {})

    solution = TemporalSolution(
        substrate,
        scheduled,
        objective=sum(
            e.request.revenue() for e in scheduled.values() if e.embedded
        ),
        model_name="enumerative-greedy",
        runtime=sum(runtimes),
        gap=0.0,
    )
    return GreedyResult(
        solution=solution,
        iteration_runtimes=runtimes,
        accepted_order=accepted_order,
    )


def _with_horizon(options: ModelOptions, horizon: float) -> ModelOptions:
    """Options with a shared time horizon across iterations."""
    if options.time_horizon is not None:
        return options
    from dataclasses import replace

    return replace(options, time_horizon=horizon)


def _reconcile(
    solution: TemporalSolution,
    original_requests: Sequence[Request],
    model_name: str,
    runtime: float,
) -> TemporalSolution:
    """The reported solution: original (un-pinned) requests, revenue objective.

    The insertion loop pins windows internally; the reported solution
    should reference the caller's requests so window checks use the
    *original* flexibilities.
    """
    by_name = {r.name: r for r in original_requests}
    scheduled = {}
    for name, entry in solution.scheduled.items():
        scheduled[name] = ScheduledRequest(
            request=by_name[name],
            embedded=entry.embedded,
            start=entry.start,
            end=entry.end,
            node_mapping=entry.node_mapping,
            link_flows=entry.link_flows,
        )
    final = TemporalSolution(
        solution.substrate,
        scheduled,
        model_name=model_name,
        runtime=runtime,
        gap=0.0,
        node_count=solution.node_count,
        status=solution.status,
        rung=solution.rung,
    )
    final.objective = final.total_revenue()
    return final
