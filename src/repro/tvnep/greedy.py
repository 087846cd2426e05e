"""The greedy admission algorithm cSigma^G_A (Sec. V).

The algorithm processes requests in order of earliest possible start.
The paper states each step as a cSigma model over all requests seen so
far in which

* node mappings are fixed a priori (Constraint 23),
* previously accepted requests are forced in (Constraint 24) with their
  windows pinned to the exact schedule chosen when they were accepted,
* previously rejected requests are forced out (Constraint 25) with
  their schedule pinned to the earliest slot (their times must still be
  fixed, per Definition 2.1), and
* the objective (21) ``max T * x_R(L[i]) + (T - t^-_{L[i]})`` embeds the
  new request if at all possible and then as early as possible.

That per-iteration MIP is the specification (kept as a test-side
reference, ``tests/tvnep/reference_mip_greedy.py``); this module
implements the paper's polynomiality argument instead.  With everything
before ``L[i]`` pinned, the earliest feasible start of ``L[i]`` is its
earliest start or the end of an accepted request inside its window (a
left-shift exchange argument), and each such candidate is one
fixed-schedule link-embedding LP.  The candidates are tested in
increasing order by :class:`repro.tvnep.fixed_schedule.PathFirstAdmission`,
which decides most of them by node arithmetic and a residual-capacity
path search, without any LP.

Link allocations of accepted requests are *not* frozen: the admission
falls back to the joint LP over accepted + new, and one final joint LP
over the accepted placements gives the reported flows.  Acceptance thus
never degrades, as the paper stresses.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import ModelingError, SolverError
from repro.mip import check_time_limit
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.observability.metrics import get_registry
from repro.temporal.interval import Interval
# solve_fixed_schedule is called through the module attribute, which
# perfbench/tracing.py wraps as the ``tvnep.fixed_schedule`` layer
from repro.tvnep import fixed_schedule
from repro.tvnep.fixed_schedule import FixedPlacement, PathFirstAdmission
from repro.tvnep.solution import ScheduledRequest, TemporalSolution
# nothing here calls it; only perfbench/tracing.py patches this name
from repro.tvnep.warmstart import validated_warm_start  # noqa: F401
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["GreedyResult", "greedy_csigma", "greedy_enumerative"]

logger = logging.getLogger("repro.runtime")


@dataclass
class GreedyResult:
    """Outcome of the greedy run.

    Attributes
    ----------
    solution:
        The final temporal solution over all requests.
    iteration_runtimes:
        Per-iteration wall-clock seconds.
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
    *,
    time_limit: float | None = None,
) -> GreedyResult:
    """Run Algorithm cSigma^G_A.

    Requests are admitted in order of earliest start, each at its
    earliest feasible start (see the module docstring); the
    heavy-hitters hybrid runs the same loop from a seeded admission
    (:func:`repro.tvnep.hybrid.hybrid_heavy_hitters`).

    Parameters
    ----------
    substrate, requests:
        The TVNEP instance.
    fixed_mappings:
        A-priori node mapping per request name (required — the
        algorithm only optimizes link embedding and scheduling; compute
        one with e.g. :func:`repro.vnep.random_node_mapping`).
    time_limit:
        Wall-clock limit [s] for the *whole* run: once it has
        expired, every remaining request is rejected at its earliest
        slot without being tested, so the greedy always terminates on
        schedule.

    Raises
    ------
    ValidationError
        When ``time_limit`` is negative or not finite.
    SolverError
        When a request has no fixed mapping, or the final link-embedding
        LP fails.
    ModelingError
        When a request's mapping targets a node the substrate lacks.
    """
    _require_mappings(requests, fixed_mappings, "greedy")
    time_limit = check_time_limit(time_limit)
    deadline = None if time_limit is None else time.monotonic() + time_limit
    admission = PathFirstAdmission(substrate)
    # L <- R ordered by earliest possible start (stable for ties)
    scheduled: dict[str, ScheduledRequest] = {}
    runtimes = _admit_in_order(
        admission,
        sorted(requests, key=lambda r: (r.earliest_start, r.name)),
        fixed_mappings,
        scheduled,
        deadline=deadline,
        label="greedy",
        step="iterations",
    )
    solution = _final_solution(admission, scheduled, "csigma-greedy")
    solution.runtime += sum(runtimes)
    return GreedyResult(
        solution=solution,
        iteration_runtimes=runtimes,
        accepted_order=[p.request.name for p in admission.placements],
    )


#: the provably polynomial variant is the greedy itself; the name stays
#: because callers (e.g. perfbench's ``insert-lp`` cells) use it
greedy_enumerative = greedy_csigma


def _require_mappings(
    requests: Sequence[Request], fixed_mappings: Mapping[str, NodeMapping], who: str
) -> None:
    missing = [r.name for r in requests if r.name not in fixed_mappings]
    if missing:
        raise SolverError(
            f"{who} needs fixed node mappings for all requests; missing {missing}"
        )


def _admit_in_order(
    admission: PathFirstAdmission,
    order: Sequence[Request],
    fixed_mappings: Mapping[str, NodeMapping],
    scheduled: dict[str, ScheduledRequest],
    *,
    deadline: float | None,
    label: str,
    step: str,
) -> list[float]:
    """Admit ``order`` one request at a time, each at its earliest fit.

    ``admission`` may already hold placements (the hybrid's
    heavy-hitters).  Each request's outcome is added to ``scheduled``;
    returns the per-request runtimes.  Once the ``time.monotonic()``
    ``deadline`` has passed, every remaining request is rejected
    untested.  Counters are ``<label>.<step>``,
    ``<label>.accepted`` and ``<label>.rejected``.
    """
    registry = get_registry()
    runtimes: list[float] = []
    for position, request in enumerate(order):
        registry.inc(f"{label}.{step}")
        chosen: FixedPlacement | None = None
        if deadline is not None and time.monotonic() >= deadline:
            # out of wall-clock: conservatively reject the tail instead
            # of blowing past the deadline
            logger.warning(
                "%s time limit reached after %d/%d %s; rejecting %s untested",
                label,
                position,
                len(order),
                step,
                request.name,
            )
            runtimes.append(0.0)
        else:
            tick = time.perf_counter()
            chosen = _earliest_fit(admission, request, fixed_mappings[request.name])
            runtimes.append(time.perf_counter() - tick)
        registry.inc(f"{label}.{'accepted' if chosen else 'rejected'}")
        scheduled[request.name] = (
            _rejected_entry(request) if chosen is None else _accepted_entry(chosen)
        )
    return runtimes


def _earliest_fit(
    admission: PathFirstAdmission, request: Request, mapping: NodeMapping
) -> FixedPlacement | None:
    """Admit ``request`` at its earliest feasible candidate start, if any.

    The candidates are its earliest start plus the end times of accepted
    placements inside its window.
    """
    # checked once per request, so admit() stays as cheap per candidate
    for host in mapping.values():
        if not admission.substrate.has_node(host):
            raise ModelingError(
                f"{request.name}: mapping target {host!r} is not a substrate node"
            )
    latest_start = request.latest_end - request.duration + 1e-12
    candidates = sorted(
        {request.earliest_start}
        | {
            placement.interval.hi
            for placement in admission.placements
            if request.earliest_start < placement.interval.hi <= latest_start
        }
    )
    for start in candidates:
        trial = FixedPlacement(
            request=request,
            node_mapping=mapping,
            interval=Interval(start, start + request.duration),
        )
        if admission.admit(trial):
            return trial
    return None


def _accepted_entry(placement: FixedPlacement) -> ScheduledRequest:
    return ScheduledRequest(
        request=placement.request,
        embedded=True,
        start=placement.interval.lo,
        end=placement.interval.hi,
        node_mapping=dict(placement.node_mapping),
    )


def _rejected_entry(request: Request) -> ScheduledRequest:
    """A rejected request, at its earliest slot (times fixed anyway, Def. 2.1)."""
    return ScheduledRequest(
        request=request,
        embedded=False,
        start=request.earliest_start,
        end=request.earliest_start + request.duration,
    )


def _final_solution(
    admission: PathFirstAdmission,
    scheduled: dict[str, ScheduledRequest],
    model_name: str,
) -> TemporalSolution:
    """The reported solution, with the joint LP's flows over the accepted set.

    The admission steps only decide; one final joint LP over the
    accepted placements, in acceptance order, gives the flows.  The
    solution's runtime is that LP's wall time.
    """
    tick = time.perf_counter()
    if admission.placements:
        final = fixed_schedule.solve_fixed_schedule(
            admission.substrate, admission.placements
        )
        if not final.feasible:
            raise SolverError(
                f"{model_name} final link-embedding LP failed: {final.reason}"
            )
        for name, flows in final.link_flows.items():
            scheduled[name].link_flows = flows
    return TemporalSolution(
        admission.substrate,
        scheduled,
        objective=sum(e.request.revenue() for e in scheduled.values() if e.embedded),
        model_name=model_name,
        runtime=time.perf_counter() - tick,
        gap=0.0,
    )
