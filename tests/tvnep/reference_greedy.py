"""Executable spec of the enumerative greedy: one joint LP per candidate.

Every candidate start is decided by
:func:`~repro.tvnep.fixed_schedule.solve_fixed_schedule` over the accepted
placements plus the candidate, and the flows of the LP that accepted the
last request are the reported ones.  ``greedy_enumerative`` must match it
bit for bit: accepted order, schedule, objective and ``link_flows``.
"""

from __future__ import annotations

from repro.temporal import Interval
from repro.tvnep import FixedPlacement, solve_fixed_schedule
from repro.tvnep.solution import ScheduledRequest, TemporalSolution


def reference_greedy(substrate, requests, fixed_mappings):
    """``(solution, accepted order)`` of the LP-per-candidate loop."""
    accepted: list[FixedPlacement] = []
    scheduled: dict[str, ScheduledRequest] = {}
    flows: dict[str, dict] = {}
    for request in sorted(requests, key=lambda r: (r.earliest_start, r.name)):
        latest_start = request.latest_end - request.duration + 1e-12
        ends = {p.interval.hi for p in accepted}
        candidates = sorted(
            {request.earliest_start}
            | {t for t in ends if request.earliest_start < t <= latest_start}
        )
        for start in candidates:
            trial = FixedPlacement(
                request,
                fixed_mappings[request.name],
                Interval(start, start + request.duration),
            )
            result = solve_fixed_schedule(substrate, [*accepted, trial])
            if result.feasible:
                accepted.append(trial)
                flows = result.link_flows
                scheduled[request.name] = ScheduledRequest(
                    request=request,
                    embedded=True,
                    start=trial.interval.lo,
                    end=trial.interval.hi,
                    node_mapping=dict(fixed_mappings[request.name]),
                )
                break
        else:
            scheduled[request.name] = ScheduledRequest(
                request=request,
                embedded=False,
                start=request.earliest_start,
                end=request.earliest_start + request.duration,
            )
    for placement in accepted:
        scheduled[placement.request.name].link_flows = flows.get(
            placement.request.name, {}
        )
    objective = sum(e.request.revenue() for e in scheduled.values() if e.embedded)
    solution = TemporalSolution(substrate, scheduled, objective=objective)
    return solution, [p.request.name for p in accepted]


def assert_matches_reference(result, substrate, requests, fixed_mappings):
    """``result`` (a ``GreedyResult``) equals the reference bit for bit."""
    solution, accepted_order = reference_greedy(substrate, requests, fixed_mappings)
    assert result.accepted_order == accepted_order
    assert result.solution.objective == solution.objective
    for name, want in solution.scheduled.items():
        got = result.solution[name]
        assert (got.embedded, got.start, got.end) == (
            want.embedded,
            want.start,
            want.end,
        ), name
        assert got.node_mapping == want.node_mapping, name
        assert got.link_flows == want.link_flows, name
