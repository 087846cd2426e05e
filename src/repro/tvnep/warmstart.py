"""Building MIP warm starts from concrete schedules.

Only perfbench/tracing.py still needs this module; no solver path uses it.

The per-insertion MIP form of cSigma^G_A re-solves a nearly identical
explicit-state model per inserted request: everything
placed so far is pinned, only the new request is free.  The previous
iteration's outcome — accepted requests at their pinned windows, the
candidate rejected — is therefore a feasible point of the *new* model,
and :func:`schedule_warm_start` reconstructs the full variable
assignment for it: embedding indicators, link flows (carried over from
the previous solve — flows are time-invariant, so they stay feasible),
the chi event assignment implied by sorting the schedule, event times,
and the explicit state allocations.

The event spaces of consecutive iterations differ (one more request ⇒
one more event), so naively mapping variables by name across models is
*invalid*; rebuilding the assignment from the schedule is the only
sound construction.  Edge cases the construction cannot honor (an
implied event outside a point's dependency-cut range, ties that break
a precedence cut) make it return ``None`` — and whatever it returns is
still validated against the compiled form before use (see
:mod:`repro.mip.warm_start`), so a warm start can only ever save time,
never change a result.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping

from repro.mip.expr import Variable
from repro.temporal.dependency import PointKind

__all__ = ["schedule_warm_start", "validated_warm_start"]

logger = logging.getLogger("repro.runtime")

#: name -> (embedded, start, end)
Schedule = Mapping[str, tuple[bool, float, float]]

_EPS = 1e-9


def schedule_warm_start(
    model,
    schedule: Schedule,
    flow_values: Mapping[str, float] | None = None,
) -> dict[Variable, float] | None:
    """Assignment of ``model`` realizing ``schedule``, or ``None``.

    Parameters
    ----------
    model:
        A built explicit-state temporal model (Sigma/cSigma family —
        anything exposing ``state_alloc``).  Requests must carry fixed
        node mappings; free-placement models are not supported (the
        schedule does not determine node placement).
    schedule:
        ``request name -> (embedded, start, end)`` covering every
        request of the model.  Rejected requests still need (pinned)
        times, per Definition 2.1.
    flow_values:
        ``variable name -> value`` for the ``x_E`` link-flow variables,
        taken from a previous solution (names are stable across
        models).  Missing flows default to 0 — correct whenever the
        virtual link's endpoints share a substrate node, and caught by
        validation otherwise.
    """
    if not hasattr(model, "state_alloc"):
        return None
    flow_values = flow_values or {}
    requests = model.requests
    if any(r.name not in schedule for r in requests):
        return None

    values: dict[Variable, float] = {}

    # -- embedding indicators and link flows --------------------------------
    for request in requests:
        emb = model.embeddings[request.name]
        embedded = bool(schedule[request.name][0])
        if embedded and emb.fixed_mapping is None:
            return None  # placement not determined by the schedule
        values[emb.x_embed] = 1.0 if embedded else 0.0
        for (v, s), var in emb.x_node.items():
            values[var] = (
                1.0 if embedded and emb.fixed_mapping[v] == s else 0.0
            )
        for var in emb.x_link.values():
            values[var] = (
                float(flow_values.get(var.name, 0.0)) if embedded else 0.0
            )

    # -- event assignment implied by the schedule ---------------------------
    num_events = model.events.num_events
    start_event: dict[str, int] = {}
    end_event: dict[str, int] = {}
    event_time: dict[int, float] = {}
    if model.layout == "compact":
        # starts are bijective on e_1..e_|R| in time order; an end maps
        # to the earliest event at or after it (ends live in the
        # half-open bucket (t_{e_{i-1}}, t_{e_i}]), which claims the
        # fewest active states
        order = sorted(requests, key=lambda r: (schedule[r.name][1], r.name))
        for position, request in enumerate(order, start=1):
            start_event[request.name] = position
            event_time[position] = schedule[request.name][1]
        event_time[num_events] = model.T
        for request in requests:
            end = schedule[request.name][2]
            i = start_event[request.name] + 1
            while i <= num_events and event_time[i] < end - _EPS:
                i += 1
            if i > num_events:
                return None
            end_event[request.name] = i
    else:
        # full layout: starts and ends jointly bijective onto events;
        # ends sort before starts at equal times so back-to-back
        # schedules (open-interval semantics) never claim a shared
        # active state
        points = sorted(
            [
                (schedule[r.name][2], 0, r.name, PointKind.END)
                for r in requests
            ]
            + [
                (schedule[r.name][1], 1, r.name, PointKind.START)
                for r in requests
            ]
        )
        for position, (at, _, name, kind) in enumerate(points, start=1):
            event_time[position] = at
            if kind is PointKind.START:
                start_event[name] = position
            else:
                end_event[name] = position
        if any(
            end_event[r.name] <= start_event[r.name] for r in requests
        ):
            return None  # zero-duration tie inverted the point order

    for request in requests:
        name = request.name
        if start_event[name] not in model.event_range(name, PointKind.START):
            return None
        if end_event[name] not in model.event_range(name, PointKind.END):
            return None
    for (name, i), var in model.chi_start.items():
        values[var] = 1.0 if start_event[name] == i else 0.0
    for (name, i), var in model.chi_end.items():
        values[var] = 1.0 if end_event[name] == i else 0.0

    # -- times --------------------------------------------------------------
    for i, var in model.t_event.items():
        values[var] = min(max(event_time[i], 0.0), model.T)
    for request in requests:
        _, start, end = schedule[request.name]
        for var, at in (
            (model.t_start[request.name], start),
            (model.t_end[request.name], end),
        ):
            values[var] = min(max(at, var.lb), var.ub)

    # -- explicit state allocations -----------------------------------------
    # a request is active at the states spanned by [start event, end
    # event); its allocation there equals the alloc expression under the
    # embedding values above, and 0 elsewhere
    alloc_cache: dict[tuple[str, object], float] = {}
    for (name, state, resource), var in model.state_alloc.items():
        if not start_event[name] <= state < end_event[name]:
            values[var] = 0.0
            continue
        key = (name, resource)
        amount = alloc_cache.get(key)
        if amount is None:
            expr = model.embeddings[name].alloc(resource)
            amount = expr.constant + sum(
                coef * values[term] for term, coef in expr.terms.items()
            )
            alloc_cache[key] = amount
        values[var] = amount
    return values


def validated_warm_start(
    model,
    schedule: Schedule,
    flow_values: Mapping[str, float] | None = None,
):
    """A :func:`schedule_warm_start` vetted against the compiled form.

    Returns the full assignment vector (ready to pass as the backends'
    ``warm_start``) when the construction succeeds *and* validates
    feasible, else ``None``.  Construction failures are never allowed
    to escape — a warm start is an optimization, not a dependency.

    Compiling the form here also primes the model's standard-form memo,
    so the subsequent backend solve reuses the same matrices (a cache
    hit instead of a second assembly).
    """
    from repro.mip.warm_start import coerce_assignment, validate_assignment
    from repro.observability import get_registry

    metrics = get_registry()
    try:
        assignment = schedule_warm_start(model, schedule, flow_values)
    except Exception:
        logger.debug("warm-start construction failed", exc_info=True)
        metrics.inc("warmstart.discarded")
        return None
    if assignment is None:
        metrics.inc("warmstart.discarded")
        return None
    form = model.model.to_standard_form()
    x = coerce_assignment(form, assignment)
    if x is None:
        metrics.inc("warmstart.discarded")
        return None
    reason = validate_assignment(form, x)
    if reason is not None:
        logger.debug("warm start dropped as infeasible: %s", reason)
        metrics.inc("warmstart.discarded")
        return None
    metrics.inc("warmstart.validated")
    return x
