"""Executable spec of cSigma^G_A: the paper's per-iteration cSigma MIP.

For request ``L[i]`` (earliest-start order) a fresh
:class:`~repro.tvnep.csigma_model.CSigmaModel` is built over every
request seen so far, with

* the node mappings fixed (Constraint 23),
* accepted requests forced in at their pinned windows (Constraint 24),
* rejected requests forced out at their earliest slot (Constraint 25),

and solved with objective (21), ``max T * x_{L[i]} + (T - t^-_{L[i]})``.
``greedy_csigma`` must make the same decisions at the same start times.

HiGHS's MIP feasibility tolerance (1e-6) lets the MIP start a request
that much before the one it follows ends.  Pinning such a sliver of
overlap would make a later iteration infeasible, so a chosen start
within :data:`SNAP` of the earliest start or of an accepted request's
end is snapped to it, as ``verify_solution`` snaps nearly equal times.
"""

from __future__ import annotations

from dataclasses import replace

from repro.mip.model import ObjectiveSense
from repro.tvnep import CSigmaModel, ModelOptions

SNAP = 1e-5


def reference_mip_greedy(
    substrate, requests, fixed_mappings, backend="highs", **solve_kwargs
):
    """``(accepted order, {accepted name: start})`` of the MIP loop."""
    horizon = max(r.latest_end for r in requests)
    options = replace(ModelOptions(), time_horizon=horizon)
    pinned = []
    accepted: list[str] = []
    rejected: list[str] = []
    starts: dict[str, float] = {}
    ends: dict[str, float] = {}
    for request in sorted(requests, key=lambda r: (r.earliest_start, r.name)):
        name = request.name
        model = CSigmaModel(
            substrate,
            [*pinned, request],
            fixed_mappings={r.name: fixed_mappings[r.name] for r in [*pinned, request]},
            force_embedded=accepted,
            force_rejected=rejected,
            options=options,
        )
        x_new = model.embeddings[name].x_embed
        model.model.set_objective(
            x_new * horizon + (horizon - model.t_end[name]), ObjectiveSense.MAXIMIZE
        )
        raw = model.solve_raw(backend=backend, **solve_kwargs)
        # rejecting L[i] keeps the previous, feasible state
        assert raw.has_solution, f"{name}: {raw.status}"
        if raw.rounded(x_new) == 1:
            start = raw.value(model.t_start[name])
            points = [request.earliest_start, *(ends[a] for a in accepted)]
            nearest = min(points, key=lambda t: abs(t - start))
            if abs(nearest - start) <= SNAP:
                start = nearest
            pinned.append(request.with_schedule(start, start + request.duration))
            accepted.append(name)
            starts[name] = start
            ends[name] = start + request.duration
        else:
            pinned.append(
                request.with_schedule(
                    request.earliest_start, request.earliest_start + request.duration
                )
            )
            rejected.append(name)
    return accepted, starts


def assert_matches_mip_greedy(result, substrate, requests, fixed_mappings, **kwargs):
    """``result`` (a ``GreedyResult``) makes the reference's decisions."""
    accepted, starts = reference_mip_greedy(substrate, requests, fixed_mappings, **kwargs)
    solution = result.solution
    assert sorted(solution.embedded_names()) == sorted(accepted)
    for name, start in starts.items():
        assert abs(solution[name].start - start) <= 1e-6, (
            name,
            solution[name].start,
            start,
        )
