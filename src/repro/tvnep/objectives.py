"""The paper's objective functions (Sec. IV-E).

Each function configures the objective of a temporal model (any of
Delta/Sigma/cSigma); all but access control, the default, build the
model's full form if it is not built yet.  Objectives 2-4 assume a
*fixed* set of requests (the paper: "given a fixed set of requests to
be embedded"); callers express that by constructing the model with
``force_embedded=[...]`` — the helpers here verify it.

1.  :func:`set_access_control` — maximize accepted revenue
    ``sum_R x_R * d_R * sum_v c_R(v)``.
2.  :func:`set_max_earliness` — maximize early-start fees
    ``sum_R d_R * (1 - (t^+ - t^s) / (t^e - d - t^s))``.
3.  :func:`set_balance_node_load` — maximize the number of substrate
    nodes never loaded above a fraction ``f`` of their capacity.
4.  :func:`set_disable_links` — maximize the number of substrate links
    that carry no flow over the whole horizon (energy saving).

An additional :func:`set_min_makespan` (minimize the latest end time)
is provided as a natural extension the paper mentions in its
introduction ("makespan minimization").
"""

from __future__ import annotations

from repro.exceptions import ModelingError
from repro.mip.expr import LinExpr, Variable, quicksum
from repro.mip.model import ObjectiveSense
from repro.tvnep.base import TemporalModelBase

__all__ = [
    "set_access_control",
    "set_max_earliness",
    "set_balance_node_load",
    "set_disable_links",
    "set_min_makespan",
    "OBJECTIVES",
]


def _require_fixed_set(model: TemporalModelBase, objective: str) -> None:
    """Objectives 2-4 are defined over a fixed embedded set."""
    loose = [
        emb.request.name
        for emb in model.embeddings.values()
        if emb.x_embed.lb < 0.5  # not pinned to 1
    ]
    if loose:
        raise ModelingError(
            f"{objective} requires a fixed request set; build the model "
            f"with force_embedded covering {loose}"
        )


def set_access_control(model: TemporalModelBase) -> None:
    """Sec. IV-E.1: maximize provider revenue of the accepted set.

    This is every model's default objective
    (:meth:`~repro.tvnep.base.TemporalModelBase.set_access_control_objective`);
    on a model whose form is not built yet it builds nothing.
    """
    model.set_access_control_objective()


def set_max_earliness(model: TemporalModelBase) -> None:
    """Sec. IV-E.2: maximize early-start fees of a fixed request set.

    The per-request fee is ``d_R`` when started as early as possible and
    0 when started as late as possible, interpolated linearly.  A
    request without flexibility (``t^e - d - t^s = 0``) contributes the
    constant ``d_R`` — it is trivially "as early as possible" (the
    paper's formula is undefined there; see DESIGN.md).
    """
    _require_fixed_set(model, "max-earliness")
    objective = LinExpr()
    for request in model.requests:
        flexibility = request.flexibility
        if flexibility <= 1e-12:
            objective.add_expr(request.duration)
            continue
        # d * (1 - (t+ - t^s)/flex) = d + d*t^s/flex - (d/flex) * t+
        scale = request.duration / flexibility
        objective.add_expr(
            request.duration + scale * request.earliest_start
        )
        objective.add_term(model.t_start[request.name], -scale)
    model.model.set_objective(objective, ObjectiveSense.MAXIMIZE)


def set_balance_node_load(
    model: TemporalModelBase, load_fraction: float = 0.5
) -> dict[object, Variable]:
    """Sec. IV-E.3: maximize nodes that stay below ``f * capacity``.

    Introduces a binary ``F(N_s)`` per substrate node with

        ``(1 - F) * (1 - f) * c_S >= usage(s_i, N_s) - f * c_S``

    for every state, i.e. ``F = 1`` certifies the node never exceeds
    ``f`` of its capacity.  Returns the ``F`` variables for inspection.
    """
    if not 0 <= load_fraction < 1:
        raise ModelingError("load fraction f must lie in [0, 1)")
    _require_fixed_set(model, "balance-node-load")
    state_usage = getattr(model, "state_usage", None)
    if state_usage is None:
        raise ModelingError(
            "model exposes no state_usage map; build states first"
        )
    flags: dict[object, Variable] = {}
    for node in model.substrate.nodes:
        flag = model.model.binary_var(f"F[{node}]")
        flags[node] = flag
        cap = model.substrate.node_capacity(node)
        for state in model.events.states:
            usage = state_usage.get((state, node))
            if usage is None:
                continue
            # usage - f*cap <= (1 - F)(1 - f)*cap
            model.model.add_constr(
                usage + flag * ((1 - load_fraction) * cap)
                <= cap,
                name=f"loadF[{node}][s{state}]",
            )
    model.model.set_objective(
        quicksum(flags.values()), ObjectiveSense.MAXIMIZE
    )
    return flags


def set_disable_links(model: TemporalModelBase) -> dict[object, Variable]:
    """Sec. IV-E.4: maximize links disabled over the whole horizon.

    Introduces a binary ``D(L_s)`` per substrate link with

        ``sum_{R, L_v} x_E(L_v, L_s) <= |R| * (1 - D(L_s))``

    so ``D = 1`` certifies no virtual link ever routes over ``L_s``.
    Returns the ``D`` variables.
    """
    _require_fixed_set(model, "disable-links")
    flags: dict[object, Variable] = {}
    for ls in model.substrate.links:
        flag = model.model.binary_var(f"D[{ls}]")
        flags[ls] = flag
        total_flow = LinExpr()
        for emb in model.embeddings.values():
            for lv in emb.request.vnet.links:
                total_flow.add_term(emb.x_link[(lv, ls)], 1.0)
        # each x_E term is at most 1, so the term count is a valid big-M
        big_m = len(total_flow.terms)
        if not total_flow.terms:
            # nothing can ever use the link: D is free, fix it on
            model.model.fix_var(flag, 1.0)
            continue
        model.model.add_constr(
            total_flow + flag * big_m <= big_m,
            name=f"disable[{ls}]",
        )
    model.model.set_objective(
        quicksum(flags.values()), ObjectiveSense.MAXIMIZE
    )
    return flags


def set_min_makespan(model: TemporalModelBase) -> Variable:
    """Extension: minimize the latest end time of a fixed request set."""
    _require_fixed_set(model, "min-makespan")
    makespan = model.model.continuous_var("makespan", lb=0.0, ub=model.T)
    for request in model.requests:
        model.model.add_constr(
            model.t_end[request.name] <= makespan,
            name=f"mk[{request.name}]",
        )
    model.model.set_objective(makespan, ObjectiveSense.MINIMIZE)
    return makespan


#: registry used by the evaluation harness (Figures 5/6 sweep over these)
OBJECTIVES = {
    "access_control": set_access_control,
    "max_earliness": set_max_earliness,
    "balance_node_load": set_balance_node_load,
    "disable_links": set_disable_links,
    "min_makespan": set_min_makespan,
}
