"""Embedding variables and constraints shared by all (T)VNEP models.

For each request this module creates the paper's Table III variables —

* ``x_R ∈ B`` — whether the request is embedded,
* ``x_V : V_R x V_S -> B`` — virtual-node placement,
* ``x_E : E_R x E_S -> [0, 1]`` — splittable virtual-link flows,

wires up Constraint (1) (node mapping iff embedded) and Constraint (2)
(unit-flow construction per virtual link), and exposes the Table V
allocation macros ``alloc_V`` / ``alloc_E`` as linear expressions.

When a fixed a-priori node mapping is supplied (the evaluation
methodology of Sec. VI-A, and Constraint (23) of the greedy algorithm),
the placement variables are bounded above by the mapping's indicator,
i.e. a virtual node may only go where the mapping allows — and since
Constraint (1) requires exactly one placement iff embedded, the mapping
is enforced exactly whenever the request is accepted.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.exceptions import ModelingError
from repro.mip.constraint import Sense
from repro.mip.expr import LinExpr
from repro.mip.model import Model
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork

__all__ = ["EmbeddingVariables", "NodeMapping"]

#: a fixed node mapping: virtual node -> substrate node
NodeMapping = Mapping[Hashable, Hashable]


class EmbeddingVariables:
    """Per-request embedding variables plus the Table V macros.

    Parameters
    ----------
    model:
        Model the variables are created in.
    substrate:
        The substrate network ``S``.
    request:
        The request ``R``.
    fixed_mapping:
        Optional ``virtual node -> substrate node`` assignment.  When
        given, only the corresponding placement variables are created
        (all others are implicitly zero).
    force_embedded:
        Fix ``x_R = 1`` (used by objectives over a fixed request set and
        by Constraint (24) of the greedy algorithm).
    force_rejected:
        Fix ``x_R = 0`` (Constraint (25) of the greedy algorithm).
    build_link_flows:
        Create the static ``x_E`` variables and flow constraints
        (default).  The re-routing model variant disables this and
        builds its own per-state flows instead
        (:mod:`repro.tvnep.rerouting`); with it off, ``alloc_link``
        returns the empty expression.

    The mapping and flow rows are emitted in one batch through the
    model's :class:`~repro.mip.columnar.ColumnarEmitter`.
    """

    def __init__(
        self,
        model: Model,
        substrate: SubstrateNetwork,
        request: Request,
        fixed_mapping: NodeMapping | None = None,
        force_embedded: bool = False,
        force_rejected: bool = False,
        build_link_flows: bool = True,
    ) -> None:
        if force_embedded and force_rejected:
            raise ModelingError(
                f"{request.name}: cannot force both embedded and rejected"
            )
        self.model = model
        self.substrate = substrate
        self.request = request
        name = request.name
        vnet = request.vnet

        if fixed_mapping is not None:
            missing = [v for v in vnet.nodes if v not in fixed_mapping]
            if missing:
                raise ModelingError(
                    f"{name}: fixed mapping misses virtual nodes {missing}"
                )
            for v, s in fixed_mapping.items():
                if not substrate.has_node(s):
                    raise ModelingError(
                        f"{name}: mapping target {s!r} is not a substrate node"
                    )
        self.fixed_mapping = dict(fixed_mapping) if fixed_mapping else None
        self._alloc_profile: list[tuple] | None = None

        # x_R
        self.x_embed = model.binary_var(f"xR[{name}]")
        if force_embedded:
            model.fix_var(self.x_embed, 1.0)
        if force_rejected:
            model.fix_var(self.x_embed, 0.0)

        # x_V — only over admissible placements
        self.x_node: dict[tuple[Hashable, Hashable], object] = {}
        for v in vnet.nodes:
            if self.fixed_mapping is not None:
                candidates = [self.fixed_mapping[v]]
            else:
                candidates = list(substrate.nodes)
            for s in candidates:
                self.x_node[(v, s)] = model.binary_var(f"xV[{name}][{v}->{s}]")

        # Constraint (1): sum_s x_V(v, s) = x_R
        em = model.columnar_emitter()
        for v in vnet.nodes:
            row = em.add_row(f"map[{name}][{v}]", Sense.EQ, 0.0)
            cols = [
                var.index
                for s in substrate.nodes
                if (var := self.x_node.get((v, s))) is not None
            ]
            em.add_row_terms(row, cols, [1.0] * len(cols))
            em.add_term(row, self.x_embed, -1.0)
        em.flush()

        # x_E
        self.x_link: dict[tuple, object] = {}
        if not build_link_flows:
            return
        for lv in vnet.links:
            for ls in substrate.links:
                self.x_link[(lv, ls)] = model.continuous_var(
                    f"xE[{name}][{lv}@{ls}]", lb=0.0, ub=1.0
                )

        self._build_flow_constraints(em)

    def _build_flow_constraints(self, em) -> None:
        """Constraint (2): per virtual link and substrate node,
        ``outflow - inflow = x_V(tail, s) - x_V(head, s)`` — a unit flow
        from the tail's host to the head's host.

        ``x_E`` variables were created ``for lv: for ls:``, so the
        column of ``(lv, ls)`` is ``base + lv_pos * |E_S| + ls_pos`` —
        the per-node out/in column offsets are computed once over the
        substrate and shifted per virtual link.
        """
        name = self.request.name
        vnet = self.request.vnet
        substrate = self.substrate
        links = list(substrate.links)
        ls_pos = {ls: j for j, ls in enumerate(links)}
        num_links = len(links)
        base = next(iter(self.x_link.values())).index if self.x_link else 0
        node_offsets = [
            (
                s,
                [ls_pos[ls] for ls in substrate.out_links(s)],
                [ls_pos[ls] for ls in substrate.in_links(s)],
            )
            for s in substrate.nodes
        ]
        for lv_pos, lv in enumerate(vnet.links):
            tail, head = lv
            lv_base = base + lv_pos * num_links
            for s, out_pos, in_pos in node_offsets:
                row = em.add_row(
                    f"flow[{name}][{tail}->{head}][{s}]", Sense.EQ, 0.0
                )
                em.add_row_terms(
                    row, [lv_base + j for j in out_pos], [1.0] * len(out_pos)
                )
                em.add_row_terms(
                    row, [lv_base + j for j in in_pos], [-1.0] * len(in_pos)
                )
                var = self.x_node.get((tail, s))
                if var is not None:
                    em.add_term(row, var, -1.0)
                var = self.x_node.get((head, s))
                if var is not None:
                    em.add_term(row, var, 1.0)
        em.flush()

    # ------------------------------------------------------------------
    # Table V macros
    # ------------------------------------------------------------------
    def alloc_node(self, s: Hashable) -> LinExpr:
        """``alloc_V(R, s) = sum_v c_R(v) * x_V(v, s)``."""
        expr = LinExpr()
        for v in self.request.vnet.nodes:
            var = self.x_node.get((v, s))
            if var is not None:
                expr.add_term(var, self.request.vnet.node_demand(v))
        return expr

    def alloc_link(self, ls: tuple) -> LinExpr:
        """``alloc_E(R, ls) = sum_lv c_R(lv) * x_E(lv, ls)``.

        Empty when the static link flows were not built (re-routing
        variant).
        """
        expr = LinExpr()
        for lv in self.request.vnet.links:
            var = self.x_link.get((lv, ls))
            if var is not None:
                expr.add_term(var, self.request.vnet.link_demand(lv))
        return expr

    def alloc(self, resource: Hashable) -> LinExpr:
        """``alloc(R, r)`` for a node or link resource."""
        if self.substrate.has_link(resource):  # type: ignore[arg-type]
            return self.alloc_link(resource)  # type: ignore[arg-type]
        return self.alloc_node(resource)

    def alloc_entries(self, resource: Hashable) -> tuple[list[int], list[float]]:
        """``alloc(R, r)`` as parallel column/coefficient lists.

        The explicit-state builder consumes these directly; the values
        match :meth:`alloc` term for term (zero demands are dropped by
        both, via ``add_term``'s zero filter there and explicitly here).
        """
        cols: list[int] = []
        coefs: list[float] = []
        if self.substrate.has_link(resource):  # type: ignore[arg-type]
            for lv in self.request.vnet.links:
                var = self.x_link.get((lv, resource))
                if var is not None:
                    demand = self.request.vnet.link_demand(lv)
                    if demand:
                        cols.append(var.index)
                        coefs.append(demand)
        else:
            for v in self.request.vnet.nodes:
                var = self.x_node.get((v, resource))
                if var is not None:
                    demand = self.request.vnet.node_demand(v)
                    if demand:
                        cols.append(var.index)
                        coefs.append(demand)
        return cols, coefs

    def alloc_profile(self) -> list[tuple]:
        """All nonzero allocation entries, memoized.

        One ``(resource, cols, coefs, negated_coefs, big_m)`` tuple per
        resource with a nonzero allocation, in substrate resource order.
        Variable indices never change once the embedding is built (model
        growth is append-only), so the profile is computed once and
        reused by every temporal-tail rebuild of the incremental model.
        Callers must treat the lists as immutable.
        """
        profile = self._alloc_profile
        if profile is None:
            profile = []
            for resource in self.substrate.resources:
                cols, coefs = self.alloc_entries(resource)
                if cols:
                    profile.append((
                        resource,
                        cols,
                        coefs,
                        [-c for c in coefs],
                        self.alloc_upper_bound(resource),
                    ))
            self._alloc_profile = profile
        return profile

    def alloc_upper_bound(self, resource: Hashable) -> float:
        """A safe constant upper bound on ``alloc(R, r)``.

        Used as the big-M coefficient in the Delta-/Sigma-Model
        conditional constraints.  The substrate capacity is a valid
        bound for any solution satisfying the capacity constraints, per
        the paper's Constraints (3)-(6); taking the min with the total
        demand tightens it further.
        """
        cap = self.substrate.capacity(resource)
        if self.substrate.has_link(resource):  # type: ignore[arg-type]
            demand = self.request.vnet.total_link_demand()
        else:
            demand = self.request.vnet.total_node_demand()
        return min(cap, demand) if demand > 0 else 0.0
