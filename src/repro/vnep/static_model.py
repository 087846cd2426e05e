"""The classic *static* VNEP as a standalone MIP (Sec. II-A).

This is the time-less special case of the TVNEP: all requests are
active simultaneously and capacities must hold once.  It is the
correctness baseline for the temporal models: a TVNEP instance in which
all requests have identical, inflexible windows must yield exactly the
static optimum (tested).
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping, Sequence

from repro.exceptions import ValidationError
from repro.mip.expr import quicksum
from repro.mip.model import Model, ObjectiveSense
from repro.mip.solution import Solution
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.vnep.embedding_vars import EmbeddingVariables, NodeMapping

__all__ = ["StaticVNEPModel", "StaticEmbeddingResult"]


class StaticVNEPModel:
    """Builder/solver for the static VNEP.

    Parameters
    ----------
    substrate:
        The substrate network.
    requests:
        Requests to embed (their temporal specs are ignored here).
    fixed_mappings:
        Optional per-request fixed node mappings
        (``{request name: {virtual node: substrate node}}``).
    force_all:
        Require every request to be embedded (``x_R = 1``).
    """

    def __init__(
        self,
        substrate: SubstrateNetwork,
        requests: Sequence[Request],
        fixed_mappings: Mapping[str, NodeMapping] | None = None,
        force_all: bool = False,
    ) -> None:
        names = [r.name for r in requests]
        if len(set(names)) != len(names):
            raise ValidationError("request names must be unique")
        self.substrate = substrate
        self.requests = list(requests)
        self.model = Model("static-vnep")
        fixed_mappings = fixed_mappings or {}

        self.embeddings: dict[str, EmbeddingVariables] = {}
        for request in self.requests:
            self.embeddings[request.name] = EmbeddingVariables(
                self.model,
                substrate,
                request,
                fixed_mapping=fixed_mappings.get(request.name),
                force_embedded=force_all,
            )

        # capacity constraints (the t-independent version of Def. 2.1(3))
        for s in substrate.nodes:
            usage = quicksum(
                emb.alloc_node(s) for emb in self.embeddings.values()
            )
            self.model.add_constr(
                usage <= substrate.node_capacity(s), name=f"capV[{s}]"
            )
        for ls in substrate.links:
            usage = quicksum(
                emb.alloc_link(ls) for emb in self.embeddings.values()
            )
            self.model.add_constr(
                usage <= substrate.link_capacity(ls), name=f"capE[{ls}]"
            )

        # default objective: maximize embedded revenue (node resources)
        self.set_revenue_objective()

    # ------------------------------------------------------------------
    def set_revenue_objective(self) -> None:
        """Maximize ``sum_R x_R * sum_v c_R(v)`` (static access control)."""
        self.model.set_objective(
            quicksum(
                emb.x_embed * emb.request.vnet.total_node_demand()
                for emb in self.embeddings.values()
            ),
            ObjectiveSense.MAXIMIZE,
        )

    # ------------------------------------------------------------------
    def solve(self, backend: str = "highs", **kwargs) -> "StaticEmbeddingResult":
        """Solve and wrap the raw solution."""
        from repro.mip import solve

        solution = solve(self.model, backend=backend, **kwargs)
        return StaticEmbeddingResult(self, solution)


class StaticEmbeddingResult:
    """Typed view over a static VNEP solution."""

    def __init__(self, builder: StaticVNEPModel, solution: Solution) -> None:
        self.builder = builder
        self.solution = solution

    @property
    def objective(self) -> float:
        return self.solution.objective

    @property
    def has_solution(self) -> bool:
        return self.solution.has_solution

    def is_embedded(self, request_name: str) -> bool:
        emb = self.builder.embeddings[request_name]
        return self.solution.rounded(emb.x_embed) == 1

    def embedded_requests(self) -> list[str]:
        return [
            name for name in self.builder.embeddings if self.is_embedded(name)
        ]

    def node_mapping(self, request_name: str) -> dict[Hashable, Hashable]:
        """``virtual node -> substrate node`` for an embedded request."""
        emb = self.builder.embeddings[request_name]
        if not self.is_embedded(request_name):
            raise ValidationError(f"{request_name} is not embedded")
        mapping: dict[Hashable, Hashable] = {}
        for (v, s), var in emb.x_node.items():
            if self.solution.rounded(var) == 1:
                mapping[v] = s
        return mapping

    def link_flows(self, request_name: str) -> dict[tuple, dict[tuple, float]]:
        """Per virtual link: ``{substrate link: flow fraction}`` (>0 only)."""
        emb = self.builder.embeddings[request_name]
        flows: dict[tuple, dict[tuple, float]] = {}
        for (lv, ls), var in emb.x_link.items():
            value = self.solution.value(var)
            if value > 1e-9:
                flows.setdefault(lv, {})[ls] = value
        return flows
