"""The Sigma-Model and its explicit-state machinery (Sec. III-C).

The Sigma-Model represents each request's resource allocations at every
state *explicitly* through variables ``a_R(s_i, r) >= 0`` that are
lower-bounded by the actual allocation whenever the request is active:

    ``a_R(s_i, r) >= alloc(R, r) - M * (1 - Sigma(R, s_i))``      (7)/(8)

with the per-state capacity constraint

    ``sum_R a_R(s_i, r) <= c_S(r)``                                (9)

The paper proves this relaxation strictly dominates the Delta-Model's:
fractionally-smeared event assignments cannot hide allocations, because
``Sigma(R, s_i)`` aggregates the assignment prefix.

The explicit-state machinery is shared with the cSigma-Model via
:class:`ExplicitStateMixin`; the two differ only in the event layout
(``2|R|`` bijective events here, ``|R|+1`` compactified events there)
and in the cSigma-specific reductions enabled by default.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.mip.constraint import Sense
from repro.mip.expr import LinExpr, Variable
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.temporal.dependency import PointKind
from repro.tvnep.base import ActivityStatus, ModelOptions, TemporalModelBase
from repro.vnep.embedding_vars import NodeMapping

__all__ = ["ExplicitStateMixin", "SigmaModel"]


class _LazyUsageMap(dict):
    """``state_usage`` backed by (cols, coefs) entries.

    The load-balancing objective is the only consumer of the per-state
    usage expressions, so the state builder records raw column
    entries and this map materializes a :class:`LinExpr` only when a
    key is actually read (``get``/``[]``/``in``).  Unread entries never
    pay the dict-assembly cost.
    """

    def __init__(self, model, entries: dict) -> None:
        super().__init__()
        self._model = model
        self._entries = entries

    def _materialize(self, key) -> LinExpr:
        cols, coefs = self._entries[key]
        variables = self._model._vars
        expr = LinExpr({variables[c]: coef for c, coef in zip(cols, coefs)})
        self[key] = expr
        return expr

    def __missing__(self, key) -> LinExpr:
        if key in self._entries:
            return self._materialize(key)
        raise KeyError(key)

    def get(self, key, default=None):
        if dict.__contains__(self, key):
            return dict.__getitem__(self, key)
        if key in self._entries:
            return self._materialize(key)
        return default

    def __contains__(self, key) -> bool:
        return dict.__contains__(self, key) or key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


class ExplicitStateMixin:
    """Explicit per-request state-allocation variables (Constraints 7-9).

    Implements :meth:`TemporalModelBase._build_states` for both the
    Sigma- and the cSigma-Model.  Honors the presolve state-space
    reduction of Sec. IV-C via the base class's activity table:

    * ``INACTIVE`` (request surely not running at the state) — no
      variable, no constraint;
    * ``ACTIVE`` (surely running) — the allocation expression is folded
      directly into the capacity constraint (9), saving the variable
      *and* tightening the relaxation;
    * ``UNDECIDED`` — the full Constraint (7)/(8) gadget.
    """

    def _build_states(self) -> None:
        """Emit Constraints (7)-(9), state by state, resource by resource.

        Allocation terms are precomputed once per (request, resource) as
        column/coefficient lists (:meth:`EmbeddingVariables.alloc_profile`)
        and spliced into each state's rows.  The activity status depends
        only on (request, state), so it is resolved once per state and
        shared by all resources.
        """
        model = self.model
        substrate = self.substrate
        #: ``a_R`` variables keyed by (request name, state, resource)
        self.state_alloc: dict[tuple[str, int, object], Variable] = {}
        usage_entries: dict[tuple[int, object], tuple[list[int], list[float]]] = {}
        #: total usage expression per (state, resource) — consumed by the
        #: load-balancing objective (Sec. IV-E.3)
        self.state_usage = _LazyUsageMap(model, usage_entries)

        em = model.columnar_emitter()
        # allocation entries grouped per resource, request order preserved:
        # (name, cols, coefs, -coefs, bigM)
        by_resource: dict[
            object, list[tuple[str, list[int], list[float], list[float], float]]
        ] = {}
        for request in self.requests:
            emb = self.embeddings[request.name]
            for resource, cols, coefs, neg_coefs, big_m in emb.alloc_profile():
                by_resource.setdefault(resource, []).append(
                    (request.name, cols, coefs, neg_coefs, big_m)
                )
        names = [request.name for request in self.requests]

        for state in self.events.states:
            status_of = {
                name: self.activity_status(name, state) for name in names
            }
            prefix_cache: dict[str, tuple[list[int], list[int]]] = {}
            for resource in substrate.resources:
                entries = by_resource.get(resource)
                if not entries:
                    continue
                capacity = substrate.capacity(resource)
                u_cols: list[int] = []
                u_coefs: list[float] = []
                relevant = False
                for name, cols, coefs, neg_coefs, big_m in entries:
                    status = status_of[name]
                    if status == ActivityStatus.INACTIVE:
                        continue
                    relevant = True
                    if status == ActivityStatus.ACTIVE:
                        u_cols.extend(cols)
                        u_coefs.extend(coefs)
                        continue
                    # UNDECIDED: full Constraint (7)/(8) gadget
                    a = model.continuous_var(
                        f"a[{name}][s{state}][{resource}]", lb=0.0
                    )
                    self.state_alloc[(name, state, resource)] = a
                    # a - alloc - bigM * start_prefix + bigM * end_prefix
                    # >= -bigM  (the from_sides normal form of (7)/(8))
                    row = em.add_row(
                        f"stateLB[{name}][s{state}][{resource}]",
                        Sense.GE,
                        -big_m,
                    )
                    em.add_term(row, a, 1.0)
                    em.add_row_terms(row, cols, neg_coefs)
                    prefixes = prefix_cache.get(name)
                    if prefixes is None:
                        prefixes = (
                            self._prefix_cols(name, PointKind.START, state),
                            self._prefix_cols(name, PointKind.END, state),
                        )
                        prefix_cache[name] = prefixes
                    start_cols, end_cols = prefixes
                    em.add_row_terms(row, start_cols, [-big_m] * len(start_cols))
                    em.add_row_terms(row, end_cols, [big_m] * len(end_cols))
                    u_cols.append(a.index)
                    u_coefs.append(1.0)
                if relevant:
                    usage_entries[(state, resource)] = (u_cols, u_coefs)
                    # Constraint (9)
                    row = em.add_row(
                        f"cap[s{state}][{resource}]", Sense.LE, capacity
                    )
                    em.add_row_terms(row, u_cols, u_coefs)
        em.flush()

    def num_state_variables(self) -> int:
        """How many ``a_R`` variables were actually created (after the
        presolve reduction) — reported by the ablation benchmarks."""
        return len(self.state_alloc)


class SigmaModel(ExplicitStateMixin, TemporalModelBase):
    """The (non-compact) Sigma-Model: ``2|R|`` events, explicit states.

    By default this is the paper's *plain* Sigma-Model (no dependency
    cuts, no reductions) so that the Figure 3/4 comparison measures what
    the paper measured; pass ``options=ModelOptions()`` to enable all
    strengthening features on the full layout.
    """

    layout = "full"
    formulation_name = "sigma"

    def __init__(
        self,
        substrate: SubstrateNetwork,
        requests: Sequence[Request],
        fixed_mappings: Mapping[str, NodeMapping] | None = None,
        force_embedded: Sequence[str] = (),
        force_rejected: Sequence[str] = (),
        options: ModelOptions | None = None,
    ) -> None:
        super().__init__(
            substrate,
            requests,
            fixed_mappings=fixed_mappings,
            force_embedded=force_embedded,
            force_rejected=force_rejected,
            options=options or ModelOptions.plain(),
        )
