"""Shared scaffolding of the continuous-time TVNEP formulations.

:class:`TemporalModelBase` implements everything the Delta-, Sigma- and
cSigma-Models have in common:

* per-request embedding variables and constraints (Sec. II, via
  :class:`~repro.vnep.embedding_vars.EmbeddingVariables`),
* the abstract event machinery: start/end event-mapping variables
  ``chi^+ / chi^-`` with their assignment constraints (Table VII for the
  full layout, Table XI for the compact one),
* temporal dependency-graph event ranges (Constraint 19) — realized by
  *not creating* variables outside a point's admissible event range,
* pairwise precedence cuts (Constraint 20) and start-before-end
  ordering cuts,
* the time coupling of Table XIII (event times, request start/end
  times, duration and window constraints), and
* solution extraction into :class:`~repro.tvnep.solution.TemporalSolution`.

Subclasses contribute only the *state feasibility* machinery (the big-M
state changes of the Delta-Model, or the explicit state allocations of
the Sigma-/cSigma-Models) by overriding :meth:`_build_states`.
"""

from __future__ import annotations

import math
import time
from collections.abc import Hashable, Mapping, Sequence
from dataclasses import dataclass, replace

from repro.exceptions import ModelingError, SolverError, ValidationError
from repro.mip.constraint import Sense
from repro.mip.expr import LinExpr, Variable, quicksum
from repro.mip.model import Model, ObjectiveSense
from repro.mip.solution import Solution, SolveStatus
from repro.observability.metrics import get_registry
from repro.observability.trace import current_trace
from repro.network.request import Request
from repro.network.substrate import SubstrateNetwork
from repro.temporal.dependency import PointKind, TemporalDependencyGraph
from repro.temporal.events import EventSpace
from repro.temporal.interval import Interval
from repro.tvnep import fixed_schedule
from repro.tvnep.feasibility import _snap_times
from repro.tvnep.solution import ScheduledRequest, TemporalSolution
from repro.vnep.embedding_vars import EmbeddingVariables, NodeMapping

__all__ = ["ModelOptions", "TemporalModelBase", "ActivityStatus"]


@dataclass(frozen=True)
class ModelOptions:
    """Formulation switches (all strengthening features default on).

    Attributes
    ----------
    use_dependency_cuts:
        Event-range restriction from the temporal dependency graph
        (Constraint 19).  Implemented by only creating event-mapping
        variables inside a point's admissible range.
    use_pairwise_cuts:
        Precedence cuts between dependent points (Constraint 20).
    use_ordering_cuts:
        ``end-assignment prefix <= start-assignment prefix`` per request
        — valid in every integral solution, strengthens relaxations.
    use_state_reduction:
        Sigma-/cSigma-Models only: skip state-allocation variables for
        (request, state) pairs whose activity is decided a priori by the
        event ranges, folding definite allocations straight into the
        capacity constraints (the presolve routine of Sec. IV-C).
    include_intra_request_edges:
        Add ``start -> end`` dependency edges within each request (see
        :class:`~repro.temporal.dependency.TemporalDependencyGraph`).
    time_horizon:
        ``T``; defaults to the maximum ``t^e`` over all requests.
    """

    use_dependency_cuts: bool = True
    use_pairwise_cuts: bool = True
    use_ordering_cuts: bool = True
    use_state_reduction: bool = True
    include_intra_request_edges: bool = True
    time_horizon: float | None = None

    @classmethod
    def plain(cls) -> "ModelOptions":
        """All strengthening features off — the paper's baseline models."""
        return cls(
            use_dependency_cuts=False,
            use_pairwise_cuts=False,
            use_ordering_cuts=False,
            use_state_reduction=False,
            include_intra_request_edges=False,
        )


class ActivityStatus:
    """A-priori activity of a request at a state: one of the constants."""

    ACTIVE = "active"
    INACTIVE = "inactive"
    UNDECIDED = "undecided"


class TemporalModelBase:
    """Common machinery of all continuous-time TVNEP formulations.

    Parameters
    ----------
    substrate, requests:
        The problem instance.
    fixed_mappings:
        Optional per-request fixed node mappings
        (``{request name: {virtual node: substrate node}}``) — the
        evaluation methodology of Sec. VI-A.
    force_embedded / force_rejected:
        Request names whose ``x_R`` is pinned (greedy Constraints 24/25
        and the fixed-set objectives).
    options:
        Formulation switches; subclass constructors choose suitable
        defaults.

    The constructor validates and stores the instance; it builds no
    formulation.  :attr:`model` and the attributes that hold its
    variables (``embeddings``, ``t_start``/``t_end``, ``chi_start``, the
    state machinery, ...) are built together on first access — by
    :meth:`stats`, :meth:`solve_raw`, a relaxation or LP export, or an
    objective that reads variables or adds rows.  An access-control
    :meth:`solve` builds only the masters it solves.
    """

    #: ``"compact"`` (|R|+1 events) or ``"full"`` (2|R| events)
    layout: str = "full"
    #: human-readable formulation name
    formulation_name: str = "base"
    #: whether requests get the static (time-invariant) ``x_E`` flows;
    #: the re-routing variant builds per-state flows instead
    build_static_link_flows: bool = True
    #: the requests whose ``x_E`` flows and link rows are built (``None``:
    #: all); only the masters of :meth:`solve` restrict it
    _link_requests: frozenset[str] | None = None
    #: set on an instance before ``__init__`` runs for ``__init__`` to
    #: build the form (see :meth:`_build_form`)
    _build_on_init: bool = False
    #: ``(variables, rows)`` of :attr:`model` as its build left it;
    #: ``None`` on models grown another way
    _built_size: tuple[int, int] | None = None
    #: ``Model.stats()`` of the form the last :meth:`solve` solved, with
    #: ``"form"``: ``"master"`` (the link loop's last round) or ``"full"``
    solved_stats: dict | None = None

    def __init__(
        self,
        substrate: SubstrateNetwork,
        requests: Sequence[Request],
        fixed_mappings: Mapping[str, NodeMapping] | None = None,
        force_embedded: Sequence[str] = (),
        force_rejected: Sequence[str] = (),
        options: ModelOptions | None = None,
    ) -> None:
        names = [r.name for r in requests]
        if len(set(names)) != len(names):
            raise ValidationError("request names must be unique")
        if not requests:
            raise ValidationError("TVNEP needs at least one request")
        unknown = (set(force_embedded) | set(force_rejected)) - set(names)
        if unknown:
            raise ValidationError(f"forced requests not in instance: {unknown}")

        self.substrate = substrate
        self.requests = list(requests)
        self.options = options or ModelOptions()

        horizon = self.options.time_horizon
        if horizon is None:
            horizon = max(r.latest_end for r in requests)
        if horizon < max(r.latest_end for r in requests) - 1e-9:
            raise ValidationError(
                "time horizon smaller than the latest request end"
            )
        self.T = float(horizon)

        self._fixed_mappings = dict(fixed_mappings or {})
        self._force_embedded = set(force_embedded)
        self._force_rejected = set(force_rejected)
        if self._build_on_init:
            self._build()

    def __getattr__(self, name: str):
        # reached only for attributes the instance lacks; on a model whose
        # form is not built yet, those are the form's (``model``,
        # ``embeddings``, ``t_start``, ...): build it, here, on first use.
        # An instance whose constructor has not stored its inputs cannot.
        if (
            name.startswith("__")
            or self._form_built()
            or "substrate" not in vars(self)
        ):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._build_form(self, None)
        return getattr(self, name)

    def _form_built(self) -> bool:
        """Whether :attr:`model` exists (built, or grown another way)."""
        return "model" in vars(self)

    def _build_form(
        self, form: "TemporalModelBase", linked: frozenset[str] | None
    ) -> None:
        """Build ``form`` (this model itself, or a fresh ``__new__``
        instance) with link structure for ``linked`` (``None``: all).

        The build runs inside a call of the class's ``__init__`` on this
        model's inputs, so it is timed and traced as construction.
        """
        form._link_requests = linked
        form._build_on_init = True
        type(self).__init__(
            form,
            self.substrate,
            self.requests,
            fixed_mappings=self._fixed_mappings,
            force_embedded=tuple(self._force_embedded),
            force_rejected=tuple(self._force_rejected),
            options=self.options,
        )

    def _build(self) -> None:
        """Build the formulation into :attr:`model`."""
        self.model = Model(self.formulation_name)
        with get_registry().timer("model.build"):
            self._build_embeddings()
            self._build_temporal()
            # default objective
            self.set_access_control_objective()
        self._built_size = (self.model.num_vars, self.model.num_constraints)
        self._emit_build_event()

    def _build_embeddings(self) -> None:
        """Per-request embedding variables and constraints (Sec. II)."""
        self.embeddings: dict[str, EmbeddingVariables] = {}
        for request in self.requests:
            self._build_one_embedding(request)

    def _build_one_embedding(self, request: Request) -> None:
        self.embeddings[request.name] = EmbeddingVariables(
            self.model,
            self.substrate,
            request,
            fixed_mapping=self._fixed_mappings.get(request.name),
            force_embedded=request.name in self._force_embedded,
            force_rejected=request.name in self._force_rejected,
            build_link_flows=self.build_static_link_flows
            and (self._link_requests is None or request.name in self._link_requests),
        )

    def _build_temporal(self) -> None:
        """Everything downstream of the request set's event structure.

        Kept separate from :meth:`_build_embeddings` because the event
        space, dependency graph and state machinery are global functions
        of the request set — :class:`~repro.tvnep.incremental.IncrementalCSigmaModel`
        rebuilds only this part per insertion while the per-request
        embedding blocks persist.
        """
        self.events = EventSpace(
            len(self.requests), compact=self.layout == "compact"
        )
        self.dep_graph = TemporalDependencyGraph(
            self.requests,
            include_intra_request_edges=self.options.include_intra_request_edges,
        )

        # -- event machinery ----------------------------------------------
        self._event_ranges = self._compute_event_ranges()
        self._build_event_variables()
        self._build_event_assignment_constraints()
        if self.options.use_ordering_cuts:
            self._build_ordering_cuts()
        if self.options.use_pairwise_cuts:
            self._build_pairwise_cuts()

        # -- time coupling --------------------------------------------------
        self._build_time_variables()
        self._build_time_coupling()

        # -- state feasibility (subclass specific) ---------------------------
        self._activity = self._compute_activity_table()
        self._build_states()

    def _emit_build_event(self, incremental: bool = False) -> None:
        """Emit the deterministic ``model_build`` trace event."""
        trace = current_trace()
        if trace is None:
            return
        trace.emit(
            "model_build",
            model=self.formulation_name,
            num_vars=self.model.num_vars,
            num_constraints=self.model.num_constraints,
            columnar_nnz=self.model.columnar_nnz,
            incremental=incremental,
        )

    # ==================================================================
    # event ranges (Constraint 19)
    # ==================================================================
    def _compute_event_ranges(self) -> dict[tuple[str, PointKind], range]:
        """Admissible event range per (request, start/end) point."""
        ranges: dict[tuple[str, PointKind], range] = {}
        compact = self.layout == "compact"
        base_start = self.events.start_events
        base_end = self.events.end_events
        for request in self.requests:
            for kind, base in ((PointKind.START, base_start), (PointKind.END, base_end)):
                lo, hi = base.start, base.stop - 1
                if self.options.use_dependency_cuts:
                    node = self.dep_graph.node(request.name, kind)
                    if compact:
                        lead = self.dep_graph.leading_exclusion(node)
                        trail = self.dep_graph.trailing_exclusion(node)
                        lo = max(lo, lead + 1)
                        hi = min(hi, self.events.num_events - trail)
                    else:
                        lead = self.dep_graph.leading_exclusion_full(node)
                        trail = self.dep_graph.trailing_exclusion_full(node)
                        lo = max(lo, lead + 1)
                        hi = min(hi, self.events.num_events - trail)
                if lo > hi:
                    raise ModelingError(
                        f"{request.name}.{kind.value}: empty event range "
                        f"[{lo}, {hi}] — dependency cuts prove infeasibility"
                    )
                ranges[(request.name, kind)] = range(lo, hi + 1)
        return ranges

    def event_range(self, request_name: str, kind: PointKind) -> range:
        """Admissible events for a request's start or end point."""
        return self._event_ranges[(request_name, kind)]

    # ==================================================================
    # event variables and assignment constraints
    # ==================================================================
    def _build_event_variables(self) -> None:
        #: ``chi^+[(request, event)]`` / ``chi^-[(request, event)]``
        self.chi_start: dict[tuple[str, int], Variable] = {}
        self.chi_end: dict[tuple[str, int], Variable] = {}
        # each request's chi variables are created contiguously over its
        # admissible range, so a prefix/suffix sum is a column *slice*;
        # every event-indexed row is emitted from these slices via the
        # base indices below
        self._chi_start_base: dict[str, int] = {}
        self._chi_end_base: dict[str, int] = {}
        for request in self.requests:
            name = request.name
            for i in self.event_range(name, PointKind.START):
                var = self.model.binary_var(f"chi+[{name}][e{i}]")
                self.chi_start[(name, i)] = var
                self._chi_start_base.setdefault(name, var.index)
            for i in self.event_range(name, PointKind.END):
                var = self.model.binary_var(f"chi-[{name}][e{i}]")
                self.chi_end[(name, i)] = var
                self._chi_end_base.setdefault(name, var.index)

    # -- prefix/suffix column slices --------------------------------------
    def _prefix_cols(self, name: str, kind: PointKind, event_index: int) -> range:
        """Column indices of ``sum_{j <= i} chi`` over the admissible range."""
        r = self.event_range(name, kind)
        base = (
            self._chi_start_base[name]
            if kind is PointKind.START
            else self._chi_end_base[name]
        )
        count = min(event_index, r.stop - 1) - r.start + 1
        return range(base, base + max(count, 0))

    def _suffix_cols(self, name: str, kind: PointKind, event_index: int) -> range:
        """Column indices of ``sum_{j >= i} chi`` over the admissible range."""
        r = self.event_range(name, kind)
        base = (
            self._chi_start_base[name]
            if kind is PointKind.START
            else self._chi_end_base[name]
        )
        lo = max(event_index, r.start)
        return range(base + (lo - r.start), base + len(r))

    def _build_event_assignment_constraints(self) -> None:
        """Each point maps to one admissible event; each event hosts one
        start (compact layout, Table XI (12)) or one start or end (full
        layout, bijective)."""
        em = self.model.columnar_emitter()
        for request in self.requests:
            name = request.name
            srange = self.event_range(name, PointKind.START)
            row = em.add_row(f"assign+[{name}]", Sense.EQ, 1.0)
            base = self._chi_start_base[name]
            em.add_row_terms(row, range(base, base + len(srange)), [1.0] * len(srange))
            erange = self.event_range(name, PointKind.END)
            row = em.add_row(f"assign-[{name}]", Sense.EQ, 1.0)
            base = self._chi_end_base[name]
            em.add_row_terms(row, range(base, base + len(erange)), [1.0] * len(erange))
        if self.layout == "compact":
            for i in self.events.start_events:
                row = em.add_row(f"event+[e{i}]", Sense.EQ, 1.0)
                cols = [
                    var.index
                    for r in self.requests
                    if (var := self.chi_start.get((r.name, i))) is not None
                ]
                em.add_row_terms(row, cols, [1.0] * len(cols))
        else:
            for i in self.events.events:
                row = em.add_row(f"event[e{i}]", Sense.EQ, 1.0)
                cols = []
                for r in self.requests:
                    var = self.chi_start.get((r.name, i))
                    if var is not None:
                        cols.append(var.index)
                    var = self.chi_end.get((r.name, i))
                    if var is not None:
                        cols.append(var.index)
                em.add_row_terms(row, cols, [1.0] * len(cols))
        em.flush()

    # -- prefix expressions (for rows built outside the emitter) ----------
    def start_prefix(self, request_name: str, event_index: int) -> LinExpr:
        """``sum_{j <= i} chi^+(e_j)`` over the admissible range."""
        expr = LinExpr()
        for i in self.event_range(request_name, PointKind.START):
            if i <= event_index:
                expr.add_term(self.chi_start[(request_name, i)], 1.0)
        return expr

    def end_prefix(self, request_name: str, event_index: int) -> LinExpr:
        """``sum_{j <= i} chi^-(e_j)`` over the admissible range."""
        expr = LinExpr()
        for i in self.event_range(request_name, PointKind.END):
            if i <= event_index:
                expr.add_term(self.chi_end[(request_name, i)], 1.0)
        return expr

    def activity_expr(self, request_name: str, state_index: int) -> LinExpr:
        """``Sigma(R, s_i)`` — 1 iff started by ``e_i`` and not yet ended."""
        return self.start_prefix(request_name, state_index) - self.end_prefix(
            request_name, state_index
        )

    # ==================================================================
    # cuts
    # ==================================================================
    def _build_ordering_cuts(self) -> None:
        """Start-before-end prefix cuts (valid for every integral solution)."""
        em = self.model.columnar_emitter()
        for request in self.requests:
            name = request.name
            for i in self.event_range(name, PointKind.END):
                end_cols = self._prefix_cols(name, PointKind.END, i)
                if not end_cols:
                    continue
                row = em.add_row(f"order[{name}][e{i}]", Sense.LE, 0.0)
                em.add_row_terms(row, end_cols, [1.0] * len(end_cols))
                start_cols = self._prefix_cols(name, PointKind.START, i - 1)
                em.add_row_terms(row, start_cols, [-1.0] * len(start_cols))
        em.flush()

    def _build_pairwise_cuts(self) -> None:
        """Constraint (20): precedence distances between dependent points."""
        em = self.model.columnar_emitter()
        for v in self.dep_graph.nodes:
            for w in self.dep_graph.nodes:
                if v is w or not self.dep_graph.reaches(v, w):
                    continue
                d = self.dep_graph.dist_max(v, w)
                if d <= 0:
                    continue
                w_range = self.event_range(w.request, w.kind)
                v_range = self.event_range(v.request, v.kind)
                for i in w_range:
                    # vacuous when w cannot yet be assigned, or trivially
                    # satisfied when v is certainly assigned by i - d
                    if i - d >= v_range.stop - 1:
                        continue
                    w_cols = self._prefix_cols(w.request, w.kind, i)
                    if not w_cols:
                        continue
                    row = em.add_row(f"prec[{v}][{w}][e{i}]", Sense.LE, 0.0)
                    em.add_row_terms(row, w_cols, [1.0] * len(w_cols))
                    v_cols = self._prefix_cols(v.request, v.kind, i - d)
                    em.add_row_terms(row, v_cols, [-1.0] * len(v_cols))
        em.flush()

    # ==================================================================
    # time coupling (Table XIII)
    # ==================================================================
    def _build_time_variables(self) -> None:
        self.t_event: dict[int, Variable] = {
            i: self.model.continuous_var(f"t[e{i}]", lb=0.0, ub=self.T)
            for i in self.events.events
        }
        self.t_start: dict[str, Variable] = {}
        self.t_end: dict[str, Variable] = {}
        for request in self.requests:
            name = request.name
            # guard against float cancellation at zero flexibility:
            # t^e - d may land an ulp below t^s (and t^s + d above t^e)
            start_ub = max(request.earliest_start, request.latest_end - request.duration)
            end_lb = min(request.latest_end, request.earliest_start + request.duration)
            self.t_start[name] = self.model.continuous_var(
                f"t+[{name}]",
                lb=request.earliest_start,
                ub=start_ub,
            )
            self.t_end[name] = self.model.continuous_var(
                f"t-[{name}]",
                lb=end_lb,
                ub=request.latest_end,
            )
            # Constraint (18): embedded exactly for the duration
            self.model.add_constr(
                self.t_end[name] - self.t_start[name] == request.duration,
                name=f"duration[{name}]",
            )

    def _build_time_coupling(self) -> None:
        """Table XIII: monotone event times (13) and the big-M pinning of
        request start/end times to their events (14)-(17).

        ``t <= t_event + (1 - prefix) * T`` is emitted in the normal form
        ``t - t_event + T * prefix <= T`` and its ``>=`` twin
        ``t >= t_event - (1 - suffix) * T`` as
        ``t - t_event - T * suffix >= -T`` — the rows
        :meth:`Constraint.from_sides` would produce.  In the compact
        layout an end lies within ``[t_{e_{i-1}}, t_{e_i}]``; in the
        full layout ends are exact event points.
        """
        em = self.model.columnar_emitter()
        # Constraint (13): weakly monotone event times
        for i in self.events.events:
            if i + 1 in self.t_event:
                row = em.add_row(f"mono[e{i}]", Sense.LE, 0.0)
                em.add_row_terms(
                    row,
                    [self.t_event[i].index, self.t_event[i + 1].index],
                    [1.0, -1.0],
                )
        T = self.T
        for request in self.requests:
            name = request.name
            t_start = self.t_start[name].index
            t_end = self.t_end[name].index
            for i in self.event_range(name, PointKind.START):
                cols = self._prefix_cols(name, PointKind.START, i)
                row = em.add_row(f"t+ub[{name}][e{i}]", Sense.LE, T)
                em.add_row_terms(row, [t_start, self.t_event[i].index], [1.0, -1.0])
                em.add_row_terms(row, cols, [T] * len(cols))
                cols = self._suffix_cols(name, PointKind.START, i)
                row = em.add_row(f"t+lb[{name}][e{i}]", Sense.GE, -T)
                em.add_row_terms(row, [t_start, self.t_event[i].index], [1.0, -1.0])
                em.add_row_terms(row, cols, [-T] * len(cols))
            compact = self.layout == "compact"
            for i in self.event_range(name, PointKind.END):
                cols = self._prefix_cols(name, PointKind.END, i)
                row = em.add_row(f"t-ub[{name}][e{i}]", Sense.LE, T)
                em.add_row_terms(row, [t_end, self.t_event[i].index], [1.0, -1.0])
                em.add_row_terms(row, cols, [T] * len(cols))
                cols = self._suffix_cols(name, PointKind.END, i)
                anchor = self.t_event[i - 1 if compact else i].index
                row = em.add_row(f"t-lb[{name}][e{i}]", Sense.GE, -T)
                em.add_row_terms(row, [t_end, anchor], [1.0, -1.0])
                em.add_row_terms(row, cols, [-T] * len(cols))
        em.flush()

    # ==================================================================
    # activity table (presolve of Sec. IV-C)
    # ==================================================================
    def _compute_activity_table(self) -> dict[tuple[str, int], str]:
        """A-priori activity status of each request at each state."""
        table: dict[tuple[str, int], str] = {}
        for request in self.requests:
            name = request.name
            start_range = self.event_range(name, PointKind.START)
            end_range = self.event_range(name, PointKind.END)
            start_hi = start_range.stop - 1
            start_lo = start_range.start
            end_hi = end_range.stop - 1
            end_lo = end_range.start
            for state in self.events.states:
                if not self.options.use_state_reduction:
                    table[(name, state)] = ActivityStatus.UNDECIDED
                    continue
                surely_started = start_hi <= state
                surely_not_started = start_lo > state
                surely_ended = end_hi <= state
                surely_not_ended = end_lo > state
                if surely_started and surely_not_ended:
                    table[(name, state)] = ActivityStatus.ACTIVE
                elif surely_not_started or surely_ended:
                    table[(name, state)] = ActivityStatus.INACTIVE
                else:
                    table[(name, state)] = ActivityStatus.UNDECIDED
        return table

    def activity_status(self, request_name: str, state_index: int) -> str:
        """A-priori activity of a request at a state."""
        return self._activity[(request_name, state_index)]

    # ==================================================================
    # subclass hook
    # ==================================================================
    def _build_states(self) -> None:
        """Build the state-feasibility machinery (subclass specific)."""
        raise NotImplementedError

    # ==================================================================
    # objectives (Sec. IV-E) — the others are in repro.tvnep.objectives
    # ==================================================================
    def set_access_control_objective(self) -> None:
        """Maximize ``sum_R x_R * d_R * sum_v c_R(v)`` (Sec. IV-E.1).

        Every build sets this default objective, so on a model not built
        yet there is nothing to set, and nothing is built.
        """
        if not self._form_built():
            return
        self.model.set_objective(
            quicksum(
                emb.x_embed * emb.request.revenue()
                for emb in self.embeddings.values()
            ),
            ObjectiveSense.MAXIMIZE,
        )

    # ==================================================================
    # solving and extraction
    # ==================================================================
    def solve(self, backend: str = "highs", **kwargs) -> TemporalSolution:
        """Solve to a :class:`TemporalSolution`, adding link rows on demand.

        When :attr:`model` was never built (the default access-control
        objective), or is as its build left it (judged by its size:
        bounds edited afterwards do not reach the master), with static
        link flows and an objective that prices no ``x_E`` column
        (access control, max earliness), the solve is an exact link
        decomposition, which builds no full form:

        1. solve a *master*, the same formulation with ``x_E`` columns
           and link rows only for a request set ``L`` (at first empty) —
           a relaxation of :attr:`model`;
        2. snap its times as :func:`~repro.tvnep.feasibility.verify_solution`
           does and route the embedded placements by the fixed-schedule
           LP (:func:`~repro.tvnep.fixed_schedule.solve_fixed_schedule`,
           Sec. V);
        3. if they route, that schedule with the LP's flows is feasible,
           hence optimal when the master's is: return it;
        4. else add to ``L`` the members of every critical group that
           cannot be routed alone (all embedded requests when none
           fails alone) and repeat.  With every embedded request in
           ``L`` and the check still failing, raise
           :class:`~repro.exceptions.SolverError`.

        ``time_limit`` bounds the whole loop: each round gets what is
        left of it.  A master stopped at a limit is reported (with its
        bound, which is valid for :attr:`model`) only if its schedule
        routes; otherwise there is no solution.  ``runtime`` (master and
        link-LP solver time) and ``node_count`` sum over the rounds,
        which are counted as ``link_check.rounds`` and traced as
        ``link_check`` events.

        Any other model (links priced or rows added by an objective, or
        a model without static flows) is solved as built, as
        ``extract(solve_raw(...))``.  Either way :attr:`solved_stats`
        then holds the size of the form solved last.
        """
        if not self._link_decomposable():
            raw = self.solve_raw(backend=backend, **kwargs)
            self.solved_stats = {"form": "full", **self.stats()}
            return self.extract(raw)
        return self._solve_link_decomposition(backend, kwargs)

    def solve_raw(self, backend: str = "highs", **kwargs) -> Solution:
        """Solve and return the raw MIP solution (no extraction)."""
        from repro.mip import solve

        return solve(self.model, backend=backend, **kwargs)

    def _link_decomposable(self) -> bool:
        """Whether :meth:`solve` may add the link structure on demand."""
        if not self.build_static_link_flows:
            return False
        if not self._form_built():
            return True
        if self._built_size != (self.model.num_vars, self.model.num_constraints):
            return False
        priced = {var.index for var in self.model.objective.terms}
        return not any(
            var.index in priced
            for emb in self.embeddings.values()
            for var in emb.x_link.values()
        )

    def _link_master(self, linked: frozenset[str]) -> "TemporalModelBase":
        """This formulation with link structure only for ``linked``,
        carrying :attr:`model`'s objective (mapped by variable name) if
        :attr:`model` was built; else the default one of its build."""
        master = type(self).__new__(type(self))
        self._build_form(master, linked)
        if not self._form_built():
            return master
        by_name = {var.name: var for var in master.model.variables}
        objective = self.model.objective
        master.model.set_objective(
            LinExpr(
                {by_name[var.name]: coef for var, coef in objective.terms.items()},
                objective.constant,
            ),
            self.model.objective_sense,
        )
        return master

    def _solve_link_decomposition(self, backend, kwargs: dict) -> TemporalSolution:
        """The loop of :meth:`solve`."""
        from repro.mip import check_time_limit, solve

        time_limit = check_time_limit(kwargs.pop("time_limit", None))
        deadline = None if time_limit is None else time.perf_counter() + time_limit
        registry = get_registry()
        trace = current_trace()
        linked: frozenset[str] = frozenset()
        runtime, nodes, round_index = 0.0, 0, 0
        while True:
            round_index += 1
            master = self._link_master(linked)
            self.solved_stats = {"form": "master", **master.stats()}
            if deadline is not None:
                kwargs["time_limit"] = max(0.0, deadline - time.perf_counter())
            raw = solve(master.model, backend=backend, **kwargs)
            runtime += raw.runtime
            nodes += raw.node_count
            candidate = check = None
            placements: list[fixed_schedule.FixedPlacement] = []
            if raw.has_solution:
                candidate = master.extract(raw)
                snapped = _snap_times(candidate, 1e-6)
                placements = [
                    fixed_schedule.FixedPlacement(
                        entry.request,
                        entry.node_mapping,
                        Interval(snapped[entry.start], snapped[entry.end]),
                    )
                    for entry in candidate.scheduled.values()
                    if entry.embedded
                ]
                check = fixed_schedule.solve_fixed_schedule(self.substrate, placements)
                runtime += check.runtime
            routed = check is not None and check.feasible
            added: set[str] = set()
            if raw.is_optimal and not routed:
                unroutable = fixed_schedule.unroutable_groups(self.substrate, placements)
                added = {p.request.name for group in unroutable for p in group} - linked
                if not added:
                    added = {p.request.name for p in placements} - linked
            registry.inc("link_check.rounds")
            registry.inc("link_check.requests_added", len(added))
            if trace is not None:
                trace.emit(
                    "link_check",
                    round=round_index,
                    embedded=len(placements),
                    feasible=routed,
                    added=len(added),
                )
            if routed:
                return self._routed_solution(raw, candidate, check, runtime, nodes)
            if not raw.is_optimal:  # no incumbent, or one stopped at a limit
                status = SolveStatus.NO_SOLUTION if raw.has_solution else raw.status
                return self.extract(
                    Solution(
                        status,
                        best_bound=raw.best_bound,
                        runtime=runtime,
                        node_count=nodes,
                        solver=raw.solver,
                    )
                )
            if not added:
                raise SolverError(
                    f"{self.formulation_name}: the master's schedule fails the "
                    "link check with every embedded request's link rows in "
                    f"place ({check.reason})"
                )
            linked |= added

    def _routed_solution(
        self,
        raw: Solution,
        candidate: TemporalSolution,
        check,
        runtime: float,
        nodes: int,
    ) -> TemporalSolution:
        """The master's schedule with the link LP's flows."""
        scheduled = {
            name: replace(entry, link_flows=check.link_flows.get(name, {}))
            if entry.embedded
            else entry
            for name, entry in candidate.scheduled.items()
        }
        return TemporalSolution(
            self.substrate,
            scheduled,
            objective=raw.objective,
            model_name=self.formulation_name,
            runtime=runtime,
            gap=raw.gap,
            node_count=nodes,
            status=raw.status.value,
        )

    def extract(self, solution: Solution) -> TemporalSolution:
        """Convert a raw MIP solution into a :class:`TemporalSolution`."""
        scheduled: dict[str, ScheduledRequest] = {}
        if not solution.has_solution:
            # carry an empty all-rejected solution with the solver stats
            for request in self.requests:
                scheduled[request.name] = ScheduledRequest(
                    request=request,
                    embedded=False,
                    start=request.earliest_start,
                    end=request.earliest_start + request.duration,
                )
            return TemporalSolution(
                self.substrate,
                scheduled,
                objective=math.nan,
                model_name=self.formulation_name,
                runtime=solution.runtime,
                gap=solution.gap,
                node_count=solution.node_count,
                status=solution.status.value,
            )

        for request in self.requests:
            name = request.name
            emb = self.embeddings[name]
            embedded = solution.rounded(emb.x_embed) == 1
            start = solution.value(self.t_start[name])
            end = solution.value(self.t_end[name])
            node_mapping: dict[Hashable, Hashable] = {}
            link_flows: dict[tuple, dict[tuple, float]] = {}
            if embedded:
                for (v, s), var in emb.x_node.items():
                    if solution.rounded(var) == 1:
                        node_mapping[v] = s
                for (lv, ls), var in emb.x_link.items():
                    value = solution.value(var)
                    if value > 1e-7:
                        link_flows.setdefault(lv, {})[ls] = min(value, 1.0)
            scheduled[name] = ScheduledRequest(
                request=request,
                embedded=embedded,
                start=start,
                end=end,
                node_mapping=node_mapping,
                link_flows=link_flows,
            )
        return TemporalSolution(
            self.substrate,
            scheduled,
            objective=solution.objective,
            model_name=self.formulation_name,
            runtime=solution.runtime,
            gap=solution.gap,
            node_count=solution.node_count,
            status=solution.status.value,
        )

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Model-size statistics (reported by the evaluation harness)."""
        return self.model.stats()
