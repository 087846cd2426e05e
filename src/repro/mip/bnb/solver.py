"""A pure-Python LP-based branch-and-bound MILP solver.

This solver exists for two reasons:

1. It is a genuine second backend, so every model in this library can be
   cross-checked against HiGHS (the tests do exactly that).
2. It exposes the branch-and-bound *node count*, which makes the paper's
   central claim measurable in isolation: the Delta-Model's weak big-M
   relaxation forces dramatically more nodes than the Sigma-/cSigma-
   Models on identical instances (see
   ``benchmarks/bench_ablation_relaxation.py``).

The implementation solves LP relaxations through a persistent
:class:`~repro.mip.lp_engine.LPSession`: the shared constraint matrix is
loaded into HiGHS **once** per solve and every node answers via a
bound-only update plus a dual-simplex hot-start from the parent node's
basis.  Branching and node-selection strategies are pluggable
(:mod:`repro.mip.bnb.branching`, :mod:`repro.mip.bnb.node_selection`).
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np

from repro.mip.bnb.branching import (
    BranchingRule,
    fractional_columns,
    make_branching_rule,
)
from repro.mip.bnb.node import BranchNode
from repro.mip.bnb.node_selection import NodeSelection, make_node_selection
from repro.mip.lp_engine import LPResult, LPSession, reduced_cost_fixing
from repro.mip.model import Model, StandardForm
from repro.mip.solution import Solution, SolveStatus
from repro.mip.warm_start import coerce_assignment, validate_assignment
from repro.observability import current_trace, get_registry

__all__ = ["BranchAndBoundSolver", "solve"]

logger = logging.getLogger("repro.runtime")

BNB_NAME = "bnb"


class BranchAndBoundSolver:
    """Configurable branch-and-bound solver.

    Parameters
    ----------
    branching:
        Branching rule name (``most_fractional``/``first``/``pseudocost``)
        or a :class:`BranchingRule` instance.
    node_selection:
        Node-selection name (``best_bound``/``dfs``/``hybrid``) or a
        :class:`NodeSelection` instance.
    mip_gap:
        Relative gap at which the search stops.
    integrality_tol:
        LP values within this distance of an integer count as integral.
    rc_fixing:
        Apply root reduced-cost fixing once an incumbent exists: fix
        integral columns whose flip provably cannot beat the incumbent
        before branching starts.  Never changes the reported optimal
        objective; only shrinks the tree.
    node_lp_cache:
        Keep each frontier node's eager bounding LP result and reuse it
        when the node is popped instead of re-solving the identical LP.
        Node counts and solutions are unchanged (the cached result *is*
        the LP result); only redundant simplex work disappears.
    """

    def __init__(
        self,
        branching: str | BranchingRule = "pseudocost",
        node_selection: str | NodeSelection = "hybrid",
        mip_gap: float = 1e-6,
        integrality_tol: float = 1e-6,
        presolve: bool = True,
        rounding_heuristic: bool = True,
        cover_cuts: bool = False,
        max_cut_rounds: int = 5,
        rc_fixing: bool = True,
        node_lp_cache: bool = True,
    ) -> None:
        self._branching_spec = branching
        self._selection_spec = node_selection
        self.mip_gap = mip_gap
        self.integrality_tol = integrality_tol
        self.presolve = presolve
        self.rounding_heuristic = rounding_heuristic
        self.cover_cuts = cover_cuts
        self.max_cut_rounds = max_cut_rounds
        self.rc_fixing = rc_fixing
        self.node_lp_cache = node_lp_cache

    # ------------------------------------------------------------------
    def solve(
        self,
        model: Model,
        time_limit: float | None = None,
        node_limit: int | None = None,
        warm_start=None,
        trace=None,
    ) -> Solution:
        """Run branch-and-bound on ``model``.

        Returns a :class:`Solution` whose ``node_count`` is the number of
        LP relaxations solved.  ``time_limit`` and ``node_limit`` stop
        the search; a binding one is reported as a ``budget`` trace
        event.

        ``warm_start`` is an optional assignment (mapping of
        ``Variable``/name → value, or a full vector) believed feasible;
        if it validates against the compiled form it becomes the initial
        incumbent, so the search never returns anything worse and prunes
        at least as aggressively as a cold start.  An invalid warm start
        is rejected with a warning — never silently used.

        ``trace`` is an optional
        :class:`~repro.observability.trace.SolveTrace`; when omitted the
        ambient :func:`~repro.observability.current_trace` (if any) is
        used.  Counters and phase timers are always reported to the
        active :class:`~repro.observability.metrics.MetricsRegistry`.
        """
        trace = trace if trace is not None else current_trace()
        metrics = get_registry()
        form = model.to_standard_form()
        metrics.inc("solver.solves")
        lp_iters_before = metrics.counter("solver.lp_iterations")
        lp_hot_before = metrics.counter("solver.lp_hot_starts")
        lp_cold_before = metrics.counter("solver.lp_cold_starts")
        if trace is not None:
            trace.emit(
                "solve_start",
                solver=BNB_NAME,
                num_vars=form.num_vars,
                num_constraints=form.num_constraints,
                num_integral=int(np.count_nonzero(form.integrality)),
            )
        rule = (
            self._branching_spec
            if isinstance(self._branching_spec, BranchingRule)
            else make_branching_rule(self._branching_spec)
        )
        selection = (
            self._selection_spec
            if isinstance(self._selection_spec, NodeSelection)
            else make_node_selection(self._selection_spec)
        )

        start = time.perf_counter()
        deadline = start + time_limit if time_limit is not None else math.inf

        incumbent_x: np.ndarray | None = None
        incumbent_internal = math.inf  # internal = minimization objective
        if warm_start is not None:
            coerced = coerce_assignment(form, warm_start)
            reason = (
                "uninterpretable assignment"
                if coerced is None
                else validate_assignment(form, coerced)
            )
            if reason is None:
                incumbent_x = coerced
                incumbent_internal = float(form.c @ coerced)
                selection.notify_incumbent()
                metrics.inc("warmstart.used")
                if trace is not None:
                    trace.emit(
                        "warm_start",
                        accepted=True,
                        objective=form.user_objective(coerced),
                    )
                    trace.emit(
                        "incumbent",
                        objective=form.user_objective(coerced),
                        source="warm_start",
                    )
                logger.debug(
                    "warm start accepted as incumbent (objective %s)",
                    form.user_objective(coerced),
                )
            else:
                metrics.inc("warmstart.rejected")
                if trace is not None:
                    trace.emit("warm_start", accepted=False, reason=reason)
                logger.warning("rejecting invalid warm start: %s", reason)
        nodes_processed = 0
        hit_limit = False
        limit_state: str | None = None

        root_lb, root_ub = form.lb, form.ub
        if self.presolve:
            from repro.mip.bnb.presolve import tighten_bounds

            with metrics.timer("phase.presolve"):
                presolved = tighten_bounds(form, root_lb, root_ub)
            metrics.inc("presolve.rows_visited", presolved.rows_visited)
            metrics.inc("presolve.rows_skipped", presolved.rows_skipped)
            if trace is not None:
                tightened = int(
                    np.count_nonzero(presolved.lb != root_lb)
                    + np.count_nonzero(presolved.ub != root_ub)
                ) if presolved.feasible else 0
                trace.emit(
                    "presolve",
                    feasible=bool(presolved.feasible),
                    tightened_bounds=tightened,
                    rounds=presolved.rounds,
                    rows_visited=presolved.rows_visited,
                )
            if not presolved.feasible:
                return self._finish(
                    form, incumbent_x, incumbent_internal, incumbent_internal,
                    start, 0, False,
                    trace=trace, metrics=metrics,
                    lp_iters_before=lp_iters_before,
                    lp_hot_before=lp_hot_before,
                    lp_cold_before=lp_cold_before,
                )
            root_lb, root_ub = presolved.lb, presolved.ub

        session = LPSession(form)
        if trace is not None:
            trace.emit("lp_session")

        root = BranchNode(lp_bound=-math.inf)
        with metrics.timer("phase.root_lp"):
            root_outcome = session.solve(root_lb, root_ub)
        root.basis = root_outcome.basis
        nodes_processed += 1
        if trace is not None:
            payload = {"status": root_outcome.status}
            if root_outcome.status == "optimal":
                payload["bound"] = form.user_bound(root_outcome.internal_obj)
            trace.emit("root_relaxation", **payload)
        if root_outcome.status == "infeasible":
            return self._finish(
                form, incumbent_x, incumbent_internal, incumbent_internal,
                start, nodes_processed, False,
                trace=trace, metrics=metrics, lp_iters_before=lp_iters_before,
                lp_hot_before=lp_hot_before, lp_cold_before=lp_cold_before,
                session=session,
            )
        if root_outcome.status == "unbounded":
            session.close()
            metrics.inc("solver.nodes", nodes_processed)
            if trace is not None:
                trace.emit(
                    "solve_end",
                    solver=BNB_NAME,
                    status="unbounded",
                    nodes=nodes_processed,
                )
            return Solution(
                status=SolveStatus.UNBOUNDED,
                runtime=time.perf_counter() - start,
                node_count=nodes_processed,
                solver=BNB_NAME,
            )
        if root_outcome.status == "error":
            session.close()
            metrics.inc("solver.nodes", nodes_processed)
            if trace is not None:
                trace.emit(
                    "solve_end",
                    solver=BNB_NAME,
                    status="error",
                    nodes=nodes_processed,
                )
            return Solution(
                status=SolveStatus.ERROR,
                runtime=time.perf_counter() - start,
                node_count=nodes_processed,
                solver=BNB_NAME,
                message="root LP failed",
            )

        # cut-and-branch: strengthen the root with cover cuts
        if self.cover_cuts:
            from repro.mip.bnb.cover_cuts import (
                extend_form_with_cuts,
                separate_cover_cuts,
            )

            for cut_round in range(self.max_cut_rounds):
                if root_outcome.x is None:
                    break
                if fractional_columns(
                    root_outcome.x, form.integrality, self.integrality_tol
                ).size == 0:
                    break
                with metrics.timer("phase.cuts"):
                    cuts = separate_cover_cuts(form, root_outcome.x)
                if not cuts:
                    break
                metrics.inc("solver.cuts_added", len(cuts))
                form = extend_form_with_cuts(form, cuts)
                # a session is bound to one form: reload the
                # strengthened form into a fresh one
                session.close()
                session = LPSession(form)
                with metrics.timer("phase.cuts"):
                    root_outcome = session.solve(root_lb, root_ub)
                root.basis = root_outcome.basis
                nodes_processed += 1
                if trace is not None:
                    payload = {
                        "round": cut_round + 1,
                        "cuts_added": len(cuts),
                        "status": root_outcome.status,
                    }
                    if root_outcome.status == "optimal":
                        payload["bound"] = form.user_bound(
                            root_outcome.internal_obj
                        )
                    trace.emit("cut_round", **payload)
                if root_outcome.status != "optimal":
                    break
            if root_outcome.status == "infeasible":
                return self._finish(
                    form, None, math.inf, math.inf, start, nodes_processed, False,
                    trace=trace, metrics=metrics,
                    lp_iters_before=lp_iters_before,
                    lp_hot_before=lp_hot_before,
                    lp_cold_before=lp_cold_before,
                    session=session,
                )

        root.lp_bound = root_outcome.internal_obj
        root.basis = root_outcome.basis
        global_bound = root_outcome.internal_obj
        frontier_open = True

        # try to manufacture an incumbent by rounding the root LP
        if self.rounding_heuristic and root_outcome.x is not None:
            rounded = self._try_rounding(
                session, form, root_outcome.x, root_lb, root_ub,
                basis=root_outcome.basis,
            )
            if rounded is not None:
                nodes_processed += 1
                if rounded[0] < incumbent_internal:
                    incumbent_internal, incumbent_x = rounded
                    selection.notify_incumbent()
                    if trace is not None:
                        trace.emit(
                            "incumbent",
                            objective=form.user_objective(incumbent_x),
                            source="rounding",
                        )

        # root reduced-cost fixing: with an incumbent in hand (warm
        # start or rounding), the root duals prove some binaries can
        # never flip profitably — fix them before branching starts
        if self.rc_fixing and math.isfinite(incumbent_internal):
            root_lb = root_lb.copy()
            root_ub = root_ub.copy()
            fixed_cols = reduced_cost_fixing(
                form,
                root_lb,
                root_ub,
                root_outcome,
                incumbent_internal,
                integrality_tol=self.integrality_tol,
                slack=self._cutoff_slack(incumbent_internal),
            )
            if trace is not None:
                trace.emit(
                    "rc_fixing",
                    fixed_cols=fixed_cols,
                    gap=incumbent_internal - root_outcome.internal_obj,
                )

        # queue of (node, lp outcome) pairs whose relaxation is solved
        pending: list[tuple[BranchNode, LPResult]] = [(root, root_outcome)]

        search_tick = time.perf_counter()
        while pending or len(selection):
            if time.perf_counter() > deadline:
                hit_limit = True
                limit_state = "time_limit"
                break
            if node_limit is not None and nodes_processed >= node_limit:
                hit_limit = True
                limit_state = "node_limit"
                break

            if pending:
                node, outcome = pending.pop()
            else:
                node = selection.pop()
                cached = node.cached_outcome
                if self.node_lp_cache and cached is not None:
                    # the eager bounding solve at branch time already
                    # answered this exact LP (same form, same bounds);
                    # reuse it instead of paying the simplex again
                    outcome = cached
                    node.cached_outcome = None
                    metrics.inc("solver.lp_node_cache_hits")
                else:
                    lb, ub = node.materialize_bounds(root_lb, root_ub)
                    outcome = session.solve(lb, ub, basis=node.basis)
                    node.basis = outcome.basis or node.basis
                nodes_processed += 1

            if outcome.status != "optimal":
                if trace is not None:
                    trace.emit(
                        "node",
                        node=nodes_processed,
                        status=outcome.status,
                        depth=node.depth,
                    )
                continue  # infeasible subtree
            if outcome.internal_obj >= incumbent_internal - self._cutoff_slack(
                incumbent_internal
            ):
                if trace is not None:
                    trace.emit(
                        "node",
                        node=nodes_processed,
                        status="pruned",
                        bound=form.user_bound(outcome.internal_obj),
                        depth=node.depth,
                    )
                continue  # bound-dominated

            x = outcome.x
            assert x is not None
            fractional = fractional_columns(x, form.integrality, self.integrality_tol)
            if fractional.size == 0:
                # integral solution: new incumbent
                if trace is not None:
                    trace.emit(
                        "node",
                        node=nodes_processed,
                        status="integral",
                        bound=form.user_bound(outcome.internal_obj),
                        fractional=0,
                        depth=node.depth,
                    )
                if outcome.internal_obj < incumbent_internal:
                    incumbent_internal = outcome.internal_obj
                    incumbent_x = x.copy()
                    selection.notify_incumbent()
                    selection.prune(
                        incumbent_internal - self._cutoff_slack(incumbent_internal)
                    )
                    if trace is not None:
                        trace.emit(
                            "incumbent",
                            objective=form.user_objective(incumbent_x),
                            source="search",
                            node=nodes_processed,
                        )
                continue

            if trace is not None:
                trace.emit(
                    "node",
                    node=nodes_processed,
                    status="branched",
                    bound=form.user_bound(outcome.internal_obj),
                    fractional=int(fractional.size),
                    depth=node.depth,
                )

            branch_col = rule.select(x, form.integrality)
            value = x[branch_col]
            floor_val = math.floor(value + self.integrality_tol)

            node_lb, node_ub = node.materialize_bounds(root_lb, root_ub)
            children = []
            # down child: x <= floor(value)
            if floor_val >= node_lb[branch_col] - 1e-12:
                children.append(
                    ("down", node.child(branch_col, node_lb[branch_col], floor_val, outcome.internal_obj))
                )
            # up child: x >= floor(value) + 1
            if floor_val + 1 <= node_ub[branch_col] + 1e-12:
                children.append(
                    ("up", node.child(branch_col, floor_val + 1, node_ub[branch_col], outcome.internal_obj))
                )

            for direction, child in children:
                if time.perf_counter() > deadline:
                    hit_limit = True
                    limit_state = "time_limit"
                    selection.push(child)
                    continue
                clb, cub = child.materialize_bounds(root_lb, root_ub)
                # hot-start from the parent basis the child inherited —
                # the two LPs differ by exactly one bound
                child_outcome = session.solve(clb, cub, basis=child.basis)
                child.basis = child_outcome.basis or child.basis
                nodes_processed += 1
                child_bound = (
                    child_outcome.internal_obj
                    if child_outcome.status == "optimal"
                    else math.inf
                )
                rule.observe(branch_col, direction, outcome.internal_obj, child_bound)
                if child_outcome.status != "optimal":
                    continue
                if child_bound >= incumbent_internal - self._cutoff_slack(
                    incumbent_internal
                ):
                    continue
                child.lp_bound = child_bound
                if self.node_lp_cache:
                    child.cached_outcome = child_outcome
                selection.push(child)
            if hit_limit:
                break

            # stop when gap closed
            open_best = min(
                selection.best_bound(),
                min((n.lp_bound for n, _ in pending), default=math.inf),
            )
            global_bound = open_best
            if incumbent_internal < math.inf and self._gap_closed(
                incumbent_internal, open_best
            ):
                frontier_open = False
                break

        metrics.add_ms("phase.search", (time.perf_counter() - search_tick) * 1000.0)
        if trace is not None and limit_state is not None:
            trace.emit("budget", state=limit_state, where="search")

        if not pending and len(selection) == 0:
            frontier_open = False

        if frontier_open:
            final_bound = min(
                global_bound,
                selection.best_bound(),
                min((n.lp_bound for n, _ in pending), default=math.inf),
            )
        else:
            final_bound = incumbent_internal
        return self._finish(
            form,
            incumbent_x,
            incumbent_internal,
            final_bound,
            start,
            nodes_processed,
            hit_limit or frontier_open,
            trace=trace,
            metrics=metrics,
            lp_iters_before=lp_iters_before,
            lp_hot_before=lp_hot_before,
            lp_cold_before=lp_cold_before,
            session=session,
        )

    # ------------------------------------------------------------------
    def _cutoff_slack(self, incumbent_internal: float) -> float:
        """How much worse than the incumbent a bound may be and still be cut."""
        if math.isinf(incumbent_internal):
            return 0.0
        return self.mip_gap * max(1.0, abs(incumbent_internal)) * 0.5

    def _gap_closed(self, incumbent: float, bound: float) -> bool:
        if math.isinf(bound):
            return True
        return (incumbent - bound) <= self.mip_gap * max(1e-10, abs(incumbent))

    def _try_rounding(
        self,
        session: LPSession,
        form: StandardForm,
        x: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        basis=None,
    ) -> tuple[float, np.ndarray] | None:
        """Round-and-repair primal heuristic.

        Fix every integral column to its nearest in-bounds integer and
        re-solve the LP over the continuous columns (hot-started from
        the root basis).  Returns
        ``(internal objective, point)`` when the repair succeeds.
        """
        mask = form.integrality.astype(bool)
        if not mask.any():
            return None
        fixed = np.clip(np.round(x[mask]), lb[mask], ub[mask])
        trial_lb = lb.copy()
        trial_ub = ub.copy()
        trial_lb[mask] = fixed
        trial_ub[mask] = fixed
        outcome = session.solve(trial_lb, trial_ub, basis=basis)
        if outcome.status != "optimal" or outcome.x is None:
            return None
        return outcome.internal_obj, outcome.x.copy()

    def _finish(
        self,
        form: StandardForm,
        incumbent_x: np.ndarray | None,
        incumbent_internal: float,
        bound_internal: float,
        start: float,
        nodes: int,
        interrupted: bool,
        trace=None,
        metrics=None,
        lp_iters_before: float = 0.0,
        lp_hot_before: float = 0.0,
        lp_cold_before: float = 0.0,
        session: LPSession | None = None,
    ) -> Solution:
        if session is not None:
            session.close()
        runtime = time.perf_counter() - start
        if metrics is not None:
            metrics.inc("solver.nodes", nodes)
            metrics.add_ms("phase.solve", runtime * 1000.0)
        if incumbent_x is None:
            status = SolveStatus.NO_SOLUTION if interrupted else SolveStatus.INFEASIBLE
            solution = Solution(
                status=status,
                runtime=runtime,
                node_count=nodes,
                solver=BNB_NAME,
                best_bound=(
                    form.user_bound(bound_internal)
                    if math.isfinite(bound_internal)
                    else math.nan
                ),
            )
        else:
            values = {
                var: float(incumbent_x[i]) for i, var in enumerate(form.variables)
            }
            objective = form.user_objective(incumbent_x)
            user_bound = (
                form.user_bound(bound_internal)
                if math.isfinite(bound_internal)
                else objective
            )
            status = SolveStatus.FEASIBLE if interrupted else SolveStatus.OPTIMAL
            if status is SolveStatus.OPTIMAL:
                user_bound = objective
            solution = Solution(
                status=status,
                objective=objective,
                values=values,
                best_bound=user_bound,
                runtime=runtime,
                node_count=nodes,
                solver=BNB_NAME,
            )
        if trace is not None:
            payload = {
                "solver": BNB_NAME,
                "status": solution.status.value,
                "nodes": nodes,
            }
            if solution.objective is not None:
                payload["objective"] = solution.objective
            if solution.best_bound is not None:
                payload["bound"] = solution.best_bound
            if metrics is not None:
                payload["lp_iterations"] = int(
                    metrics.counter("solver.lp_iterations") - lp_iters_before
                )
                payload["lp_hot_starts"] = int(
                    metrics.counter("solver.lp_hot_starts") - lp_hot_before
                )
                payload["lp_cold_starts"] = int(
                    metrics.counter("solver.lp_cold_starts") - lp_cold_before
                )
            trace.emit("solve_end", **payload)
        return solution


def solve(
    model: Model,
    time_limit: float | None = None,
    node_limit: int | None = None,
    mip_gap: float = 1e-6,
    branching: str = "pseudocost",
    node_selection: str = "hybrid",
    warm_start=None,
    trace=None,
    rc_fixing: bool = True,
    node_lp_cache: bool = True,
) -> Solution:
    """Convenience wrapper around :class:`BranchAndBoundSolver`."""
    solver = BranchAndBoundSolver(
        branching=branching,
        node_selection=node_selection,
        mip_gap=mip_gap,
        rc_fixing=rc_fixing,
        node_lp_cache=node_lp_cache,
    )
    return solver.solve(
        model,
        time_limit=time_limit,
        node_limit=node_limit,
        warm_start=warm_start,
        trace=trace,
    )
