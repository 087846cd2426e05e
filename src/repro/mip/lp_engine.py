"""Persistent LP sessions for branch-and-bound.

Branch-and-bound solves thousands of LP relaxations over *one* constraint
matrix, varying only the variable-bound arrays between nodes.  An
:class:`LPSession` loads a :class:`~repro.mip.model.StandardForm` into
one HiGHS instance **once** (through
:func:`~repro.mip.highs_backend.highs_lp`, on the bindings the HiGHS
driver imports) and holds it across the whole tree search.  Per node it
mutates the column bounds in place (``changeColsBounds``) and, when the
caller supplies the parent node's basis, hot-starts the dual simplex
from it (``setBasis``) — child relaxations differ from their parent by
a single bound change, so re-optimization typically takes a handful of
pivots instead of a full solve.  A session is bound to one form and
lives for one branch-and-bound solve.

On top of the session, :func:`reduced_cost_fixing` implements root
reduced-cost fixing: given the root relaxation's reduced costs and an
incumbent bound, integral columns whose flip provably cannot improve the
objective are permanently fixed at their bound, shrinking the tree
before branching starts (see ``docs/architecture.md`` for the math).

Telemetry (reported to the active
:class:`~repro.observability.metrics.MetricsRegistry`):

* ``solver.lp_hot_starts`` / ``solver.lp_cold_starts`` — solves that
  did / did not start from a supplied basis,
* ``solver.lp_iterations`` — cumulative simplex iterations,
* ``phase.lp_update_ms`` — time spent pushing bound updates into the
  session (distinct from ``phase.lp_ms``, the solve itself),
* ``solver.rc_fixed_cols`` — columns fixed by reduced-cost fixing.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mip.highs_backend import _core, highs_lp, run_highs
from repro.mip.model import StandardForm
from repro.observability import get_registry

__all__ = ["LPResult", "LPSession", "reduced_cost_fixing"]

_Model = _core.HighsModelStatus


class LPResult:
    """Outcome of one relaxation solve.

    Attributes
    ----------
    status:
        ``"optimal"`` | ``"infeasible"`` | ``"unbounded"`` | ``"error"``.
    x:
        Primal point (``None`` unless optimal).
    internal_obj:
        Objective in the internal minimization sense (``c @ x``).
    iterations:
        Simplex iterations of this solve.
    basis:
        Opaque basis token to hand to a child solve (``None`` when
        HiGHS reported no valid basis).
    reduced_costs:
        Per-column reduced costs in the internal minimization sense.
    hot:
        Whether this solve started from a supplied basis.
    """

    __slots__ = (
        "status",
        "x",
        "internal_obj",
        "iterations",
        "basis",
        "reduced_costs",
        "hot",
    )

    def __init__(
        self,
        status: str,
        x: np.ndarray | None,
        internal_obj: float,
        iterations: int = 0,
        basis=None,
        reduced_costs: np.ndarray | None = None,
        hot: bool = False,
    ) -> None:
        self.status = status
        self.x = x
        self.internal_obj = internal_obj
        self.iterations = iterations
        self.basis = basis
        self.reduced_costs = reduced_costs
        self.hot = hot


class LPSession:
    """A persistent HiGHS instance answering bound-only re-solves.

    The standard form is passed to HiGHS once; each solve mutates the
    column bounds in place and (when a parent basis is supplied)
    hot-starts the dual simplex from it.  Runs single-threaded so the
    pivot sequence — and therefore every objective, node count and
    trace byte — is deterministic for a fixed call sequence.  A session
    is bound to one (immutable) :class:`StandardForm`.
    """

    def __init__(self, form: StandardForm) -> None:
        self.form = form
        self._h = _core._Highs()
        self._h.setOptionValue("output_flag", False)
        self._h.setOptionValue("threads", 1)
        self._h.setOptionValue("presolve", "on")
        self._col_indices = np.arange(form.num_vars, dtype=np.int32)
        self._h.passModel(
            highs_lp(form.c, form.A, form.row_lb, form.row_ub, form.lb, form.ub)
        )

    def solve(self, lb: np.ndarray, ub: np.ndarray, basis=None) -> LPResult:
        """Solve the relaxation under ``lb <= x <= ub``.

        ``basis`` is an opaque token from a previous :class:`LPResult`
        of *this* session (typically the parent node's).
        """
        metrics = get_registry()
        result = self._solve(lb, ub, basis)
        result.hot = basis is not None
        metrics.inc("solver.lp_hot_starts" if result.hot else "solver.lp_cold_starts")
        metrics.inc("solver.lp_iterations", result.iterations)
        return result

    def _solve(self, lb: np.ndarray, ub: np.ndarray, basis) -> LPResult:
        form = self.form
        if form.num_vars == 0:
            return LPResult("optimal", np.empty(0), 0.0)
        metrics = get_registry()
        h = self._h
        with metrics.timer("phase.lp_update"):
            h.changeColsBounds(
                form.num_vars,
                self._col_indices,
                np.ascontiguousarray(lb, dtype=np.float64),
                np.ascontiguousarray(ub, dtype=np.float64),
            )
            if basis is not None:
                h.setBasis(basis)
        with metrics.timer("phase.lp"):
            run_highs(h)
        status = h.getModelStatus()
        info = h.getInfo()
        iterations = int(info.simplex_iteration_count)
        if iterations < 0:  # HiGHS reports -1 for "not run"
            iterations = 0
        if status == _Model.kOptimal:
            solution = h.getSolution()
            new_basis = h.getBasis()
            return LPResult(
                "optimal",
                np.asarray(solution.col_value, dtype=float),
                float(info.objective_function_value),
                iterations,
                basis=new_basis if new_basis.valid else None,
                reduced_costs=np.asarray(solution.col_dual, dtype=float),
            )
        if status == _Model.kInfeasible:
            return LPResult("infeasible", None, math.inf, iterations)
        if status == _Model.kUnbounded:
            return LPResult("unbounded", None, -math.inf, iterations)
        return LPResult("error", None, math.nan, iterations)

    def close(self) -> None:
        """Release the HiGHS instance (idempotent)."""
        h, self._h = self._h, None
        if h is not None:
            h.clear()

    def __enter__(self) -> "LPSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# root reduced-cost fixing
# ----------------------------------------------------------------------
def reduced_cost_fixing(
    form: StandardForm,
    lb: np.ndarray,
    ub: np.ndarray,
    root: LPResult,
    incumbent_internal: float,
    integrality_tol: float = 1e-6,
    slack: float = 0.0,
) -> int:
    """Fix integral columns the root duals prove cannot improve.

    For the root relaxation with optimal value ``z`` and reduced cost
    ``d_j`` (internal minimization sense), any feasible solution moving
    a nonbasic column ``j`` off its bound by ``t >= 1`` has objective at
    least ``z + |d_j| * t``.  With an incumbent of value ``U``, a column
    at its lower bound with ``d_j > U - z - slack`` (resp. at its upper
    bound with ``-d_j > U - z - slack``) can therefore be fixed at that
    bound without losing any solution better than the incumbent — the
    reported optimum never changes, only the tree shrinks.

    Mutates ``lb``/``ub`` in place; returns the number of columns fixed
    and reports it to ``solver.rc_fixed_cols``.
    """
    if (
        root.status != "optimal"
        or root.x is None
        or root.reduced_costs is None
        or not math.isfinite(incumbent_internal)
    ):
        return 0
    gap = incumbent_internal - slack - root.internal_obj
    if not math.isfinite(gap):
        return 0
    x = root.x
    rc = root.reduced_costs
    integral = form.integrality.astype(bool)
    free = integral & (lb < ub)
    # columns sitting at a bound in the root solution
    at_lb = free & (np.abs(x - lb) <= integrality_tol) & (rc > 0)
    at_ub = free & (np.abs(x - ub) <= integrality_tol) & (rc < 0)
    fix_down = at_lb & (rc > gap + 1e-9)
    fix_up = at_ub & (-rc > gap + 1e-9)
    ub[fix_down] = lb[fix_down]
    lb[fix_up] = ub[fix_up]
    fixed = int(np.count_nonzero(fix_down) + np.count_nonzero(fix_up))
    if fixed:
        get_registry().inc("solver.rc_fixed_cols", fixed)
    return fixed
