"""HiGHS solver backend via :func:`scipy.optimize.milp` / ``linprog``.

This is the default exact backend.  It solves:

* full MILPs (:func:`solve`), honouring time limits and gap tolerances so
  the paper's timeout-then-report-gap methodology (Figures 3-6) can be
  reproduced, and
* LP relaxations (:func:`solve_relaxation`), used for the
  relaxation-strength ablation comparing the Delta-, Sigma- and
  cSigma-Models and inside the pure-Python branch-and-bound solver.

Every ``milp`` call, a compiled model's or the array-native
fixed-schedule LP of :mod:`repro.tvnep.fixed_schedule`, goes through
the one array-level entry :func:`solve_arrays`.
"""

from __future__ import annotations

import math
import time
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.exceptions import SolverError
from repro.mip.model import Model, StandardForm
from repro.mip.solution import Solution, SolveStatus
from repro.observability import current_trace, get_registry

__all__ = ["solve", "solve_arrays", "solve_relaxation", "HIGHS_NAME"]

HIGHS_NAME = "highs"

# scipy.optimize.milp status codes (documented in OptimizeResult.status)
_MILP_OPTIMAL = 0
_MILP_ITER_OR_TIME = 1
_MILP_INFEASIBLE = 2
_MILP_UNBOUNDED = 3
_MILP_NUMERICAL = 4


def solve(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
    node_limit: int | None = None,
    presolve: bool = True,
    budget=None,
    warm_start=None,
) -> Solution:
    """Solve a model with HiGHS branch-and-cut.

    Parameters
    ----------
    model:
        The model to solve.
    warm_start:
        Accepted for backend-signature compatibility so callers (the
        resilient fallback chain, the greedy incremental loop) can pass
        warm starts uniformly; :func:`scipy.optimize.milp` offers no
        warm-start interface, so it is ignored here.  The ``bnb``
        backend uses it as its initial incumbent.
    time_limit:
        Wall-clock limit in seconds; on expiry the best incumbent (if
        any) is returned with status ``FEASIBLE``, mirroring the paper's
        one-hour-timeout methodology.
    budget:
        Optional :class:`~repro.runtime.budget.SolveBudget`; the
        effective limit is the tighter of ``time_limit`` and the
        budget's remaining wall-clock time.  An already-expired budget
        short-circuits to ``NO_SOLUTION`` without calling the solver.
    mip_gap:
        Relative optimality gap at which the search stops.
    node_limit:
        Branch-and-bound node limit.
    presolve:
        Enable HiGHS presolve (default).  KNOWN ISSUE: on models whose
        optimum sits exactly on several simultaneously-binding big-M
        rows and variable bounds (boundary-tight schedules in the
        Sigma-Model), the bundled HiGHS presolve can cut the true
        optimum and "prove" a worse solution optimal.  Disabling
        presolve (or using the ``bnb`` backend) recovers it — see
        EXPERIMENTS.md, "A reproduction war story, part two".
    """
    if budget is not None:
        if budget.expired:
            trace = current_trace()
            if trace is not None:
                trace.emit("budget", state="exhausted", where="pre_solve")
            return Solution(
                status=SolveStatus.NO_SOLUTION,
                solver=HIGHS_NAME,
                message="wall-clock budget exhausted before solve",
            )
        time_limit = budget.clamp(time_limit)
    form = model.to_standard_form()
    return solve_standard_form(
        form,
        time_limit=time_limit,
        mip_gap=mip_gap,
        node_limit=node_limit,
        presolve=presolve,
    )


def solve_standard_form(
    form: StandardForm,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
    node_limit: int | None = None,
    presolve: bool = True,
) -> Solution:
    """Solve an already-compiled :class:`StandardForm` with HiGHS."""
    solution = solve_arrays(
        form.c,
        form.A,
        form.row_lb,
        form.row_ub,
        form.lb,
        form.ub,
        form.integrality,
        c0=form.c0,
        sense_sign=form.sense_sign,
        time_limit=time_limit,
        mip_gap=mip_gap,
        node_limit=node_limit,
        presolve=presolve,
    )
    if solution.x is not None:
        solution.values = {
            var: float(solution.x[i]) for i, var in enumerate(form.variables)
        }
    return solution


def solve_arrays(
    c: np.ndarray,
    A: sp.csr_matrix,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    integrality: np.ndarray | None = None,
    *,
    c0: float = 0.0,
    sense_sign: float = 1.0,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
    node_limit: int | None = None,
    presolve: bool = True,
) -> Solution:
    """Solve ``min c @ x  s.t.  row_lb <= A @ x <= row_ub, lb <= x <= ub``.

    The one place :func:`scipy.optimize.milp` is called.  The arrays
    follow the :class:`StandardForm` conventions (``integrality``
    defaults to all-continuous; ``c0`` and ``sense_sign`` map the
    internal minimization back to the caller's objective).  The result
    carries the incumbent as the column vector :attr:`Solution.x` and
    leaves :attr:`Solution.values` empty: there are no
    :class:`~repro.mip.expr.Variable` objects at this level.
    """
    num_vars = len(c)
    if integrality is None:
        integrality = np.zeros(num_vars, dtype=np.uint8)
    trace = current_trace()
    metrics = get_registry()
    metrics.inc("solver.solves")
    if trace is not None:
        trace.emit(
            "solve_start",
            solver=HIGHS_NAME,
            num_vars=num_vars,
            num_constraints=A.shape[0],
            num_integral=int(np.count_nonzero(integrality)),
        )
    if num_vars == 0:
        # a problem without variables is trivially optimal (callers
        # emit no constant rows: the modeling layer rejects a violated
        # one, the fixed-schedule LP rejects a stranded flow first)
        if trace is not None:
            trace.emit(
                "solve_end",
                solver=HIGHS_NAME,
                status=SolveStatus.OPTIMAL.value,
                nodes=0,
                objective=c0,
                bound=c0,
            )
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=c0,
            x=np.zeros(0),
            best_bound=c0,
            solver=HIGHS_NAME,
            message="empty model",
        )

    options: dict[str, object] = {"mip_rel_gap": mip_gap, "disp": False}
    if not presolve:
        options["presolve"] = False
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if node_limit is not None:
        options["node_limit"] = int(node_limit)

    constraints = [LinearConstraint(A, row_lb, row_ub)] if A.shape[0] else []
    start = time.perf_counter()
    try:
        res = milp(
            c=c,
            constraints=constraints,
            integrality=integrality,
            bounds=Bounds(lb, ub),
            options=options,
        )
    except Exception as exc:  # pragma: no cover - defensive
        raise SolverError(f"HiGHS milp failed: {exc}") from exc
    runtime = time.perf_counter() - start

    status = _interpret_status(res)
    x = None
    objective = math.nan
    if res.x is not None:
        x = _snap_integrality(np.asarray(res.x, dtype=float), integrality)
        objective = sense_sign * float(c @ x) + c0

    best_bound = math.nan
    dual = getattr(res, "mip_dual_bound", None)
    if dual is not None and math.isfinite(dual):
        best_bound = sense_sign * float(dual) + c0
    elif status is SolveStatus.OPTIMAL and res.x is not None:
        best_bound = objective

    node_count = int(getattr(res, "mip_node_count", 0) or 0)
    metrics.inc("solver.nodes", node_count)
    metrics.add_ms("phase.solve", runtime * 1000.0)
    if trace is not None:
        trace.emit(
            "solve_end",
            solver=HIGHS_NAME,
            status=status.value,
            nodes=node_count,
            objective=objective,
            bound=best_bound,
        )
    return Solution(
        status=status,
        objective=objective,
        x=x,
        best_bound=best_bound,
        runtime=runtime,
        node_count=node_count,
        solver=HIGHS_NAME,
        message=str(getattr(res, "message", "")),
    )


def solve_relaxation(
    model: Model,
    fixed: Mapping | None = None,
) -> Solution:
    """Solve the LP relaxation of a model (integrality dropped).

    Parameters
    ----------
    model:
        The model whose relaxation to solve.
    fixed:
        Optional ``Variable -> value`` mapping of temporary bound
        fixings applied on top of the model (used by branch-and-bound
        without mutating the model).
    """
    form = model.to_standard_form()
    lb = form.lb.copy()
    ub = form.ub.copy()
    if fixed:
        for var, value in fixed.items():
            lb[var.index] = value
            ub[var.index] = value
    return solve_relaxation_arrays(form, lb, ub)


def _relaxation_session(form: StandardForm):
    """The memoized per-form LP session used for relaxation solves.

    Repeated relaxation solves over one compiled form (the relaxation-
    strength ablation, feasibility probes) share
    one :class:`~repro.mip.lp_engine.ScipySession`, so the (A_ub, A_eq)
    split and the bounds buffer are built once per form instead of once
    per call.  The scipy engine is used deliberately: it preserves the
    historical ``linprog`` semantics (statuses, vertices) exactly.
    """
    session = getattr(form, "_relaxation_session_cache", None)
    if session is None:
        from repro.mip.lp_engine import ScipySession

        session = ScipySession(form)
        form._relaxation_session_cache = session
    return session


def solve_relaxation_arrays(
    form: StandardForm, lb: np.ndarray, ub: np.ndarray
) -> Solution:
    """LP relaxation of a standard form with explicit bound arrays.

    This is the hot path of relaxation-based probes: the constraint
    matrix is reused across calls and only the bounds change, so the
    solve goes through the per-form cached LP session.
    """
    start = time.perf_counter()
    outcome = _relaxation_session(form).solve(lb, ub)
    runtime = time.perf_counter() - start
    get_registry().add_ms("phase.lp_total", runtime * 1000.0)

    if outcome.status == "optimal":
        x = outcome.x
        objective = form.user_objective(x)
        values = {var: float(x[i]) for i, var in enumerate(form.variables)}
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=objective,
            values=values,
            best_bound=objective,
            runtime=runtime,
            solver=f"{HIGHS_NAME}-lp",
        )
    if outcome.status == "infeasible":
        return Solution(
            status=SolveStatus.INFEASIBLE,
            runtime=runtime,
            solver=f"{HIGHS_NAME}-lp",
        )
    if outcome.status == "unbounded":
        return Solution(
            status=SolveStatus.UNBOUNDED,
            runtime=runtime,
            solver=f"{HIGHS_NAME}-lp",
        )
    return Solution(
        status=SolveStatus.ERROR,
        runtime=runtime,
        solver=f"{HIGHS_NAME}-lp",
    )


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _interpret_status(res) -> SolveStatus:
    if res.status == _MILP_OPTIMAL:
        return SolveStatus.OPTIMAL
    if res.status == _MILP_ITER_OR_TIME:
        return SolveStatus.FEASIBLE if res.x is not None else SolveStatus.NO_SOLUTION
    if res.status == _MILP_INFEASIBLE:
        return SolveStatus.INFEASIBLE
    if res.status == _MILP_UNBOUNDED:
        return SolveStatus.UNBOUNDED
    # numerical trouble: keep the incumbent when one exists
    return SolveStatus.FEASIBLE if res.x is not None else SolveStatus.ERROR


def _snap_integrality(x: np.ndarray, integrality: np.ndarray) -> np.ndarray:
    """Round integral columns that are within solver tolerance of integers."""
    mask = integrality.astype(bool)
    if mask.any():
        snapped = np.round(x[mask])
        close = np.abs(x[mask] - snapped) <= 1e-5
        x = x.copy()
        vals = x[mask]
        vals[close] = snapped[close]
        x[mask] = vals
    return x


def _lp_data(form: StandardForm):
    """Split the two-sided row system into (A_ub, b_ub, A_eq, b_eq).

    The result is cached on the form instance because branch-and-bound
    solves thousands of LP relaxations over the same matrix, varying
    only the variable bounds.
    """
    cached = getattr(form, "_lp_data_cache", None)
    if cached is not None:
        return cached

    eq = form.row_lb == form.row_ub
    ineq = ~eq
    A_ub = b_ub = A_eq = b_eq = None
    if eq.any():
        A_eq = form.A[eq]
        b_eq = form.row_lb[eq]
    if ineq.any():
        A = form.A[ineq]
        lo = form.row_lb[ineq]
        hi = form.row_ub[ineq]
        blocks = []
        rhs = []
        finite_hi = np.isfinite(hi)
        if finite_hi.any():
            blocks.append(A[finite_hi])
            rhs.append(hi[finite_hi])
        finite_lo = np.isfinite(lo)
        if finite_lo.any():
            blocks.append(-A[finite_lo])
            rhs.append(-lo[finite_lo])
        if blocks:
            A_ub = sp.vstack(blocks).tocsr()
            b_ub = np.concatenate(rhs)
    result = (A_ub, b_ub, A_eq, b_eq)
    form._lp_data_cache = result
    return result
