"""The one HiGHS driver of the package.

Every HiGHS call runs on the pybind11 bindings scipy (>= 1.15) vendors,
imported here once as ``_core``:

* full MILPs (:func:`solve`), honouring time limits and gap tolerances so
  the paper's timeout-then-report-gap methodology (Figures 3-6) can be
  reproduced;
* LP relaxations (:func:`solve_relaxation`), used for the
  relaxation-strength ablation comparing the Delta-, Sigma- and
  cSigma-Models;
* the array-native fixed-schedule LP of :mod:`repro.tvnep.fixed_schedule`;
* the node LPs of the pure-Python branch-and-bound, through the
  persistent :class:`~repro.mip.lp_engine.LPSession`.

The first three go through the one array-level entry
:func:`solve_arrays`; all four load their problem with :func:`highs_lp`.
"""

from __future__ import annotations

import dataclasses
import math
import time
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core

from repro.exceptions import SolverError
from repro.mip.model import Model, StandardForm
from repro.mip.solution import Solution, SolveStatus
from repro.observability import current_trace, get_registry

__all__ = [
    "solve",
    "solve_arrays",
    "solve_standard_form",
    "solve_relaxation",
    "highs_lp",
    "HIGHS_NAME",
]

HIGHS_NAME = "highs"

_Model = _core.HighsModelStatus
_ERROR = _core.HighsStatus.kError
#: the statuses of a MILP stopped at a limit: its incumbent, if any, stands
_LIMITS = (_Model.kTimeLimit, _Model.kIterationLimit, _Model.kSolutionLimit)
_STATUSES = {
    _Model.kOptimal: SolveStatus.OPTIMAL,
    _Model.kInfeasible: SolveStatus.INFEASIBLE,
    _Model.kUnbounded: SolveStatus.UNBOUNDED,
}
_VAR_TYPES = [_core.HighsVarType(code) for code in range(4)]


def highs_lp(
    c: np.ndarray,
    A: sp.csr_matrix,
    row_lb: np.ndarray,
    row_ub: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    integrality: np.ndarray | None = None,
) -> "_core.HighsLp":
    """The ``HighsLp`` of ``min c @ x  s.t.  row_lb <= A @ x <= row_ub,
    lb <= x <= ub`` (row-wise matrix; integral columns marked when
    ``integrality`` has any)."""
    A = A.tocsr()
    lp = _core.HighsLp()
    lp.num_col_ = len(c)
    lp.num_row_ = A.shape[0]
    lp.col_cost_ = np.asarray(c, dtype=np.float64)
    lp.col_lower_ = np.asarray(lb, dtype=np.float64)
    lp.col_upper_ = np.asarray(ub, dtype=np.float64)
    lp.row_lower_ = np.asarray(row_lb, dtype=np.float64)
    lp.row_upper_ = np.asarray(row_ub, dtype=np.float64)
    lp.a_matrix_.format_ = _core.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = np.asarray(A.indptr, dtype=np.int32)
    lp.a_matrix_.index_ = np.asarray(A.indices, dtype=np.int32)
    lp.a_matrix_.value_ = np.asarray(A.data, dtype=np.float64)
    if integrality is not None and integrality.any():
        lp.integrality_ = [_VAR_TYPES[code] for code in integrality.tolist()]
    return lp


def solve(
    model: Model,
    time_limit: float | None = None,
    mip_gap: float = 1e-6,
    node_limit: int | None = None,
    presolve: bool = True,
) -> Solution:
    """Solve a model with HiGHS branch-and-cut.

    Parameters
    ----------
    model:
        The model to solve.
    time_limit:
        Wall-clock limit in seconds; on expiry the best incumbent (if
        any) is returned with status ``FEASIBLE``, mirroring the paper's
        one-hour-timeout methodology.
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
    return solve_standard_form(
        model.to_standard_form(),
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


def solve_relaxation(model: Model, fixed: Mapping | None = None) -> Solution:
    """Solve the LP relaxation of a model (integrality dropped).

    Parameters
    ----------
    model:
        The model whose relaxation to solve.
    fixed:
        Optional ``Variable -> value`` mapping of temporary bound
        fixings applied on top of the model (without mutating it).
    """
    form = model.to_standard_form()
    lb = form.lb.copy()
    ub = form.ub.copy()
    for var, value in (fixed or {}).items():
        lb[var.index] = ub[var.index] = value
    relaxed = dataclasses.replace(
        form, lb=lb, ub=ub, integrality=np.zeros_like(form.integrality)
    )
    with get_registry().timer("phase.lp_total"):
        return solve_standard_form(relaxed)


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

    The one place a HiGHS MILP or one-shot LP is run.  The arrays
    follow the :class:`StandardForm` conventions (``integrality``
    defaults to all-continuous; ``c0`` and ``sense_sign`` map the
    internal minimization back to the caller's objective).  The result
    carries the incumbent as the column vector :attr:`Solution.x` and
    leaves :attr:`Solution.values` empty: there are no
    :class:`~repro.mip.expr.Variable` objects at this level.

    A MILP stopped by its time or node limit is ``FEASIBLE`` with an
    incumbent and ``NO_SOLUTION`` without one; either way its bound is
    HiGHS's dual bound whenever that is finite.  HiGHS refusing the
    model or failing its run raises :class:`SolverError`.
    """
    num_vars = len(c)
    if integrality is None:
        integrality = np.zeros(num_vars, dtype=np.uint8)
    is_mip = bool(integrality.any())
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

    if not np.isfinite(c).all():  # HiGHS would solve with a NaN cost
        raise SolverError("the objective has a non-finite coefficient")
    options: dict[str, object] = {"output_flag": False, "mip_rel_gap": float(mip_gap)}
    if not presolve:
        options["presolve"] = "off"
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    if node_limit is not None:
        options["mip_max_nodes"] = int(node_limit)

    start = time.perf_counter()
    h = _core._Highs()
    for name, value in options.items():
        if h.setOptionValue(name, value) == _ERROR:
            raise SolverError(f"HiGHS rejected the option {name}={value!r}")
    if h.passModel(highs_lp(c, A, row_lb, row_ub, lb, ub, integrality)) == _ERROR:
        raise SolverError("HiGHS rejected the model")
    if h.run() == _ERROR:
        raise SolverError(
            f"HiGHS failed: {h.modelStatusToString(h.getModelStatus())}"
        )
    runtime = time.perf_counter() - start

    model_status = h.getModelStatus()
    info = h.getInfo()
    # an LP's point is only read at its optimum; a MILP's incumbent
    # also stands at a limit
    has_incumbent = model_status == _Model.kOptimal or (
        is_mip
        and model_status in _LIMITS
        and info.objective_function_value < _core.kHighsInf
    )
    if model_status in _STATUSES:
        status = _STATUSES[model_status]
    elif model_status in _LIMITS:
        status = SolveStatus.FEASIBLE if has_incumbent else SolveStatus.NO_SOLUTION
    else:  # unbounded-or-infeasible, numerical trouble and the like
        status = SolveStatus.ERROR
    x = None
    objective = math.nan
    if has_incumbent:
        x = _snap_integrality(np.array(h.getSolution().col_value), integrality)
        objective = sense_sign * float(c @ x) + c0

    best_bound = math.nan
    node_count = 0
    if is_mip:
        node_count = max(int(info.mip_node_count), 0)
        if math.isfinite(info.mip_dual_bound):
            best_bound = sense_sign * float(info.mip_dual_bound) + c0
    if math.isnan(best_bound) and status is SolveStatus.OPTIMAL:
        best_bound = objective

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
        message=h.modelStatusToString(model_status),
    )


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
