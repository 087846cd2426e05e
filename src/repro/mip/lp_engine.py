"""Incremental LP engine for branch-and-bound: persistent solver sessions.

Branch-and-bound solves thousands of LP relaxations over *one* constraint
matrix, varying only the variable-bound arrays between nodes.  Before
this module existed every node LP cold-started
:func:`scipy.optimize.linprog` from scratch: the standard form was
re-split into (A_ub, A_eq), a fresh ``(n, 2)`` bounds array was
allocated per node, and the simplex started from slack bases every time.

An :class:`LPSession` loads a :class:`~repro.mip.model.StandardForm`
**once** and then answers per-node relaxations through bound-only
updates.  Two implementations:

:class:`ScipySession`
    The always-available fallback.  Keeps the exact semantics of the
    historical per-node ``linprog`` call (same method, same statuses,
    same vertices) but eliminates the per-node allocations: the
    ``(n, 2)`` bounds array is preallocated once and refilled in place,
    and the (A_ub, b_ub, A_eq, b_eq) split of the row system is computed
    once per form.  ``linprog`` offers no basis interface, so every
    solve counts as a *cold start*.

:class:`HighspySession`
    A persistent ``Highs`` instance that holds the model across the
    whole tree search.  Per node it mutates column bounds in place
    (``changeColsBounds``) and, when the caller supplies the parent
    node's basis, hot-starts the dual simplex from it (``setBasis``) —
    child relaxations differ from their parent by a single bound change,
    so re-optimization typically takes a handful of pivots instead of a
    full solve.  Bindings are resolved from the optional ``highspy``
    package (``pip install .[highs]``) when installed, else from the
    copy scipy >= 1.15 vendors for its own ``linprog``/``milp`` wrappers
    (probed defensively: any import or API mismatch downgrades to
    :class:`ScipySession` instead of crashing).

:func:`make_session` is the one place the engine is chosen, by
platform alone: :class:`HighspySession` whenever bindings were found,
:class:`ScipySession` otherwise (scipy < 1.15 without the extra).
A session is bound to one form; branch-and-bound closes it and opens a
new one after each cut round.

On top of the session layer, :func:`reduced_cost_fixing` implements root
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

from repro.mip.model import StandardForm
from repro.observability import get_registry

__all__ = [
    "LPResult",
    "LPSession",
    "ScipySession",
    "HighspySession",
    "make_session",
    "reduced_cost_fixing",
    "HAVE_HIGHS_BINDINGS",
]


# ----------------------------------------------------------------------
# HiGHS bindings discovery
# ----------------------------------------------------------------------
def _load_highs_bindings():
    """The ``highspy``-style bindings module, or ``None``.

    Prefers the real optional-dependency ``highspy`` package; falls back
    to the copy scipy vendors (``scipy.optimize._highspy._core``), which
    exposes the same pybind11 surface.  Both are probed with a one-
    variable solve so a partially-working install downgrades cleanly.
    """
    for loader in (_import_highspy, _import_scipy_vendored):
        try:
            mod, highs_cls = loader()
        except Exception:
            continue
        try:
            if _selftest_bindings(mod, highs_cls):
                return mod, highs_cls
        except Exception:
            continue
    return None, None


def _import_highspy():
    import highspy

    return highspy, highspy.Highs


def _import_scipy_vendored():
    from scipy.optimize._highspy import _core

    return _core, _core._Highs


def _selftest_bindings(mod, highs_cls) -> bool:
    """Solve ``min x, 1 <= x <= 2`` to prove the surface we need works."""
    h = highs_cls()
    h.setOptionValue("output_flag", False)
    lp = mod.HighsLp()
    lp.num_col_ = 1
    lp.num_row_ = 0
    lp.col_cost_ = np.array([1.0])
    lp.col_lower_ = np.array([1.0])
    lp.col_upper_ = np.array([2.0])
    lp.a_matrix_.format_ = mod.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = np.array([0], dtype=np.int32)
    lp.a_matrix_.index_ = np.array([], dtype=np.int32)
    lp.a_matrix_.value_ = np.array([], dtype=np.float64)
    h.passModel(lp)
    h.run()
    if h.getModelStatus() != mod.HighsModelStatus.kOptimal:
        return False
    solution = h.getSolution()
    basis = h.getBasis()
    h.changeColsBounds(
        1, np.array([0], dtype=np.int32), np.array([0.5]), np.array([2.0])
    )
    h.setBasis(basis)
    h.run()
    return abs(h.getSolution().col_value[0] - 0.5) < 1e-9 and bool(
        len(solution.col_value) == 1
    )


_HIGHS_MOD, _HIGHS_CLS = _load_highs_bindings()

#: usable HiGHS bindings exist (real ``highspy`` or scipy's vendored copy)
HAVE_HIGHS_BINDINGS = _HIGHS_MOD is not None


# ----------------------------------------------------------------------
# results and the session protocol
# ----------------------------------------------------------------------
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
        Opaque basis token to hand to a child solve (``None`` when the
        session cannot produce one).
    reduced_costs:
        Per-column reduced costs in the internal minimization sense
        (``None`` when the backend did not report them).
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
    """A loaded LP relaxation answering bound-only re-solves.

    Subclasses implement :meth:`_solve`; this base class handles the
    hot/cold bookkeeping shared by all engines.  Sessions are bound to
    one (immutable) :class:`StandardForm` — when branch-and-bound
    extends the form with cutting planes it opens a fresh session.
    """

    #: telemetry / trace tag of the engine
    engine = "abstract"
    #: whether :meth:`solve` honours the ``basis`` argument
    supports_basis = False

    def __init__(self, form: StandardForm) -> None:
        self.form = form
        self.num_solves = 0
        self.hot_starts = 0
        self.cold_starts = 0

    # -- public API ------------------------------------------------------
    def solve(self, lb: np.ndarray, ub: np.ndarray, basis=None) -> LPResult:
        """Solve the relaxation under ``lb <= x <= ub``.

        ``basis`` is an opaque token from a previous :class:`LPResult`
        of *this* session (typically the parent node's); engines without
        basis support ignore it and count a cold start.
        """
        metrics = get_registry()
        if not self.supports_basis:
            basis = None
        result = self._solve(lb, ub, basis)
        result.hot = basis is not None
        self.num_solves += 1
        if result.hot:
            self.hot_starts += 1
            metrics.inc("solver.lp_hot_starts")
        else:
            self.cold_starts += 1
            metrics.inc("solver.lp_cold_starts")
        metrics.inc("solver.lp_iterations", result.iterations)
        return result

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "LPSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- engine hook -----------------------------------------------------
    def _solve(self, lb: np.ndarray, ub: np.ndarray, basis) -> LPResult:
        raise NotImplementedError


# ----------------------------------------------------------------------
# scipy fallback session
# ----------------------------------------------------------------------
class ScipySession(LPSession):
    """Bound-only re-solves through :func:`scipy.optimize.linprog`.

    Matches the historical per-node call bit for bit (``method="highs"``
    over the cached (A_ub, A_eq) split) while hoisting the per-node
    allocations out of the loop: the ``(n, 2)`` bounds array scipy wants
    is allocated once and refilled in place.
    """

    engine = "scipy"
    supports_basis = False

    def __init__(self, form: StandardForm) -> None:
        super().__init__(form)
        from repro.mip.highs_backend import _lp_data

        self._lp_parts = _lp_data(form)
        # reusable bounds buffer; replaces np.column_stack([lb, ub])
        self._bounds = np.empty((form.num_vars, 2), dtype=np.float64)

    def _solve(self, lb: np.ndarray, ub: np.ndarray, basis) -> LPResult:
        from scipy.optimize import linprog

        form = self.form
        if form.num_vars == 0:
            return LPResult("optimal", np.empty(0), 0.0)
        metrics = get_registry()
        A_ub, b_ub, A_eq, b_eq = self._lp_parts
        with metrics.timer("phase.lp_update"):
            self._bounds[:, 0] = lb
            self._bounds[:, 1] = ub
        with metrics.timer("phase.lp"):
            res = linprog(
                c=form.c,
                A_ub=A_ub,
                b_ub=b_ub,
                A_eq=A_eq,
                b_eq=b_eq,
                bounds=self._bounds,
                method="highs",
            )
        iterations = int(getattr(res, "nit", 0) or 0)
        if res.status == 0:
            return LPResult(
                "optimal",
                np.asarray(res.x, dtype=float),
                float(res.fun),
                iterations,
                reduced_costs=_scipy_reduced_costs(res, form.num_vars),
            )
        if res.status == 2:
            return LPResult("infeasible", None, math.inf, iterations)
        if res.status == 3:
            return LPResult("unbounded", None, -math.inf, iterations)
        return LPResult("error", None, math.nan, iterations)


def _scipy_reduced_costs(res, num_vars: int) -> np.ndarray | None:
    """Reduced costs from a ``linprog`` result (lower + upper marginals)."""
    lower = getattr(res, "lower", None)
    upper = getattr(res, "upper", None)
    if lower is None or upper is None:
        return None
    lo = getattr(lower, "marginals", None)
    hi = getattr(upper, "marginals", None)
    if lo is None or hi is None or len(lo) != num_vars:
        return None
    return np.asarray(lo, dtype=float) + np.asarray(hi, dtype=float)


# ----------------------------------------------------------------------
# persistent HiGHS session
# ----------------------------------------------------------------------
class HighspySession(LPSession):
    """A persistent ``Highs`` instance with basis hot-starts.

    The standard form is passed to HiGHS once; each solve mutates the
    column bounds in place and (when a parent basis is supplied)
    hot-starts the dual simplex from it.  Runs single-threaded so the
    pivot sequence — and therefore every objective, node count and
    trace byte — is deterministic for a fixed call sequence.
    """

    engine = "highspy"
    supports_basis = True

    def __init__(self, form: StandardForm) -> None:
        if _HIGHS_MOD is None:  # pragma: no cover - guarded by factory
            raise RuntimeError(
                "no usable HiGHS bindings; install the [highs] extra or "
                "use ScipySession"
            )
        super().__init__(form)
        self._mod = _HIGHS_MOD
        self._h = _HIGHS_CLS()
        self._h.setOptionValue("output_flag", False)
        self._h.setOptionValue("threads", 1)
        self._h.setOptionValue("presolve", "on")
        self._col_indices = np.arange(form.num_vars, dtype=np.int32)
        self._h.passModel(self._build_lp(form))

    def _build_lp(self, form: StandardForm):
        mod = self._mod
        lp = mod.HighsLp()
        lp.num_col_ = form.num_vars
        lp.num_row_ = form.num_constraints
        lp.col_cost_ = np.asarray(form.c, dtype=np.float64)
        lp.col_lower_ = np.asarray(form.lb, dtype=np.float64)
        lp.col_upper_ = np.asarray(form.ub, dtype=np.float64)
        lp.row_lower_ = np.asarray(form.row_lb, dtype=np.float64)
        lp.row_upper_ = np.asarray(form.row_ub, dtype=np.float64)
        A = form.A.tocsr()
        lp.a_matrix_.format_ = mod.MatrixFormat.kRowwise
        lp.a_matrix_.start_ = np.asarray(A.indptr, dtype=np.int32)
        lp.a_matrix_.index_ = np.asarray(A.indices, dtype=np.int32)
        lp.a_matrix_.value_ = np.asarray(A.data, dtype=np.float64)
        return lp

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
            h.run()
        status = h.getModelStatus()
        mod = self._mod
        if status == mod.HighsModelStatus.kUnboundedOrInfeasible:
            # presolve could not tell the two apart; re-run without it
            h.setOptionValue("presolve", "off")
            h.run()
            status = h.getModelStatus()
            h.setOptionValue("presolve", "on")
        info = h.getInfo()
        iterations = int(info.simplex_iteration_count)
        if iterations < 0:  # HiGHS reports -1 for "not run"
            iterations = 0
        if status == mod.HighsModelStatus.kOptimal:
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
        if status == mod.HighsModelStatus.kInfeasible:
            return LPResult("infeasible", None, math.inf, iterations)
        if status == mod.HighsModelStatus.kUnbounded:
            return LPResult("unbounded", None, -math.inf, iterations)
        return LPResult("error", None, math.nan, iterations)

    def close(self) -> None:
        h, self._h = self._h, None
        if h is not None:
            try:
                h.clear()
            except Exception:
                pass


# ----------------------------------------------------------------------
# factory
# ----------------------------------------------------------------------
def make_session(form: StandardForm) -> LPSession:
    """Load ``form`` into the engine this platform supports.

    :class:`HighspySession` whenever usable HiGHS bindings exist (real
    ``highspy`` or scipy >= 1.15's vendored copy), :class:`ScipySession`
    otherwise.  This is the only place the engine is chosen.
    """
    if HAVE_HIGHS_BINDINGS:
        return HighspySession(form)
    return ScipySession(form)


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
