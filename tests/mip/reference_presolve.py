"""Executable spec of the bound-tightening presolve: the full sweep.

Every round visits every row of the compiled form in order, slices its
columns out of the CSR matrix again and computes the row's activity
bounds with numpy reductions.  The event-driven
:func:`repro.mip.bnb.presolve.tighten_bounds` must return a
``PresolveResult`` bit-identical to this one: the ``lb``/``ub`` bytes,
``feasible``, ``tightenings`` and ``rounds``, also on an infeasible
early exit.  ``_round_in`` and the tolerances are copied so the spec
does not move when the production module does.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mip.bnb.presolve import PresolveResult
from repro.mip.model import StandardForm

__all__ = ["tighten_bounds"]

_FEAS_TOL = 1e-9


def tighten_bounds(
    form: StandardForm,
    lb: np.ndarray,
    ub: np.ndarray,
    max_rounds: int = 10,
) -> PresolveResult:
    """Propagate row activities into variable bounds.

    Parameters
    ----------
    form:
        Compiled model (rows are two-sided ``row_lb <= Ax <= row_ub``).
    lb, ub:
        Starting bounds (not mutated).
    max_rounds:
        Stop after this many full sweeps even if not at a fixed point.

    Returns
    -------
    PresolveResult
        With ``feasible=False`` when propagation proves the box empty.
    """
    lb = lb.astype(float, copy=True)
    ub = ub.astype(float, copy=True)
    # a stored 0.0 coefficient constrains nothing: sweep without it
    A = form.A.tocsr(copy=True)
    A.eliminate_zeros()
    indptr, indices, data = A.indptr, A.indices, A.data
    integral = form.integrality.astype(bool)

    total = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        changed = 0
        for row in range(A.shape[0]):
            start, end = indptr[row], indptr[row + 1]
            cols = indices[start:end]
            coefs = data[start:end]
            row_lo, row_hi = form.row_lb[row], form.row_ub[row]
            if cols.size == 0:
                # an empty row has activity exactly 0: infeasible when 0
                # lies outside [row_lo, row_hi], vacuous otherwise
                if row_lo > _FEAS_TOL or row_hi < -_FEAS_TOL:
                    return PresolveResult(lb, ub, False, total + changed, rounds)
                continue

            # activity bounds of the whole row; infinities are tracked by
            # count so single-infinite-term residuals stay exact
            pos = coefs > 0
            min_terms = np.where(pos, coefs * lb[cols], coefs * ub[cols])
            max_terms = np.where(pos, coefs * ub[cols], coefs * lb[cols])
            min_inf = np.isneginf(min_terms)
            max_inf = np.isposinf(max_terms)
            min_finite_sum = min_terms[~min_inf].sum()
            max_finite_sum = max_terms[~max_inf].sum()
            num_min_inf = int(min_inf.sum())
            num_max_inf = int(max_inf.sum())
            min_act = -math.inf if num_min_inf else min_finite_sum
            max_act = math.inf if num_max_inf else max_finite_sum
            if min_act > row_hi + _FEAS_TOL or max_act < row_lo - _FEAS_TOL:
                return PresolveResult(lb, ub, False, total + changed, rounds)

            for k in range(cols.size):
                j = cols[k]
                a = coefs[k]
                if min_inf[k]:
                    rest_min = min_finite_sum if num_min_inf == 1 else -math.inf
                else:
                    rest_min = -math.inf if num_min_inf else min_finite_sum - min_terms[k]
                if max_inf[k]:
                    rest_max = max_finite_sum if num_max_inf == 1 else math.inf
                else:
                    rest_max = math.inf if num_max_inf else max_finite_sum - max_terms[k]
                # a * x_j <= row_hi - rest_min  and  a * x_j >= row_lo - rest_max
                if math.isfinite(row_hi) and math.isfinite(rest_min):
                    if a > 0:
                        new_ub = (row_hi - rest_min) / a
                        if new_ub < ub[j] - 1e-9:
                            ub[j] = _round_in(new_ub, integral[j], up=False)
                            changed += 1
                    else:
                        new_lb = (row_hi - rest_min) / a
                        if new_lb > lb[j] + 1e-9:
                            lb[j] = _round_in(new_lb, integral[j], up=True)
                            changed += 1
                if math.isfinite(row_lo) and math.isfinite(rest_max):
                    if a > 0:
                        new_lb = (row_lo - rest_max) / a
                        if new_lb > lb[j] + 1e-9:
                            lb[j] = _round_in(new_lb, integral[j], up=True)
                            changed += 1
                    else:
                        new_ub = (row_lo - rest_max) / a
                        if new_ub < ub[j] - 1e-9:
                            ub[j] = _round_in(new_ub, integral[j], up=False)
                            changed += 1
                if lb[j] > ub[j] + _FEAS_TOL:
                    return PresolveResult(
                        lb, ub, False, total + changed, rounds
                    )
        total += changed
        if changed == 0:
            break
    return PresolveResult(lb, ub, True, total, rounds)


def _round_in(value: float, is_integral: bool, up: bool) -> float:
    """Round a bound inward for integral columns (with tolerance)."""
    if not is_integral or not math.isfinite(value):
        return value
    return math.ceil(value - 1e-9) if up else math.floor(value + 1e-9)


def assert_matches_reference(form: StandardForm, lb=None, ub=None):
    """Run both sweeps on ``form``; assert bit-identical results.

    Returns the production result.
    """
    import warnings

    from repro.mip.bnb.presolve import tighten_bounds as event_driven

    lb = form.lb if lb is None else lb
    ub = form.ub if ub is None else ub
    result = event_driven(form, lb, ub)
    with warnings.catch_warnings():
        # the numpy sweep warns where huge coefficients overflow and an
        # inf - inf turns nan; Python floats give the same nan silently
        warnings.simplefilter("ignore", RuntimeWarning)
        expected = tighten_bounds(form, lb, ub)
    assert result.lb.dtype == expected.lb.dtype == np.float64
    assert result.lb.tobytes() == expected.lb.tobytes(), (result.lb, expected.lb)
    assert result.ub.tobytes() == expected.ub.tobytes(), (result.ub, expected.ub)
    assert (result.feasible, result.tightenings, result.rounds) == (
        expected.feasible,
        expected.tightenings,
        expected.rounds,
    )
    return result
