"""Bound-tightening presolve for the branch-and-bound solver.

Implements the classic feasibility-based bound propagation: for every
row ``L <= a x <= U`` and every participating column, the residual
activity of the other columns implies a bound on that column.  Integral
columns are rounded inward.  Iterated to a fixed point (or a round
limit), this shrinks the search box before branching starts — on big-M
formulations like the Delta-Model it often fixes many of the gating
binaries outright.

The sweep is event-driven.  Rows are visited in order, each updating
the bounds in place (Gauss–Seidel), for at most ``max_rounds`` rounds;
a row is skipped when no bound of its columns changed since its last
visit began.  That skip is exact: a row's tightenings and its
infeasibility test depend only on the bounds of its own columns, so a
row whose inputs are those of a visit that changed nothing would change
nothing again, and neither the tightening count nor the round count
moves.  The arithmetic is exact too: the per-row work runs on Python
floats, which perform the same IEEE operations as numpy's elementwise
ones, and :func:`_numpy_sum` adds activity terms in the order numpy's
float64 ``add.reduce`` does.  The result is therefore bit-identical to a
sweep that visits every row in every round with numpy reductions, which
``tests/mip/reference_presolve.py`` keeps as the executable spec.

The entry point :func:`tighten_bounds` works on the compiled
:class:`~repro.mip.model.StandardForm` arrays, so it composes with the
per-node bound arrays of :class:`BranchAndBoundSolver`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mip.model import StandardForm

__all__ = ["PresolveResult", "tighten_bounds"]

_FEAS_TOL = 1e-9


@dataclass
class PresolveResult:
    """Outcome of a presolve pass."""

    lb: np.ndarray
    ub: np.ndarray
    feasible: bool
    tightenings: int
    rounds: int
    #: row visits the sweep made, and row visits it skipped because no
    #: bound of the row's columns had changed since its last visit
    rows_visited: int = 0
    rows_skipped: int = 0


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
        Stop after this many sweeps even if not at a fixed point.

    Returns
    -------
    PresolveResult
        With ``feasible=False`` when propagation proves the box empty;
        ``lb``/``ub`` then hold the bounds as far as the sweep got.
    """
    # a stored 0.0 coefficient constrains nothing; dropping it here
    # means no division below sees a zero divisor
    A = form.A.tocsr(copy=True)
    A.eliminate_zeros()
    indptr = A.indptr.tolist()
    indices = A.indices.tolist()
    data = np.asarray(A.data, dtype=float).tolist()
    row_cols = [indices[s:e] for s, e in zip(indptr, indptr[1:])]
    row_coefs = [data[s:e] for s, e in zip(indptr, indptr[1:])]
    col_rows: list[list[int]] = [[] for _ in range(A.shape[1])]
    for row, cols in enumerate(row_cols):
        for j in cols:
            col_rows[j].append(row)

    lbs = lb.astype(float).tolist()
    ubs = ub.astype(float).tolist()
    feasible, tightenings, rounds, visited, skipped = _sweep(
        row_cols,
        row_coefs,
        np.asarray(form.row_lb, dtype=float).tolist(),
        np.asarray(form.row_ub, dtype=float).tolist(),
        col_rows,
        form.integrality.astype(bool).tolist(),
        lbs,
        ubs,
        max_rounds,
    )
    return PresolveResult(
        np.array(lbs, dtype=float),
        np.array(ubs, dtype=float),
        feasible,
        tightenings,
        rounds,
        visited,
        skipped,
    )


def _sweep(row_cols, row_coefs, row_lb, row_ub, col_rows, integral, lbs, ubs, max_rounds):
    """Tighten ``lbs``/``ubs`` in place; ``(feasible, tightenings, rounds,
    rows visited, rows skipped)``.

    ``visited_at[row]`` is the tick at which the row's last visit began
    and ``dirtied_at[row]`` the tick of the last visit that changed a
    bound of one of its columns; a row whose ``dirtied_at`` is older
    than its ``visited_at`` is skipped.
    """
    neg_inf, pos_inf = -math.inf, math.inf
    visited_at = [0] * len(row_cols)
    dirtied_at = [0] * len(row_cols)
    tick = visited = skipped = 0
    total = 0
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        changed = 0
        for row, cols in enumerate(row_cols):
            if dirtied_at[row] < visited_at[row]:
                skipped += 1
                continue
            tick += 1
            visited_at[row] = tick
            visited += 1
            row_lo, row_hi = row_lb[row], row_ub[row]
            if not cols:
                # an empty row has activity exactly 0: infeasible when 0
                # lies outside [row_lo, row_hi], vacuous otherwise
                if row_lo > _FEAS_TOL or row_hi < -_FEAS_TOL:
                    return False, total + changed, rounds, visited, skipped
                continue

            # activity bounds of the whole row; infinities are tracked by
            # count so single-infinite-term residuals stay exact
            coefs = row_coefs[row]
            min_terms = [
                a * lbs[j] if a > 0 else a * ubs[j] for j, a in zip(cols, coefs)
            ]
            max_terms = [
                a * ubs[j] if a > 0 else a * lbs[j] for j, a in zip(cols, coefs)
            ]
            min_finite = [t for t in min_terms if t != neg_inf]
            max_finite = [t for t in max_terms if t != pos_inf]
            min_finite_sum = _numpy_sum(min_finite)
            max_finite_sum = _numpy_sum(max_finite)
            num_min_inf = len(cols) - len(min_finite)
            num_max_inf = len(cols) - len(max_finite)
            min_act = neg_inf if num_min_inf else min_finite_sum
            max_act = pos_inf if num_max_inf else max_finite_sum
            if min_act > row_hi + _FEAS_TOL or max_act < row_lo - _FEAS_TOL:
                return False, total + changed, rounds, visited, skipped

            # with two or more infinite terms every residual of that side
            # is infinite, so the side tightens nothing
            use_hi = num_min_inf < 2 and math.isfinite(row_hi)
            use_lo = num_max_inf < 2 and math.isfinite(row_lo)
            for k, j in enumerate(cols):
                hit = False
                if use_hi or use_lo:
                    a = coefs[k]
                    if use_hi:
                        term = min_terms[k]
                        if term == neg_inf:
                            rest_min = min_finite_sum
                        else:
                            rest_min = neg_inf if num_min_inf else min_finite_sum - term
                        # a * x_j <= row_hi - rest_min
                        if math.isfinite(rest_min):
                            bound = (row_hi - rest_min) / a
                            if a > 0:
                                if bound < ubs[j] - 1e-9:
                                    ubs[j] = float(_round_in(bound, integral[j], up=False))
                                    changed += 1
                                    hit = True
                            elif bound > lbs[j] + 1e-9:
                                lbs[j] = float(_round_in(bound, integral[j], up=True))
                                changed += 1
                                hit = True
                    if use_lo:
                        term = max_terms[k]
                        if term == pos_inf:
                            rest_max = max_finite_sum
                        else:
                            rest_max = pos_inf if num_max_inf else max_finite_sum - term
                        # a * x_j >= row_lo - rest_max
                        if math.isfinite(rest_max):
                            bound = (row_lo - rest_max) / a
                            if a > 0:
                                if bound > lbs[j] + 1e-9:
                                    lbs[j] = float(_round_in(bound, integral[j], up=True))
                                    changed += 1
                                    hit = True
                            elif bound < ubs[j] - 1e-9:
                                ubs[j] = float(_round_in(bound, integral[j], up=False))
                                changed += 1
                                hit = True
                if hit:
                    for other in col_rows[j]:
                        dirtied_at[other] = tick
                if lbs[j] > ubs[j] + _FEAS_TOL:
                    return False, total + changed, rounds, visited, skipped
        total += changed
        if changed == 0:
            break
    return True, total, rounds, visited, skipped


def _numpy_sum(terms: list[float]) -> float:
    """``np.add.reduce`` of a float64 list, bit for bit.

    numpy sums float64 pairwise: fewer than 8 terms in sequence; up to
    128 terms in 8 interleaved accumulators, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` before the tail is added in
    sequence; longer runs split at half the length rounded down to a
    multiple of 8.  The reduction starts from the identity ``0.0``,
    which turns a ``-0.0`` sum into ``0.0``.
    """
    return 0.0 + _pairwise_sum(terms, 0, len(terms))


def _pairwise_sum(terms: list[float], start: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += terms[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = terms[start : start + 8]
        end = start + n - n % 8
        for i in range(start + 8, end, 8):
            r0 += terms[i]
            r1 += terms[i + 1]
            r2 += terms[i + 2]
            r3 += terms[i + 3]
            r4 += terms[i + 4]
            r5 += terms[i + 5]
            r6 += terms[i + 6]
            r7 += terms[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, start + n):
            total += terms[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(terms, start, half) + _pairwise_sum(
        terms, start + half, n - half
    )


def _round_in(value: float, is_integral: bool, up: bool) -> float:
    """Round a bound inward for integral columns (with tolerance)."""
    if not is_integral or not math.isfinite(value):
        return value
    return math.ceil(value - 1e-9) if up else math.floor(value + 1e-9)
