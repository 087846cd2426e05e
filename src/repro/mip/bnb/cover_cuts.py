"""Knapsack cover cuts for the branch-and-bound solver.

For a row ``sum_j a_j x_j <= b`` over binary columns with ``a_j > 0``,
a *cover* is a subset ``C`` with ``sum_{j in C} a_j > b``; every
integral solution then satisfies ``sum_{j in C} x_j <= |C| - 1``.
Separation is the classic greedy: order the candidates by fractional
value and pack until the capacity is exceeded, emit the cut if the
fractional point violates it.

Rows mixing in continuous columns or negative coefficients are handled
conservatively: negative binary coefficients are complemented
(``x -> 1 - x``), and rows with continuous columns participate only
through the *guaranteed* part of their activity (the continuous
columns' minimal contribution tightens the right-hand side).  Cuts are
separated at the root and appended to the standard form before the
search starts (cut-and-branch); each round yields a new form, which the
solver loads into a fresh LP session.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import scipy.sparse as sp

from repro.mip.model import StandardForm

__all__ = ["separate_cover_cuts", "extend_form_with_cuts"]

_VIOLATION_TOL = 1e-4


def separate_cover_cuts(
    form: StandardForm,
    x: np.ndarray,
    max_cuts: int = 50,
) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """Find cover cuts violated by the fractional point ``x``.

    Returns a list of ``(columns, coefficients, rhs)`` triples encoding
    rows ``coefficients @ x[columns] <= rhs`` (coefficients are +-1:
    complemented binaries enter with -1 and shift the rhs).
    """
    integral = form.integrality.astype(bool)
    A = form.A.tocsr()
    indptr, indices, data = A.indptr, A.indices, A.data
    cuts: list[tuple[np.ndarray, np.ndarray, float]] = []

    for row in range(A.shape[0]):
        if len(cuts) >= max_cuts:
            break
        b = form.row_ub[row]
        if not math.isfinite(b):
            continue
        start, end = indptr[row], indptr[row + 1]
        cols = indices[start:end]
        coefs = data[start:end]
        if cols.size < 2:
            continue

        # split into binary and other columns
        is_binary = integral[cols] & (form.lb[cols] >= -1e-9) & (form.ub[cols] <= 1 + 1e-9)
        other = ~is_binary
        if is_binary.sum() < 2:
            continue
        # guaranteed activity of the non-binary part tightens b
        if other.any():
            oc = coefs[other]
            olb = form.lb[cols[other]]
            oub = form.ub[cols[other]]
            min_contrib = np.where(oc > 0, oc * olb, oc * oub).sum()
            if not math.isfinite(min_contrib):
                continue
            b = b - min_contrib

        bc = cols[is_binary]
        ba = coefs[is_binary].astype(float)
        bx = x[bc].astype(float)
        # complement negatives: a*x = a - a*(1-x); y = 1-x has coef -a > 0
        complemented = ba < 0
        if complemented.any():
            b = b - ba[complemented].sum()
            ba = np.abs(ba)
            bx = np.where(complemented, 1.0 - bx, bx)
        if b <= 0 or ba.sum() <= b + 1e-9:
            continue  # no cover exists / row never binding

        # greedy cover: most fractional-active first
        order = np.argsort(-bx)
        weight = 0.0
        chosen: list[int] = []
        for idx in order:
            chosen.append(int(idx))
            weight += ba[idx]
            if weight > b + 1e-9:
                break
        else:
            continue  # never exceeded b (numerical)
        cover = np.array(chosen, dtype=np.int64)
        # violation check: sum x_C > |C| - 1 ?
        lhs = bx[cover].sum()
        rhs = len(cover) - 1
        if lhs <= rhs + _VIOLATION_TOL:
            continue

        # express in original variables: complemented members contribute
        # (1 - x): sum_{C+} x + sum_{C-} (1 - x) <= |C| - 1
        cut_cols = bc[cover]
        signs = np.where(complemented[cover], -1.0, 1.0)
        shift = int(complemented[cover].sum())
        cut_rhs = float(rhs - shift)
        cuts.append((cut_cols, signs, cut_rhs))
    return cuts


def extend_form_with_cuts(
    form: StandardForm,
    cuts: list[tuple[np.ndarray, np.ndarray, float]],
) -> StandardForm:
    """A new standard form with the cut rows appended (columns unchanged)."""
    if not cuts:
        return form
    rows = np.repeat(np.arange(len(cuts)), [len(cols) for cols, _, _ in cuts])
    cut_matrix = sp.csr_matrix(
        (
            np.concatenate([signs for _, signs, _ in cuts]).astype(np.float64),
            (rows, np.concatenate([cols for cols, _, _ in cuts])),
        ),
        shape=(len(cuts), form.num_vars),
    )
    return dataclasses.replace(
        form,
        A=sp.vstack([form.A, cut_matrix], format="csr"),
        row_lb=np.concatenate([form.row_lb, np.full(len(cuts), -np.inf)]),
        row_ub=np.concatenate([form.row_ub, [rhs for _, _, rhs in cuts]]),
        constraint_names=form.constraint_names
        + [f"cover{i}" for i in range(len(cuts))],
    )
