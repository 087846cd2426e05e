"""Warm-start assignments: coercion and feasibility validation.

A *warm start* is a caller-supplied assignment believed to be feasible
— typically the previous accepted schedule of an incremental algorithm
that re-solves a nearly identical model per step.  The branch-and-bound solver uses a valid
warm start as its initial incumbent: the search then starts with an
objective cutoff instead of cold, never returns anything worse, and
prunes at least as much.

The contract is *validate, never trust*: an assignment that violates
bounds, integrality or any constraint row of the compiled
:class:`~repro.mip.model.StandardForm` is rejected (the caller's solve
silently proceeds cold), so a stale or mis-mapped warm start can cost
time but never correctness.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.mip.model import StandardForm

__all__ = ["coerce_assignment", "validate_assignment"]

#: absolute feasibility tolerance for bound/row checks
FEAS_TOL = 1e-6
#: how far from an integer an integral entry may be before snapping fails
INT_TOL = 1e-5


def coerce_assignment(form: StandardForm, warm_start) -> np.ndarray | None:
    """Turn a user-facing warm start into a full assignment vector.

    Accepts a mapping (``Variable`` or variable-name keys) or a
    sequence/array of length ``num_vars``.  Variables missing from a
    mapping default to ``0`` clamped into their bounds — validation
    decides whether the completed vector is actually feasible.  Returns
    ``None`` when the input cannot be interpreted at all (wrong length,
    unknown names, non-numeric values).
    """
    n = form.num_vars
    if isinstance(warm_start, Mapping):
        x = np.clip(np.zeros(n), form.lb, form.ub)
        by_name = None
        for key, value in warm_start.items():
            if isinstance(key, str):
                if by_name is None:
                    by_name = {v.name: i for i, v in enumerate(form.variables)}
                idx = by_name.get(key)
                if idx is None:
                    return None
            else:
                idx = getattr(key, "index", None)
                if (
                    idx is None
                    or not 0 <= idx < n
                    or form.variables[idx] is not key
                ):
                    return None
            try:
                x[idx] = float(value)
            except (TypeError, ValueError):
                return None
        return x
    if isinstance(warm_start, (Sequence, np.ndarray)):
        try:
            x = np.asarray(warm_start, dtype=np.float64)
        except (TypeError, ValueError):
            return None
        if x.shape != (n,) or not np.all(np.isfinite(x)):
            return None
        return x.copy()
    return None


def validate_assignment(
    form: StandardForm,
    x: np.ndarray,
    feas_tol: float = FEAS_TOL,
    int_tol: float = INT_TOL,
) -> str | None:
    """Check (and in-place snap) an assignment against a compiled form.

    Integral entries within ``int_tol`` of an integer are snapped to it
    (solver values carry float fuzz).  Returns ``None`` when ``x`` is
    feasible, otherwise a human-readable reason for the rejection.
    """
    integral = form.integrality.astype(bool)
    if integral.any():
        snapped = np.round(x[integral])
        if np.max(np.abs(x[integral] - snapped), initial=0.0) > int_tol:
            worst = int(np.argmax(np.abs(x[integral] - snapped)))
            name = form.variables[np.flatnonzero(integral)[worst]].name
            return f"fractional value for integral variable {name!r}"
        x[integral] = snapped

    below = x < form.lb - feas_tol
    above = x > form.ub + feas_tol
    if below.any() or above.any():
        idx = int(np.flatnonzero(below | above)[0])
        return (
            f"variable {form.variables[idx].name!r} = {x[idx]} outside "
            f"[{form.lb[idx]}, {form.ub[idx]}]"
        )
    # snapping/rounding may leave values a hair outside tight bounds
    np.clip(x, form.lb, form.ub, out=x)

    if form.num_constraints:
        row_vals = form.A @ x
        scale = np.maximum(
            1.0,
            np.maximum(
                np.abs(np.where(np.isfinite(form.row_lb), form.row_lb, 0.0)),
                np.abs(np.where(np.isfinite(form.row_ub), form.row_ub, 0.0)),
            ),
        )
        tol = feas_tol * scale
        low = row_vals < form.row_lb - tol
        high = row_vals > form.row_ub + tol
        if low.any() or high.any():
            i = int(np.flatnonzero(low | high)[0])
            name = form.constraint_names[i] or f"row {i}"
            return (
                f"constraint {name!r} violated: {row_vals[i]} not in "
                f"[{form.row_lb[i]}, {form.row_ub[i]}]"
            )
    return None
