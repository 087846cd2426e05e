"""A compact mixed-integer programming modeling layer.

This subpackage is the mathematical-programming substrate of the
reproduction: no external modeling library (PuLP/Pyomo) is assumed.
It offers:

* an expression algebra (:mod:`repro.mip.expr`),
* constraints and models (:mod:`repro.mip.constraint`,
  :mod:`repro.mip.model`),
* two solver backends — HiGHS on the bindings SciPy vendors
  (:mod:`repro.mip.highs_backend`) and a pure-Python branch-and-bound
  solver (:mod:`repro.mip.bnb`),
* an LP-format writer (:mod:`repro.mip.writer`).

Quick example
-------------
>>> from repro.mip import Model, ObjectiveSense, solve
>>> m = Model()
>>> x = m.binary_var("x"); y = m.binary_var("y")
>>> _ = m.add_constr(x + y <= 1)
>>> m.set_objective(2 * x + 3 * y, ObjectiveSense.MAXIMIZE)
>>> solve(m).objective
3.0
"""

import math

from repro.exceptions import ValidationError
from repro.mip.constraint import Constraint, Sense
from repro.mip.expr import LinExpr, Variable, VarType, quicksum
from repro.mip.highs_backend import solve as solve_highs
from repro.mip.highs_backend import solve_relaxation
from repro.mip.model import (
    Model,
    ObjectiveSense,
    StandardForm,
    reset_standard_form_cache_stats,
    standard_form_cache_stats,
)
from repro.mip.solution import Solution, SolveStatus, relative_gap
from repro.mip.writer import write_lp, write_lp_file

__all__ = [
    "Model",
    "ObjectiveSense",
    "StandardForm",
    "Variable",
    "VarType",
    "LinExpr",
    "quicksum",
    "Constraint",
    "Sense",
    "Solution",
    "SolveStatus",
    "relative_gap",
    "check_time_limit",
    "solve",
    "solve_highs",
    "solve_bnb",
    "solve_relaxation",
    "standard_form_cache_stats",
    "reset_standard_form_cache_stats",
    "write_lp",
    "write_lp_file",
]


def check_time_limit(time_limit):
    """``time_limit`` as a float (``None`` stays ``None``); a negative or
    non-finite limit raises :class:`~repro.exceptions.ValidationError`."""
    if time_limit is None:
        return None
    value = float(time_limit)
    if not 0.0 <= value < math.inf:  # NaN fails both comparisons
        raise ValidationError(
            "time limit must be a non-negative finite number of seconds, "
            f"got {time_limit!r}"
        )
    return value


def solve(model, backend="highs", **kwargs):
    """Solve a model with the chosen backend.

    Parameters
    ----------
    model:
        The :class:`Model` to solve.
    backend:
        A name from the :mod:`repro.runtime.backends` registry —
        ``"highs"`` (default, HiGHS's exact branch-and-cut) or
        ``"bnb"`` (pure-Python branch-and-bound) — or any callable
        with the backend signature, e.g. a fault-injecting
        :class:`~repro.runtime.faults.FaultInjector`.  The backend runs
        once; its answer or its error is the caller's.
    **kwargs:
        Forwarded to the backend (``time_limit``, ``mip_gap``,
        ``node_limit``, and for ``bnb`` also ``branching`` /
        ``node_selection`` / ``warm_start``).  ``time_limit`` bounds
        this one solve, the only time bound there is; a negative or
        non-finite one raises :class:`~repro.exceptions.ValidationError`.
    """
    from repro.runtime.backends import get_backend

    if "time_limit" in kwargs:
        kwargs["time_limit"] = check_time_limit(kwargs["time_limit"])
    return get_backend(backend)(model, **kwargs)


def solve_bnb(model, **kwargs):
    """Solve with the pure-Python branch-and-bound backend."""
    from repro.mip.bnb import solve as _solve_bnb

    return _solve_bnb(model, **kwargs)
