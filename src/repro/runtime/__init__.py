"""Solve orchestration.

Every solve routes through this package (via :func:`repro.mip.solve`
and the backend registry):

* the backend registry — named backends the whole stack resolves at
  solve time, making wrappers and fault injection transparent
  (:mod:`repro.runtime.backends`);
* :class:`FaultInjector` — a deterministic fault-injection harness used
  by the tests to prove that a failed solve surfaces as the cell's own
  failure and the sweep runner continues (:mod:`repro.runtime.faults`);
* the parallel sweep engine — in-process or process-pool execution of
  evaluation cells, yielding each cell's result as it finishes so the
  caller persists it at once; results are serial-identical
  (:mod:`repro.runtime.parallel`).

The only time bound is the per-solve ``time_limit`` each caller passes
(the CLI's ``--time-limit``, ``EvaluationConfig.time_limit``, the
hybrid's ``exact_time_limit``); there is no sweep-wide clock.

Diagnostics are emitted on the ``repro.runtime`` logger.
"""

from repro.runtime.backends import (
    Backend,
    backend_names,
    get_backend,
    override_backend,
    register_backend,
)
from repro.runtime.faults import FaultInjector, FaultMode, inject_faults
from repro.runtime.parallel import (
    CellResult,
    SweepCell,
    canonical_record,
    canonical_records,
    execute_cells,
)

__all__ = [
    "SweepCell",
    "CellResult",
    "execute_cells",
    "canonical_record",
    "canonical_records",
    "Backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "override_backend",
    "FaultInjector",
    "FaultMode",
    "inject_faults",
]
