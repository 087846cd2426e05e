"""The Temporal VNet Embedding Problem: models, cuts, greedy, verifier.

Public entry points:

* :class:`DeltaModel`, :class:`SigmaModel`, :class:`CSigmaModel` — the
  paper's three continuous-time MIP formulations (Secs. III-IV).
* :class:`ModelOptions` — formulation switches (cuts, reductions).
* :mod:`repro.tvnep.objectives` — the four objective functions of
  Sec. IV-E plus a makespan extension.
* :func:`greedy_csigma` — Algorithm cSigma^G_A (Sec. V), by path-first
  admission; :func:`hybrid_heavy_hitters` runs the same loop after an
  exact phase (Sec. VIII).
* :func:`verify_solution` — the independent Definition-2.1 checker.
"""

from repro.tvnep.base import ActivityStatus, ModelOptions, TemporalModelBase
from repro.tvnep.csigma_model import CSigmaModel
from repro.tvnep.delta_model import DeltaModel
from repro.tvnep.feasibility import (
    FeasibilityReport,
    check_unit_flow,
    verify_solution,
)
from repro.tvnep.discrete_model import DiscreteTimeModel
from repro.tvnep.fixed_schedule import (
    FixedPlacement,
    FixedScheduleResult,
    solve_fixed_schedule,
)
from repro.tvnep.greedy import GreedyResult, greedy_csigma, greedy_enumerative
from repro.tvnep.hybrid import HybridResult, hybrid_heavy_hitters
from repro.tvnep.rerouting import ReroutingCSigmaModel, ReroutingSchedule
from repro.tvnep.objectives import (
    OBJECTIVES,
    set_access_control,
    set_balance_node_load,
    set_disable_links,
    set_max_earliness,
    set_min_makespan,
)
from repro.tvnep.sigma_model import SigmaModel
from repro.tvnep.solution import ScheduledRequest, TemporalSolution

__all__ = [
    "TemporalModelBase",
    "ModelOptions",
    "ActivityStatus",
    "DeltaModel",
    "SigmaModel",
    "CSigmaModel",
    "TemporalSolution",
    "ScheduledRequest",
    "greedy_csigma",
    "greedy_enumerative",
    "GreedyResult",
    "HybridResult",
    "hybrid_heavy_hitters",
    "DiscreteTimeModel",
    "FixedPlacement",
    "FixedScheduleResult",
    "solve_fixed_schedule",
    "ReroutingCSigmaModel",
    "ReroutingSchedule",
    "verify_solution",
    "check_unit_flow",
    "FeasibilityReport",
    "OBJECTIVES",
    "set_access_control",
    "set_max_earliness",
    "set_balance_node_load",
    "set_disable_links",
    "set_min_makespan",
]
