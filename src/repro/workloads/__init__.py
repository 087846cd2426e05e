"""Synthetic workload generation (the paper's Sec. VI-A methodology)."""

from repro.workloads.arrival import poisson_arrivals
from repro.workloads.duration import paper_durations, weibull_durations, weibull_mean
from repro.workloads.scenario import (
    PAPER_FLEXIBILITIES,
    Scenario,
    paper_scenario,
    small_scenario,
    wan_scenario,
)

__all__ = [
    "poisson_arrivals",
    "weibull_durations",
    "paper_durations",
    "weibull_mean",
    "Scenario",
    "paper_scenario",
    "small_scenario",
    "wan_scenario",
    "PAPER_FLEXIBILITIES",
]
