"""Figure 7 — greedy cSigma^G_A versus the exact cSigma optimum.

The paper reports the greedy heuristic settling around 5 % below the
optimum (10 % at low flexibility), at ~0.1 s per iteration of its
per-request MIP.  The greedy here decides each request by path-first
admission instead (same decisions, no MILP).  The benchmark times the
full greedy run and records its relative shortfall against the exact
solve of the same cell.
"""

from __future__ import annotations

import pytest

from repro.evaluation import relative_performance, run_exact, run_greedy
from repro.tvnep import verify_solution


@pytest.mark.parametrize("flexibility", [0.0, 1.0, 2.0], ids=lambda f: f"flex{f:g}")
def test_greedy_quality(benchmark, flexibility, base_scenario, bench_config):
    scenario = base_scenario.with_flexibility(flexibility)
    exact_record, _ = run_exact(
        scenario, algorithm="csigma", time_limit=bench_config.time_limit
    )

    def run():
        record, solution = run_greedy(scenario)
        return record, solution

    record, solution = benchmark.pedantic(run, rounds=1, iterations=1)
    assert verify_solution(solution).feasible
    shortfall = relative_performance(record.objective, exact_record.objective)
    # the greedy may never beat a proven optimum
    if exact_record.proved_optimal:
        assert shortfall >= -1e-6
    benchmark.extra_info["greedy_objective"] = record.objective
    benchmark.extra_info["exact_objective"] = exact_record.objective
    benchmark.extra_info["shortfall"] = round(shortfall, 4)
    benchmark.extra_info["embedded"] = record.num_embedded
