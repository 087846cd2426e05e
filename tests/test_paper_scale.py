"""Integration tests at the paper's original scale (Sec. VI-A).

These run the full 20-request, 4x5-grid workload.  On this machine the
cSigma-Model proves optimality in seconds (the paper's 2014 setup
needed up to an hour); generous limits keep the test robust on slower
hardware.
"""

from __future__ import annotations

import pytest

from repro.tvnep import CSigmaModel, greedy_csigma, verify_solution
from repro.workloads import paper_scenario

TIME_LIMIT = 180.0


@pytest.fixture(scope="module")
def scenario():
    return paper_scenario(0).with_flexibility(1.0)


class TestPaperScale:
    def test_model_sizes_reflect_compactification(self, scenario):
        from repro.tvnep import DeltaModel, SigmaModel

        csigma = CSigmaModel(
            scenario.substrate, scenario.requests, fixed_mappings=scenario.node_mappings
        ).stats()
        sigma = SigmaModel(
            scenario.substrate, scenario.requests, fixed_mappings=scenario.node_mappings
        ).stats()
        delta = DeltaModel(
            scenario.substrate, scenario.requests, fixed_mappings=scenario.node_mappings
        ).stats()
        # |R|+1 vs 2|R| events: far fewer binaries in the compact model
        assert csigma["binary"] < sigma["binary"] / 3
        assert csigma["binary"] < delta["binary"] / 3
        # the Delta-Model's big-M pairs dominate its constraint count
        assert delta["constraints"] > 10 * csigma["constraints"]

    def test_csigma_solves_and_verifies(self, scenario):
        model = CSigmaModel(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
        )
        solution = model.solve(time_limit=TIME_LIMIT)
        assert solution.has_solution if hasattr(solution, "has_solution") else True
        assert solution.num_embedded >= 10  # substantial acceptance
        report = verify_solution(solution)
        assert report.feasible, report.violations[:3]

    def test_greedy_tracks_optimum(self, scenario):
        exact = CSigmaModel(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
        ).solve(time_limit=TIME_LIMIT)
        greedy = greedy_csigma(
            scenario.substrate,
            scenario.requests,
            scenario.node_mappings,
        )
        assert verify_solution(greedy.solution).feasible
        assert greedy.solution.objective <= exact.objective + 1e-5
        if exact.gap <= 1e-6:
            # the paper's Figure 7: greedy within ~10% of the optimum
            shortfall = (exact.objective - greedy.solution.objective) / exact.objective
            assert shortfall < 0.25
