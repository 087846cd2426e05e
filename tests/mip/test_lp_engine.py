"""Tests of the persistent LP session behind branch-and-bound.

:func:`scipy.optimize.linprog`, called inside the tests, is the spec the
session's answers are checked against.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog

from repro.mip import Model, ObjectiveSense, quicksum
from repro.mip import solve as solve_model
from repro.mip.bnb import BranchAndBoundSolver
from repro.mip.lp_engine import LPSession, reduced_cost_fixing
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.workloads import small_scenario


def linprog_relaxation(form, lb, ub):
    """The relaxation of ``form`` under ``lb <= x <= ub`` by ``linprog``."""
    eq = form.row_lb == form.row_ub
    upper = ~eq & np.isfinite(form.row_ub)
    lower = ~eq & np.isfinite(form.row_lb)
    return linprog(
        form.c,
        A_ub=sp.vstack([form.A[upper], -form.A[lower]]),
        b_ub=np.concatenate([form.row_ub[upper], -form.row_lb[lower]]),
        A_eq=form.A[eq] if eq.any() else None,
        b_eq=form.row_lb[eq] if eq.any() else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )


#: linprog status code -> LPResult status
LINPROG_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}

def simple_lp():
    """max x + 2y s.t. x + y <= 4, 0 <= x,y <= 3 (optimum 7 at (1, 3))."""
    m = Model()
    x = m.continuous_var("x", lb=0, ub=3)
    y = m.continuous_var("y", lb=0, ub=3)
    m.add_constr(x + y <= 4)
    m.set_objective(x + 2 * y, ObjectiveSense.MAXIMIZE)
    return m.to_standard_form()


def knapsack(n=6):
    m = Model()
    xs = [m.binary_var(f"x{i}") for i in range(n)]
    m.add_constr(quicksum((i + 2) * x for i, x in enumerate(xs)) <= n + 3)
    m.set_objective(
        quicksum((2 * i + 3) * x for i, x in enumerate(xs)),
        ObjectiveSense.MAXIMIZE,
    )
    return m


class TestHighspySession:
    """:class:`LPSession`, the one persistent HiGHS session (the class
    keeps its name so its test ids stay stable)."""

    def test_matches_scipy_on_lp(self):
        form = simple_lp()
        expected = linprog_relaxation(form, form.lb, form.ub)
        with LPSession(form) as session:
            result = session.solve(form.lb.copy(), form.ub.copy())
        assert result.status == LINPROG_STATUS[expected.status] == "optimal"
        assert result.internal_obj == pytest.approx(expected.fun)
        assert form.user_objective(result.x) == pytest.approx(7.0)

    def test_bound_update_changes_answer(self):
        form = simple_lp()
        ub = form.ub.copy()
        ub[1] = 1.0  # y <= 1
        with LPSession(form) as session:
            session.solve(form.lb.copy(), form.ub.copy())
            result = session.solve(form.lb.copy(), ub)
        assert result.internal_obj == pytest.approx(
            linprog_relaxation(form, form.lb, ub).fun
        )
        assert form.user_objective(result.x) == pytest.approx(5.0)

    def test_reduced_costs_match_linprog(self):
        """The session's reduced costs are linprog's bound marginals."""
        form = knapsack().to_standard_form()
        expected = linprog_relaxation(form, form.lb, form.ub)
        with LPSession(form) as session:
            result = session.solve(form.lb.copy(), form.ub.copy())
        assert result.reduced_costs.shape == (form.num_vars,)
        assert result.reduced_costs == pytest.approx(
            expected.lower.marginals + expected.upper.marginals, abs=1e-9
        )

    def test_basis_hot_start(self):
        form = simple_lp()
        registry = MetricsRegistry()
        with use_registry(registry), LPSession(form) as session:
            root = session.solve(form.lb.copy(), form.ub.copy())
            assert root.basis is not None and not root.hot
            ub = form.ub.copy()
            ub[1] = 1.0
            child = session.solve(form.lb.copy(), ub, basis=root.basis)
        assert child.hot
        assert form.user_objective(child.x) == pytest.approx(5.0)
        assert registry.counter("solver.lp_hot_starts") == 1
        assert registry.counter("solver.lp_cold_starts") == 1

    def test_detects_infeasible(self):
        form = simple_lp()
        lb = form.lb.copy()
        lb[:] = 3.0  # x = y = 3 violates x + y <= 4
        assert linprog_relaxation(form, lb, form.ub).status == 2
        with LPSession(form) as session:
            result = session.solve(lb, form.ub.copy())
        assert result.status == "infeasible"
        assert result.internal_obj == math.inf

    def test_differential_bound_sweep(self):
        """The session agrees with linprog across many bound updates."""
        form = knapsack().to_standard_form()
        with LPSession(form) as session:
            basis = None
            for j in range(form.num_vars):
                lb = form.lb.copy()
                ub = form.ub.copy()
                lb[j] = ub[j] = float(j % 2)  # fix one binary per step
                expected = linprog_relaxation(form, lb, ub)
                result = session.solve(lb, ub, basis=basis)
                basis = result.basis or basis
                assert result.status == LINPROG_STATUS[expected.status]
                if result.status == "optimal":
                    assert result.internal_obj == pytest.approx(
                        expected.fun, abs=1e-7
                    )

    def test_bnb_node_lps_agree_with_linprog(self, monkeypatch):
        """Every node LP of a bnb solve is linprog's relaxation, and the
        search proves HiGHS's MILP optimum."""
        model = knapsack(7)
        calls = []
        solve = LPSession.solve

        def recording(session, lb, ub, basis=None):
            result = solve(session, lb, ub, basis)
            calls.append((session.form, lb.copy(), ub.copy(), result))
            return result

        monkeypatch.setattr(LPSession, "solve", recording)
        result = BranchAndBoundSolver().solve(model)
        assert len(calls) > 1
        for form, lb, ub, outcome in calls:
            expected = linprog_relaxation(form, lb, ub)
            assert outcome.status == LINPROG_STATUS[expected.status]
            if outcome.status == "optimal":
                assert outcome.internal_obj == pytest.approx(expected.fun, abs=1e-7)
        reference = solve_model(model, backend="highs")
        assert result.status == reference.status
        assert result.objective == pytest.approx(reference.objective)


class TestReducedCostFixing:
    def test_fixes_provably_bad_columns(self):
        """With a zero gap every nonbasic column with |rc| > 0 is fixed."""
        form = knapsack().to_standard_form()
        root = LPSession(form).solve(form.lb.copy(), form.ub.copy())
        lb = form.lb.copy()
        ub = form.ub.copy()
        fixed = reduced_cost_fixing(form, lb, ub, root, root.internal_obj)
        assert fixed >= 0
        # fixing is recorded by collapsing lb == ub
        assert int(np.count_nonzero(lb == ub)) >= fixed

    def test_noop_without_incumbent(self):
        form = knapsack().to_standard_form()
        root = LPSession(form).solve(form.lb.copy(), form.ub.copy())
        lb, ub = form.lb.copy(), form.ub.copy()
        assert reduced_cost_fixing(form, lb, ub, root, math.inf) == 0
        assert np.array_equal(ub, form.ub)

    def test_noop_on_infeasible_root(self):
        form = knapsack().to_standard_form()
        bad = LPSession(form).solve(form.lb.copy() + 10, form.ub.copy())
        lb, ub = form.lb.copy(), form.ub.copy()
        assert reduced_cost_fixing(form, lb, ub, bad, 0.0) == 0

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_never_changes_optimum(self, n):
        model = knapsack(n)
        with_fix = BranchAndBoundSolver(rc_fixing=True).solve(model)
        without = BranchAndBoundSolver(rc_fixing=False).solve(model)
        assert with_fix.status == without.status
        assert with_fix.objective == pytest.approx(without.objective)


class TestNodeCacheParity:
    def test_same_tree_with_and_without_cache(self):
        model = knapsack(7)
        cached = BranchAndBoundSolver(node_lp_cache=True).solve(model)
        uncached = BranchAndBoundSolver(node_lp_cache=False).solve(model)
        assert cached.objective == pytest.approx(uncached.objective)
        assert cached.node_count == uncached.node_count
        assert cached.status == uncached.status


@pytest.fixture(scope="module")
def csigma_gate_model():
    """The fixed cSigma instance of the engine gates (seed 0, 6 requests)."""
    scenario = small_scenario(0, num_requests=6).with_flexibility(1.0)
    model = CSigmaModel(
        scenario.substrate,
        scenario.requests,
        fixed_mappings=scenario.node_mappings,
        options=ModelOptions(),
    ).model
    reference = solve_model(model, backend="highs")
    return model, reference.objective


class TestEngineGates:
    def test_deterministic_and_agrees_with_highs_backend(self, csigma_gate_model):
        model, reference_objective = csigma_gate_model
        runs = []
        for _ in range(2):
            registry = MetricsRegistry()
            with use_registry(registry):
                result = BranchAndBoundSolver().solve(model)
            lp_solves = registry.counter("solver.lp_hot_starts") + registry.counter(
                "solver.lp_cold_starts"
            )
            runs.append(
                (result.status, result.objective, result.node_count, lp_solves)
            )
        assert runs[0] == runs[1]
        assert runs[0][1] == pytest.approx(reference_objective, rel=1e-9, abs=1e-6)
