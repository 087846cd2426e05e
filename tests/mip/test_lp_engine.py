"""Tests of the incremental LP engine behind branch-and-bound."""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.mip.lp_engine as lp_engine
from repro.mip import Model, ObjectiveSense, quicksum
from repro.mip import solve as solve_model
from repro.mip.bnb import BranchAndBoundSolver
from repro.mip.lp_engine import (
    HAVE_HIGHS_BINDINGS,
    HighspySession,
    ScipySession,
    make_session,
    reduced_cost_fixing,
)
from repro.observability.metrics import MetricsRegistry, use_registry
from repro.tvnep.base import ModelOptions
from repro.tvnep.csigma_model import CSigmaModel
from repro.workloads import small_scenario

needs_highs = pytest.mark.skipif(
    not HAVE_HIGHS_BINDINGS, reason="no usable HiGHS bindings"
)


def pick_engine(monkeypatch, engine):
    """Make :func:`make_session` load ``engine`` for the rest of the test.

    ``"scipy"`` hides the HiGHS bindings, ``"highs"`` requires them and
    ``"auto"`` leaves the platform's choice alone.
    """
    if engine == "scipy":
        monkeypatch.setattr(lp_engine, "HAVE_HIGHS_BINDINGS", False)
    elif engine == "highs":
        if not HAVE_HIGHS_BINDINGS:
            pytest.skip("no usable HiGHS bindings")
        monkeypatch.setattr(lp_engine, "HAVE_HIGHS_BINDINGS", True)


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


class TestScipySession:
    def test_solves_and_reuses_buffer(self):
        form = simple_lp()
        session = ScipySession(form)
        buffer = session._bounds
        first = session.solve(form.lb.copy(), form.ub.copy())
        second = session.solve(form.lb.copy(), form.ub.copy())
        assert first.status == "optimal"
        assert form.user_objective(first.x) == pytest.approx(7.0)
        assert second.internal_obj == pytest.approx(first.internal_obj)
        # the (n, 2) bounds array is allocated once, not per solve
        assert session._bounds is buffer

    def test_bound_update_changes_answer(self):
        form = simple_lp()
        session = ScipySession(form)
        ub = form.ub.copy()
        ub[1] = 1.0  # y <= 1
        result = session.solve(form.lb.copy(), ub)
        assert form.user_objective(result.x) == pytest.approx(5.0)

    def test_detects_infeasible(self):
        form = simple_lp()
        lb = form.lb.copy()
        lb[:] = 3.0  # x = y = 3 violates x + y <= 4
        result = ScipySession(form).solve(lb, form.ub.copy())
        assert result.status == "infeasible"
        assert result.internal_obj == math.inf

    def test_reports_reduced_costs(self):
        form = simple_lp()
        result = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        assert result.reduced_costs is not None
        assert result.reduced_costs.shape == (form.num_vars,)

    def test_counts_cold_starts(self):
        form = simple_lp()
        registry = MetricsRegistry()
        with use_registry(registry):
            session = ScipySession(form)
            session.solve(form.lb.copy(), form.ub.copy())
            session.solve(form.lb.copy(), form.ub.copy(), basis=object())
        # linprog has no basis interface: everything is a cold start
        assert registry.counter("solver.lp_cold_starts") == 2
        assert registry.counter("solver.lp_hot_starts") == 0


@needs_highs
class TestHighspySession:
    def test_matches_scipy_on_lp(self):
        form = simple_lp()
        scipy_res = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        with HighspySession(form) as session:
            highs_res = session.solve(form.lb.copy(), form.ub.copy())
        assert highs_res.status == scipy_res.status
        assert highs_res.internal_obj == pytest.approx(scipy_res.internal_obj)

    def test_basis_hot_start(self):
        form = simple_lp()
        registry = MetricsRegistry()
        with use_registry(registry), HighspySession(form) as session:
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
        lb[:] = 3.0
        with HighspySession(form) as session:
            result = session.solve(lb, form.ub.copy())
        assert result.status == "infeasible"

    def test_differential_bound_sweep(self):
        """Scipy and HiGHS sessions agree across many bound updates."""
        form = knapsack().to_standard_form()
        scipy_session = ScipySession(form)
        with HighspySession(form) as highs_session:
            basis = None
            for j in range(form.num_vars):
                lb = form.lb.copy()
                ub = form.ub.copy()
                lb[j] = ub[j] = float(j % 2)  # fix one binary per step
                a = scipy_session.solve(lb, ub)
                b = highs_session.solve(lb, ub, basis=basis)
                basis = b.basis or basis
                assert a.status == b.status
                if a.status == "optimal":
                    assert a.internal_obj == pytest.approx(
                        b.internal_obj, abs=1e-7
                    )


class TestMakeSession:
    def test_platform_picks_the_engine(self, monkeypatch):
        expected = HighspySession if HAVE_HIGHS_BINDINGS else ScipySession
        with make_session(simple_lp()) as session:
            assert type(session) is expected
        monkeypatch.setattr(lp_engine, "HAVE_HIGHS_BINDINGS", False)
        with make_session(simple_lp()) as session:
            assert type(session) is ScipySession


class TestReducedCostFixing:
    def test_fixes_provably_bad_columns(self):
        """With a zero gap every nonbasic column with |rc| > 0 is fixed."""
        form = knapsack().to_standard_form()
        root = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        lb = form.lb.copy()
        ub = form.ub.copy()
        fixed = reduced_cost_fixing(form, lb, ub, root, root.internal_obj)
        assert fixed >= 0
        # fixing is recorded by collapsing lb == ub
        assert int(np.count_nonzero(lb == ub)) >= fixed

    def test_noop_without_incumbent(self):
        form = knapsack().to_standard_form()
        root = ScipySession(form).solve(form.lb.copy(), form.ub.copy())
        lb, ub = form.lb.copy(), form.ub.copy()
        assert reduced_cost_fixing(form, lb, ub, root, math.inf) == 0
        assert np.array_equal(ub, form.ub)

    def test_noop_on_infeasible_root(self):
        form = knapsack().to_standard_form()
        bad = ScipySession(form).solve(form.lb.copy() + 10, form.ub.copy())
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
    @pytest.mark.parametrize("engine", ["scipy", "auto"])
    def test_same_tree_with_and_without_cache(self, engine, monkeypatch):
        pick_engine(monkeypatch, engine)
        model = knapsack(7)
        cached = BranchAndBoundSolver(node_lp_cache=True).solve(model)
        uncached = BranchAndBoundSolver(node_lp_cache=False).solve(model)
        assert cached.objective == pytest.approx(uncached.objective)
        assert cached.node_count == uncached.node_count
        assert cached.status == uncached.status

    @needs_highs
    def test_engines_agree_on_milp(self, monkeypatch):
        model = knapsack(7)
        pick_engine(monkeypatch, "highs")
        highs_res = BranchAndBoundSolver().solve(model)
        pick_engine(monkeypatch, "scipy")
        scipy_res = BranchAndBoundSolver().solve(model)
        assert scipy_res.objective == pytest.approx(highs_res.objective)
        assert scipy_res.status == highs_res.status


class TestCutAndBranch:
    def test_cut_rounds_reopen_the_session(self):
        """max x1+x2+x3 s.t. 2x1+2x2+2x3 <= 5 over binaries.

        The LP optimum (1, 1, 0.5) violates the cover cut
        ``x1 + x2 + x3 <= 2``; the cut round reloads the strengthened
        form into a fresh session and the search proves 2.0.
        """
        m = Model()
        xs = [m.binary_var(f"x{i}") for i in range(3)]
        m.add_constr(quicksum(2 * x for x in xs) <= 5)
        m.set_objective(quicksum(xs), ObjectiveSense.MAXIMIZE)
        registry = MetricsRegistry()
        with use_registry(registry):
            solver = BranchAndBoundSolver(cover_cuts=True)
            result = solver.solve(m)
        assert result.objective == pytest.approx(2.0)
        assert registry.counter("solver.cuts_added") >= 1


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
    @pytest.mark.parametrize("engine", ["scipy", "highs"])
    def test_deterministic_and_agrees_with_highs_backend(
        self, engine, monkeypatch, csigma_gate_model
    ):
        pick_engine(monkeypatch, engine)
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
