"""Tests of the pure-Python branch-and-bound solver.

The central property: on any MILP both backends must agree on the
optimal objective (hypothesis generates random knapsack/covering
instances).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mip import Model, ObjectiveSense, SolveStatus, quicksum, solve_bnb, solve_highs
from repro.mip.bnb import (
    BestBoundSelection,
    BranchAndBoundSolver,
    BranchNode,
    DepthFirstSelection,
    HybridSelection,
    MostFractionalBranching,
    PseudoCostBranching,
    make_branching_rule,
    make_node_selection,
)
from repro.mip.bnb.branching import fractional_columns


def knapsack(weights, profits, capacity):
    m = Model("knap")
    xs = [m.binary_var(f"x{i}") for i in range(len(weights))]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.set_objective(
        quicksum(p * x for p, x in zip(profits, xs)), ObjectiveSense.MAXIMIZE
    )
    return m


class TestSolverBasics:
    def test_knapsack(self):
        m = knapsack([2, 3, 4, 5], [3, 4, 5, 6], 5)
        sol = solve_bnb(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0)

    def test_pure_lp(self):
        m = Model()
        x = m.continuous_var("x", ub=2)
        m.set_objective(x, ObjectiveSense.MAXIMIZE)
        sol = solve_bnb(m)
        assert sol.objective == pytest.approx(2.0)
        assert sol.node_count == 1

    def test_infeasible(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 0.4)
        m.add_constr(x <= 0.6)
        sol = solve_bnb(m)
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        m = Model()
        x = m.continuous_var("x")
        m.set_objective(x, ObjectiveSense.MAXIMIZE)
        sol = solve_bnb(m)
        assert sol.status is SolveStatus.UNBOUNDED

    def test_node_limit_gives_feasible_or_nothing(self):
        m = knapsack(list(range(1, 15)), list(range(2, 16)), 20)
        sol = solve_bnb(m, node_limit=2)
        assert sol.status in (
            SolveStatus.FEASIBLE,
            SolveStatus.OPTIMAL,
            SolveStatus.NO_SOLUTION,
        )

    def test_integer_variables(self):
        m = Model()
        x = m.integer_var("x", lb=0, ub=9)
        y = m.integer_var("y", lb=0, ub=9)
        m.add_constr(3 * x + 5 * y <= 19)
        m.set_objective(2 * x + 3 * y, ObjectiveSense.MAXIMIZE)
        highs = solve_highs(m)
        bnb = solve_bnb(m)
        assert bnb.objective == pytest.approx(highs.objective)

    @pytest.mark.parametrize("branching", ["most_fractional", "pseudocost"])
    @pytest.mark.parametrize("selection", ["best_bound", "dfs", "hybrid"])
    def test_all_strategy_combinations(self, branching, selection):
        m = knapsack([2, 3, 4, 5, 7], [3, 4, 5, 6, 9], 9)
        sol = solve_bnb(m, branching=branching, node_selection=selection)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(12.0)


class TestFactories:
    def test_make_branching_rule(self):
        assert isinstance(make_branching_rule("most_fractional"), MostFractionalBranching)
        assert isinstance(make_branching_rule("pseudocost"), PseudoCostBranching)
        with pytest.raises(ValueError):
            make_branching_rule("nope")

    def test_make_node_selection(self):
        assert isinstance(make_node_selection("best_bound"), BestBoundSelection)
        assert isinstance(make_node_selection("dfs"), DepthFirstSelection)
        assert isinstance(make_node_selection("hybrid"), HybridSelection)
        with pytest.raises(ValueError):
            make_node_selection("nope")


class TestBranchingRules:
    def test_fractional_columns(self):
        x = np.array([0.0, 0.5, 1.0, 0.3])
        integrality = np.array([1, 1, 1, 0], dtype=np.uint8)
        assert list(fractional_columns(x, integrality)) == [1]

    def test_most_fractional_picks_half(self):
        rule = MostFractionalBranching()
        x = np.array([0.9, 0.5, 0.2])
        integrality = np.ones(3, dtype=np.uint8)
        assert rule.select(x, integrality) == 1

    def test_no_fractional_raises(self):
        rule = MostFractionalBranching()
        with pytest.raises(ValueError):
            rule.select(np.array([0.0, 1.0]), np.ones(2, dtype=np.uint8))

    def test_pseudocost_uses_history(self):
        rule = PseudoCostBranching()
        # column 1 historically causes big degradation both ways
        for _ in range(3):
            rule.observe(1, "down", 0.0, 10.0)
            rule.observe(1, "up", 0.0, 10.0)
            rule.observe(0, "down", 0.0, 0.01)
            rule.observe(0, "up", 0.0, 0.01)
        x = np.array([0.5, 0.5])
        integrality = np.ones(2, dtype=np.uint8)
        assert rule.select(x, integrality) == 1

    def test_pseudocost_infeasible_child_recorded(self):
        rule = PseudoCostBranching()
        rule.observe(0, "down", 1.0, math.inf)
        assert rule._count[(0, "down")] == 1


class TestNodeSelection:
    def _node(self, bound):
        node = BranchNode(lp_bound=bound)
        return node

    def test_best_bound_order(self):
        sel = BestBoundSelection()
        for b in (3.0, 1.0, 2.0):
            sel.push(self._node(b))
        assert sel.pop().lp_bound == 1.0
        assert sel.best_bound() == 2.0

    def test_dfs_order(self):
        sel = DepthFirstSelection()
        for b in (3.0, 1.0, 2.0):
            sel.push(self._node(b))
        assert sel.pop().lp_bound == 2.0

    def test_prune(self):
        sel = BestBoundSelection()
        for b in (1.0, 5.0, 9.0):
            sel.push(self._node(b))
        cut = sel.prune(5.0)
        assert cut == 2
        assert len(sel) == 1

    def test_hybrid_switches_on_incumbent(self):
        sel = HybridSelection()
        for b in (3.0, 1.0):
            sel.push(self._node(b))
        sel.notify_incumbent()
        # now best-bound: pops 1.0 first
        assert sel.pop().lp_bound == 1.0

    def test_empty_best_bound_is_inf(self):
        assert BestBoundSelection().best_bound() == math.inf
        assert DepthFirstSelection().best_bound() == math.inf


class TestBranchNode:
    def test_materialize_bounds(self):
        import numpy as np

        root = BranchNode()
        child = root.child(0, 1.0, 2.0, lp_bound=0.0)
        grand = child.child(0, 2.0, 2.0, lp_bound=0.0)
        lb, ub = grand.materialize_bounds(np.zeros(2), np.full(2, 5.0))
        assert lb[0] == 2.0 and ub[0] == 2.0
        assert lb[1] == 0.0 and ub[1] == 5.0


# ---------------------------------------------------------------------------
# property: backends agree on random instances
# ---------------------------------------------------------------------------
@st.composite
def random_milp(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    weights = draw(
        st.lists(st.integers(1, 9), min_size=n, max_size=n)
    )
    profits = draw(
        st.lists(st.integers(1, 9), min_size=n, max_size=n)
    )
    capacity = draw(st.integers(1, sum(weights)))
    cover = draw(st.booleans())
    return weights, profits, capacity, cover


@settings(max_examples=30, deadline=None)
@given(random_milp())
def test_backends_agree(params):
    weights, profits, capacity, cover = params
    m = Model()
    xs = [m.binary_var(f"x{i}") for i in range(len(weights))]
    m.add_constr(
        quicksum(w * x for w, x in zip(weights, xs)) <= capacity
    )
    if cover:
        m.add_constr(quicksum(xs) >= 1)
    m.set_objective(
        quicksum(p * x for p, x in zip(profits, xs)), ObjectiveSense.MAXIMIZE
    )
    a = solve_highs(m)
    b = solve_bnb(m)
    assert a.status == b.status
    if a.has_solution:
        assert a.objective == pytest.approx(b.objective, abs=1e-6)


def test_solver_class_direct_use():
    m = knapsack([2, 3, 4], [3, 4, 5], 6)
    solver = BranchAndBoundSolver(branching="most_fractional", node_selection="dfs")
    sol = solver.solve(m)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(8.0)


class TestRoundingHeuristic:
    def test_heuristic_finds_incumbent_at_root(self):
        # pure packing where rounding the LP repairs trivially
        m = Model()
        xs = [m.binary_var(f"x{i}") for i in range(6)]
        m.add_constr(quicksum(xs) <= 3)
        m.set_objective(quicksum(xs), ObjectiveSense.MAXIMIZE)
        solver = BranchAndBoundSolver(rounding_heuristic=True)
        sol = solver.solve(m)
        assert sol.is_optimal
        assert sol.objective == pytest.approx(3.0)

    def test_same_optimum_with_and_without_heuristic(self):
        m = knapsack([3, 5, 7, 4, 6], [4, 7, 9, 5, 8], 12)
        with_h = BranchAndBoundSolver(rounding_heuristic=True).solve(m)
        without = BranchAndBoundSolver(rounding_heuristic=False).solve(m)
        assert with_h.objective == pytest.approx(without.objective)

    def test_heuristic_respects_node_limit_reporting(self):
        m = knapsack(list(range(2, 12)), list(range(3, 13)), 15)
        sol = BranchAndBoundSolver(rounding_heuristic=True).solve(
            m, node_limit=3
        )
        # with the heuristic an incumbent usually exists even at tiny limits
        assert sol.status in (SolveStatus.OPTIMAL, SolveStatus.FEASIBLE)
