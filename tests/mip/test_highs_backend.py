"""Tests of the HiGHS backend (MILP + LP relaxation)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from repro.mip import (
    Model,
    ObjectiveSense,
    SolveStatus,
    quicksum,
    solve_highs,
    solve_relaxation,
)
from repro.mip import highs_backend
from repro.mip.highs_backend import solve_arrays
from repro.tvnep import fixed_schedule
from repro.tvnep.csigma_model import CSigmaModel
from repro.workloads import small_scenario


def knapsack(weights, profits, capacity):
    m = Model("knapsack")
    xs = [m.binary_var(f"x{i}") for i in range(len(weights))]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= capacity)
    m.set_objective(
        quicksum(p * x for p, x in zip(profits, xs)), ObjectiveSense.MAXIMIZE
    )
    return m, xs


def first_run_status(m):
    """HiGHS's model status after one run with presolve on."""
    form = m.to_standard_form()
    h = highs_backend._core._Highs()
    h.setOptionValue("output_flag", False)
    h.passModel(
        highs_backend.highs_lp(
            form.c, form.A, form.row_lb, form.row_ub, form.lb, form.ub,
            form.integrality,
        )
    )
    h.run()
    return h.getModelStatus()


class TestMilp:
    def test_knapsack_optimum(self):
        m, xs = knapsack([2, 3, 4, 5], [3, 4, 5, 6], 5)
        sol = solve_highs(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(7.0)
        chosen = [i for i, x in enumerate(xs) if sol.rounded(x) == 1]
        assert chosen == [0, 1]

    def test_minimization(self):
        m = Model()
        x = m.integer_var("x", lb=0, ub=10)
        m.add_constr(2 * x >= 7)
        m.set_objective(x, ObjectiveSense.MINIMIZE)
        sol = solve_highs(m)
        assert sol.rounded(x) == 4

    def test_infeasible(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 0.4)
        m.add_constr(x <= 0.6)
        sol = solve_highs(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert not sol.has_solution

    def test_unbounded(self):
        m = Model()
        x = m.continuous_var("x", lb=0)
        m.set_objective(x, ObjectiveSense.MAXIMIZE)
        sol = solve_highs(m)
        assert sol.status is SolveStatus.UNBOUNDED

    def test_unbounded_milp(self):
        """Presolve cannot tell this MILP's unboundedness from
        infeasibility; ``run_highs`` re-runs it without presolve."""
        m = Model()
        x = m.integer_var("x", lb=0)
        y = m.binary_var("y")
        m.add_constr(x - y >= 0)
        m.set_objective(x + y, ObjectiveSense.MAXIMIZE)
        ambiguous = highs_backend._core.HighsModelStatus.kUnboundedOrInfeasible
        assert first_run_status(m) == ambiguous
        assert solve_highs(m).status is SolveStatus.UNBOUNDED
        assert solve_highs(m, presolve=False).status is SolveStatus.UNBOUNDED

    def test_infeasible_milp_with_unbounded_objective_ray(self):
        """``x + y`` cannot be both <= 1 and >= 2, while ``max z`` over
        ``z >= x`` has no upper limit: presolve sees the open ray first
        and cannot decide, the re-run without presolve proves infeasible."""
        m = Model()
        x = m.integer_var("x", lb=0)
        y = m.integer_var("y", lb=0)
        z = m.integer_var("z", lb=0)
        m.add_constr(x + y <= 1)
        m.add_constr(x + y >= 2)
        m.add_constr(z - x >= 0)
        m.set_objective(z, ObjectiveSense.MAXIMIZE)
        ambiguous = highs_backend._core.HighsModelStatus.kUnboundedOrInfeasible
        assert first_run_status(m) == ambiguous
        assert solve_highs(m).status is SolveStatus.INFEASIBLE

    def test_objective_constant_carried(self):
        m = Model()
        x = m.binary_var("x")
        m.set_objective(x + 10, ObjectiveSense.MAXIMIZE)
        sol = solve_highs(m)
        assert sol.objective == pytest.approx(11.0)

    def test_gap_zero_when_optimal(self):
        m, _ = knapsack([1, 2], [1, 2], 3)
        sol = solve_highs(m)
        assert sol.gap == 0.0
        assert sol.is_optimal

    def test_value_of_expression(self):
        m, xs = knapsack([2, 3], [3, 4], 5)
        sol = solve_highs(m)
        assert sol.value(3 * xs[0] + 4 * xs[1]) == pytest.approx(sol.objective)

    def test_non_finite_objective_raises(self):
        from repro.exceptions import SolverError

        A = sp.csr_matrix(np.ones((1, 2)))
        with pytest.raises(SolverError):
            solve_arrays(
                np.array([math.nan, 1.0]), A, np.zeros(1), np.ones(1),
                np.zeros(2), np.ones(2),
            )

    def test_no_value_without_solution(self):
        m = Model()
        x = m.binary_var("x")
        m.add_constr(x >= 0.4)
        m.add_constr(x <= 0.6)
        sol = solve_highs(m)
        from repro.exceptions import SolverError

        with pytest.raises(SolverError):
            sol.value(x)


def market_split(seed=0, n=24, rows=3):
    """A market-split MILP: its LP is feasible, it has no integral point,
    and HiGHS finds none in its first nodes."""
    rng = random.Random(seed)
    m = Model()
    xs = [m.binary_var(f"x{i}") for i in range(n)]
    for _ in range(rows):
        a = [rng.randrange(100) for _ in range(n)]
        m.add_constr(quicksum(ai * x for ai, x in zip(a, xs)) == sum(a) // 2)
    m.set_objective(
        quicksum((i % 5 + 1) * x for i, x in enumerate(xs)), ObjectiveSense.MAXIMIZE
    )
    return m


def csigma(seed, num_requests):
    scenario = small_scenario(seed, num_requests=num_requests).with_flexibility(1.0)
    return CSigmaModel(
        scenario.substrate, scenario.requests, fixed_mappings=scenario.node_mappings
    )


class TestLimits:
    def test_node_limit_zero_is_no_solution(self):
        """HiGHS stops at the node limit before any incumbent: that is
        ``NO_SOLUTION``, not a backend error."""
        sol = solve_highs(csigma(0, 4).model, node_limit=0)
        assert sol.status is SolveStatus.NO_SOLUTION
        assert sol.x is None and math.isnan(sol.objective)
        assert sol.node_count == 0

    def test_limit_without_incumbent_keeps_the_bound(self):
        sol = solve_highs(market_split(), node_limit=1)
        assert sol.status is SolveStatus.NO_SOLUTION
        assert not sol.has_solution
        assert math.isfinite(sol.best_bound)
        assert sol.node_count == 1


def captured_solves(model, monkeypatch, **kwargs):
    """The ``solve_arrays`` calls of ``model.solve(**kwargs)``: the cSigma
    master's and the fixed-schedule LP's."""
    calls = []

    def recording(*args, **kw):
        calls.append((args, kw))
        return solve_arrays(*args, **kw)

    monkeypatch.setattr(highs_backend, "solve_arrays", recording)
    monkeypatch.setattr(fixed_schedule, "solve_highs", recording)
    model.solve(**kwargs)
    return calls


def milp_spec(args, kw):
    """``scipy.optimize.milp`` on the arrays of one ``solve_arrays`` call,
    with the options ``solve_arrays`` sets, as (status, objective,
    bound, nodes) in ``solve_arrays``'s conventions."""
    c, A, row_lb, row_ub, lb, ub = args[:6]
    integrality = args[6] if len(args) > 6 else np.zeros(len(c))
    options = {"mip_rel_gap": kw.get("mip_gap", 1e-6)}
    if kw.get("node_limit") is not None:
        options["node_limit"] = kw["node_limit"]
    if not kw.get("presolve", True):
        options["presolve"] = False
    res = milp(
        c,
        constraints=[LinearConstraint(A, row_lb, row_ub)],
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options,
    )
    sense, c0 = kw.get("sense_sign", 1.0), kw.get("c0", 0.0)
    if res.status == 0:
        status = SolveStatus.OPTIMAL
    else:  # milp reports a stop at the node limit as "other"
        status = SolveStatus.FEASIBLE if res.x is not None else SolveStatus.NO_SOLUTION
    objective = math.nan if res.x is None else sense * float(c @ res.x) + c0
    bound = res.mip_dual_bound
    if bound is None:  # an LP
        bound = objective if status is SolveStatus.OPTIMAL else math.nan
    else:
        bound = sense * bound + c0
    return status, objective, bound, res.mip_node_count or 0


def assert_matches_milp(args, kw):
    got = solve_arrays(*args, **kw)
    status, objective, bound, nodes = milp_spec(args, kw)
    assert got.status is status
    assert got.objective == pytest.approx(objective, rel=1e-9, nan_ok=True)
    assert got.best_bound == pytest.approx(bound, rel=1e-9, nan_ok=True)
    assert got.node_count == nodes


def form_arrays(model):
    form = model.to_standard_form()
    args = (form.c, form.A, form.row_lb, form.row_ub, form.lb, form.ub)
    return args + (form.integrality,), {"c0": form.c0, "sense_sign": form.sense_sign}


class TestMilpSpec:
    """``solve_arrays`` runs HiGHS as ``scipy.optimize.milp`` does: the
    same status, objective, bound and node count."""

    @pytest.mark.parametrize("seed, num_requests", [(0, 6), (2, 8), (3, 8)])
    def test_master_and_link_lp(self, seed, num_requests, monkeypatch):
        calls = captured_solves(
            csigma(seed, num_requests), monkeypatch, node_limit=300
        )
        # the master, with integral columns, then its fixed-schedule LP
        assert [len(args) for args, _ in calls] == [7, 6]
        for args, kw in calls:
            assert_matches_milp(args, kw)

    def test_stopped_at_node_limit(self):
        args, kw = form_arrays(csigma(2, 8).model)
        kw.update(node_limit=1, presolve=False)
        sol = solve_arrays(*args, **kw)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.objective < sol.best_bound
        assert_matches_milp(args, kw)


class TestRelaxation:
    def test_relaxation_bounds_milp(self):
        m, _ = knapsack([2, 3, 4], [3, 4, 5], 5)
        milp = solve_highs(m)
        lp = solve_relaxation(m)
        assert lp.status is SolveStatus.OPTIMAL
        assert lp.objective >= milp.objective - 1e-9

    def test_relaxation_fractional(self):
        m, xs = knapsack([2, 3], [3, 5], 4)
        lp = solve_relaxation(m)
        # LP takes item 1 fully and 1/2 of item 0
        assert lp.objective == pytest.approx(5 + 3 / 2 * (1 / 3) * 2, abs=1.0)
        values = [lp.value(x) for x in xs]
        assert any(0.01 < v < 0.99 for v in values)

    def test_relaxation_with_fixings(self):
        m, xs = knapsack([2, 3], [3, 5], 4)
        lp = solve_relaxation(m, fixed={xs[1]: 0.0})
        assert lp.value(xs[1]) == pytest.approx(0.0)
        assert lp.objective == pytest.approx(3.0)

    def test_relaxation_infeasible(self):
        m = Model()
        x = m.continuous_var("x", lb=0, ub=1)
        m.add_constr(x >= 2)
        lp = solve_relaxation(m)
        assert lp.status is SolveStatus.INFEASIBLE


class TestSolutionObject:
    def test_summary_renders(self):
        m, _ = knapsack([1], [1], 1)
        sol = solve_highs(m)
        text = sol.summary()
        assert "optimal" in text

    def test_rounded_rejects_fractional(self):
        m, _ = knapsack([2, 3], [3, 5], 4)
        lp = solve_relaxation(m)
        from repro.exceptions import SolverError

        fractional = [
            v for v in lp.values if 0.01 < lp.values[v] < 0.99
        ]
        assert fractional
        with pytest.raises(SolverError):
            lp.rounded(fractional[0])

    def test_value_map(self):
        m, xs = knapsack([1, 1], [1, 1], 2)
        sol = solve_highs(m)
        mapped = sol.value_map({"a": xs[0], "b": xs[1]})
        assert set(mapped) == {"a", "b"}

    def test_relative_gap_infinite_for_nan(self):
        from repro.mip import relative_gap

        assert math.isinf(relative_gap(math.nan, 1.0))
        assert math.isinf(relative_gap(1.0, math.inf))
        assert relative_gap(10.0, 11.0) == pytest.approx(0.1)
