"""Tests of the LP writer's round trips through the reference reader."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ModelingError
from repro.mip import (
    Model,
    ObjectiveSense,
    quicksum,
    solve_highs,
    write_lp,
    write_lp_file,
)

from .reference_lp_reader import read_lp, read_lp_file


class TestParsing:
    def test_minimal_model(self):
        text = """
        Minimize
         obj: 2 x + 3 y
        Subject To
         c0: x + y >= 1
        Bounds
         0 <= x <= 4
         0 <= y <= 4
        End
        """
        model = read_lp(text)
        assert model.num_vars == 2
        assert model.num_constraints == 1
        assert model.objective_sense is ObjectiveSense.MINIMIZE
        sol = solve_highs(model)
        assert sol.objective == pytest.approx(2.0)

    def test_binary_section(self):
        text = """
        Maximize
         obj: x + y
        Subject To
         c: x + y <= 1
        Binary
         x
         y
        End
        """
        model = read_lp(text)
        assert model.num_binary_vars == 2
        sol = solve_highs(model)
        assert sol.objective == pytest.approx(1.0)

    def test_general_section_and_equality(self):
        text = """
        Maximize
         obj: z
        Subject To
         c: z = 4
        Bounds
         0 <= z <= 10
        General
         z
        End
        """
        model = read_lp(text)
        sol = solve_highs(model)
        assert sol.objective == pytest.approx(4.0)

    def test_free_and_fixed_bounds(self):
        text = """
        Minimize
         obj: f + g
        Subject To
         c: f + g >= -5
        Bounds
         f free
         g = 2
        End
        """
        model = read_lp(text)
        f = model.get_var("f")
        g = model.get_var("g")
        assert math.isinf(f.lb) and f.lb < 0
        assert g.lb == g.ub == 2.0

    def test_negative_coefficients(self):
        text = """
        Maximize
         obj: 3 a - 2 b
        Subject To
         c: a - b <= 1
        Bounds
         0 <= a <= 2
         0 <= b <= 2
        End
        """
        model = read_lp(text)
        assert model.objective.coefficient(model.get_var("b")) == -2.0

    def test_bounds_only_variable_declared(self):
        """LP format allows declaring a variable via the Bounds section."""
        text = """
        Minimize
         obj: x
        Subject To
         c: x >= 0
        Bounds
         0 <= ghost <= 1
        End
        """
        model = read_lp(text)
        assert model.get_var("ghost").ub == 1.0

    def test_content_before_first_section_rejected(self):
        with pytest.raises(ModelingError):
            read_lp("x + y <= 4\nMinimize\n obj: x\nEnd\n")

    def test_content_outside_section_rejected(self):
        with pytest.raises(ModelingError):
            read_lp("x + y <= 1\nEnd\n")

    def test_comments_ignored(self):
        text = """
        \\ a comment
        Minimize
         obj: x  \\ trailing comment
        Subject To
         c: x >= 1
        End
        """
        model = read_lp(text)
        assert model.num_vars == 1


class TestRoundTrip:
    def knapsack(self):
        m = Model("rt")
        xs = [m.binary_var(f"x{i}") for i in range(4)]
        y = m.integer_var("y", lb=1, ub=5)
        z = m.continuous_var("z", lb=-3, ub=7)
        m.add_constr(quicksum((i + 1) * x for i, x in enumerate(xs)) + y <= 7, name="w")
        m.add_constr(z - y >= -4, name="link")
        m.add_constr(quicksum(xs) + z == 3, name="eq")
        m.set_objective(
            quicksum((i + 2) * x for i, x in enumerate(xs)) + 2 * y - z,
            ObjectiveSense.MAXIMIZE,
        )
        return m

    def test_same_optimum_after_round_trip(self):
        original = self.knapsack()
        restored = read_lp(write_lp(original))
        a = solve_highs(original)
        b = solve_highs(restored)
        assert a.status == b.status
        assert a.objective == pytest.approx(b.objective, abs=1e-6)

    def test_structure_preserved(self):
        original = self.knapsack()
        restored = read_lp(write_lp(original))
        assert restored.num_vars == original.num_vars
        assert restored.num_constraints == original.num_constraints
        assert restored.num_binary_vars == original.num_binary_vars
        assert restored.objective_sense == original.objective_sense
        assert restored.name == "rt"

    def test_tvnep_model_round_trips(self):
        """A real cSigma model survives the text round trip."""
        from repro.tvnep import CSigmaModel
        from repro.workloads import small_scenario

        scenario = small_scenario(0, num_requests=3).with_flexibility(1.0)
        model = CSigmaModel(
            scenario.substrate,
            scenario.requests,
            fixed_mappings=scenario.node_mappings,
        )
        restored = read_lp(write_lp(model.model))
        a = solve_highs(model.model, time_limit=60)
        b = solve_highs(restored, time_limit=60)
        assert a.objective == pytest.approx(b.objective, abs=1e-5)


class TestLpFileRoundTrip:
    def test_read_lp_file(self, tmp_path):
        m = Model("disk")
        x = m.binary_var("x")
        m.add_constr(x <= 1, name="c")
        m.set_objective(x, ObjectiveSense.MAXIMIZE)
        path = str(tmp_path / "m.lp")
        write_lp_file(m, path)
        restored = read_lp_file(path)
        assert restored.num_vars == 1
        assert restored.num_binary_vars == 1


@st.composite
def random_model(draw):
    m = Model("fuzz")
    n = draw(st.integers(1, 5))
    xs = []
    for i in range(n):
        kind = draw(st.sampled_from(["bin", "int", "cont"]))
        if kind == "bin":
            xs.append(m.binary_var(f"v{i}"))
        elif kind == "int":
            xs.append(m.integer_var(f"v{i}", lb=0, ub=draw(st.integers(1, 9))))
        else:
            xs.append(
                m.continuous_var(
                    f"v{i}",
                    lb=draw(st.integers(-5, 0)),
                    ub=draw(st.integers(1, 9)),
                )
            )
    for _ in range(draw(st.integers(1, 3))):
        coefs = [draw(st.integers(-3, 3)) for _ in range(n)]
        if all(c == 0 for c in coefs):
            coefs[0] = 1
        rhs = draw(st.integers(-5, 15))
        sense = draw(st.sampled_from(["<=", ">="]))
        expr = quicksum(c * x for c, x in zip(coefs, xs))
        m.add_constr(expr <= rhs if sense == "<=" else expr >= rhs)
    m.set_objective(
        quicksum(draw(st.integers(-4, 4)) * x for x in xs),
        draw(st.sampled_from([ObjectiveSense.MAXIMIZE, ObjectiveSense.MINIMIZE])),
    )
    return m


@settings(max_examples=25, deadline=None)
@given(random_model())
def test_fuzzed_round_trip(model):
    restored = read_lp(write_lp(model))
    a = solve_highs(model)
    b = solve_highs(restored)
    assert a.status == b.status
    if a.has_solution:
        assert a.objective == pytest.approx(b.objective, abs=1e-6)
