"""Coverage for public entry points not exercised elsewhere."""

from __future__ import annotations

import pytest

from repro.mip import Model, ObjectiveSense, read_lp_file, write_lp_file


class TestCliParser:
    def test_build_parser_commands(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["generate", "-o", "x.json"])
        assert args.command == "generate"
        args = parser.parse_args(["solve", "inst.json", "--model", "delta"])
        assert args.model == "delta"
        with pytest.raises(SystemExit):
            parser.parse_args(["unknown-command"])


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


class TestEvaluationChartFigures:
    def test_chart_figures_render(self):
        from repro.evaluation import Evaluation, EvaluationConfig

        ev = Evaluation(
            EvaluationConfig(
                seeds=(0,), flexibilities=(0.0,), num_requests=3, time_limit=20
            )
        )
        assert "Figure 3 (chart)" in ev.figure3_chart()
        assert "Figure 8 (chart)" in ev.figure8_chart()
        combined = ev.render_all(charts=True)
        assert "Figure 3 (chart)" in combined
        assert "Figure 8 (chart)" in combined


class TestModelIntrospection:
    def test_delta_variable_count(self):
        from repro.network import SubstrateNetwork, VirtualNetwork, TemporalSpec, Request
        from repro.tvnep import DeltaModel

        sub = SubstrateNetwork()
        sub.add_node("s", 1.0)
        v = VirtualNetwork("R")
        v.add_node("v", 1.0)
        model = DeltaModel(sub, [Request(v, TemporalSpec(0, 4, 2))])
        # 2|R| = 2 events, one usable resource
        assert model.num_delta_variables() == 2

    def test_end_suffix_expression(self):
        from repro.network import SubstrateNetwork, VirtualNetwork, TemporalSpec, Request
        from repro.temporal.dependency import PointKind
        from repro.tvnep import CSigmaModel, ModelOptions

        sub = SubstrateNetwork()
        sub.add_node("s", 2.0)
        reqs = []
        for i in range(2):
            v = VirtualNetwork(f"R{i}")
            v.add_node("v", 1.0)
            reqs.append(Request(v, TemporalSpec(0, 10, 1)))
        model = CSigmaModel(sub, reqs, options=ModelOptions.plain())
        # compact ends live on e2..e3: suffix at 2 covers both, at 3 one
        assert len(model._suffix_cols("R0", PointKind.END, 2)) == 2
        assert len(model._suffix_cols("R0", PointKind.END, 3)) == 1

    def test_user_bound_conversion(self):
        m = Model()
        x = m.binary_var("x")
        m.set_objective(2 * x + 5, ObjectiveSense.MAXIMIZE)
        form = m.to_standard_form()
        # internal minimization bound -2 corresponds to user bound 2 + 5
        assert form.user_bound(-2.0) == pytest.approx(7.0)


class TestExceptionsHierarchy:
    def test_all_errors_are_repro_errors(self):
        from repro.exceptions import (
            InfeasibleError,
            ModelingError,
            ReproError,
            SolverError,
            UnboundedError,
            ValidationError,
        )

        for cls in (ModelingError, SolverError, ValidationError):
            assert issubclass(cls, ReproError)
        for cls in (InfeasibleError, UnboundedError):
            assert issubclass(cls, SolverError)
        with pytest.raises(ReproError):
            raise InfeasibleError("nope")
