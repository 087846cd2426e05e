"""End-to-end tests of the ``python -m repro`` command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    code = main(
        [
            "generate",
            "--seed",
            "0",
            "--num-requests",
            "3",
            "--flexibility",
            "1.0",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_writes_valid_instance(self, instance_path):
        payload = json.loads(instance_path.read_text())
        assert payload["format"] == "tvnep-instance"
        assert len(payload["requests"]) == 3
        assert all("node_mapping" in r for r in payload["requests"])

    def test_paper_scale(self, tmp_path):
        path = tmp_path / "paper.json"
        assert main(["generate", "--scale", "paper", "-o", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert len(payload["requests"]) == 20
        assert len(payload["substrate"]["nodes"]) == 20


class TestSolve:
    @pytest.mark.parametrize("model", ["csigma", "sigma", "delta"])
    def test_exact_models(self, instance_path, tmp_path, model, capsys):
        out = tmp_path / "solution.json"
        code = main(
            [
                "solve",
                str(instance_path),
                "--model",
                model,
                "--time-limit",
                "30",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "feasible" in captured
        payload = json.loads(out.read_text())
        assert payload["format"] == "tvnep-solution"

    def test_greedy_variants(self, instance_path, capsys):
        assert main(["solve", str(instance_path), "--model", "greedy"]) == 0
        assert "embedded" in capsys.readouterr().out
        # the enumerative greedy is the greedy now; its old name is gone
        with pytest.raises(SystemExit):
            main(["solve", str(instance_path), "--model", "greedy-enum"])

    def test_discrete_model(self, instance_path, capsys):
        code = main(
            ["solve", str(instance_path), "--model", "discrete", "--slot-length", "0.5"]
        )
        assert code == 0
        assert "discrete" in capsys.readouterr().out

    def test_lp_dump(self, instance_path, tmp_path):
        lp_path = tmp_path / "model.lp"
        code = main(
            ["solve", str(instance_path), "--lp-out", str(lp_path), "--time-limit", "30"]
        )
        assert code == 0
        assert lp_path.read_text().startswith("\\ Model")

    def test_fixed_objective(self, instance_path, capsys):
        # force-embeds all requests; may be infeasible for some seeds,
        # so accept both outcomes but require clean handling
        code = main(
            [
                "solve",
                str(instance_path),
                "--objective",
                "max_earliness",
                "--time-limit",
                "30",
            ]
        )
        assert code in (0, 1)

    def test_greedy_rejects_other_objectives(self, instance_path):
        code = main(
            ["solve", str(instance_path), "--model", "greedy", "--objective", "disable_links"]
        )
        assert code == 2

    def test_discrete_rejects_other_objectives(self, instance_path, capsys):
        code = main(
            [
                "solve",
                str(instance_path),
                "--model",
                "discrete",
                "--objective",
                "max_earliness",
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "access_control" in captured.err
        assert "objective" not in captured.out  # nothing was solved

    def test_discrete_lp_dump(self, instance_path, tmp_path):
        lp_path = tmp_path / "discrete.lp"
        code = main(
            ["solve", str(instance_path), "--model", "discrete", "--lp-out", str(lp_path)]
        )
        assert code == 0
        assert lp_path.read_text().startswith("\\ Model")

    def test_greedy_rejects_lp_out(self, instance_path, tmp_path, capsys):
        lp_path = tmp_path / "greedy.lp"
        code = main(
            ["solve", str(instance_path), "--model", "greedy", "--lp-out", str(lp_path)]
        )
        assert code == 2
        assert "--lp-out" in capsys.readouterr().err
        assert not lp_path.exists()


class TestVerify:
    def test_accepts_valid_solution(self, instance_path, tmp_path, capsys):
        out = tmp_path / "solution.json"
        main(["solve", str(instance_path), "-o", str(out), "--time-limit", "30"])
        capsys.readouterr()
        assert main(["verify", str(instance_path), str(out)]) == 0
        assert "feasible" in capsys.readouterr().out

    def test_rejects_corrupted_solution(self, instance_path, tmp_path, capsys):
        out = tmp_path / "solution.json"
        main(["solve", str(instance_path), "-o", str(out), "--time-limit", "30"])
        payload = json.loads(out.read_text())
        for item in payload["schedule"]:
            if item["embedded"]:
                item["end"] = item["end"] + 100.0  # break duration/window
                break
        out.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["verify", str(instance_path), str(out)]) == 1
        assert "INFEASIBLE" in capsys.readouterr().out


class TestEvaluate:
    def test_quick_evaluation(self, capsys, tmp_path):
        out = tmp_path / "figures.txt"
        code = main(
            [
                "evaluate",
                "--quick",
                "--seeds",
                "0",
                "--time-limit",
                "15",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "Figure 3" in text and "Figure 9" in text
        assert text.splitlines()[-1].startswith("(total evaluation time: ")

    def test_flexibilities_and_num_requests_flags(self, tmp_path):
        from repro.evaluation.persistence import load_records

        store = tmp_path / "records.jsonl"
        argv = ["evaluate", "--quick", "--seeds", "0", "--store", str(store)]
        code = main(argv + ["--flexibilities", "0", "0.5", "--num-requests", "3"])
        assert code == 0
        records = load_records(str(store))
        assert {r.flexibility for r in records} == {0.0, 0.5}
        assert {r.num_requests for r in records} == {3}

    def test_one_info_line_per_finished_cell(self, caplog):
        # pytest's capture handler makes ``--log-level``'s basicConfig a
        # no-op, so the capture level is set here as well
        import logging

        caplog.set_level(logging.INFO, logger="repro.runtime")
        argv = ["--log-level", "info", "evaluate", "--seeds", "0"]
        code = main(argv + ["--flexibilities", "0", "--num-requests", "3"])
        assert code == 0
        cells = [
            record.getMessage()
            for record in caplog.records
            if record.name == "repro.runtime" and record.levelno == logging.INFO
        ]
        # 3 formulations, the greedy, and 3 fixed objectives on one
        # accepted set
        assert len(cells) == 7
        assert all("seed=0 flex=0 " in line for line in cells)
        phases = [line.split("]")[0] for line in cells]
        assert phases == ["[access"] * 3 + ["[greedy"] + ["[objective"] * 3

    def test_output_feeds_refresh_experiments(self, tmp_path):
        """Every table ``scripts/refresh_experiments.py`` splices into
        EXPERIMENTS.md is found in an ``evaluate --output`` file."""
        import importlib.util
        from pathlib import Path

        script = Path(__file__).parent.parent / "scripts" / "refresh_experiments.py"
        spec = importlib.util.spec_from_file_location("refresh_experiments", script)
        refresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(refresh)

        out = tmp_path / "figures.txt"
        argv = ["evaluate", "--seeds", "0", "--flexibilities", "0", "1"]
        assert main(argv + ["--num-requests", "3", "--output", str(out)]) == 0
        text = out.read_text()
        for _, title in refresh.LAPTOP_TABLES:
            body = refresh.extract_figure(text, title)
            assert body is not None, title
            assert len(body.splitlines()) == 4  # header, rule, one row per flex
        figures = text.split("\n\n")
        for _, _, title, header in refresh.TITLED_TABLES:
            body = refresh.extract_titled(text, title, header)
            assert body is not None, title
            # the titled figure's table, not an earlier one under the
            # same header (Figs. 3 and 5)
            (figure,) = [f for f in figures if f.startswith(title)]
            assert body == refresh.extract_figure(figure, header)


class TestErrorHandling:
    def test_missing_instance_is_one_line_diagnostic(self, capsys):
        code = main(["solve", "/no/such/instance.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_solver_error_is_one_line_diagnostic(self, instance_path, capsys):
        from repro.runtime import inject_faults

        # the greedy solves no MILP, so fail the exact model's solve
        with inject_faults("highs", always="error"):
            with inject_faults("bnb", always="error"):
                code = main(["solve", str(instance_path)])
        assert code != 0
        err = capsys.readouterr().err
        assert "error:" in err or "no solution" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["solve", "evaluate"])
    @pytest.mark.parametrize("value", ["-5", "-1", "nan", "inf", "soon"])
    def test_invalid_time_limit_rejected(self, instance_path, capsys, command, value):
        argv = [command] + (
            [str(instance_path)] if command == "solve" else ["--quick", "--seeds", "0"]
        )
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--time-limit", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert "error: argument --time-limit" in last
        assert value in last
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_invalid_workers_rejected(self, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--quick", "--seeds", "0", "--workers", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert "error: argument --workers" in last
        assert value in last
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["evaluate", "--quick", "--seeds", "-1"], "--seeds"),
            (["evaluate", "--quick", "--seeds", "0", "1.5"], "--seeds"),
            (["evaluate", "--quick", "--flexibilities", "-1"], "--flexibilities"),
            (["evaluate", "--quick", "--flexibilities", "0", "nan"], "--flexibilities"),
            (["evaluate", "--quick", "--flexibilities", "inf"], "--flexibilities"),
            (["evaluate", "--quick", "--num-requests", "0"], "--num-requests"),
            (["generate", "--seed", "-1", "-o", "unused.json"], "--seed"),
        ],
    )
    def test_invalid_sweep_inputs_rejected(self, capsys, argv, flag):
        """Refused by argparse before any cell runs or file is written."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            err.strip().splitlines()[-1]
        ]
        assert f"error: argument {flag}:" in err
        assert "Traceback" not in err

    def test_quick_and_paper_profiles_are_exclusive(self, capsys):
        """``--quick --paper`` is refused, not run as the paper sweep."""
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--quick", "--paper", "--seeds", "0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert "error: argument --paper: not allowed with argument --quick" in last
        assert "Traceback" not in err

    def test_store_of_another_sweep_is_one_line_diagnostic(self, capsys, tmp_path):
        from repro.evaluation.persistence import RecordStore
        from repro.evaluation.runner import RunRecord

        path = str(tmp_path / "records.jsonl")
        sweep = {
            "scale": "small",
            "num_requests": 4,
            "time_limit": 15.0,
            "backend": "highs",
            "load_fraction": 0.5,
        }
        RecordStore(path, dict(sweep, time_limit=5.0)).add(
            RunRecord("small-s0+flex0", 0, 0.0, "csigma", "access_control")
        )
        code = main(["evaluate", "--quick", "--seeds", "0", "--store", path])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "error:" in err and "time_limit" in err
        assert "Traceback" not in err

    def test_evaluate_budget_and_store_flags(self, capsys, tmp_path):
        code = main(
            [
                "evaluate",
                "--quick",
                "--seeds",
                "0",
                "--store",
                str(tmp_path / "records.jsonl"),
            ]
        )
        assert code == 0
        assert (tmp_path / "records.jsonl").exists()


class TestCheck:
    def test_clean_instance_passes(self, instance_path, capsys):
        code = main(["check", str(instance_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "ERROR" not in out

    def test_broken_instance_fails(self, tmp_path, capsys):
        import json

        payload = {
            "format": "tvnep-instance",
            "version": 1,
            "substrate": {
                "name": "tiny",
                "nodes": [{"id": "s0", "capacity": 1.0}],
                "links": [],
            },
            "requests": [
                {
                    "name": "big",
                    "nodes": [{"id": "v", "demand": 5.0}],
                    "links": [],
                    "start": 0.0,
                    "end": 4.0,
                    "duration": 2.0,
                }
            ],
        }
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(payload))
        assert main(["check", str(path)]) == 1
        assert "ERROR" in capsys.readouterr().out
