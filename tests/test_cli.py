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

    def test_resilient_backend_survives_primary_failure(
        self, instance_path, capsys
    ):
        from repro.runtime import inject_faults

        with inject_faults("highs", always="error"):
            code = main(
                ["solve", str(instance_path), "--backend", "resilient"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "answered by fallback rung: bnb" in out

    def test_wall_clock_budget_flag(self, instance_path, capsys):
        code = main(
            ["solve", str(instance_path), "--wall-clock-budget", "30"]
        )
        assert code == 0

    def test_negative_budget_rejected(self, instance_path, capsys):
        code = main(
            ["solve", str(instance_path), "--wall-clock-budget", "-5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate_fallback_flags(self, capsys, tmp_path):
        code = main(
            [
                "evaluate",
                "--quick",
                "--seeds",
                "0",
                "--no-fallback",
                "--wall-clock-budget",
                "300",
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
