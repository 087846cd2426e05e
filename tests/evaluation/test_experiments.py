"""End-to-end smoke of the figure harness (quick configuration)."""

from __future__ import annotations

import pytest

from repro.evaluation import Evaluation, EvaluationConfig


@pytest.fixture(scope="module")
def evaluation():
    config = EvaluationConfig(
        seeds=(0,),
        flexibilities=(0.0, 1.0),
        time_limit=20.0,
        num_requests=3,
    )
    ev = Evaluation(config)
    ev.run_all()
    return ev


class TestSweeps:
    def test_access_sweep_counts(self, evaluation):
        # 1 seed x 2 flexibilities x 3 models
        assert len(evaluation.access_records) == 6
        assert all(r.verified_feasible for r in evaluation.access_records)

    def test_greedy_sweep_counts(self, evaluation):
        assert len(evaluation.greedy_records) == 2

    def test_objective_sweep_runs_on_accepted_sets(self, evaluation):
        for record in evaluation.objective_records:
            assert record.objective_name in (
                "max_earliness",
                "balance_node_load",
                "disable_links",
            )
            assert record.solved

    def test_accepted_sets_recorded(self, evaluation):
        assert (0, 0.0) in evaluation.accepted_sets
        assert (0, 1.0) in evaluation.accepted_sets

    def test_sweeps_are_cached(self, evaluation):
        before = len(evaluation.access_records)
        evaluation.run_access_control()
        assert len(evaluation.access_records) == before


@pytest.fixture(scope="module")
def quick_evaluation():
    ev = Evaluation(EvaluationConfig.quick())
    ev.run_all()
    return ev


def _proven_csigma(evaluation) -> dict:
    """(seed, flexibility) -> objective of each proven access-control cΣ cell."""
    return {
        (r.seed, r.flexibility): r.objective
        for r in evaluation.access_records
        if r.algorithm == "csigma" and r.proved_optimal
    }


class TestInvariants:
    """Properties every sweep must keep, checked on the quick profile."""

    def test_every_greedy_record_verified(self, quick_evaluation):
        records = quick_evaluation.greedy_records
        assert records and all(r.verified_feasible for r in records)

    def test_greedy_never_beats_a_proven_optimum(self, quick_evaluation):
        proven = _proven_csigma(quick_evaluation)
        compared = 0
        for record in quick_evaluation.greedy_records:
            optimum = proven.get((record.seed, record.flexibility))
            if optimum is None:
                continue
            assert record.objective <= optimum + 1e-6 * max(1.0, abs(optimum))
            compared += 1
        assert compared > 0

    def test_proven_optimum_never_falls_as_flexibility_grows(self, quick_evaluation):
        """More temporal slack only widens the feasible set (Fig. 9)."""
        proven = _proven_csigma(quick_evaluation)
        compared = 0
        for (seed, flex), objective in proven.items():
            for (other_seed, other_flex), smaller in proven.items():
                if other_seed == seed and other_flex < flex:
                    assert objective >= smaller - 1e-6 * max(1.0, abs(smaller))
                    compared += 1
        assert compared > 0


class TestFigures:
    def test_every_figure_renders(self, evaluation):
        for figure in (
            evaluation.figure3_runtime,
            evaluation.figure4_gap,
            evaluation.figure5_objective_runtime,
            evaluation.figure6_objective_gap,
            evaluation.figure7_greedy_performance,
            evaluation.figure8_accepted,
            evaluation.figure9_improvement,
        ):
            text = figure()
            assert "flex" in text
            assert len(text.splitlines()) >= 4

    def test_render_all_contains_all_figures(self, evaluation):
        text = evaluation.render_all()
        for number in range(3, 10):
            assert f"Figure {number}" in text

    def test_figure9_baseline_is_zero(self, evaluation):
        text = evaluation.figure9_improvement()
        zero_row = [line for line in text.splitlines() if line.startswith("0 ")]
        assert zero_row and "0.0%" in zero_row[0]


class TestConfig:
    def test_quick_profile(self):
        config = EvaluationConfig.quick()
        assert config.scale == "small"
        assert len(config.seeds) == 2

    def test_paper_profile(self):
        config = EvaluationConfig.paper()
        assert config.scale == "paper"
        assert len(config.seeds) == 24
        assert len(config.flexibilities) == 11
        assert config.time_limit == 3600.0

    def test_with_models(self):
        config = EvaluationConfig().with_models("csigma")
        assert config.models == ("csigma",)

    def test_unknown_scale_rejected(self):
        # rejected where it enters, not when the first scenario is
        # built: the sweep would otherwise run small scenarios under it
        from dataclasses import replace

        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="galactic"):
            EvaluationConfig(scale="galactic")
        with pytest.raises(ValidationError, match="galactic"):
            replace(EvaluationConfig(), scale="galactic")

    @pytest.mark.parametrize("bad", [0, -3])
    def test_invalid_workers_rejected(self, bad):
        from dataclasses import replace

        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="workers"):
            EvaluationConfig(workers=bad)
        with pytest.raises(ValidationError, match="workers"):
            replace(EvaluationConfig.quick(), workers=bad)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_invalid_time_limit_rejected(self, bad):
        from dataclasses import replace

        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="time limit"):
            EvaluationConfig(time_limit=bad)
        with pytest.raises(ValidationError, match="time limit"):
            replace(EvaluationConfig.quick(), time_limit=bad)


    @pytest.mark.parametrize(
        "field, bad, match",
        [
            ("seeds", (0, -1), "seed"),
            ("seeds", (1.5,), "seed"),
            ("seeds", ("0",), "seed"),
            ("flexibilities", (-1.0,), "flexibility"),
            ("flexibilities", (0.0, float("nan")), "flexibility"),
            ("flexibilities", (float("inf"),), "flexibility"),
            ("num_requests", 0, "num_requests"),
            ("num_requests", -2, "num_requests"),
            ("num_requests", 2.5, "num_requests"),
        ],
    )
    def test_invalid_sweep_input_rejected(self, field, bad, match):
        """Rejected where it enters, not by the first cell that uses it."""
        from dataclasses import replace

        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match=match):
            EvaluationConfig(**{field: bad})
        with pytest.raises(ValidationError, match=match):
            replace(EvaluationConfig.quick(), **{field: bad})


class TestResume:
    def test_store_resume_skips_solved_cells(self, tmp_path):
        config = EvaluationConfig(
            seeds=(0,), flexibilities=(0.0,), time_limit=20.0, num_requests=3
        )
        path = str(tmp_path / "records.jsonl")
        first = Evaluation(config, store_path=path)
        first.run_all()
        resumed = Evaluation(config, store_path=path)
        resumed.run_all()
        assert len(resumed.access_records) == len(first.access_records)
        assert resumed.accepted_sets == first.accepted_sets
        # resumed records truly came from disk: runtimes are identical
        assert [r.runtime for r in resumed.access_records] == [
            r.runtime for r in first.access_records
        ]
        assert resumed.figure3_runtime() == first.figure3_runtime()

    @pytest.mark.parametrize(
        "change",
        [
            {"scale": "paper", "num_requests": 6, "time_limit": 1.0},
            {"time_limit": 5.0},
            {"backend": "bnb"},
            {"load_fraction": 0.25},
            {"num_requests": 4},
        ],
    )
    def test_store_of_another_sweep_rejected(self, tmp_path, change):
        """A store resumed under different sweep settings would hand back
        the other sweep's records as this sweep's cells."""
        from dataclasses import replace

        from repro.exceptions import ValidationError

        config = EvaluationConfig(
            seeds=(0,),
            flexibilities=(0.0,),
            models=("csigma",),
            time_limit=20.0,
            num_requests=3,
        )
        path = str(tmp_path / "records.jsonl")
        Evaluation(config, store_path=path).run_access_control()
        other = Evaluation(replace(config, **change), store_path=path)
        with pytest.raises(ValidationError) as exc:
            other.run_access_control()
        assert all(name in str(exc.value) for name in change)

    def test_store_settings_outside_the_identity_resume(self, tmp_path):
        # seeds, flexibilities, models and workers only choose cells
        from dataclasses import replace

        config = EvaluationConfig(
            seeds=(0,),
            flexibilities=(0.0,),
            models=("csigma",),
            time_limit=20.0,
            num_requests=3,
        )
        path = str(tmp_path / "records.jsonl")
        Evaluation(config, store_path=path).run_access_control()
        wider = Evaluation(
            replace(config, flexibilities=(0.0, 1.0), models=("csigma", "delta")),
            store_path=path,
        )
        assert len(wider.run_access_control()) == 4

