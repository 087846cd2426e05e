"""End-to-end resilience of the evaluation sweep.

This is the acceptance scenario of the resilience layer: with the
fault injector forcing the primary backend to fail on every call, a
mini-sweep must complete end-to-end with every cell persisted — either
carrying a fallback-produced solution (tagged with the rung that
answered) or an explicit error record — and re-running after a
simulated mid-write kill must resume without re-solving completed
cells.
"""

from __future__ import annotations

import math

import pytest

from repro.evaluation import Evaluation, EvaluationConfig
from repro.evaluation.persistence import RecordStore, load_records
from repro.evaluation.runner import run_exact
from repro.runtime import FaultInjector, inject_faults, override_backend
from repro.workloads import small_scenario


def mini_config(**overrides) -> EvaluationConfig:
    defaults = dict(
        seeds=(0,),
        flexibilities=(0.0,),
        models=("csigma",),
        time_limit=20.0,
        num_requests=2,
    )
    defaults.update(overrides)
    return EvaluationConfig(**defaults)


class TestFallbackSweep:
    def test_sweep_completes_with_primary_dead(self, tmp_path):
        """HiGHS failing on every call: bnb answers every cell."""
        store_path = str(tmp_path / "records.jsonl")
        evaluation = Evaluation(mini_config(), store_path=store_path)
        with inject_faults("highs", always="error") as injector:
            evaluation.run_access_control()
            evaluation.run_greedy()
        assert injector.calls > 0

        assert len(evaluation.access_records) == 1
        assert len(evaluation.greedy_records) == 1
        for record in evaluation.access_records + evaluation.greedy_records:
            assert record.status in ("solved", "degraded")
            assert record.solved

        # every cell persisted; the exact cell is tagged with its rung
        on_disk = load_records(store_path)
        assert len(on_disk) == 2
        exact = [r for r in on_disk if r.algorithm == "csigma"][0]
        assert exact.rung == "bnb"

    def test_exact_degrades_to_greedy_rung(self):
        """Both exact backends dead for the model solve: the greedy,
        which solves no MILP, answers as the last rung."""
        scenario = small_scenario(0, num_requests=2)
        # the exact solve burns highs attempts 1+2 (retries=1) and bnb
        with inject_faults("highs", script={1: "error", 2: "error"}):
            with inject_faults("bnb", script={1: "error"}):
                record, solution = run_exact(
                    scenario,
                    algorithm="csigma",
                    fallback=True,
                    degrade_to_greedy=True,
                )
        assert record.status == "degraded"
        assert record.rung == "greedy"
        assert record.solved
        assert record.verified_feasible

    def test_everything_dead_yields_error_records(self, tmp_path):
        """No MILP rung can answer and the greedy rung is off: the sweep
        still completes, persisting an explicit error cell for the exact
        model instead of dying; the greedy, which solves no MILP, still
        answers its own cell."""
        store_path = str(tmp_path / "records.jsonl")
        evaluation = Evaluation(mini_config(fallback=False), store_path=store_path)
        with inject_faults("highs", always="error"):
            with inject_faults("bnb", always="error"):
                evaluation.run_access_control()
                evaluation.run_greedy()

        assert len(evaluation.access_records) == 1
        assert len(evaluation.greedy_records) == 1
        for record in evaluation.access_records:
            assert record.status == "error"
            assert not record.solved
        for record in evaluation.greedy_records:
            assert record.status == "solved"
            assert record.verified_feasible
        on_disk = load_records(store_path)
        assert len(on_disk) == 2
        assert {r.algorithm: r.status for r in on_disk} == {
            "csigma": "error",
            "greedy": "solved",
        }


class TestCrashResume:
    def test_torn_tail_resume_skips_completed_cells(self, tmp_path):
        """Kill mid-append, resume: only the torn cell is re-solved."""
        store_path = str(tmp_path / "records.jsonl")
        first = Evaluation(
            mini_config(flexibilities=(0.0, 1.0)), store_path=store_path
        )
        first.run_access_control()
        assert len(load_records(store_path)) == 2

        # simulate a mid-write kill: tear the final record line in half
        with open(store_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(store_path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])

        # the intact prefix survives the tear
        assert len(load_records(store_path)) == 1

        counter = FaultInjector("highs")  # no faults; counts calls
        with override_backend("highs", counter):
            resumed = Evaluation(
                mini_config(flexibilities=(0.0, 1.0)), store_path=store_path
            )
            resumed.run_access_control()

        # both cells present again, but only the torn one was re-solved
        assert len(resumed.access_records) == 2
        assert len(load_records(store_path)) == 2
        assert counter.calls == 1
        assert counter.injected == []

    def test_resume_does_not_resolve_anything_when_intact(self, tmp_path):
        store_path = str(tmp_path / "records.jsonl")
        Evaluation(mini_config(), store_path=store_path).run_access_control()

        counter = FaultInjector("highs")
        with override_backend("highs", counter):
            resumed = Evaluation(mini_config(), store_path=store_path)
            resumed.run_access_control()
        assert counter.calls == 0
        assert len(resumed.access_records) == 1


class TestSweepBudget:
    def test_exhausted_budget_skips_without_persisting(self, tmp_path):
        """Cells cut off by the sweep budget are not written to disk,
        so a later (resumed) run still solves them."""
        store_path = str(tmp_path / "records.jsonl")
        config = mini_config(flexibilities=(0.0, 1.0), wall_clock_budget=60.0)
        evaluation = Evaluation(config, store_path=store_path)
        # force the budget into the exhausted state before the sweep
        evaluation._budget_instance = _expired_budget()
        evaluation.run_access_control()
        assert evaluation.access_records == []
        assert not (tmp_path / "records.jsonl").exists()

        # a fresh run (healthy budget) completes the skipped cells
        fresh = Evaluation(
            mini_config(flexibilities=(0.0, 1.0)), store_path=store_path
        )
        fresh.run_access_control()
        assert len(load_records(store_path)) == 2


class TestErrorRecordShape:
    def test_error_record_round_trips(self, tmp_path):
        from repro.evaluation.runner import error_record

        scenario = small_scenario(0, num_requests=2).with_flexibility(1.0)
        record = error_record(scenario, "csigma", "access_control", "boom")
        assert record.failed
        assert math.isnan(record.objective)
        assert record.flexibility == pytest.approx(1.0)

        store = RecordStore(str(tmp_path / "err.jsonl"))
        store.add(record)
        loaded = load_records(str(tmp_path / "err.jsonl"))
        assert loaded[0].status == "error"
        assert loaded[0].error == "boom"
        # an error cell counts as measured: resume won't retry it
        assert store.has(record.seed, 1.0, "csigma")


def _expired_budget():
    from repro.runtime import SolveBudget

    now = [0.0]
    budget = SolveBudget(60.0, clock=lambda: now[0])
    now[0] = 120.0
    return budget
