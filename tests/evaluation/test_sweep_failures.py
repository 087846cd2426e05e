"""End-to-end behaviour of the evaluation sweep when solves fail.

With the fault injector forcing the exact backend to time out or fail
on every call, a mini-sweep must complete end-to-end with every cell
persisted, each exact cell recording its own backend's outcome (no
incumbent, or an explicit error record); re-running after a simulated
mid-write kill must resume without re-solving completed cells.
"""

from __future__ import annotations

import math

import pytest

from repro.evaluation import Evaluation, EvaluationConfig
from repro.evaluation.persistence import RecordStore, load_records
from repro.runtime import (
    FaultInjector,
    canonical_records,
    inject_faults,
    override_backend,
)
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


class TestFailedExactCell:
    """An exact cell reports its own backend's answer, never another
    algorithm's: Fig. 4 reads its gap, Fig. 7 compares the greedy
    against it and Fig. 8 counts its admissions."""

    def test_timeout_is_recorded_as_no_solution(self):
        config = mini_config(flexibilities=(0.0, 1.0), num_requests=3)
        clean = Evaluation(config)
        clean.run_greedy()

        evaluation = Evaluation(config)
        with inject_faults("highs", always="timeout") as highs:
            with inject_faults("bnb", always="timeout") as bnb:
                evaluation.run_access_control()
                evaluation.run_greedy()

        assert len(evaluation.access_records) == 2
        for record in evaluation.access_records:
            assert record.algorithm == "csigma"
            assert record.status == "no_solution"
            assert math.isnan(record.objective)
            assert record.gap == math.inf
            assert not record.proved_optimal
            assert not record.solved

        # one solve per exact cell, on the configured backend only
        assert highs.calls == 2
        assert bnb.calls == 0

        # Figs. 7 and 8 show the cells as missing data
        for figure in (
            evaluation.figure7_greedy_performance(),
            evaluation.figure8_accepted(),
        ):
            body = figure.splitlines()[3:]  # title, header, rule
            assert [line.split() for line in body] == [["0", "-"], ["1", "-"]]

        # the greedy phase's own records are those of a clean run
        assert evaluation.greedy_records
        assert canonical_records(evaluation.greedy_records) == canonical_records(
            clean.greedy_records
        )

    def test_backend_error_yields_error_record(self, tmp_path):
        """The exact backend raising: the sweep still completes,
        persisting an explicit error cell for the exact model instead of
        dying; the greedy, which solves no MILP, still answers its own
        cell."""
        store_path = str(tmp_path / "records.jsonl")
        evaluation = Evaluation(mini_config(), store_path=store_path)
        with inject_faults("highs", always="error"):
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


class TestEveryCellRecorded:
    def test_zero_time_limit_still_persists_every_cell(self, tmp_path):
        """A time limit bounds each solve; it never skips a cell."""
        store_path = str(tmp_path / "records.jsonl")
        config = mini_config(flexibilities=(0.0, 1.0), time_limit=0.0)
        evaluation = Evaluation(config, store_path=store_path)
        evaluation.run_access_control()
        evaluation.run_greedy()

        # HiGHS presolve may solve the small node-only master within 0 s
        # (it does here), so an exact cell is solved or has no solution
        assert len(evaluation.access_records) == 2
        assert {r.status for r in evaluation.access_records} <= {
            "solved",
            "no_solution",
        }
        assert [r.num_embedded for r in evaluation.greedy_records] == [0, 0]
        assert len(load_records(store_path)) == 4

        counter = FaultInjector("highs")
        with override_backend("highs", counter):
            resumed = Evaluation(config, store_path=store_path)
            resumed.run_access_control()
        assert counter.calls == 0
        assert canonical_records(resumed.access_records) == canonical_records(
            evaluation.access_records
        )


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

