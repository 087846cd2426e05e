"""The sweep engine: serial-identical records, crash safety.

Acceptance scenario of the parallel engine: a quick sweep run with
``workers=4`` must produce the same record set as ``workers=1`` — for
healthy cells and for fault-injected error cells alike.  On both paths
the sweep process persists each record the moment its cell finishes,
so a crash loses only the cells still running and a resume finishes
with the records of a clean run.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from dataclasses import replace

import pytest

from repro.evaluation import Evaluation, EvaluationConfig
from repro.evaluation.persistence import RecordStore, load_records
from repro.evaluation.runner import RunRecord
from repro.runtime import inject_faults, parallel
from repro.runtime.parallel import canonical_records

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker processes must inherit the (possibly poisoned) "
    "backend registry, which requires the fork start method",
)


def quick_config(**overrides) -> EvaluationConfig:
    config = replace(EvaluationConfig.quick(), num_requests=3, time_limit=10.0)
    return replace(config, **overrides) if overrides else config


def run_records(evaluation: Evaluation) -> list[RunRecord]:
    evaluation.run_all()
    return (
        evaluation.access_records
        + evaluation.greedy_records
        + evaluation.objective_records
    )


class TestSerialParallelEquivalence:
    @needs_fork
    def test_quick_sweep_identical_records(self, tmp_path):
        serial = Evaluation(
            quick_config(), store_path=str(tmp_path / "serial.jsonl")
        )
        parallel = Evaluation(
            quick_config(workers=4), store_path=str(tmp_path / "parallel.jsonl")
        )
        records_serial = run_records(serial)
        records_parallel = run_records(parallel)
        assert len(records_serial) > 0
        assert canonical_records(records_serial) == canonical_records(
            records_parallel
        )
        # the serial store is in serial order; the parallel one holds the
        # same cells, each exactly once, in completion order
        on_disk_serial = load_records(str(tmp_path / "serial.jsonl"))
        on_disk_parallel = load_records(str(tmp_path / "parallel.jsonl"))
        serial_cells = [RecordStore._cell(r) for r in on_disk_serial]
        parallel_cells = [RecordStore._cell(r) for r in on_disk_parallel]
        assert serial_cells == [RecordStore._cell(r) for r in records_serial]
        assert len(set(parallel_cells)) == len(parallel_cells)
        assert sorted(parallel_cells) == sorted(serial_cells)
        # the sweep writes nothing besides the store files
        assert sorted(os.listdir(tmp_path)) == ["parallel.jsonl", "serial.jsonl"]

    @needs_fork
    def test_fault_injected_error_cells_match(self, tmp_path):
        # HiGHS dead: every exact cell becomes an error record, while the
        # greedy cells, which solve no MILP, succeed — identically
        # in-process and across forked workers
        config = quick_config(models=("csigma",))
        with inject_faults("highs", always="error"):
            records_serial = run_records(Evaluation(config))
            records_parallel = run_records(
                Evaluation(replace(config, workers=4))
            )
        exact = [r for r in records_serial if r.algorithm != "greedy"]
        greedy = [r for r in records_serial if r.algorithm == "greedy"]
        assert exact and greedy
        assert all(r.status == "error" for r in exact)
        assert all(r.status == "solved" and r.verified_feasible for r in greedy)

        def normalized(records):
            # the injector stamps its per-process call counter into the
            # message; that counter is test harness state, not sweep
            # output, so it is masked before comparing
            canon = canonical_records(records)
            for payload in canon:
                if payload.get("error"):
                    payload["error"] = re.sub(
                        r"call #\d+", "call #N", payload["error"]
                    )
            return canon

        assert normalized(records_serial) == normalized(records_parallel)

    @needs_fork
    def test_parallel_resume_skips_completed_cells(self, tmp_path):
        store_path = str(tmp_path / "records.jsonl")
        first = Evaluation(quick_config(workers=2), store_path=store_path)
        run_records(first)
        measured = len(load_records(store_path))

        with inject_faults("highs", always="error") as injector:
            with inject_faults("bnb", always="error"):
                resumed = Evaluation(
                    quick_config(workers=2), store_path=store_path
                )
                records = run_records(resumed)
        # everything came from disk: the poisoned backends were never hit
        assert injector.calls == 0
        assert len(records) == measured
        assert all(r.status != "error" for r in records)


CRASH_INDEX = 3  # the 4th access-control cell in serial order


def crash_on_fourth_cell(monkeypatch) -> None:
    """Make the 4th access-control cell raise a non-``ReproError``,
    which no cell turns into an error record: the sweep dies."""
    solve_cell = parallel._solve_cell

    def faulty(cell, config, scenario):
        if cell.phase == "access" and cell.index == CRASH_INDEX:
            raise RuntimeError("simulated crash")
        return solve_cell(cell, config, scenario)

    monkeypatch.setattr(parallel, "_solve_cell", faulty)


def assert_whole_distinct_cells(store_path: str) -> list[RunRecord]:
    with open(store_path, encoding="utf-8") as fh:
        content = fh.read()
    on_disk = load_records(store_path)
    # every line is a whole record (no torn tail), every cell appears once
    assert content.endswith("\n")
    assert len(content.splitlines()) == len(on_disk) + 1
    cells = [RecordStore._cell(r) for r in on_disk]
    assert len(set(cells)) == len(cells)
    return on_disk


class TestCrashSafety:
    """A sweep killed mid-phase keeps every record finished before it."""

    def crash_then_resume(self, tmp_path, monkeypatch, config):
        store_path = str(tmp_path / "records.jsonl")
        with monkeypatch.context() as patch:
            crash_on_fourth_cell(patch)
            with pytest.raises(RuntimeError, match="simulated crash"):
                Evaluation(config, store_path=store_path).run_all()
        on_disk = assert_whole_distinct_cells(store_path)

        resumed = run_records(Evaluation(config, store_path=store_path))
        clean = run_records(Evaluation(config))
        assert canonical_records(resumed) == canonical_records(clean)
        # the records kept through the crash were loaded, not re-solved
        by_cell = {RecordStore._cell(r): r for r in resumed}
        for record in on_disk:
            assert by_cell[RecordStore._cell(record)].runtime == record.runtime
        return on_disk

    def test_serial_crash_keeps_the_finished_cells(self, tmp_path, monkeypatch):
        config = quick_config()
        on_disk = self.crash_then_resume(tmp_path, monkeypatch, config)
        first_three = [
            (seed, flexibility, model, "access_control")
            for seed in config.seeds
            for flexibility in config.flexibilities
            for model in config.models
        ][:CRASH_INDEX]
        assert [RecordStore._cell(r) for r in on_disk] == first_three

    @needs_fork
    def test_parallel_crash_keeps_only_whole_cells(self, tmp_path, monkeypatch):
        config = quick_config(workers=2)
        on_disk = self.crash_then_resume(tmp_path, monkeypatch, config)
        crashed = (0, config.flexibilities[1], config.models[0], "access_control")
        assert crashed not in {RecordStore._cell(r) for r in on_disk}
