"""The parallel sweep engine: serial-identical records, shard safety.

Acceptance scenario of the parallel engine: a quick sweep run with
``workers=4`` must produce the same record set as ``workers=1`` — for
healthy cells and for fault-injected error cells alike — and the
per-worker shard files must make concurrent writers safe and crashes
recoverable.
"""

from __future__ import annotations

import multiprocessing
import os
import re
from dataclasses import replace

import pytest

from repro.evaluation import Evaluation, EvaluationConfig
from repro.evaluation.persistence import (
    RecordStore,
    append_record,
    load_records,
    merge_shards,
    shard_path,
)
from repro.evaluation.runner import RunRecord
from repro.runtime import inject_faults
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


def make_record(seed, flex, algorithm="csigma", objective_name="access_control"):
    return RunRecord(
        scenario=f"s{seed}",
        seed=seed,
        flexibility=flex,
        algorithm=algorithm,
        objective_name=objective_name,
        objective=41.5,
        gap=0.0,
        runtime=1.25,
        num_embedded=3,
        num_requests=6,
        node_count=17,
        status="solved",
        verified_feasible=True,
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
        # the persisted streams match cell-for-cell, in serial order
        on_disk_serial = load_records(str(tmp_path / "serial.jsonl"))
        on_disk_parallel = load_records(str(tmp_path / "parallel.jsonl"))
        assert [RecordStore._cell(r) for r in on_disk_serial] == [
            RecordStore._cell(r) for r in on_disk_parallel
        ]
        # no shard files survive a clean run
        assert not [p for p in os.listdir(tmp_path) if ".shard-" in p]

    @needs_fork
    def test_fault_injected_error_cells_match(self, tmp_path):
        # both rungs dead and no fallback: every exact cell becomes an
        # error record, while the greedy cells, which solve no MILP,
        # succeed — identically in-process and across forked workers
        config = quick_config(models=("csigma",), fallback=False)
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


class TestShardSafety:
    def test_concurrent_writers_on_distinct_shards(self, tmp_path):
        """Two processes racing on one store path, each on its own
        shard: every record survives, exactly once."""
        store_path = str(tmp_path / "records.jsonl")
        flexes = [i * 0.25 for i in range(8)]

        def write_shard(worker_id: int) -> None:
            for flex in flexes:
                append_record(
                    make_record(worker_id, flex), shard_path(store_path, worker_id)
                )

        procs = [
            multiprocessing.Process(target=write_shard, args=(k,))
            for k in range(2)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join()
            assert p.exitcode == 0

        store = RecordStore(store_path)
        assert len(store) == 2 * len(flexes)
        assert len({RecordStore._cell(r) for r in store.records}) == len(store)
        # the shards were folded in and removed
        assert not os.path.exists(shard_path(store_path, 0))
        assert not os.path.exists(shard_path(store_path, 1))

    def test_merge_dedupes_against_main_store(self, tmp_path):
        store_path = str(tmp_path / "records.jsonl")
        duplicated = make_record(0, 0.0)
        append_record(duplicated, store_path)
        append_record(duplicated, shard_path(store_path, 0))
        append_record(make_record(0, 1.0), shard_path(store_path, 0))

        assert merge_shards(store_path) == 1
        records = load_records(store_path)
        assert len(records) == 2
        assert merge_shards(store_path) == 0  # idempotent, shards gone

    def test_torn_shard_tail_recovers_intact_prefix(self, tmp_path):
        """A worker killed mid-append leaves a torn shard line; the
        intact records still merge (reusing the torn-line tolerance)."""
        store_path = str(tmp_path / "records.jsonl")
        shard = shard_path(store_path, 0)
        append_record(make_record(0, 0.0), shard)
        append_record(make_record(0, 1.0), shard)
        with open(shard, encoding="utf-8") as fh:
            content = fh.read()
        with open(shard, "w", encoding="utf-8") as fh:
            fh.write(content[: len(content) - len(content.splitlines()[-1]) // 2])

        store = RecordStore(store_path)
        assert len(store) == 1
        assert store.has(0, 0.0, "csigma")
