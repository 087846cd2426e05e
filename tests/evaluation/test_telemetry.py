"""Sweep telemetry: serial/parallel identity, record blocks, traces.

The acceptance contract of the observability layer at the evaluation
level: a parallel sweep merges per-worker metrics into *exactly* the
deterministic snapshot a serial run produces, writes a byte-identical
trace file, and stamps every record with a ``telemetry`` block.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace

import pytest

from repro.evaluation import Evaluation, EvaluationConfig
from repro.observability import (
    MetricsRegistry,
    deterministic_snapshot,
    use_registry,
    validate_trace_file,
)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel sweep workers require the fork start method",
)


def tiny_config(**overrides) -> EvaluationConfig:
    config = replace(
        EvaluationConfig.quick(),
        seeds=(0,),
        flexibilities=(0.0, 1.0),
        models=("csigma",),
        num_requests=3,
        time_limit=10.0,
    )
    return replace(config, **overrides) if overrides else config


def run_sweep(config, trace_path=None):
    """Run the access-control sweep under a fresh registry; return
    (records, deterministic merged snapshot)."""
    registry = MetricsRegistry()
    with use_registry(registry):
        evaluation = Evaluation(config, trace_path=trace_path)
        records = evaluation.run_access_control()
    return records, deterministic_snapshot(registry.snapshot())


class TestRecordTelemetry:
    def test_every_record_carries_a_telemetry_block(self):
        records, snapshot = run_sweep(tiny_config())
        assert records
        for record in records:
            block = record.telemetry
            assert block["solves"] >= 1
            # a node-only master that HiGHS presolve solves has 0 nodes
            assert isinstance(block["nodes"], int) and block["nodes"] >= 0
            assert isinstance(block["warm_start_used"], bool)
            assert isinstance(block["wall_ms"], dict)
        # the merged registry aggregates at least what the records saw
        assert snapshot["counters"]["solver.solves"] >= len(records)


class TestSerialParallelIdentity:
    @needs_fork
    def test_merged_metrics_and_traces_match_serial(self, tmp_path):
        serial_trace = str(tmp_path / "serial.jsonl")
        parallel_trace = str(tmp_path / "parallel.jsonl")
        records_s, snap_s = run_sweep(tiny_config(), trace_path=serial_trace)
        records_p, snap_p = run_sweep(
            tiny_config(workers=2), trace_path=parallel_trace
        )
        # identical records (telemetry blocks included, wall_ms aside)
        assert len(records_s) == len(records_p)
        for a, b in zip(records_s, records_p):
            ta = dict(a.telemetry, wall_ms={})
            tb = dict(b.telemetry, wall_ms={})
            assert ta == tb, (a.scenario, a.algorithm)
        # identical merged deterministic metrics
        assert snap_s == snap_p
        # byte-identical, schema-clean trace files
        with open(serial_trace, "rb") as fh_s, open(parallel_trace, "rb") as fh_p:
            assert fh_s.read() == fh_p.read()
        assert validate_trace_file(serial_trace) == []


class TestTraceFile:
    def test_trace_events_cover_every_cell(self, tmp_path):
        from repro.observability import SolveTrace

        path = str(tmp_path / "trace.jsonl")
        records, _ = run_sweep(tiny_config(), trace_path=path)
        events = SolveTrace.read_events(path)
        assert events
        assert validate_trace_file(path) == []
        cells = {e["cell"] for e in events if "cell" in e}
        # one trace context per sweep cell that actually solved
        assert len(cells) == len(records)
