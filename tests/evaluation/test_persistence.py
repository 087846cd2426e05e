"""Tests of evaluation record persistence."""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import pytest

from repro.evaluation.persistence import (
    RecordStore,
    append_record,
    load_records,
    save_records,
)
from repro.evaluation.runner import RunRecord
from repro.exceptions import ValidationError


def record(seed=0, flex=0.0, algorithm="csigma", objective=41.5, gap=0.0):
    return RunRecord(
        scenario=f"s{seed}",
        seed=seed,
        flexibility=flex,
        algorithm=algorithm,
        objective_name="access_control",
        objective=objective,
        gap=gap,
        runtime=1.25,
        num_embedded=3,
        num_requests=6,
        node_count=17,
        status="solved",
        verified_feasible=True,
        model_stats={"variables": 100},
    )


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        originals = [record(0, 0.0), record(0, 1.0), record(1, 0.0, "delta")]
        assert save_records(originals, path) == 3
        restored = load_records(path)
        assert restored == originals

    def test_non_finite_values_survive(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        originals = [
            record(objective=math.nan, gap=math.inf),
        ]
        save_records(originals, path)
        restored = load_records(path)[0]
        assert math.isnan(restored.objective)
        assert math.isinf(restored.gap)

    def test_append_creates_header_once(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        append_record(record(0), path)
        append_record(record(1), path)
        assert len(load_records(path)) == 2
        with open(path) as fh:
            assert sum("tvnep-records" in line for line in fh) == 1

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"format": "something"}\n')
        with pytest.raises(ValidationError):
            load_records(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_records(str(path)) == []


class TestCrashSafety:
    def test_torn_final_line_is_skipped(self, tmp_path, caplog):
        path = str(tmp_path / "records.jsonl")
        save_records([record(0, 0.0), record(0, 1.0)], path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines(keepends=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])
            fh.write(lines[-1][: len(lines[-1]) // 2])

        with caplog.at_level("WARNING", logger="repro.runtime"):
            restored = load_records(path)
        assert restored == [record(0, 0.0)]
        assert any("corrupt record" in m for m in caplog.messages)

    def test_garbage_middle_line_is_skipped(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        save_records([record(0, 0.0)], path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json at all\n")
        append_record(record(0, 1.0), path)
        restored = load_records(path)
        assert [r.flexibility for r in restored] == [0.0, 1.0]

    def test_unreadable_header_treated_as_empty(self, tmp_path):
        path = tmp_path / "torn-header.jsonl"
        path.write_text('{"format": "tvnep-rec')
        assert load_records(str(path)) == []

    def test_unknown_fields_ignored(self, tmp_path):
        path = str(tmp_path / "records.jsonl")
        save_records([record(0, 0.0)], path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        payload = json.loads(lines[1])
        payload["field_from_the_future"] = 42
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(lines[0] + "\n" + json.dumps(payload) + "\n")
        assert load_records(path) == [record(0, 0.0)]

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        import os as os_module

        path = str(tmp_path / "records.jsonl")
        save_records([record(0, 0.0)], path)

        def exploding_replace(src, dst):
            raise OSError("simulated crash before rename")

        monkeypatch.setattr(os_module, "replace", exploding_replace)
        with pytest.raises(OSError):
            save_records([record(0, 1.0), record(0, 2.0)], path)
        monkeypatch.undo()

        # the original file is untouched and no temp file lingers
        assert load_records(path) == [record(0, 0.0)]
        assert [p.name for p in tmp_path.iterdir()] == ["records.jsonl"]

    def test_store_repairs_torn_tail_before_appending(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = RecordStore(path)
        store.add(record(0, 0.0))
        store.add(record(0, 1.0))
        # tear the tail (no trailing newline)
        with open(path, encoding="utf-8") as fh:
            content = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[: len(content) - len(content.splitlines()[-1]) // 2 - 1])

        reopened = RecordStore(path)
        assert len(reopened) == 1
        reopened.add(record(0, 2.0))  # must not glue onto the torn line
        final = load_records(path)
        assert [r.flexibility for r in final] == [0.0, 2.0]


class TestRecordStore:
    def test_resume_semantics(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = RecordStore(path)
        assert len(store) == 0
        assert not store.has(0, 0.0, "csigma")
        store.add(record(0, 0.0))
        assert store.has(0, 0.0, "csigma")
        assert not store.has(0, 1.0, "csigma")
        assert not store.has(0, 0.0, "delta")

    def test_reload_preserves_index(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = RecordStore(path)
        store.add(record(3, 1.5, "sigma"))
        reopened = RecordStore(path)
        assert len(reopened) == 1
        assert reopened.has(3, 1.5, "sigma")

    def test_distinct_objectives_are_distinct_cells(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        store = RecordStore(path)
        r = record()
        store.add(r)
        assert not store.has(r.seed, r.flexibility, r.algorithm, "max_earliness")


class TestSweepIdentity:
    SWEEP = {"scale": "small", "num_requests": 4, "time_limit": 15.0}

    def test_identity_round_trips(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        RecordStore(path, self.SWEEP).add(record(0, 0.0))
        reopened = RecordStore(path, dict(self.SWEEP))
        assert reopened.get(0, 0.0, "csigma") == record(0, 0.0)
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["version"] == 2
        assert header["sweep"] == self.SWEEP

    def test_differing_identity_names_the_fields(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        RecordStore(path, self.SWEEP).add(record(0, 0.0))
        other = dict(self.SWEEP, scale="paper", time_limit=1.0)
        with pytest.raises(ValidationError) as exc:
            RecordStore(path, other)
        message = str(exc.value)
        assert "scale" in message and "time_limit" in message
        assert "num_requests" not in message

    def test_header_without_identity_rejected(self, tmp_path):
        path = tmp_path / "v1.jsonl"
        path.write_text(
            '{"format": "tvnep-records", "version": 1}\n'
            + json.dumps(asdict(record(0, 0.0)))
            + "\n"
        )
        with pytest.raises(ValidationError, match="no sweep identity"):
            RecordStore(str(path), self.SWEEP)
        # the records themselves stay readable
        assert load_records(str(path)) == [record(0, 0.0)]
