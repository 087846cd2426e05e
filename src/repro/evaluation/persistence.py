"""Persisting evaluation records to disk.

A paper-scale sweep (24 scenarios × 11 flexibilities × 3 formulations
× 1 h limits) runs for days; losing the records to a crash or wanting
to re-render figures without re-solving demands persistence.  Records
are stored as JSON-lines (one record per line, append-friendly) with a
small header line identifying the stream and the sweep that wrote it.

The :class:`RecordStore` wraps an :class:`~repro.evaluation.experiments.Evaluation`
so interrupted sweeps resume: cells whose records are already on disk
are not re-solved.  The sweep process is the only writer: it appends
each cell's record the moment the cell finishes, serial or parallel,
so a crash loses only the cells still running.  A parallel sweep's
store is in completion order; resume looks records up by cell key, so
nothing reads file order.

The header's ``sweep`` block holds the settings a record depends on
beyond its cell key (``scale``, ``num_requests``, ``time_limit``,
``backend``, ``load_fraction``); a :class:`RecordStore` opened for
another sweep raises :class:`ValidationError` instead of returning the
other sweep's records.

Crash safety: a process killed mid-append leaves a torn final line;
:func:`load_records` skips such lines with a warning instead of losing
the whole stream, and :func:`save_records` writes through a temporary
file + :func:`os.replace` so a full rewrite is atomic (readers never
observe a half-written file).
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import asdict, fields
from typing import Iterable, Mapping

from repro.evaluation.runner import RunRecord
from repro.exceptions import ValidationError

__all__ = [
    "save_records",
    "load_records",
    "append_record",
    "RecordStore",
]

logger = logging.getLogger("repro.runtime")

_FORMAT = "tvnep-records"
_VERSION = 2

_FIELD_NAMES = frozenset(f.name for f in fields(RunRecord))


def _encode(record: RunRecord) -> dict:
    payload = asdict(record)
    # JSON has no inf/nan literals; encode as strings
    for key in ("objective", "gap"):
        value = payload[key]
        if isinstance(value, float) and not math.isfinite(value):
            payload[key] = "inf" if math.isinf(value) else "nan"
    return payload


def _decode(payload: dict) -> RunRecord:
    for key in ("objective", "gap"):
        value = payload.get(key)
        if value == "inf":
            payload[key] = math.inf
        elif value == "nan":
            payload[key] = math.nan
    # ignore fields from newer/older record versions
    return RunRecord(**{k: v for k, v in payload.items() if k in _FIELD_NAMES})


def _header(sweep: Mapping | None) -> str:
    header = {"format": _FORMAT, "version": _VERSION, "sweep": dict(sweep or {})}
    return json.dumps(header) + "\n"


def save_records(
    records: Iterable[RunRecord], path: str, sweep: Mapping | None = None
) -> int:
    """Write records as JSON-lines; returns how many were written.

    ``sweep`` is the identity recorded in the header (see
    :class:`RecordStore`).

    The write is atomic: records go to a sibling temporary file which
    replaces ``path`` only after everything is flushed to disk, so a
    crash mid-write never corrupts an existing record file.
    """
    count = 0
    tmp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            fh.write(_header(sweep))
            for record in records:
                fh.write(json.dumps(_encode(record)) + "\n")
                count += 1
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
    finally:
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
    return count


def append_record(
    record: RunRecord, path: str, sweep: Mapping | None = None
) -> None:
    """Append one record, creating the file (with header) if missing."""
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    with open(path, "a", encoding="utf-8") as fh:
        if not exists:
            fh.write(_header(sweep))
        fh.write(json.dumps(_encode(record)) + "\n")


def load_records(path: str) -> list[RunRecord]:
    """Read a JSON-lines record file (validating the header).

    A file whose header parses but names a different format is rejected
    with :class:`ValidationError`.  Torn or corrupt *record* lines —
    the signature of a process killed mid-append — are skipped with a
    warning so the intact prefix survives; a resumed sweep re-solves
    only the dropped cells.
    """
    return _read(path)[1]


def _read(path: str) -> tuple[dict | None, list[RunRecord]]:
    """The header (``None`` if empty or unreadable) and the records."""
    records: list[RunRecord] = []
    with open(path, encoding="utf-8") as fh:
        header_line = fh.readline()
        if not header_line:
            return None, []
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError:
            logger.warning(
                "record file %s has an unreadable header; treating as empty",
                path,
            )
            return None, []
        if not isinstance(header, dict) or header.get("format") != _FORMAT:
            fmt = header.get("format") if isinstance(header, dict) else header
            raise ValidationError(f"not a record stream (format={fmt!r})")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(_decode(json.loads(line)))
            except (json.JSONDecodeError, TypeError) as exc:
                logger.warning(
                    "skipping corrupt record at %s:%d (%s)", path, lineno, exc
                )
    return header, records


class RecordStore:
    """Append-only store with cell-level resume semantics.

    A *cell* is ``(seed, flexibility, algorithm, objective_name)``;
    :meth:`has` answers whether it was already measured, :meth:`get`
    returns its record, :meth:`add` appends and indexes a new record.

    ``sweep`` is the identity of the sweep the records belong to (the
    settings a record depends on beyond its cell key).  It is written
    to the header of a new file; an existing file whose header records
    a different identity, or none, raises :class:`ValidationError`
    naming the differing fields.
    """

    def __init__(self, path: str, sweep: Mapping | None = None) -> None:
        self.path = path
        self.sweep = dict(sweep or {})
        header, self.records = (
            _read(path) if os.path.exists(path) else (None, [])
        )
        if header is not None:
            self._check_sweep(header)
        self._cells: dict[tuple, RunRecord] = {}
        for record in self.records:
            self._cells.setdefault(self._cell(record), record)
        self._repair_torn_tail()

    def _check_sweep(self, header: dict) -> None:
        stored = header.get("sweep")
        if not isinstance(stored, dict):
            raise ValidationError(
                f"record store {self.path} records no sweep identity "
                f"(header version {header.get('version')}); use a new store"
            )
        differing = [
            f"{name} {stored.get(name)!r} (store) != {self.sweep.get(name)!r}"
            for name in sorted(stored.keys() | self.sweep.keys())
            if stored.get(name) != self.sweep.get(name)
        ]
        if differing:
            raise ValidationError(
                f"record store {self.path} belongs to another sweep: "
                + ", ".join(differing)
            )

    def _repair_torn_tail(self) -> None:
        """Atomically rewrite the file if its tail is torn.

        Without this, appending after a mid-write kill would glue the
        next record onto the half-written line, corrupting both.
        """
        if not os.path.exists(self.path):
            return
        with open(self.path, encoding="utf-8") as fh:
            content = fh.read()
        intact_lines = sum(1 for line in content.splitlines() if line.strip())
        if content.endswith("\n") and intact_lines == len(self.records) + 1:
            return
        logger.warning(
            "record file %s has a torn tail; rewriting %d intact record(s)",
            self.path,
            len(self.records),
        )
        save_records(self.records, self.path, self.sweep)

    @staticmethod
    def _cell(record: RunRecord) -> tuple:
        return (
            record.seed,
            record.flexibility,
            record.algorithm,
            record.objective_name,
        )

    def has(
        self,
        seed: int | None,
        flexibility: float,
        algorithm: str,
        objective_name: str = "access_control",
    ) -> bool:
        return (seed, flexibility, algorithm, objective_name) in self._cells

    def get(
        self,
        seed: int | None,
        flexibility: float,
        algorithm: str,
        objective_name: str = "access_control",
    ) -> RunRecord | None:
        return self._cells.get((seed, flexibility, algorithm, objective_name))

    def add(self, record: RunRecord) -> None:
        append_record(record, self.path, self.sweep)
        self.records.append(record)
        self._cells.setdefault(self._cell(record), record)

    def __len__(self) -> int:
        return len(self.records)
