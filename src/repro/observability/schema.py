"""The published trace-event schema and its validator.

Every event a :class:`~repro.observability.trace.SolveTrace` may emit
is declared here: its required fields (with types) and its optional
fields.  The CI ``telemetry-smoke`` job validates every line of a
real sweep trace against this schema, so the schema *is* the
compatibility contract for downstream trace consumers — extend it in
the same change that adds a new event or field.

Field types are spelled as strings: ``"int"``, ``"float"`` (accepts
ints and the ``"nan"``/``"inf"``/``"-inf"`` string encodings JSON
forces on non-finite values), ``"str"``, ``"bool"``, ``"dict"``.

Run ``python -m repro.observability.schema trace.jsonl`` to validate a
trace file from the command line (exit 1 on any violation).
"""

from __future__ import annotations

import json
import sys

__all__ = ["TRACE_SCHEMA", "COMMON_OPTIONAL", "validate_event", "validate_trace_file"]

#: fields any event may carry (trace context stamped by the sweep)
COMMON_OPTIONAL: dict[str, str] = {
    "cell": "str",
    "phase": "str",
    "stage": "str",
}

#: event type -> {"required": {field: type}, "optional": {field: type}}
TRACE_SCHEMA: dict[str, dict[str, dict[str, str]]] = {
    "model_build": {
        "required": {
            "model": "str",
            "num_vars": "int",
            "num_constraints": "int",
            "columnar_nnz": "int",
            "incremental": "bool",
        },
        "optional": {},
    },
    "link_check": {
        "required": {
            "round": "int",
            "embedded": "int",
            "feasible": "bool",
            "added": "int",
        },
        "optional": {},
    },
    "solve_start": {
        "required": {"solver": "str", "num_vars": "int", "num_constraints": "int"},
        "optional": {"num_integral": "int"},
    },
    "warm_start": {
        "required": {"accepted": "bool"},
        "optional": {"objective": "float", "reason": "str"},
    },
    "presolve": {
        "required": {"feasible": "bool"},
        "optional": {"tightened_bounds": "int", "rounds": "int", "rows_visited": "int"},
    },
    "root_relaxation": {
        "required": {"status": "str"},
        "optional": {"bound": "float"},
    },
    "lp_session": {
        "required": {},
        "optional": {},
    },
    "rc_fixing": {
        "required": {"fixed_cols": "int"},
        "optional": {"gap": "float"},
    },
    "node": {
        "required": {"node": "int", "status": "str"},
        "optional": {"bound": "float", "fractional": "int", "depth": "int"},
    },
    "incumbent": {
        "required": {"objective": "float", "source": "str"},
        "optional": {"node": "int"},
    },
    "budget": {
        "required": {"state": "str"},
        "optional": {"where": "str"},
    },
    "solve_end": {
        "required": {"solver": "str", "status": "str", "nodes": "int"},
        "optional": {
            "objective": "float",
            "bound": "float",
            "lp_iterations": "int",
            "lp_hot_starts": "int",
            "lp_cold_starts": "int",
        },
    },
}

_NONFINITE = ("nan", "inf", "-inf")


def _type_ok(value, expected: str) -> bool:
    if expected == "int":
        return isinstance(value, int) and not isinstance(value, bool)
    if expected == "float":
        if isinstance(value, bool):
            return False
        return isinstance(value, (int, float)) or value in _NONFINITE
    if expected == "str":
        return isinstance(value, str)
    if expected == "bool":
        return isinstance(value, bool)
    if expected == "dict":
        return isinstance(value, dict)
    return False


def validate_event(event: dict) -> list[str]:
    """Problems with one event dict (empty list = conforming)."""
    problems: list[str] = []
    if not isinstance(event, dict):
        return [f"event is not an object: {event!r}"]
    kind = event.get("event")
    if not isinstance(kind, str):
        return [f"missing/invalid 'event' field: {kind!r}"]
    seq = event.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        problems.append(f"{kind}: missing/invalid 'seq': {seq!r}")
    spec = TRACE_SCHEMA.get(kind)
    if spec is None:
        return problems + [f"unknown event type {kind!r}"]
    for field, expected in spec["required"].items():
        if field not in event:
            problems.append(f"{kind}: missing required field {field!r}")
        elif not _type_ok(event[field], expected):
            problems.append(
                f"{kind}.{field}: expected {expected}, got {event[field]!r}"
            )
    allowed = (
        {"seq", "event"}
        | set(spec["required"])
        | set(spec["optional"])
        | set(COMMON_OPTIONAL)
    )
    for field, value in event.items():
        if field not in allowed:
            problems.append(f"{kind}: unexpected field {field!r}")
            continue
        expected = spec["optional"].get(field) or COMMON_OPTIONAL.get(field)
        if expected is not None and not _type_ok(value, expected):
            problems.append(
                f"{kind}.{field}: expected {expected}, got {value!r}"
            )
    return problems


def validate_trace_file(path: str) -> list[str]:
    """Validate every JSONL line of ``path``; returns all problems."""
    problems: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as exc:
                problems.append(f"{path}:{lineno}: unparsable JSON ({exc})")
                continue
            for problem in validate_event(event):
                problems.append(f"{path}:{lineno}: {problem}")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if not args:
        print("usage: python -m repro.observability.schema TRACE.jsonl...", file=sys.stderr)
        return 2
    failed = False
    for path in args:
        problems = validate_trace_file(path)
        if problems:
            failed = True
            for problem in problems:
                print(problem, file=sys.stderr)
        else:
            with open(path, encoding="utf-8") as fh:
                count = sum(1 for line in fh if line.strip())
            print(f"{path}: {count} event(s) conform to the trace schema")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
