"""Solve traces: event capture, canonical JSONL, schema, determinism.

The byte-identity regression at the bottom is the load-bearing test of
the determinism contract: a fixed-seed solve must serialize to exactly
the same trace bytes on every run.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.mip import Model, ObjectiveSense, quicksum, solve_bnb
from repro.observability import (
    MetricsRegistry,
    SolveTrace,
    current_trace,
    use_registry,
    use_trace,
    validate_event,
    validate_trace_file,
)


class TestEmit:
    def test_seq_and_context_stamping(self):
        trace = SolveTrace(context={"cell": "seed=0 flex=1 csigma"})
        trace.emit("budget", state="ok")
        trace.emit("budget", state="exhausted")
        assert [e["seq"] for e in trace.events] == [0, 1]
        assert all(e["cell"] == "seed=0 flex=1 csigma" for e in trace.events)

    def test_nonfinite_floats_encoded_as_strings(self):
        trace = SolveTrace()
        entry = trace.emit(
            "incumbent", objective=math.nan, source="search", node=1
        )
        assert entry["objective"] == "nan"
        entry = trace.emit("incumbent", objective=math.inf, source="search")
        assert entry["objective"] == "inf"
        entry = trace.emit("incumbent", objective=-math.inf, source="search")
        assert entry["objective"] == "-inf"

    def test_numpy_scalars_coerced_to_builtins(self):
        trace = SolveTrace()
        entry = trace.emit(
            "node",
            node=np.int64(3),
            status="branched",
            bound=np.float64(1.5),
            fractional=np.int32(2),
        )
        assert entry["node"] == 3 and type(entry["node"]) is int
        assert entry["bound"] == 1.5 and type(entry["bound"]) is float
        assert validate_event(entry) == []

    def test_select_and_last(self):
        trace = SolveTrace()
        trace.emit("budget", state="a")
        trace.emit("node", node=1, status="branched")
        trace.emit("budget", state="b")
        assert [e["state"] for e in trace.select("budget")] == ["a", "b"]
        assert trace.last("budget")["state"] == "b"
        assert trace.last("solve_end") is None


class TestSerialization:
    def test_canonical_jsonl_roundtrip(self, tmp_path):
        trace = SolveTrace()
        trace.emit("budget", state="exhausted", where="pre_solve")
        path = str(tmp_path / "trace.jsonl")
        assert trace.write(path) == 1
        with open(path, encoding="utf-8") as fh:
            assert [json.loads(line) for line in fh] == trace.events

    def test_canonical_form_is_sorted_and_minimal(self):
        trace = SolveTrace()
        trace.emit("budget", where="x", state="ok")
        line = trace.to_jsonl().rstrip("\n")
        assert line == json.dumps(
            json.loads(line), sort_keys=True, separators=(",", ":")
        )
        assert list(json.loads(line)) == sorted(json.loads(line))

    def test_append_mode(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        first, second = SolveTrace(), SolveTrace()
        first.emit("budget", state="a")
        second.emit("budget", state="b")
        first.write(path)
        second.write(path, append=True)
        with open(path, encoding="utf-8") as fh:
            assert [json.loads(line)["state"] for line in fh] == ["a", "b"]


class TestTraceStack:
    def test_default_is_off(self):
        assert current_trace() is None

    def test_use_trace_scopes_and_restores(self):
        trace = SolveTrace()
        with use_trace(trace):
            assert current_trace() is trace
            with use_trace(None):  # explicit shielding
                assert current_trace() is None
            assert current_trace() is trace
        assert current_trace() is None


class TestSchema:
    def test_known_good_event(self):
        assert validate_event(
            {"seq": 0, "event": "solve_start", "solver": "bnb",
             "num_vars": 3, "num_constraints": 1, "num_integral": 3}
        ) == []

    def test_missing_required_field(self):
        problems = validate_event({"seq": 0, "event": "solve_start"})
        assert any("num_vars" in p for p in problems)

    def test_unknown_event_type(self):
        assert validate_event({"seq": 0, "event": "nope"}) == [
            "unknown event type 'nope'"
        ]

    def test_unexpected_field(self):
        problems = validate_event(
            {"seq": 0, "event": "budget", "state": "ok", "wall_seconds": 3}
        )
        assert any("wall_seconds" in p for p in problems)

    def test_wrong_type(self):
        problems = validate_event(
            {"seq": 0, "event": "node", "node": "one", "status": "branched"}
        )
        assert any("expected int" in p for p in problems)

    def test_float_fields_accept_nonfinite_strings(self):
        assert validate_event(
            {"seq": 0, "event": "incumbent", "objective": "nan",
             "source": "search"}
        ) == []

    def test_validate_trace_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"seq":0,"event":"budget","state":"ok"}\n'
            '{"seq":1,"event":"mystery"}\n'
            "not json\n"
        )
        problems = validate_trace_file(str(path))
        assert len(problems) == 2
        assert any("mystery" in p for p in problems)
        assert any("unparsable" in p for p in problems)

    def test_schema_cli_exit_codes(self, tmp_path):
        from repro.observability.schema import main

        good = tmp_path / "good.jsonl"
        good.write_text('{"seq":0,"event":"budget","state":"ok"}\n')
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq":0,"event":"mystery"}\n')
        assert main([str(good)]) == 0
        assert main([str(bad)]) == 1
        assert main([]) == 2


# ---------------------------------------------------------------------------
# the determinism contract
# ---------------------------------------------------------------------------
def _knapsack():
    m = Model("knap")
    weights, profits = [2, 3, 4, 5, 7, 6], [3, 4, 5, 6, 9, 7]
    xs = [m.binary_var(f"x{i}") for i in range(len(weights))]
    m.add_constr(quicksum(w * x for w, x in zip(weights, xs)) <= 11, name="cap")
    m.set_objective(
        quicksum(p * x for p, x in zip(profits, xs)), ObjectiveSense.MAXIMIZE
    )
    return m


def _solve_traced():
    trace = SolveTrace()
    with use_registry(MetricsRegistry()), use_trace(trace):
        solution = solve_bnb(_knapsack())
    return trace, solution


class TestDeterminism:
    def test_fixed_solve_trace_is_byte_identical(self):
        """Acceptance criterion: two runs → byte-identical JSONL."""
        first, sol_a = _solve_traced()
        second, sol_b = _solve_traced()
        assert sol_a.objective == pytest.approx(sol_b.objective)
        assert first.to_jsonl() == second.to_jsonl()
        assert len(first.events) > 3  # non-trivial trace, not vacuous

    def test_trace_conforms_to_published_schema(self):
        trace, _ = _solve_traced()
        problems = [p for e in trace.events for p in validate_event(e)]
        assert problems == []

    def test_no_wall_clock_fields_in_events(self):
        # the schema has no timing fields; double-check no event smuggles
        # one in under a *_ms / runtime / seconds name
        trace, _ = _solve_traced()
        for event in trace.events:
            for key in event:
                assert not key.endswith("_ms")
                assert "runtime" not in key
                assert "seconds" not in key

    def test_end_to_end_counts_match_solution(self):
        trace, solution = _solve_traced()
        start = trace.last("solve_start")
        end = trace.last("solve_end")
        assert start["solver"] == "bnb"
        assert end["status"] == "optimal"
        assert end["nodes"] == solution.node_count
        assert end["objective"] == pytest.approx(solution.objective)


# ---------------------------------------------------------------------------
# the greedy's array-native LPs keep the solve telemetry
# ---------------------------------------------------------------------------
#: ``solve --model greedy --trace`` on ``generate --seed 0
#: --num-requests 3``: the path search accepts all three requests, so the
#: only LP is the final one over the accepted set (the last of the three
#: LPs, 48/96/144 vars, that one LP per candidate solved)
ENUMERATIVE_GREEDY_TRACE = """\
{"event":"solve_start","num_constraints":150,"num_integral":0,"num_vars":144,"seq":0,"solver":"highs"}
{"bound":7.0,"event":"solve_end","nodes":0,"objective":7.0,"seq":1,"solver":"highs","status":"optimal"}
"""


class TestEnumerativeGreedyTelemetry:
    def test_cli_trace_and_counters_pinned(self, tmp_path, capsys):
        from unittest import mock

        from repro.cli import main
        from repro.io import load_instance
        from repro.tvnep import fixed_schedule, greedy_csigma

        from ..tvnep.reference_greedy import assert_matches_reference

        instance = tmp_path / "instance.json"
        trace_path = tmp_path / "trace.jsonl"
        generate = ["generate", "--seed", "0", "--num-requests", "3"]
        assert main([*generate, "-o", str(instance)]) == 0
        capsys.readouterr()
        loaded = load_instance(instance)
        args = (loaded.substrate, loaded.requests, loaded.node_mappings)
        assert_matches_reference(greedy_csigma(*args), *args)
        with mock.patch.object(
            fixed_schedule, "solve_highs", wraps=fixed_schedule.solve_highs
        ) as lp:
            code = main(
                [
                    "solve",
                    str(instance),
                    "--model",
                    "greedy",
                    "--trace",
                    str(trace_path),
                    "--metrics-summary",
                ]
            )
        assert code == 0
        assert trace_path.read_text() == ENUMERATIVE_GREEDY_TRACE
        summary = capsys.readouterr().out.splitlines()
        # one HiGHS solve per LP; no Model is compiled, so no cache misses
        assert lp.call_count == 1
        assert f"solver.solves {lp.call_count}" in summary
        assert "fixed_schedule.path_accepts 3" in summary
        assert "greedy.accepted 3" in summary
        assert not any(line.startswith("cache.") for line in summary)
        assert validate_trace_file(trace_path) == []


# ---------------------------------------------------------------------------
# the bnb root presolve reports how many row visits it skipped
# ---------------------------------------------------------------------------
class TestBnbPresolveTelemetry:
    def test_cli_presolve_event_and_counters_pinned(self, tmp_path, capsys):
        """The CI ``bnb trace`` step, with the smoke instance's numbers.

        ``solve`` hands bnb the node-only master of the 3-request
        instance (48 rows, not the full model's 174), which presolves in
        2 rounds with 13 tightenings, visiting 67 rows and skipping 29.
        """
        from repro.cli import main

        instance = tmp_path / "instance.json"
        trace_path = tmp_path / "trace.jsonl"
        generate = ["generate", "--seed", "0", "--num-requests", "3"]
        assert main([*generate, "-o", str(instance)]) == 0
        capsys.readouterr()
        solve = ["solve", str(instance), "--backend", "bnb"]
        code = main([*solve, "--trace", str(trace_path), "--metrics-summary"])
        assert code == 0
        assert validate_trace_file(trace_path) == []
        events = [json.loads(line) for line in trace_path.read_text().splitlines()]
        (presolve,) = [e for e in events if e["event"] == "presolve"]
        assert presolve == {
            "event": "presolve",
            "feasible": True,
            "rounds": 2,
            "rows_visited": 67,
            "seq": presolve["seq"],
            "tightened_bounds": 13,
        }
        summary = capsys.readouterr().out.splitlines()
        assert "presolve.rows_visited 67" in summary
        assert "presolve.rows_skipped 29" in summary
