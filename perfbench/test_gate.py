"""Self-test of the benchmark's failure accounting.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_gate.py

A solver error inside the greedy is swallowed as a rejection, so the
gate must catch it by comparing the cell's outcome with the reference.
"""

from __future__ import annotations

import pytest

from checkout import use_checkout_source

use_checkout_source()

import cells  # noqa: E402
from repro.runtime import inject_faults  # noqa: E402

INSTANCE = cells.Instance("small", 3, 1.0, 5)


@pytest.fixture(scope="module")
def references():
    """Clean outcomes of the greedy and its cross-check twin on INSTANCE."""
    scenario = INSTANCE.generate()
    out = {}
    for algorithm in ("greedy_csigma", "greedy_enumerative"):
        result = cells.run_cell(algorithm, INSTANCE, scenario, references=None)
        assert not result.failed, result.errors
        out[result.key] = {"outcome": result.outcome}
    return out


def run_greedy(references):
    return cells.run_cell("greedy_csigma", INSTANCE, INSTANCE.generate(), references)


def test_clean_cell_passes(references):
    result = run_greedy(references)
    assert not result.failed, result.errors
    assert result.outcome["accepted"], "instance should accept at least one request"


def test_every_solve_failing_fails_the_cell(references):
    with inject_faults("highs", always="error") as injector:
        result = run_greedy(references)
    assert injector.calls > 0
    assert result.failed


def test_one_swallowed_solver_error_fails_the_cell(references):
    # the first insertion's solve errors; the greedy rejects that request,
    # finishes, and returns a feasible solution with a different decision
    with inject_faults("highs", script={1: "error"}) as injector:
        result = run_greedy(references)
    assert injector.injected
    assert result.failed
    assert not any("raised" in error or "verify" in error for error in result.errors)
    assert any(error.startswith("accepted") for error in result.errors)
