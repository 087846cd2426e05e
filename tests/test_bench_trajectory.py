"""Schema and history order of the committed ``BENCH_trajectory.json``.

The trajectory is append-only: one record per PR, naming the commit its
change was measured against.  Those commits must appear in ``git log``
in the order of the records; the check skips when the checkout has no
full history (no ``git``, not a repository, or a shallow clone).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY = ROOT / "BENCH_trajectory.json"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
LAYERS = {m["name"] for m in BENCHMARK["per_layer"] if m["name"].endswith(".self_s")}


def records() -> list[dict]:
    data = json.loads(TRAJECTORY.read_text())
    assert set(data) == {"about", "records"}
    assert isinstance(data["about"], str) and data["about"]
    assert data["records"], "the trajectory holds no record"
    return data["records"]


def is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_metric(value, required: bool) -> None:
    if value is None:
        assert not required, "a measured record states every metric"
        return
    assert set(value) == {"median", "iqr"}
    assert is_number(value["median"])
    iqr = value["iqr"]
    if iqr is None:
        assert not required, "a measured record states every IQR"
        return
    assert isinstance(iqr, list) and len(iqr) == 2
    assert all(is_number(q) for q in iqr) and iqr[0] <= iqr[1]


def test_schema():
    pr = -1
    for record in records():
        assert set(record) <= {
            "pr", "title", "base_commit", "transcribed", "machine", "workloads", "self_s"
        }
        assert isinstance(record["pr"], int) and record["pr"] > pr
        pr = record["pr"]
        assert isinstance(record["title"], str) and record["title"]
        assert re.fullmatch(r"[0-9a-f]{7,40}", record["base_commit"])
        assert isinstance(record["transcribed"], bool)
        assert isinstance(record["machine"], str) and record["machine"]
        measured = not record["transcribed"]
        assert record["workloads"] and set(record["workloads"]) <= WORKLOADS
        for runs in record["workloads"].values():
            assert runs
            for run in runs:
                assert set(run) - {"note"} == {"seed", "pairs", "base", "change"}
                assert isinstance(run["seed"], int) and run["seed"] >= 0
                assert isinstance(run["pairs"], int) and run["pairs"] >= 1
                assert isinstance(run.get("note", ""), str)
                for side in ("base", "change"):
                    assert set(run[side]) == END_TO_END
                    for value in run[side].values():
                        check_metric(value, required=measured)
        for workload, layers in record.get("self_s", {}).items():
            assert workload in WORKLOADS
            for layer, value in layers.items():
                assert layer in LAYERS
                assert set(value) == {"base", "change"}
                assert all(v is None or is_number(v) for v in value.values())


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def test_commits_follow_git_log_order():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    try:
        shallow = git("rev-parse", "--is-shallow-repository")
    except subprocess.CalledProcessError:
        pytest.skip("not a git checkout")
    if shallow != "false":
        pytest.skip("shallow clone: the recorded commits may be missing")
    # oldest first
    history = git("log", "--format=%H", "--reverse").splitlines()
    position = {sha: i for i, sha in enumerate(history)}
    last = -1
    for record in records():
        sha = git("rev-parse", "--verify", record["base_commit"] + "^{commit}")
        assert sha in position, f"PR {record['pr']}: {sha} is not in git log"
        assert position[sha] > last, f"PR {record['pr']} is out of history order"
        last = position[sha]
