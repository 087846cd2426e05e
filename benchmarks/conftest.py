"""Shared fixtures for the benchmark suite.

Every benchmark runs at laptop scale by default (seconds, not the
paper's hours).  The scale knobs live in :class:`BenchConfig`; set the
environment variable ``REPRO_BENCH_SCALE=paper`` to run on the original
Sec. VI-A scenarios with 1 h limits (plan for a long night).

The paper's Figures 3-9 (the sweep feeding EXPERIMENTS.md) come from
``python -m repro evaluate``; the pytest-benchmark entries here time
the ablations, extensions and scaling study and attach their quality
metrics as ``extra_info``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from repro.workloads import paper_scenario, small_scenario


@dataclass(frozen=True)
class BenchConfig:
    scale: str
    seeds: tuple[int, ...]
    time_limit: float
    num_requests: int

    @classmethod
    def from_env(cls) -> "BenchConfig":
        if os.environ.get("REPRO_BENCH_SCALE") == "paper":
            return cls(
                scale="paper",
                seeds=tuple(range(24)),
                time_limit=3600.0,
                num_requests=20,
            )
        return cls(
            scale="small",
            seeds=(0,),
            time_limit=30.0,
            num_requests=5,
        )

    def scenario(self, seed: int):
        if self.scale == "paper":
            return paper_scenario(seed)
        return small_scenario(seed, num_requests=self.num_requests)


@pytest.fixture(scope="session")
def bench_config() -> BenchConfig:
    return BenchConfig.from_env()


@pytest.fixture(scope="session")
def base_scenario(bench_config):
    return bench_config.scenario(bench_config.seeds[0])
