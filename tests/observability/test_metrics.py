"""The metrics registry: counters, merge semantics, scoping, summaries."""

from __future__ import annotations

import itertools

import pytest

from repro.observability import (
    MetricsRegistry,
    deterministic_snapshot,
    get_registry,
    merge_snapshots,
    set_registry,
    telemetry_block,
    use_registry,
)


class TestRegistryBasics:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 2)
        assert reg.counter("a") == 3
        assert reg.counter("never") == 0

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0)
        reg.set_gauge("g", 7.0)
        assert reg.gauge("g") == 7.0
        assert reg.gauge("never") is None

    def test_histograms_summarize(self):
        reg = MetricsRegistry()
        for value in (3.0, 1.0, 2.0):
            reg.observe("h", value)
        h = reg.histogram("h")
        assert h == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0}

    def test_timer_accumulates_ms_counter(self):
        reg = MetricsRegistry()
        with reg.timer("phase.work"):
            pass
        with reg.timer("phase.work"):
            pass
        assert reg.counter("phase.work_ms") >= 0.0
        # the suffix marks it as timing: stripped from the deterministic view
        assert "phase.work_ms" not in deterministic_snapshot(reg.snapshot())["counters"]

    def test_reset_zeroes_only_this_registry(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("x")
        b.inc("x")
        a.reset()
        assert a.counter("x") == 0
        assert b.counter("x") == 1


class TestMergeSemantics:
    def _sample(self, k):
        reg = MetricsRegistry()
        reg.inc("solver.nodes", k)
        reg.observe("lp", float(k))
        reg.set_gauge("last", float(k))
        return reg.snapshot()

    def test_merge_is_order_independent_for_counters_and_histograms(self):
        snaps = [self._sample(k) for k in (1, 2, 3)]
        merged = [
            merge_snapshots([snaps[i] for i in order])
            for order in itertools.permutations(range(3))
        ]
        for snap in merged[1:]:
            assert snap["counters"] == merged[0]["counters"]
            assert snap["histograms"] == merged[0]["histograms"]

    def test_merge_totals(self):
        merged = merge_snapshots(self._sample(k) for k in (1, 2, 3))
        assert merged["counters"]["solver.nodes"] == 6
        assert merged["histograms"]["lp"] == {
            "count": 3,
            "sum": 6.0,
            "min": 1.0,
            "max": 3.0,
        }

    def test_merge_into_existing_registry(self):
        reg = MetricsRegistry()
        reg.inc("solver.nodes", 10)
        reg.merge(self._sample(5))
        assert reg.counter("solver.nodes") == 15


class TestScoping:
    def test_use_registry_nests_and_restores(self):
        outer = get_registry()
        inner = MetricsRegistry()
        with use_registry(inner):
            assert get_registry() is inner
            get_registry().inc("scoped")
        assert get_registry() is outer
        assert inner.counter("scoped") == 1
        assert outer.counter("scoped") == 0

    def test_set_registry_returns_previous(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)
        assert get_registry() is previous


class TestDerivedViews:
    def test_deterministic_snapshot_strips_all_ms(self):
        reg = MetricsRegistry()
        reg.inc("solver.nodes", 4)
        reg.add_ms("phase.solve", 12.5)
        reg.set_gauge("w_ms", 3.0)
        reg.observe("lp_ms", 1.0)
        det = deterministic_snapshot(reg.snapshot())
        assert det["counters"] == {"solver.nodes": 4}
        assert det["gauges"] == {}
        assert det["histograms"] == {}

    def test_telemetry_block_rolls_up_counters(self):
        reg = MetricsRegistry()
        reg.inc("solver.solves", 2)
        reg.inc("solver.nodes", 9)
        reg.inc("solver.lp_iterations", 40)
        reg.inc("cache.standard_form_hits", 3)
        reg.inc("cache.standard_form_misses", 1)
        reg.inc("warmstart.used")
        reg.add_ms("phase.solve", 5.0)
        block = telemetry_block(reg.snapshot())
        assert block["solves"] == 2
        assert block["nodes"] == 9
        assert block["lp_iterations"] == 40
        assert block["cache_hits"] == 3
        assert block["cache_misses"] == 1
        assert block["warm_start_used"] is True
        assert block["wall_ms"] == {"solve": 5.0}
        assert set(block) == {
            "solves",
            "nodes",
            "lp_iterations",
            "lp_hot_starts",
            "lp_cold_starts",
            "basis_reuse_ratio",
            "rc_fixed_cols",
            "cache_hits",
            "cache_misses",
            "warm_start_used",
            "wall_ms",
        }

    def test_summary_lines_separate_timing(self):
        reg = MetricsRegistry()
        reg.inc("solver.nodes", 4)
        reg.add_ms("phase.solve", 1.0)
        lines = reg.summary_lines()
        separator = lines.index("")
        assert any("solver.nodes" in line for line in lines[:separator])
        assert any("phase.solve_ms" in line for line in lines[separator + 1 :])


class TestCacheStatsScoping:
    """Regression for the old process-global ``_CACHE_STATS`` leak."""

    def test_cache_stats_are_per_registry(self):
        from repro.mip import Model, standard_form_cache_stats

        with use_registry(MetricsRegistry()):
            m = Model()
            m.binary_var("x")
            m.to_standard_form()
            m.to_standard_form()
            inner = standard_form_cache_stats()
            assert inner == {"hits": 1, "misses": 1, "hit_rate": 0.5}
        with use_registry(MetricsRegistry()):
            # a sibling scope starts from zero — nothing leaked
            assert standard_form_cache_stats() == {
                "hits": 0,
                "misses": 0,
                "hit_rate": 0.0,
            }

    def test_reset_only_touches_active_registry(self):
        from repro.mip import (
            Model,
            reset_standard_form_cache_stats,
            standard_form_cache_stats,
        )

        outer = MetricsRegistry()
        with use_registry(outer):
            m = Model()
            m.binary_var("x")
            m.to_standard_form()
            with use_registry(MetricsRegistry()):
                reset_standard_form_cache_stats()
            assert standard_form_cache_stats()["misses"] == 1
            reset_standard_form_cache_stats()
            assert standard_form_cache_stats()["misses"] == 0
