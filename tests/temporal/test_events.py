"""Tests of the event-space bookkeeping and the Timeline sweep."""

from __future__ import annotations

import pytest

from repro.exceptions import ValidationError
from repro.temporal import EventSpace, Interval, Timeline


class TestEventSpaceFull:
    def test_counts(self):
        es = EventSpace(num_requests=3, compact=False)
        assert es.num_events == 6
        assert es.num_states == 5
        assert list(es.events) == [1, 2, 3, 4, 5, 6]
        assert list(es.states) == [1, 2, 3, 4, 5]

    def test_start_end_ranges_cover_everything(self):
        es = EventSpace(num_requests=2, compact=False)
        assert list(es.start_events) == list(es.events)
        assert list(es.end_events) == list(es.events)


class TestEventSpaceCompact:
    def test_counts(self):
        """Table X: |R|+1 events, |R| states."""
        es = EventSpace(num_requests=3, compact=True)
        assert es.num_events == 4
        assert es.num_states == 3

    def test_start_events_exclude_last(self):
        """Constraint (10): starts on e_1 .. e_|R|."""
        es = EventSpace(num_requests=3, compact=True)
        assert list(es.start_events) == [1, 2, 3]

    def test_end_events_exclude_first(self):
        """Constraint (11): ends on e_2 .. e_{|R|+1}."""
        es = EventSpace(num_requests=3, compact=True)
        assert list(es.end_events) == [2, 3, 4]

    def test_needs_requests(self):
        with pytest.raises(ValidationError):
            EventSpace(num_requests=0, compact=True)


class TestTimeline:
    def test_single_usage(self):
        tl = Timeline()
        tl.add_usage("n", Interval(1, 3), 2.0)
        assert tl.usage_at("n", 0.5) == 0.0
        assert tl.usage_at("n", 2.0) == 2.0
        assert tl.peak("n") == 2.0

    def test_overlapping_usages_stack(self):
        tl = Timeline()
        tl.add_usage("n", Interval(0, 4), 1.0)
        tl.add_usage("n", Interval(2, 6), 1.5)
        assert tl.usage_at("n", 1.0) == 1.0
        assert tl.usage_at("n", 3.0) == 2.5
        assert tl.usage_at("n", 5.0) == 1.5
        assert tl.peak("n") == 2.5

    def test_open_interval_semantics(self):
        """Back-to-back requests never overlap (Def. 2.1 open intervals)."""
        tl = Timeline()
        tl.add_usage("n", Interval(0, 2), 1.0)
        tl.add_usage("n", Interval(2, 4), 1.0)
        assert tl.peak("n") == 1.0
        assert tl.usage_at("n", 2.0) == 1.0

    def test_zero_amount_ignored(self):
        tl = Timeline()
        tl.add_usage("n", Interval(0, 2), 0.0)
        assert tl.peak("n") == 0.0
        assert tl.breakpoints("n") == []

    def test_degenerate_interval_ignored(self):
        tl = Timeline()
        tl.add_usage("n", Interval(2, 2), 5.0)
        assert tl.peak("n") == 0.0

    def test_negative_amount_rejected(self):
        tl = Timeline()
        with pytest.raises(ValidationError):
            tl.add_usage("n", Interval(0, 1), -1.0)

    def test_unknown_resource(self):
        tl = Timeline()
        assert tl.usage_at("ghost", 1.0) == 0.0
        assert tl.peak("ghost") == 0.0

    def test_add_usages_bulk(self):
        tl = Timeline()
        tl.add_usages({"a": 1.0, "b": 2.0}, Interval(0, 1))
        assert tl.peak("a") == 1.0
        assert tl.peak("b") == 2.0
        assert set(tl.resources()) == {"a", "b"}

    def test_violations(self):
        tl = Timeline()
        tl.add_usage("a", Interval(0, 2), 3.0)
        tl.add_usage("b", Interval(0, 2), 1.0)
        bad = tl.violations({"a": 2.0, "b": 2.0})
        assert bad == {"a": pytest.approx(1.0)}

    def test_violation_unknown_capacity_skipped(self):
        tl = Timeline()
        tl.add_usage("a", Interval(0, 1), 9.0)
        assert tl.violations({}) == {}

    def test_incremental_additions_recompile(self):
        tl = Timeline()
        tl.add_usage("a", Interval(0, 2), 1.0)
        assert tl.peak("a") == 1.0
        tl.add_usage("a", Interval(1, 3), 1.0)
        assert tl.peak("a") == 2.0

    def test_breakpoints(self):
        tl = Timeline()
        tl.add_usage("a", Interval(0, 2), 1.0)
        tl.add_usage("a", Interval(1, 3), 1.0)
        assert tl.breakpoints("a") == [0, 1, 2, 3]
