"""Tests of virtual networks, temporal specs and requests."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.network import Request, TemporalSpec, VirtualNetwork


def small_vnet() -> VirtualNetwork:
    v = VirtualNetwork("R")
    v.add_node("a", 1.0)
    v.add_node("b", 2.0)
    v.add_link("a", "b", 0.5)
    return v


class TestVirtualNetwork:
    def test_nodes_links(self):
        v = small_vnet()
        assert v.nodes == ("a", "b")
        assert v.links == (("a", "b"),)
        assert v.num_nodes == 2 and v.num_links == 1

    def test_demands(self):
        v = small_vnet()
        assert v.node_demand("b") == 2.0
        assert v.link_demand(("a", "b")) == 0.5
        assert v.total_node_demand() == pytest.approx(3.0)
        assert v.total_link_demand() == pytest.approx(0.5)

    def test_empty_name_rejected(self):
        with pytest.raises(ValidationError):
            VirtualNetwork("")

    def test_duplicate_node_rejected(self):
        v = small_vnet()
        with pytest.raises(ValidationError):
            v.add_node("a", 1.0)

    def test_link_requires_nodes(self):
        v = small_vnet()
        with pytest.raises(ValidationError):
            v.add_link("a", "zzz", 1.0)

    def test_self_loop_rejected(self):
        v = small_vnet()
        with pytest.raises(ValidationError):
            v.add_link("a", "a", 1.0)

    def test_negative_demand_rejected(self):
        v = VirtualNetwork("R")
        with pytest.raises(ValidationError):
            v.add_node("a", -1.0)

    def test_unknown_lookups_raise(self):
        v = small_vnet()
        with pytest.raises(ValidationError):
            v.node_demand("zzz")
        with pytest.raises(ValidationError):
            v.link_demand(("b", "a"))



class TestTemporalSpec:
    def test_valid_spec(self):
        spec = TemporalSpec(1.0, 5.0, 2.0)
        assert spec.flexibility == pytest.approx(2.0)
        assert spec.latest_start == pytest.approx(3.0)
        assert spec.earliest_end == pytest.approx(3.0)

    def test_zero_flexibility(self):
        spec = TemporalSpec(0.0, 2.0, 2.0)
        assert spec.flexibility == pytest.approx(0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValidationError):
            TemporalSpec(-1.0, 5.0, 1.0)

    def test_end_before_start_rejected(self):
        with pytest.raises(ValidationError):
            TemporalSpec(5.0, 4.0, 1.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValidationError):
            TemporalSpec(0.0, 5.0, 0.0)

    def test_oversized_duration_rejected(self):
        with pytest.raises(ValidationError):
            TemporalSpec(0.0, 1.0, 2.0)

    def test_widened(self):
        spec = TemporalSpec(1.0, 3.0, 2.0).widened(1.5)
        assert spec.end == pytest.approx(4.5)
        assert spec.flexibility == pytest.approx(1.5)

    def test_widened_negative_rejected(self):
        with pytest.raises(ValidationError):
            TemporalSpec(0.0, 2.0, 2.0).widened(-0.1)

    def test_contains_schedule(self):
        spec = TemporalSpec(0.0, 5.0, 2.0)
        assert spec.contains_schedule(1.0, 3.0)
        assert not spec.contains_schedule(4.0, 6.0)  # past window
        assert not spec.contains_schedule(1.0, 4.0)  # wrong duration


class TestRequest:
    def make(self) -> Request:
        return Request(small_vnet(), TemporalSpec(1.0, 6.0, 2.0))

    def test_accessors(self):
        r = self.make()
        assert r.name == "R"
        assert r.duration == 2.0
        assert r.earliest_start == 1.0
        assert r.latest_end == 6.0
        assert r.flexibility == pytest.approx(3.0)

    def test_revenue(self):
        r = self.make()
        assert r.revenue() == pytest.approx(2.0 * 3.0)

    def test_with_flexibility(self):
        r = self.make().with_flexibility(1.0)
        assert r.latest_end == pytest.approx(7.0)
        assert r.duration == 2.0

    def test_with_schedule(self):
        r = self.make().with_schedule(2.0, 4.0)
        assert r.earliest_start == 2.0
        assert r.latest_end == 4.0
        assert r.flexibility == pytest.approx(0.0)

    def test_with_schedule_wrong_duration_rejected(self):
        with pytest.raises(ValidationError):
            self.make().with_schedule(2.0, 5.0)

    def test_repr(self):
        assert "R" in repr(self.make())


@given(
    start=st.floats(0, 100, allow_nan=False),
    duration=st.floats(0.01, 50, allow_nan=False),
    flexibility=st.floats(0, 50, allow_nan=False),
)
def test_spec_invariants(start, duration, flexibility):
    spec = TemporalSpec(start, start + duration + flexibility, duration)
    assert spec.flexibility == pytest.approx(flexibility, abs=1e-9)
    assert spec.latest_start >= spec.start - 1e-12
    assert spec.earliest_end <= spec.end + 1e-12
    widened = spec.widened(1.0)
    assert widened.flexibility == pytest.approx(flexibility + 1.0, abs=1e-9)
