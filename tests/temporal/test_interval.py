"""Unit and property tests of the interval algebra."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ValidationError
from repro.temporal import Interval


class TestInterval:
    def test_basic(self):
        iv = Interval(1.0, 3.0)
        assert iv.length == 2.0
        assert iv.midpoint == 2.0
        assert not iv.is_degenerate

    def test_degenerate(self):
        iv = Interval(2.0, 2.0)
        assert iv.is_degenerate
        assert iv.length == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Interval(3.0, 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            Interval(float("nan"), 1.0)

    def test_contains(self):
        iv = Interval(1.0, 3.0)
        assert iv.contains(1.0)
        assert iv.contains(3.0)
        assert not iv.contains(3.01)
        assert iv.contains(3.01, tol=0.02)

    def test_contains_interval(self):
        assert Interval(0, 10).contains_interval(Interval(2, 3))
        assert not Interval(0, 10).contains_interval(Interval(2, 11))

    def test_overlap_closed(self):
        assert Interval(0, 2).overlaps(Interval(2, 4))

    def test_overlap_strict_excludes_touching(self):
        """Open activity intervals: back-to-back requests don't contend."""
        assert not Interval(0, 2).overlaps(Interval(2, 4), strict=True)
        assert Interval(0, 2.1).overlaps(Interval(2, 4), strict=True)

    def test_intersection(self):
        assert Interval(0, 5).intersection(Interval(3, 8)) == Interval(3, 5)
        assert Interval(0, 1).intersection(Interval(2, 3)) is None

    def test_union_hull(self):
        assert Interval(0, 1).union_hull(Interval(5, 6)) == Interval(0, 6)

    def test_shifted(self):
        assert Interval(1, 2).shifted(3) == Interval(4, 5)

    def test_clamp(self):
        iv = Interval(1, 3)
        assert iv.clamp(0) == 1
        assert iv.clamp(2) == 2
        assert iv.clamp(9) == 3

    def test_ordering_and_str(self):
        assert Interval(0, 1) < Interval(1, 2)
        assert str(Interval(0, 1.5)) == "[0, 1.5]"


# ---------------------------------------------------------------------------
bounds = st.floats(-1000, 1000, allow_nan=False)


@st.composite
def intervals(draw):
    a, b = sorted((draw(bounds), draw(bounds)))
    return Interval(a, b)


@given(intervals(), intervals())
def test_intersection_symmetric(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(intervals(), intervals())
def test_overlap_iff_intersection(a, b):
    assert a.overlaps(b) == (a.intersection(b) is not None)
