"""Tests of arrival processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.workloads import poisson_arrivals


class TestPoisson:
    def test_count_and_monotonicity(self):
        arrivals = poisson_arrivals(50, 1.0, rng=0)
        assert len(arrivals) == 50
        assert np.all(np.diff(arrivals) > 0)

    def test_mean_interarrival(self):
        arrivals = poisson_arrivals(20000, 2.0, rng=1)
        gaps = np.diff(arrivals)
        assert gaps.mean() == pytest.approx(2.0, rel=0.05)

    def test_start_offset(self):
        arrivals = poisson_arrivals(5, 1.0, rng=0, start=100.0)
        assert arrivals[0] > 100.0

    def test_reproducible(self):
        a = poisson_arrivals(10, 1.0, rng=42)
        b = poisson_arrivals(10, 1.0, rng=42)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValidationError):
            poisson_arrivals(0, 1.0)
        with pytest.raises(ValidationError):
            poisson_arrivals(5, 0.0)

