"""Tests of duration distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.workloads import paper_durations, weibull_durations, weibull_mean


class TestWeibull:
    def test_count_and_positivity(self):
        durations = weibull_durations(100, shape=2.0, scale=4.0, rng=0)
        assert len(durations) == 100
        assert np.all(durations > 0)

    def test_mean_matches_theory(self):
        durations = weibull_durations(200_000, shape=2.0, scale=4.0, rng=1)
        assert durations.mean() == pytest.approx(
            weibull_mean(2.0, 4.0), rel=0.02
        )

    def test_paper_parameters_expected_duration(self):
        """Sec. VI-A: expected duration approximately 3.5 hours."""
        assert weibull_mean(2.0, 4.0) == pytest.approx(
            4.0 * math.gamma(1.5), rel=1e-12
        )
        assert 3.4 < weibull_mean(2.0, 4.0) < 3.6

    def test_minimum_floor(self):
        durations = weibull_durations(1000, shape=0.2, scale=0.01, rng=2, minimum=0.5)
        assert durations.min() >= 0.5

    def test_reproducible(self):
        assert np.array_equal(paper_durations(10, rng=3), paper_durations(10, rng=3))

    def test_validation(self):
        with pytest.raises(ValidationError):
            weibull_durations(0, 2.0, 4.0)
        with pytest.raises(ValidationError):
            weibull_durations(5, -1.0, 4.0)
        with pytest.raises(ValidationError):
            weibull_durations(5, 2.0, 0.0)

