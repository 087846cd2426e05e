"""Arrival processes for synthetic workloads.

The paper draws request arrivals from a Poisson process with
exponentially distributed inter-arrival times of one hour (Sec. VI-A).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError

__all__ = ["poisson_arrivals"]


def poisson_arrivals(
    count: int,
    mean_interarrival: float,
    rng: np.random.Generator | int | None = None,
    start: float = 0.0,
) -> np.ndarray:
    """``count`` arrival times of a Poisson process.

    Inter-arrival gaps are i.i.d. exponential with the given mean; the
    first request arrives after one gap from ``start`` (so arrival
    times are strictly increasing almost surely).
    """
    if count < 1:
        raise ValidationError("need at least one arrival")
    if mean_interarrival <= 0:
        raise ValidationError("mean inter-arrival time must be > 0")
    rng = np.random.default_rng(rng)
    gaps = rng.exponential(mean_interarrival, size=count)
    return start + np.cumsum(gaps)

