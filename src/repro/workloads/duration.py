"""Duration distributions for synthetic workloads.

The paper samples request durations from a Weibull distribution with
shape 2 and scale 4 "hours" — expected duration ``4 * Gamma(1.5) ≈
3.545`` hours, heavy-ish right tail (Sec. VI-A).
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import ValidationError

__all__ = [
    "weibull_durations",
    "paper_durations",
    "weibull_mean",
]


def weibull_mean(shape: float, scale: float) -> float:
    """Expected value ``scale * Gamma(1 + 1/shape)`` of a Weibull law."""
    return scale * math.gamma(1.0 + 1.0 / shape)


def weibull_durations(
    count: int,
    shape: float,
    scale: float,
    rng: np.random.Generator | int | None = None,
    minimum: float = 1e-3,
) -> np.ndarray:
    """``count`` Weibull-distributed durations, floored at ``minimum``.

    The floor guards against pathological near-zero samples (the TVNEP
    requires strictly positive durations).
    """
    if count < 1:
        raise ValidationError("need at least one duration")
    if shape <= 0 or scale <= 0:
        raise ValidationError("Weibull shape and scale must be > 0")
    rng = np.random.default_rng(rng)
    samples = scale * rng.weibull(shape, size=count)
    return np.maximum(samples, minimum)


def paper_durations(
    count: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """The paper's Weibull(shape=2, scale=4) duration samples."""
    return weibull_durations(count, shape=2.0, scale=4.0, rng=rng)

