"""Distances between an empirical sample and the standard normal law.

The Wasserstein distance of an n-point empirical measure to N(0, 1) is
computed exactly in quantile space: on each strip between consecutive
order-statistic levels the empirical quantile is constant, and the normal
quantile integrates in closed form because phi'(t) = -t*phi(t) gives

    int_a^b ndtri(u) du = phi(ndtri(a)) - phi(ndtri(b)).

Both tails vanish in this antiderivative, so no truncation or quadrature
error enters; the only randomness is the sample itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Optional

import numpy as np

from .errors import ConfigError

__all__ = [
    "SampleSet",
    "DistanceEstimate",
    "standardize",
    "wasserstein_to_normal",
    "kolmogorov_to_normal",
    "normal_distances",
]

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_STANDARD_NORMAL = NormalDist()


def _phi(t):
    return np.exp(-0.5 * np.square(t)) / _SQRT2PI


def _ndtr(x) -> np.ndarray:
    """Standard normal CDF, element-wise, as 0.5 erfc(-x / sqrt(2))."""
    return np.array([0.5 * math.erfc(-v * _SQRT_HALF) for v in np.asarray(x, dtype=float).ravel()])


def _ndtri(u) -> np.ndarray:
    """Standard normal quantile, element-wise, for levels strictly inside (0, 1)."""
    return np.array([_STANDARD_NORMAL.inv_cdf(v) for v in np.asarray(u, dtype=float).ravel()])


@dataclass(frozen=True)
class SampleSet:
    """Standardized replicate values with provenance."""

    values: np.ndarray
    label: str = ""
    seed: Optional[int] = field(default=None, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float).ravel().copy()
        if vals.size < 2:
            raise ConfigError("need at least two sample values")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("sample values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class DistanceEstimate:
    d_w: float
    d_k: float
    n: int
    note: str = ""


def standardize(values, mean: float, sd: float) -> np.ndarray:
    """Center and scale by a known mean and standard deviation."""
    if not sd > 0:
        raise ConfigError(f"standard deviation must be positive, got {sd}")
    return (np.asarray(values, dtype=float) - float(mean)) / float(sd)


def _sorted_values(sample) -> np.ndarray:
    values = sample.values if isinstance(sample, SampleSet) else np.asarray(sample, dtype=float)
    x = np.sort(values.ravel())
    if x.size < 2:
        raise ConfigError("need at least two sample values")
    if not np.all(np.isfinite(x)):
        raise ConfigError("sample values must be finite")
    return x


def wasserstein_to_normal(sample) -> float:
    """Exact 1-Wasserstein distance of the empirical law to N(0, 1).

    d_W = int_0^1 |Fn^{-1}(u) - ndtri(u)| du.  The strip ((i-1)/n, i/n]
    contributes int |x_i - ndtri(u)| du, split at the crossing u = ndtr(x_i)
    when that level falls inside the strip.  With H(u) = -phi(ndtri(u)) as
    the antiderivative of ndtri, every piece is closed-form and the tail
    strips need no special casing since H(0) = H(1) = 0.
    """
    x = _sorted_values(sample)
    n = x.size
    u = np.arange(n + 1) / n
    h = np.zeros(n + 1)
    h[1:-1] = -_phi(_ndtri(u[1:-1]))
    a, b = u[:-1], u[1:]
    ha, hb = h[:-1], h[1:]
    c = _ndtr(x)
    hc = -_phi(x)
    cc = np.clip(c, a, b)
    hcc = np.where(c <= a, ha, np.where(c >= b, hb, hc))
    parts = x * (cc - a) - (hcc - ha) + (hb - hcc) - x * (b - cc)
    return math.fsum(parts)


def kolmogorov_to_normal(sample) -> float:
    """Sup-distance between the empirical CDF and the standard normal CDF.

    The supremum is attained against a jump of the empirical CDF, so it is
    the larger of max_i (i/n - ndtr(x_i)) and max_i (ndtr(x_i) - (i-1)/n).
    """
    x = _sorted_values(sample)
    n = x.size
    cdf = _ndtr(x)
    steps = np.arange(1, n + 1) / n
    return float(max(np.max(np.abs(steps - cdf)), np.max(np.abs(steps - 1.0 / n - cdf))))


def normal_distances(sample, note: str = "") -> DistanceEstimate:
    x = _sorted_values(sample)
    return DistanceEstimate(
        d_w=wasserstein_to_normal(x),
        d_k=kolmogorov_to_normal(x),
        n=int(x.size),
        note=note,
    )
