"""Empirical distances to the standard normal."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from poisson_ustats import (
    ConfigError,
    DistanceEstimate,
    SampleSet,
    kolmogorov_to_normal,
    normal_distances,
    standardize,
    wasserstein_to_normal,
)
from poisson_ustats._streams import spawn_rng
from poisson_ustats.distance import _ndtr, _ndtri


def _quad_oracle(values: np.ndarray) -> float:
    """Direct quadrature of int_0^1 |quantile gap| du, strip by strip."""
    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    total = 0.0
    for i, x in enumerate(xs):
        a, b = i / n, (i + 1) / n
        cross = min(max(float(ndtr(x)), a), b)
        for lo, hi in ((a, cross), (cross, b)):
            if hi > lo:
                part, _ = quad(lambda u, x=x: abs(x - ndtri(u)), lo, hi, limit=200)
                total += part
    return total


def test_normal_cdf_and_quantile_match_scipy():
    # the stdlib forms against scipy.special to 1e-13 relative, tails included
    # (below x = -37.5 the CDF is subnormal and scipy flushes it to 0)
    x = np.concatenate([np.linspace(-37.0, 38.0, 4001), -np.logspace(-300, 1.5, 200), np.logspace(-300, 1.5, 200), [0.0]])
    assert np.allclose(_ndtr(x), ndtr(x), rtol=1e-13, atol=0.0)
    u = np.concatenate([np.logspace(-300, -1, 300), np.linspace(0.001, 0.999, 999), 1.0 - np.logspace(-16, -1, 200)])
    assert np.allclose(_ndtri(u), ndtri(u), rtol=1e-13, atol=0.0)


def test_sample_set_validation():
    with pytest.raises(ConfigError):
        SampleSet(np.array([1.0]))
    with pytest.raises(ConfigError):
        SampleSet(np.array([1.0, np.inf]))
    ss = SampleSet(np.array([3.0, 1.0, 2.0]), label="demo")
    assert ss.n == 3
    with pytest.raises(ValueError):
        ss.values[0] = 0.0


def test_standardize():
    vals = standardize(np.array([2.0, 4.0, 6.0]), 4.0, 2.0)
    assert np.allclose(vals, [-1.0, 0.0, 1.0])


def test_point_mass_at_zero():
    vals = np.zeros(17)
    assert wasserstein_to_normal(vals) == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-6)
    assert kolmogorov_to_normal(vals) == pytest.approx(0.5)


def test_point_mass_closed_form():
    # d_W(delta_x, N(0,1)) = E|Z - x| = 2 phi(x) + x (2 Phi(x) - 1)
    for x in (0.7, -1.3, 2.5):
        vals = np.full(9, x)
        phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        want = 2.0 * phi + x * (2.0 * float(ndtr(x)) - 1.0)
        assert wasserstein_to_normal(vals) == pytest.approx(want, abs=1e-12)


def test_wasserstein_matches_quadrature():
    rng = spawn_rng(0, "dist")
    for n in (2, 5, 24):
        vals = rng.normal(size=n) * 1.3 + 0.2
        got = wasserstein_to_normal(vals)
        want = _quad_oracle(vals)
        assert got == pytest.approx(want, abs=1e-9)


def test_wasserstein_accepts_sample_set():
    vals = spawn_rng(1, "dist").normal(size=64)
    ss = SampleSet(vals, label="x")
    assert wasserstein_to_normal(ss) == wasserstein_to_normal(vals)


def test_shift_moves_distance():
    n = 4000
    grid = ndtri((np.arange(n) + 0.5) / n)
    base = wasserstein_to_normal(grid)
    assert base < 1e-3
    shifted = wasserstein_to_normal(grid + 0.3)
    assert shifted == pytest.approx(0.3, abs=2e-3)
    assert wasserstein_to_normal(grid + 1.0) > shifted > base


def test_distance_shrinks_with_sample_size():
    prev = math.inf
    for n in (10, 100, 1000, 10_000):
        grid = ndtri((np.arange(n) + 0.5) / n)
        d = wasserstein_to_normal(grid)
        assert d < prev
        prev = d


def test_kolmogorov_hand_cases():
    # single large value: the empirical CDF is a unit step far right
    assert kolmogorov_to_normal(np.full(4, 8.0)) == pytest.approx(float(ndtr(8.0)), abs=1e-12)
    # symmetric two-point sample at +/- a
    a = 1.0
    got = kolmogorov_to_normal(np.array([-a, a]))
    assert got == pytest.approx(float(ndtr(a)) - 0.5, abs=1e-12)


def test_kolmogorov_bounded_by_wasserstein():
    rng = spawn_rng(3, "dk")
    for trial in range(25):
        n = int(rng.integers(2, 400))
        vals = rng.normal(size=n) * float(rng.uniform(0.5, 2.0)) + float(rng.uniform(-1, 1))
        dw = wasserstein_to_normal(vals)
        dk = kolmogorov_to_normal(vals)
        assert dk <= 2.0 * math.sqrt(dw) + 2.0 / math.sqrt(n)


def test_normal_distances_bundle():
    vals = spawn_rng(5, "bundle").normal(size=256)
    est = normal_distances(SampleSet(vals, label="bundle"), note="check")
    assert isinstance(est, DistanceEstimate)
    assert est.d_w == wasserstein_to_normal(vals)
    assert est.d_k == kolmogorov_to_normal(vals)
    assert est.n == 256
    assert est.note == "check"


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=300),
    st.floats(-3.0, 3.0),
)
@settings(max_examples=60, deadline=None)
def test_distances_well_behaved_under_shift(values, shift):
    base = np.asarray(values, dtype=float)
    d_w = wasserstein_to_normal(SampleSet(base))
    d_k = kolmogorov_to_normal(SampleSet(base))
    assert d_w >= 0.0
    assert 0.0 <= d_k <= 1.0
    # translating the sample moves the quantile-gap integral by at most |shift|
    shifted = wasserstein_to_normal(SampleSet(base + shift))
    assert abs(shifted - d_w) <= abs(shift) + 1e-9
