"""Kernel sums, difference operators, chaos kernels, and variances."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ustats import (
    BallWindow,
    BoxWindow,
    CapacityError,
    ConfigError,
    Estimate,
    IntegrationError,
    Integrator,
    IntensityModel,
    PointConfiguration,
    UStatKernel,
    chaos_kernel,
    check_symmetry,
    counterexample_kernel,
    difference,
    evaluate,
    expectation,
    gilbert_kernel,
    iterated_difference,
    m_ij,
    ou_generator,
    ou_generator_direct,
    ou_inverse,
    pairwise_distance_kernel,
    sample_points,
    variance,
    variance_terms,
)
from poisson_ustats._streams import spawn_rng
from poisson_ustats.ustat_core import _product_integral

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))

# mean distance between two independent uniform points of the unit square
MEAN_DIST_SQUARE = (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0
# mean distance from the centre of the unit square to a uniform point
MEAN_DIST_CENTER = (math.sqrt(2.0) + math.asinh(1.0)) / 6.0


def _count_kernel():
    return UStatKernel(1, lambda t: np.ones(t.shape[0]), name="unit-count")


def test_estimate_helpers():
    est = Estimate(2.0, 0.1, 10)
    assert float(est) == 2.0
    assert est.within(2.25)
    assert not est.within(2.5)


def test_kernel_validation():
    with pytest.raises(ConfigError):
        UStatKernel(0, lambda t: t)
    with pytest.raises(ConfigError):
        UStatKernel(2, lambda t: t, locality=-1.0)


def test_at_intensity_bakes_factor():
    kern = UStatKernel(
        1,
        lambda t: np.ones(t.shape[0]),
        geometric=True,
        intensity_factor=lambda lam: 1.0 / lam,
    )
    fixed = kern.at_intensity(4.0)
    assert fixed.intensity_factor is None
    assert fixed(np.zeros((3, 1, 2)))[0] == pytest.approx(0.25)


def test_evaluate_counts_points():
    cfg = PointConfiguration(np.array([[0.1, 0.1], [0.2, 0.7], [0.9, 0.4]]))
    assert evaluate(_count_kernel(), cfg) == 3.0


def test_evaluate_empty_and_short_configs():
    kern = pairwise_distance_kernel()
    assert evaluate(kern, PointConfiguration(np.empty((0, 2)))) == 0.0
    assert evaluate(kern, PointConfiguration(np.array([[0.3, 0.3]]))) == 0.0


def test_evaluate_ordered_pair_sum():
    # three collinear points spaced 1 apart: distances 1, 1, 2 summed over
    # ordered pairs give 8
    cfg = PointConfiguration(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))
    assert evaluate(pairwise_distance_kernel(), cfg) == pytest.approx(8.0)


def test_evaluate_matches_itertools_oracle():
    rng = spawn_rng(2024, "oracle")
    pts = rng.random((7, 2))
    cfg = PointConfiguration(pts)

    def fn(t):
        return t[:, :, 0].sum(axis=1) * np.exp(-t[:, :, 1].sum(axis=1))

    kern = UStatKernel(3, fn, name="smooth")
    brute = 0.0
    for tup in itertools.permutations(range(7), 3):
        brute += float(fn(pts[list(tup)][None])[0])
    assert evaluate(kern, cfg) == pytest.approx(brute, rel=1e-12)
    assert evaluate(kern, cfg, exhaustive=True) == pytest.approx(brute, rel=1e-12)


def _diameter_kernel(order: int, delta: float, weighted: bool) -> UStatKernel:
    """1 (or a smooth positive weight) on tuples of diameter <= delta, else 0."""

    def fn(t):
        gaps = np.linalg.norm(t[:, :, None, :] - t[:, None, :, :], axis=-1)
        close = np.all(gaps <= delta, axis=(1, 2))
        if not weighted:
            return close.astype(float)
        return close * np.exp(-np.abs(t).sum(axis=(1, 2)))

    return UStatKernel(order, fn, locality=delta)


@st.composite
def _local_cases(draw):
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    if draw(st.booleans()):
        window = BallWindow(draw(st.floats(0.5, 2.0)), dim)
    else:
        corner = draw(st.lists(st.floats(-20.0, 20.0), min_size=dim, max_size=dim))
        window = BoxWindow(tuple((lo, lo + draw(st.floats(0.5, 3.0))) for lo in corner))
    n = draw(st.integers(order, 30 if order == 3 else 60))
    pts = window.sample(spawn_rng(draw(st.integers(0, 2**16)), "locality"), n)
    return order, draw(st.floats(0.02, 1.5)), PointConfiguration(pts)


@given(_local_cases())
@settings(max_examples=80, deadline=None)
def test_locality_matches_exhaustive(case):
    order, delta, cfg = case
    count = _diameter_kernel(order, delta, weighted=False)
    assert evaluate(count, cfg) == evaluate(count, cfg, exhaustive=True)
    smooth = _diameter_kernel(order, delta, weighted=True)
    assert evaluate(smooth, cfg) == pytest.approx(evaluate(smooth, cfg, exhaustive=True), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "pts, delta",
    [([[0.0, 0.0], [0.1, 0.0]], 0.1), ([[0.25, 0.5], [0.5, 0.5]], 0.25)],
)
def test_locality_counts_pairs_exactly_delta_apart(pts, delta):
    # the second point sits on a cell edge, exactly delta away in floats
    kern = gilbert_kernel(delta)
    cfg = PointConfiguration(np.array(pts))
    assert evaluate(kern, cfg, exhaustive=True) == 1.0
    assert evaluate(kern, cfg) == 1.0


def test_locality_grid_too_large_to_index():
    cfg = PointConfiguration(spawn_rng(8, "wide").random((100, 10)))
    with pytest.raises(CapacityError):
        evaluate(gilbert_kernel(1e-3), cfg)


def test_difference_identity():
    kern = pairwise_distance_kernel()
    im = IntensityModel(8.0, UNIT_SQUARE)
    rng = spawn_rng(5, "diff")
    for case in range(100):
        cfg = sample_points(im, case)
        y = UNIT_SQUARE.sample(rng, 1)[0]
        lhs = difference(kern, cfg, y)
        rhs = evaluate(kern, cfg.with_point(y)) - evaluate(kern, cfg)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_iterated_difference_order_k():
    # D^k F is k! times the kernel at the added points, independent of the
    # configuration
    kern = pairwise_distance_kernel()
    cfg = sample_points(IntensityModel(5.0, UNIT_SQUARE), 1)
    ys = np.array([[0.2, 0.2], [0.8, 0.5]])
    expect = 2.0 * float(kern(ys[None])[0])
    assert iterated_difference(kern, cfg, ys) == pytest.approx(expect, rel=1e-12)
    empty = PointConfiguration(np.empty((0, 2)))
    assert iterated_difference(kern, empty, ys) == pytest.approx(expect, rel=1e-12)


def test_iterated_difference_vanishes_past_k():
    kern = pairwise_distance_kernel()
    cfg = sample_points(IntensityModel(5.0, UNIT_SQUARE), 2)
    ys = UNIT_SQUARE.sample(spawn_rng(3), 3)
    assert iterated_difference(kern, cfg, ys) == 0.0


def test_first_difference_amounts_to_cross_sum():
    kern = pairwise_distance_kernel()
    cfg = PointConfiguration(np.array([[0.0, 0.0], [0.0, 1.0]]))
    y = np.array([1.0, 0.0])
    # adding y creates ordered pairs with both old points
    expect = 2.0 * (1.0 + math.sqrt(2.0))
    assert difference(kern, cfg, y) == pytest.approx(expect, rel=1e-12)


def test_expectation_matches_closed_form():
    kern = pairwise_distance_kernel()
    im = IntensityModel(20.0, UNIT_SQUARE)
    est = expectation(kern, im, Integrator(samples=200_000, seed=4))
    assert est.se > 0
    assert est.within(400.0 * MEAN_DIST_SQUARE)


def test_chaos_kernel_first_order():
    kern = pairwise_distance_kernel()
    lam = 3.0
    im = IntensityModel(lam, UNIT_SQUARE)
    est = chaos_kernel(kern, 1, [[0.5, 0.5]], im, Integrator(samples=100_000, seed=8))
    assert est.within(2.0 * lam * MEAN_DIST_CENTER)


def test_chaos_kernel_top_order_is_exact():
    kern = pairwise_distance_kernel()
    im = IntensityModel(3.0, UNIT_SQUARE)
    ys = np.array([[0.1, 0.1], [0.4, 0.5]])
    est = chaos_kernel(kern, 2, ys, im, Integrator(samples=16, seed=0))
    assert est.se == 0.0
    assert est.value == pytest.approx(float(kern(ys[None])[0]), rel=1e-12)


def test_chaos_kernel_orders_outside_range():
    kern = pairwise_distance_kernel()
    im = IntensityModel(3.0, UNIT_SQUARE)
    with pytest.raises(ConfigError):
        chaos_kernel(kern, 0, [[0.5, 0.5]], im, Integrator(samples=16))
    past = chaos_kernel(
        kern, 3, UNIT_SQUARE.sample(spawn_rng(0), 3), im, Integrator(samples=16)
    )
    assert past.value == 0.0 and past.se == 0.0


def test_ou_generator_k1_closed_form():
    kern = _count_kernel()
    im = IntensityModel(1.0, UNIT_SQUARE)
    cfg = sample_points(im, 6)
    est = ou_generator(kern, cfg, im, Integrator(samples=64, seed=0))
    # L F = lam - N for a pure count
    assert est.value == pytest.approx(1.0 - cfg.size, rel=1e-12)
    assert est.se == 0.0


def test_ou_generator_forms_agree():
    kern = pairwise_distance_kernel()
    im = IntensityModel(4.0, UNIT_SQUARE)
    integ = Integrator(samples=30_000, seed=1)
    for seed in (0, 1, 2):
        cfg = sample_points(im, seed)
        a = ou_generator(kern, cfg, im, integ)
        b = ou_generator_direct(kern, cfg, im, integ)
        gap = abs(a.value - b.value)
        assert gap <= 4.0 * math.hypot(a.se, b.se) + 1e-9


def test_ou_inverse_k1():
    kern = _count_kernel()
    lam = 2.5
    im = IntensityModel(lam, UNIT_SQUARE)
    cfg = sample_points(im, 10)
    est = ou_inverse(kern, cfg, im, Integrator(samples=64, seed=0))
    # pure first chaos: L^-1 (F - EF) = EF - F
    assert est.value == pytest.approx(lam - cfg.size, rel=1e-12)


def test_ou_inverse_pure_second_chaos():
    kern = counterexample_kernel()
    win = BoxWindow(((-1.0, 1.0),))
    im = IntensityModel(3.0, win)
    cfg = sample_points(im, 2)
    integ = Integrator(samples=4096, seed=7, strata=2)
    est = ou_inverse(kern, cfg, im, integ)
    # EF = 0 and F is a pure second chaos, so L^-1(F - EF) = -F/2; the
    # stratified integrator makes the piecewise-constant integrals exact
    assert est.value == pytest.approx(-evaluate(kern, cfg) / 2.0, abs=1e-12)


def test_variance_terms_constant_kernel():
    terms = variance_terms(_count_kernel(), UNIT_SQUARE, Integrator(samples=256, seed=0))
    assert len(terms) == 1
    assert terms[0].value == 1.0
    assert terms[0].se == 0.0


def test_variance_terms_stratify_the_top_order_term():
    # level 2 on a 2-fold integral over the square makes 2^4 = 16 strata, so a
    # stratified draw of 100 tuples keeps 16 * 6 = 96 of them
    terms = variance_terms(pairwise_distance_kernel(), UNIT_SQUARE, Integrator(samples=100, seed=3, strata=2))
    assert terms[1].n == 96
    assert terms[1].value > 0 and 0 < terms[1].se < math.inf


def test_variance_terms_stratified_se_matches_the_spread():
    # order 1, so T_1 = int f^2 is the top-order term; the per-stratum
    # standard error must track the spread of the estimate over seeds
    kern = UStatKernel(1, lambda t: t[:, 0, 0] + t[:, 0, 1], name="coordinate-sum")
    est = [variance_terms(kern, UNIT_SQUARE, Integrator(samples=1600, seed=s, strata=4))[0] for s in range(50)]
    spread = float(np.std([e.value for e in est], ddof=1))
    assert np.mean([e.se for e in est]) == pytest.approx(spread, rel=0.3)


@pytest.mark.parametrize(
    "estimate",
    [
        lambda win, integ: m_ij(UStatKernel(1, lambda t: 1.0 + t[:, 0, 0]), 1, 1, IntensityModel(1.0, win), integ),
        lambda win, integ: ou_inverse(
            pairwise_distance_kernel(), sample_points(IntensityModel(3.0, win), 1), IntensityModel(3.0, win), integ
        ),
    ],
    ids=["m_ij", "ou_inverse"],
)
def test_estimate_counts_the_draws_made(estimate):
    # on [0, 1] level 2 makes 2 strata per variable: of 101 requested draws a
    # 1-fold integral keeps 2 * 50 and a 2-fold one 4 * 25 (m_ij here is one
    # 1-fold diagram integral, ou_inverse a 2-fold and a 1-fold integral)
    est = estimate(BoxWindow(((0.0, 1.0),)), Integrator(samples=101, seed=0, strata=2))
    assert est.n == 100


def test_product_integral_reuses_repeated_top_order_copies():
    # four copies of an order-2 kernel on the same two shared variables: the
    # kernel is evaluated once per integrand call, and the estimate equals the
    # plain product of four evaluations bit for bit
    calls = []

    def fn(t):
        calls.append(len(t))
        return 1.0 + t[:, 0, 0] * t[:, 1, 1] + t[:, 1, 0] * t[:, 0, 1]

    win = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
    for integ in (Integrator(samples=500, seed=4), Integrator(samples=512, seed=4, strata=2)):
        calls.clear()
        est = _product_integral(fn, 2, win, integ, 2, [range(2)] * 4, ("reuse",), scale=3.0)
        assert len(calls) == 1
        calls.clear()
        plain = integ.integrate(lambda ys: np.ones(len(ys)) * fn(ys) * fn(ys) * fn(ys) * fn(ys), win, 2, path=("reuse", 0))
        assert len(calls) == 4
        assert (est.value, est.se, est.n) == (3.0 * plain.value, 3.0 * plain.se, plain.n)


def test_integrate_repeat_averages_independent_batches():
    # repeat batches are drawn in chunks; the value is their mean, n counts
    # every draw, and under strata > 1 each batch is stratified on its own
    win = BoxWindow(((0.0, 1.0),))
    integ = Integrator(samples=2000, seed=5, strata=2)
    est = integ.integrate(lambda x: x[:, 0, 0] ** 2, win, 1, path=("repeat",), repeat=20)
    assert est.n == 40_000
    assert est.within(1.0 / 3.0, 4.0)
    single = integ.integrate(lambda x: x[:, 0, 0] ** 2, win, 1, path=("repeat",))
    assert est.se == pytest.approx(single.se / math.sqrt(20), rel=0.2)


def test_variance_counterexample_exact():
    kern = counterexample_kernel()
    win = BoxWindow(((-1.0, 1.0),))
    integ = Integrator(samples=256, seed=0, strata=2)
    for lam in (2.0, 5.0, 12.0):
        est = variance(kern, IntensityModel(lam, win), integ)
        assert est.value == pytest.approx(8.0 * lam**2, rel=1e-12)


def test_variance_matches_simulation():
    kern = pairwise_distance_kernel()
    lam = 10.0
    im = IntensityModel(lam, UNIT_SQUARE)
    formula = variance(kern, im, Integrator(samples=6000, seed=3))
    vals = np.array([evaluate(kern, sample_points(im, s)) for s in range(4000)])
    emp = vals.var(ddof=1)
    m4 = float(np.mean((vals - vals.mean()) ** 4))
    se_emp = math.sqrt(max(m4 - emp**2, 0.0) / len(vals))
    assert abs(formula.value - emp) < 4.0 * math.hypot(formula.se, se_emp)


def test_check_symmetry():
    assert check_symmetry(pairwise_distance_kernel(), UNIT_SQUARE)
    lopsided = UStatKernel(2, lambda t: t[:, 0, 0], name="first-coord")
    assert not check_symmetry(lopsided, UNIT_SQUARE)


def test_integrator_validation():
    with pytest.raises(ConfigError):
        Integrator(samples=0)
    with pytest.raises(ConfigError):
        Integrator(strata=0)
    integ = Integrator(samples=64, seed=0, strata=2)
    with pytest.raises(ConfigError):
        integ.integrate(lambda t: np.ones(len(t)), BallWindow(1.0), 1)


def test_integrator_exact_on_constants():
    integ = Integrator(samples=128, seed=0)
    est = integ.integrate(lambda t: np.ones(len(t)), UNIT_SQUARE, 2)
    assert est.value == 1.0 and est.se == 0.0
    scaled = integ.integrate(lambda t: np.ones(len(t)), BoxWindow(((-1.0, 1.0),)), 2)
    assert scaled.value == 4.0


def test_integrator_rejects_non_finite():
    integ = Integrator(samples=32, seed=0)
    with pytest.raises(IntegrationError):
        integ.integrate(lambda t: np.full(len(t), np.nan), UNIT_SQUARE, 1)


def test_integrator_stratified_mean_exact_on_aligned_steps():
    # integrand constant on each half of the window: stratified sampling at
    # level 2 integrates it exactly
    win = BoxWindow(((-1.0, 1.0),))
    integ = Integrator(samples=64, seed=5, strata=2)

    def step(t):
        return np.where(t[:, 0, 0] < 0.0, 1.0, 3.0)

    est = integ.integrate(step, win, 1)
    assert est.value == pytest.approx(4.0, rel=1e-15)
