"""Bound reports, the three bound modes, and the inner-product fluctuation oracle."""

import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest

from poisson_ustats import (
    AssumptionViolationError,
    BoundReport,
    BoxWindow,
    CapacityError,
    CellGrid,
    ConfigError,
    DegenerateFunctionalError,
    ExperimentConfig,
    IntensityModel,
    Integrator,
    LineWindow,
    LocalityError,
    LocalTerm,
    MTerm,
    PointConfiguration,
    SimpleFunction,
    UStatKernel,
    chaos_kernel,
    chaos_kernels_simple,
    counterexample_kernel,
    default_local_constant,
    enumerate_pi_bar,
    expectation,
    geometric_bound,
    gilbert_kernel,
    local_bound,
    m_ij,
    make_kernel,
    ou_inverse,
    r_terms_small,
    rate_experiment,
    unit_ball_volume,
    variance,
    variance_terms,
    wasserstein_bound,
)
from poisson_ustats import chaos_algebra, clt_bounds
from poisson_ustats.chaos_algebra import MAX_INGREDIENT_ROWS, _block_type_orbits
from poisson_ustats.clt_bounds import _fourth_power_norms, _ingredient_rows, estimate_ingredients

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))

JSON_FIELDS = [
    "mode",
    "k",
    "lambda",
    "variance",
    "variance_se",
    "m",
    "bound",
    "vtilde",
    "b_delta",
    "c_k",
]


def unit_count_kernel() -> UStatKernel:
    return UStatKernel(1, lambda t: np.ones(t.shape[0]), name="unit-count")


# ---------------------------------------------------------------------------
# report container


def _report(**overrides) -> BoundReport:
    base = dict(
        mode="general",
        k=2,
        lam=5.0,
        variance=3.0,
        variance_se=0.1,
        m=(MTerm(1, 1, 2.0, 0.05),),
        bound=1.5,
    )
    base.update(overrides)
    return BoundReport(**base)


def test_report_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        _report(mode="sideways")


def test_report_rejects_negative_bound():
    with pytest.raises(ConfigError):
        _report(bound=-0.25)
    with pytest.raises(ConfigError):
        _report(bound=float("nan"))


def test_report_rejects_nonpositive_variance():
    with pytest.raises(ConfigError):
        _report(variance=0.0)
    with pytest.raises(ConfigError):
        _report(variance=-1.0)


def test_report_rejects_negative_m_entry():
    with pytest.raises(ConfigError):
        _report(m=(MTerm(1, 1, -0.5, 0.0),))


def test_report_json_field_order_and_round_trip():
    rep = _report(m=(MTerm(1, 1, 2.0, 0.05), MTerm(1, 2, 0.75, 0.01)))
    doc = json.loads(rep.to_json())
    assert list(doc) == JSON_FIELDS
    assert doc["lambda"] == 5.0
    assert doc["m"][1] == {"i": 1, "j": 2, "value": 0.75, "se": 0.01}
    assert BoundReport.from_json(rep.to_json()) == rep


def test_report_from_json_requires_every_field():
    doc = json.loads(_report().to_json())
    del doc["vtilde"]
    with pytest.raises(ConfigError, match="vtilde"):
        BoundReport.from_json(json.dumps(doc))


# ---------------------------------------------------------------------------
# general mode


def test_flat_count_bound_is_two_over_root_lam():
    integ = Integrator(samples=500, seed=3)
    for lam in (0.25, 1.0, 4.0, 16.0, 100.0):
        rep = wasserstein_bound(unit_count_kernel(), IntensityModel(lam, UNIT_SQUARE), integ)
        assert rep.mode == "general"
        assert rep.bound == 2.0 / math.sqrt(lam)
        assert rep.variance == lam
        assert rep.variance_se == 0.0
        assert [(t.i, t.j) for t in rep.m] == [(1, 1)]
        assert rep.m[0].value == lam


def test_zero_kernel_is_refused():
    dead = UStatKernel(2, lambda t: np.zeros(t.shape[0]), name="zero")
    with pytest.raises(DegenerateFunctionalError, match="consistent with zero"):
        wasserstein_bound(dead, IntensityModel(3.0, UNIT_SQUARE), Integrator(samples=400, seed=1))


def test_huge_lambda_variance_keeps_a_finite_se():
    # at lam 1e55 the squared standard errors of lam^3 T_1 overflow; the
    # combined se is rescaled by its largest term, so the variance clears
    # its three standard errors instead of reading "se inf"
    smooth = UStatKernel(2, lambda t: np.exp(-((t[:, 0] - t[:, 1]) ** 2).sum(axis=1)), name="smooth")
    rep = wasserstein_bound(smooth, IntensityModel(1e55, UNIT_SQUARE), Integrator(samples=200, seed=1))
    assert math.isfinite(rep.variance_se) and 0.0 < rep.variance_se < rep.variance / 3.0
    assert math.isfinite(rep.bound) and all(math.isfinite(t.se) for t in rep.m)


def test_signed_kernel_gets_a_note():
    integ = Integrator(samples=600, seed=11, strata=2)
    rep = wasserstein_bound(counterexample_kernel(), IntensityModel(4.0, BoxWindow(((-1.0, 1.0),))), integ)
    assert "negative values" in rep.notes
    pos = wasserstein_bound(unit_count_kernel(), IntensityModel(4.0, UNIT_SQUARE), integ)
    assert pos.notes == ""


@pytest.mark.parametrize(
    "kernel, window, integ, lambdas",
    [
        (make_kernel("pairwise-distance"), UNIT_SQUARE, Integrator(samples=200, seed=2), (0.5, 2.0, 9.0)),
        (make_kernel("convex-position-3"), UNIT_SQUARE, Integrator(samples=8, seed=1), (0.5, 4.0)),
        (counterexample_kernel(), BoxWindow(((-1.0, 1.0),)), Integrator(samples=256, seed=4, strata=2), (0.5, 2.0, 9.0)),
    ],
    ids=["pairwise-distance", "convex-position-3", "counterexample"],
)
def test_one_general_record_serves_every_lambda(kernel, window, integ, lambdas):
    # the counterexample kernel has no first-order part, and lam = 0.5 is
    # below the rate forms' range: the general mode needs neither
    record = estimate_ingredients(kernel, window, integ, "general")
    for lam in lambdas:
        model = IntensityModel(lam, window)
        rep = record.report(lam)
        direct = wasserstein_bound(kernel, model, integ)
        assert rep.mode == "general" and rep.lam == lam
        assert rep.bound == pytest.approx(direct.bound, rel=1e-12)
        assert rep.variance == pytest.approx(direct.variance, rel=1e-12)
        assert [(t.i, t.j) for t in rep.m] == [(t.i, t.j) for t in direct.m]
        for term in rep.m:
            est = m_ij(kernel, term.i, term.j, model, integ)
            assert term.value == pytest.approx(est.value, rel=1e-12)
            assert term.se == pytest.approx(est.se, rel=1e-12)


def test_general_loop_estimates_each_orbit_set_once(monkeypatch):
    paths = Counter()
    integral = chaos_algebra._product_integral

    def counted(*args, **kwargs):
        paths[args[6]] += 1  # the orbit's stream path ("m", i, j, o)
        return integral(*args, **kwargs)

    monkeypatch.setattr(chaos_algebra, "_product_integral", counted)
    kern = make_kernel("pairwise-distance")
    record = estimate_ingredients(kern, UNIT_SQUARE, Integrator(samples=200, seed=6), "general")
    bounds = [record.report(lam).bound for lam in (0.5, 3.0, 27.0)]
    # one pilot and one allocated estimate per orbit, whatever the lambdas reported
    assert paths == {
        (stream, i, j, o): 1
        for stream in ("m-pilot", "m")
        for i in (1, 2)
        for j in range(i, 3)
        for o in range(len(_block_type_orbits((i, i, j, j))))
    }
    assert all(math.isfinite(b) and b > 0 for b in bounds)


def test_report_variance_is_the_moments_variance_in_every_mode():
    integ = Integrator(samples=400, seed=9)
    records = [
        estimate_ingredients(unit_count_kernel(), UNIT_SQUARE, integ, "general"),
        estimate_ingredients(make_kernel("pairwise-distance"), UNIT_SQUARE, integ, "geometric"),
        estimate_ingredients(gilbert_kernel(0.2), UNIT_SQUARE, integ, "local"),
    ]
    for record in records:
        for lam in (1.0, 4.0):
            rep = record.report(lam)
            var = record.moments(lam)[1]
            assert (rep.variance, rep.variance_se) == (var.value, var.se), (record.mode, lam)
    # the order-1 count: Var F = lam and M_11 = lam, so the bound is 2 / sqrt(lam)
    rep = records[0].report(4.0)
    assert rep.variance == 4.0
    assert rep.m[0].value == 4.0
    assert rep.bound == 1.0


def _smooth_pair_kernel() -> UStatKernel:
    return UStatKernel(2, lambda t: np.exp(-np.sum((t[:, 0] - t[:, 1]) ** 2, axis=1)), name="smooth-pair")


@pytest.mark.parametrize("lam", [0.5, 4.0])
@pytest.mark.parametrize("make", [unit_count_kernel, _smooth_pair_kernel])
def test_one_shots_equal_the_record(make, lam):
    kern = make()
    integ = Integrator(samples=100, seed=4)
    model = IntensityModel(lam, UNIT_SQUARE)
    rec = estimate_ingredients(kern, UNIT_SQUARE, integ, "general")
    mean, var = rec.moments(lam)
    assert expectation(kern, model, integ).value == mean
    assert variance(kern, model, integ) == var
    for term in rec.report(lam).m:
        est = m_ij(kern, term.i, term.j, model, integ)
        assert (est.value, est.se) == (term.value, term.se)


ONE_SHOT_MEAN_CASES = {
    "pairwise-distance": (make_kernel("pairwise-distance"), UNIT_SQUARE, Integrator(samples=200, seed=3)),
    "pairwise-distance-strata-2": (make_kernel("pairwise-distance"), UNIT_SQUARE, Integrator(samples=64, seed=3, strata=2)),
    "gilbert-local": (gilbert_kernel(0.1), UNIT_SQUARE, Integrator(samples=200, seed=3)),
    "lines": (make_kernel("line-intersections", window=LineWindow(1.0)), LineWindow(1.0), Integrator(samples=200, seed=3)),
    "convex-position-3": (make_kernel("convex-position-3"), UNIT_SQUARE, Integrator(samples=64, seed=3)),
    "order-1": (UStatKernel(1, lambda t: 1.0 + t[:, 0, 0]), UNIT_SQUARE, Integrator(samples=200, seed=3)),
}


@pytest.mark.parametrize("case", sorted(ONE_SHOT_MEAN_CASES))
def test_expectation_is_the_record_mean(case):
    # the one-shot reads the same pass as the record: equal with ==, value,
    # se and n, after the scale lam^k (at 1e-80 too, where the se's square underflows)
    kern, window, integ = ONE_SHOT_MEAN_CASES[case]
    record = estimate_ingredients(kern, window, integ)
    for lam in (1.0, 7.0, 1e-80):
        scale = lam**kern.order
        assert expectation(kern, IntensityModel(lam, window), integ) == record.mean.scaled(scale)
        assert expectation(kern, IntensityModel(lam, window), integ).value == record.moments(lam)[0]
    if case == "convex-position-3":
        # the kernel is 1 almost surely: every inner-batch mean is exactly theta^2 = 1
        assert (record.mean.value, record.mean.se) == (1.0, 0.0)


@pytest.mark.parametrize("mode", ["general", "geometric"])
def test_non_symmetric_kernel_is_refused_before_any_integral(mode):
    calls = []

    def fn(t):
        calls.append(len(t))
        return t[:, 0, 0] - t[:, 1, 1]

    kern = UStatKernel(2, fn, symmetric=False)
    with pytest.raises(ConfigError, match="symmetric"):
        estimate_ingredients(kern, UNIT_SQUARE, Integrator(samples=64), mode)
    assert calls == []


def test_an_over_budget_record_is_refused_before_any_kernel_call():
    # an order-4 record at 256 samples takes 256 * (308 + 19,118,455) draws;
    # its guard runs before variance_terms, so the kernel is never called
    calls = []

    def fn(t):
        calls.append(len(t))
        return np.ones(len(t))

    kern = UStatKernel(4, fn, name="constant-4")
    with pytest.raises(CapacityError, match="the orbit integrals .* take 4,894,403,328 draws"):
        geometric_bound(kern, IntensityModel(16.0, UNIT_SQUARE), Integrator(samples=256))
    assert calls == []


def test_the_ingredient_row_guard_admits_what_its_comment_says():
    # (1 + 8) * 16 rows per sample for each nested family, 1 for a top-order one
    assert _ingredient_rows(2, 1200, False) == 174_000
    assert _ingredient_rows(2, 344_827, True) <= MAX_INGREDIENT_ROWS < _ingredient_rows(2, 344_828, True)
    assert _ingredient_rows(3, 346_020, False) <= MAX_INGREDIENT_ROWS < _ingredient_rows(3, 346_021, False)
    with pytest.raises(CapacityError, match="take up to 100,000,120 kernel rows"):
        estimate_ingredients(make_kernel("gilbert-count", delta=0.1), UNIT_SQUARE, Integrator(samples=344_828), "local")


def test_a_lambda_power_of_m_ij_that_overflows_is_a_config_error():
    # M_11 of an order-2 kernel holds lam^5, which has no float at lam 1e70
    kern = _smooth_pair_kernel()
    model, integ = IntensityModel(1e70, UNIT_SQUARE), Integrator(samples=50, seed=1)
    with pytest.raises(ConfigError, match=r"lambda 1e\+70 overflows the lambda\^5 of M_11"):
        wasserstein_bound(kern, model, integ)
    with pytest.raises(ConfigError, match=r"lambda 1e\+70 overflows the lambda\^5 of M_11"):
        m_ij(kern, 1, 1, model, integ)


def _rate_entry_points(lam: float) -> dict:
    """The public calls that assemble a lambda polynomial at rate lam on the unit square."""
    kern, model, integ = make_kernel("pairwise-distance"), IntensityModel(lam, UNIT_SQUARE), Integrator(samples=64, seed=2)
    config = PointConfiguration(np.array([[0.2, 0.3], [0.6, 0.7], [0.4, 0.9]]), window=UNIT_SQUARE)
    return {
        "variance": lambda: variance(kern, model, integ),
        "expectation": lambda: expectation(kern, model, integ),
        "moments": lambda: estimate_ingredients(kern, UNIT_SQUARE, integ).moments(lam),
        "geometric_bound": lambda: geometric_bound(kern, model, integ),
        "local_bound": lambda: local_bound(gilbert_kernel(0.1), model, integ),
        "wasserstein_bound": lambda: wasserstein_bound(kern, model, integ),
        "ou_inverse": lambda: ou_inverse(kern, config, model, integ),
        "chaos_kernel": lambda: chaos_kernel(make_kernel("convex-position-3"), 1, [[0.5, 0.5]], model, integ),
    }


@pytest.mark.parametrize(
    "lam, name",
    [(1e200, name) for name in _rate_entry_points(1.0)]
    # lam^3 has a float at 5.5e102, but lam^3 T_1 of pairwise distance does not
    + [(5.5e102, "variance")],
)
def test_every_lambda_polynomial_refuses_a_rate_past_the_floats(lam, name):
    # one assembly (ustat_core._lam_polynomial) names the power, never an OverflowError or an inf
    with pytest.raises(ConfigError, match=rf"lambda {re.escape(f'{lam:g}')} overflows the lambda\^\d+ of"):
        _rate_entry_points(lam)[name]()


# ---------------------------------------------------------------------------
# geometric mode


def test_geometric_bound_and_rate_experiment_take_an_unflagged_kernel():
    # a kernel's fn takes no intensity, so every kernel has the rate form
    grid = CellGrid.regular((0.0, 0.0), (1.0, 1.0), (2, 2))
    kern = SimpleFunction(grid, 1.0 - np.eye(4)).as_kernel()
    integ = Integrator(samples=200, seed=3)
    rep = geometric_bound(kern, IntensityModel(4.0, UNIT_SQUARE), integ)
    assert rep.mode == "geometric"
    assert rep.bound == rep.rate_factor / 2.0 > 0
    config = ExperimentConfig(kernel=kern, window=UNIT_SQUARE, lambdas=(1.0, 4.0, 16.0), replicates=100, integrator=integ)
    assert rate_experiment(config).bounds[1] == rep.bound


def test_geometric_mode_needs_lam_at_least_one():
    kern = make_kernel("pairwise-distance")
    with pytest.raises(AssumptionViolationError, match="lam >= 1"):
        geometric_bound(kern, IntensityModel(0.5, UNIT_SQUARE), Integrator(samples=200, seed=0))


def test_geometric_mode_rejects_vanishing_first_order_part():
    # the sign kernel's first-order projection integrates to zero, so the
    # rate form has no Gaussian part to normalize by
    integ = Integrator(samples=800, seed=5, strata=2)
    window = BoxWindow(((-1.0, 1.0),))
    with pytest.raises(AssumptionViolationError, match="consistent with zero"):
        geometric_bound(counterexample_kernel(), IntensityModel(9.0, window), integ)


def test_quadrupling_lam_halves_the_geometric_bound():
    kern = make_kernel("pairwise-distance")
    integ = Integrator(samples=900, seed=21)
    reports = {
        lam: geometric_bound(kern, IntensityModel(lam, UNIT_SQUARE), integ)
        for lam in (4.0, 16.0, 64.0)
    }
    assert reports[16.0].bound == reports[4.0].bound / 2.0
    assert reports[64.0].bound == reports[16.0].bound / 2.0
    for lam, rep in reports.items():
        assert rep.mode == "geometric"
        assert rep.bound == rep.rate_factor / math.sqrt(lam)
        # the unit-intensity ingredients do not move with lam
        assert rep.vtilde == reports[4.0].vtilde
        assert [(t.i, t.j) for t in rep.m] == [(1, 1), (1, 2), (2, 2)]
        assert rep.m == reports[4.0].m


def test_geometric_and_general_agree_for_the_flat_count():
    integ = Integrator(samples=500, seed=7)
    model = IntensityModel(9.0, UNIT_SQUARE)
    geo = geometric_bound(unit_count_kernel(), model, integ)
    gen = wasserstein_bound(unit_count_kernel(), model, integ)
    assert geo.bound == pytest.approx(gen.bound, rel=1e-12)
    assert geo.bound == 2.0 / 3.0
    assert geo.vtilde == 1.0
    assert geo.variance == 9.0


# ---------------------------------------------------------------------------
# local mode


def test_default_local_constant_counts_connected_diagrams():
    assert default_local_constant(1) == 2.0
    expected = 0
    for i, j in ((1, 1), (1, 2), (2, 2)):
        expected += len(enumerate_pi_bar((i, i, j, j)))
    assert default_local_constant(2) == 2.0 * 2**3.5 * expected


def test_default_local_constant_order_four_from_orbit_weights():
    # 19,118,455 connected diagrams over (i, i, j, j), i <= j <= 4: far past
    # what the explicit enumeration can hold, counted from the orbit weights
    assert default_local_constant(4) == 2.0 * 4**3.5 * 19_118_455


def test_local_mode_needs_a_support_radius():
    kern = make_kernel("pairwise-distance")
    with pytest.raises(LocalityError, match="support diameter"):
        local_bound(kern, IntensityModel(25.0, UNIT_SQUARE), Integrator(samples=200, seed=0))


def test_local_mode_rejects_line_windows():
    kern = gilbert_kernel(0.1)
    with pytest.raises(ConfigError, match="spatial window"):
        local_bound(kern, IntensityModel(25.0, LineWindow(1.0)), Integrator(samples=200, seed=0))


def test_local_mode_input_validation():
    kern = gilbert_kernel(0.1)
    integ = Integrator(samples=200, seed=0)
    with pytest.raises(AssumptionViolationError, match="lam >= 1"):
        local_bound(kern, IntensityModel(0.25, UNIT_SQUARE), integ)
    with pytest.raises(ConfigError, match="c_k"):
        local_bound(kern, IntensityModel(25.0, UNIT_SQUARE), integ, c_k=0.0)


def test_local_mode_rejects_vanishing_first_order_part():
    base = counterexample_kernel()
    signed_local = UStatKernel(2, base.fn, name="signed-local", locality=4.0)
    integ = Integrator(samples=800, seed=5, strata=2)
    window = BoxWindow(((-1.0, 1.0),))
    with pytest.raises(AssumptionViolationError, match="consistent with zero"):
        local_bound(signed_local, IntensityModel(9.0, window), integ)


def test_local_report_ingredients():
    delta = 0.1
    lam = 25.0
    kern = gilbert_kernel(delta)
    rep = local_bound(kern, IntensityModel(lam, UNIT_SQUARE), Integrator(samples=1500, seed=13))
    assert rep.mode == "local"
    assert rep.m == ()
    assert rep.delta == delta
    assert rep.b_delta == lam * unit_ball_volume(2) * (4.0 * delta) ** 2
    assert rep.c_k == default_local_constant(2)
    assert math.isfinite(rep.bound) and rep.bound > 0
    assert len(rep.local_terms) == 2
    for i, term in enumerate(rep.local_terms, start=1):
        assert isinstance(term, LocalTerm)
        assert term.i == i
        assert term.weight == lam ** (1.0 - 1.5 * i) * max(1.0, rep.b_delta ** (i / 2.0))
        assert term.contribution == pytest.approx(term.weight * term.norm / rep.vtilde, rel=1e-12)
    assert rep.bound == pytest.approx(
        rep.c_k * math.fsum(t.contribution for t in rep.local_terms), rel=1e-12
    )


def test_stratified_ingredients_exact_on_cell_kernel():
    # strata of level 4 on [0, 1] coincide with the 4 cells, so every outer
    # and inner batch integrates the piecewise-constant kernel exactly
    win = BoxWindow(((0.0, 1.0),))
    coeffs = np.array([[0.0, 1.0, 2.0, 0.5], [1.0, 0.0, 3.0, -1.0], [2.0, 3.0, 0.0, 4.0], [0.5, -1.0, 4.0, 0.0]])
    fn = SimpleFunction(CellGrid.regular((0.0,), (1.0,), (4,)), coeffs)
    kern = fn.as_kernel(locality=1.0)
    integ = Integrator(samples=4096, seed=0, strata=4)
    terms = variance_terms(kern, win, integ)
    norms = _fourth_power_norms(kern, win, integ)
    im = IntensityModel(1.0, win)
    for i, f_i in enumerate(chaos_kernels_simple(fn, im), start=1):
        assert terms[i - 1].value == pytest.approx(math.factorial(i) * f_i.norm_sq(im), rel=1e-12)
        assert norms[i - 1].value == pytest.approx(SimpleFunction(f_i.grid, f_i.coeffs**2).norm_sq(im), rel=1e-12)
    # the record's mean, read off T_1's pass, is int f dtheta^2 = mu' C mu
    mu = fn.grid.measures()
    record = estimate_ingredients(kern, win, integ)
    assert record.terms == tuple(terms)
    assert record.mean.value == pytest.approx(float(mu @ coeffs @ mu), rel=1e-12)
    # so the assembled moments are exact at every lambda: Var F = sum_i i! |f_i|^2
    for lam in (6.0, 15.0, 30.0, 60.0):
        mean, var = record.moments(lam)
        im = IntensityModel(lam, win)
        exact = math.fsum(math.factorial(i) * f_i.norm_sq(im) for i, f_i in enumerate(chaos_kernels_simple(fn, im), start=1))
        assert var.value == pytest.approx(exact, rel=1e-12)
        assert mean == pytest.approx(lam**2 * float(mu @ coeffs @ mu), rel=1e-12)


def test_local_bound_accepts_a_sharper_constant():
    kern = gilbert_kernel(0.1)
    model = IntensityModel(25.0, UNIT_SQUARE)
    integ = Integrator(samples=800, seed=13)
    loose = local_bound(kern, model, integ)
    tight = local_bound(kern, model, integ, c_k=1.0)
    assert tight.c_k == 1.0
    assert tight.bound == pytest.approx(loose.bound / default_local_constant(2), rel=1e-12)


# ---------------------------------------------------------------------------
# inner-product fluctuation oracle

GRID3 = CellGrid.regular((0.0,), (1.0,), (3,))
WINDOW3 = BoxWindow(((0.0, 1.0),))
F1 = SimpleFunction(GRID3, np.array([0.5, -0.25, 0.75]))
F2 = SimpleFunction(
    GRID3,
    np.array(
        [
            [0.0, 0.8, -0.4],
            [0.8, 0.0, 0.6],
            [-0.4, 0.6, 0.0],
        ]
    ),
)


def test_r_terms_input_validation():
    model = IntensityModel(2.0, WINDOW3)
    with pytest.raises(ConfigError, match="at least one"):
        r_terms_small([], model, replicates=100)
    with pytest.raises(ConfigError, match="not a cell-grid"):
        r_terms_small([lambda x: x], model, replicates=100)
    with pytest.raises(ConfigError, match="order 1"):
        r_terms_small([F2], model, replicates=100)
    with pytest.raises(ConfigError, match="2 batches"):
        r_terms_small([F1], model, replicates=30, batches=20)
    with pytest.raises(ConfigError, match="batches"):
        r_terms_small([F1], model, replicates=100, batches=1)
    other = SimpleFunction(CellGrid.regular((0.0,), (2.0,), (3,)), np.zeros((3, 3)))
    with pytest.raises(ConfigError, match="incompatible grids"):
        r_terms_small([F1, other], model, replicates=100)


def test_r_terms_capacity_limits():
    model = IntensityModel(2.0, WINDOW3)
    f3 = SimpleFunction(GRID3, np.zeros((3, 3, 3)))
    with pytest.raises(CapacityError, match="order <= 2"):
        r_terms_small([F1, F2, f3], model, replicates=100)
    wide = CellGrid.regular((0.0,), (1.0,), (33,))
    with pytest.raises(CapacityError, match="32 cells"):
        r_terms_small([SimpleFunction(wide, np.ones(33))], model, replicates=100)


def test_r_terms_refuse_a_replicate_count_before_any_stream(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a stream was derived")

    monkeypatch.setattr(clt_bounds, "_cell_streams", refused)
    with pytest.raises(CapacityError, match="above the budget of 8,388,608"):
        r_terms_small([F1], IntensityModel(2.0, WINDOW3), replicates=10**8)
    # 2M cells of 0.01 points each fit the point budget, not the stream budget
    with pytest.raises(CapacityError, match="2000000 cell.* random streams, above the budget of 1,048,576"):
        r_terms_small([F1], IntensityModel(0.01, WINDOW3), replicates=2 * 10**6)


def _centered_poisson_moment(mu: float, power: int) -> float:
    # E (N - mu)^p for N ~ Poisson(mu), p <= 4
    return {0: 1.0, 1: 0.0, 2: mu, 3: mu, 4: mu + 3.0 * mu**2}[power]


def test_r_terms_match_closed_form_moments():
    lam = 2.0
    model = IntensityModel(lam, WINDOW3)
    r, rt = r_terms_small([F1, F2], model, replicates=6000, seed=9, batches=20)

    mu = lam * GRID3.measures()
    a1 = F1.coeffs
    a2 = F2.coeffs

    # X_11 is nonrandom, so its variance vanishes
    assert abs(r[0][0].value) < 1e-20

    # X_12 = sum_d h_d (N_d - mu_d) with h = (mu a1) @ a2
    h = (mu * a1) @ a2
    x12_second_moment = float(np.sum(h**2 * mu))
    assert r[0][1].within(x12_second_moment, nse=4.0)
    assert r[1][0].value == r[0][1].value

    # X_22 = sum_{d,e} A_{de} (N_d - mu_d)(N_e - mu_e), A = a2^T diag(mu) a2
    big_a = a2.T @ (mu[:, None] * a2)
    mean_x22 = float(np.sum(np.diag(big_a) * mu))
    second = 0.0
    cells = range(GRID3.n_cells)
    for a, b, c, d in itertools.product(cells, repeat=4):
        counts = {}
        for idx in (a, b, c, d):
            counts[idx] = counts.get(idx, 0) + 1
        factor = 1.0
        for cell, mult in counts.items():
            factor *= _centered_poisson_moment(float(mu[cell]), mult)
        second += big_a[a, b] * big_a[c, d] * factor
    var_x22 = second - mean_x22**2
    assert r[1][1].within(var_x22, nse=4.0)

    # fourth-power cell sums
    w1_exact = float(np.sum(mu * a1**4))
    assert rt[0].value == pytest.approx(w1_exact, rel=1e-12)
    assert rt[0].se < 1e-12
    w2_exact = 0.0
    for c in cells:
        row = a2[c]
        w2_exact += float(mu[c]) * (
            float(np.sum(row**4 * mu)) + 3.0 * float(np.sum(row**2 * mu)) ** 2
        )
    assert rt[1].within(w2_exact, nse=4.0)


# the fourth-power norms of gilbert-count at delta 0.2 on the unit square
# (local draws) at 64 samples, integrator seed 11, as (value, se, n) in
# repr: pins the integrator's floats below the CLI
PINNED_FOURTH_POWER_NORMS = {
    1: [(0.00015488045474406386, 1.813658572858868e-06, 2048), (0.006258641614573415, 0.0004469828044837392, 64)],
    2: [(0.00015334274189585621, 2.1769183645199795e-06, 2048), (0.006381360077604267, 0.0003880698541326602, 64)],
}


@pytest.mark.parametrize("strata", sorted(PINNED_FOURTH_POWER_NORMS))
def test_fourth_power_norms_are_pinned_to_their_floats(strata):
    norms = _fourth_power_norms(gilbert_kernel(0.2), UNIT_SQUARE, Integrator(samples=64, seed=11, strata=strata))
    assert [(e.value, e.se, e.n) for e in norms] == PINNED_FOURTH_POWER_NORMS[strata]
