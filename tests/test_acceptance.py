"""End-to-end checks of the advertised guarantees.

One test per guarantee, each at its stated tolerance, each printing a single
PASS or FAIL line with capture suspended so the verdicts stay visible under
default capture.  Later distance checks reuse the standardized samples
produced by the earlier experiments, so run this file as a whole.
"""

import itertools
import math
import sys
from functools import lru_cache

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from poisson_ustats import (
    BoxWindow,
    CellGrid,
    ExperimentConfig,
    IntensityModel,
    Integrator,
    LineWindow,
    PointConfiguration,
    SampleSet,
    SimpleFunction,
    UStatKernel,
    chaos_kernel,
    counterexample_kernel,
    default_local_constant,
    difference,
    enumerate_pi,
    enumerate_pi_bar,
    evaluate,
    gilbert_f1,
    gilbert_kernel,
    iterated_difference,
    kolmogorov_to_normal,
    local_bound,
    make_kernel,
    ou_generator,
    ou_generator_direct,
    product_expectation,
    rate_experiment,
    run_replicates,
    sample_points,
    sylvester_estimate,
    variance,
    wasserstein_bound,
    wasserstein_to_normal,
    wiener_ito_counts,
)
from poisson_ustats._streams import spawn_rng

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
SIGN_WINDOW = BoxWindow(((-1.0, 1.0),))

# (label, d_w, d_k, replicates) accumulated by the experiment criteria and
# checked globally by the final distance criterion
DISTANCE_PAIRS = []

_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    # _verdict suspends capture so the lines appear even without -s
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    if not ok:
        pytest.fail(line)


def _sample_variance_se(centered: np.ndarray) -> float:
    n = len(centered)
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    return math.sqrt(max(m4 - m2**2, 0.0) / n)


def _third_moment_se(centered: np.ndarray) -> float:
    n = len(centered)
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    m6 = float(np.mean(centered**6))
    return math.sqrt(max(m6 - m3**2 - 6.0 * m2 * m4 + 9.0 * m2**3, 0.0) / n)


def flat_count_kernel() -> UStatKernel:
    return UStatKernel(1, lambda t: np.ones(t.shape[0]), name="flat-count")


# ---------------------------------------------------------------------------
# 1. sign-kernel moments: exact variance 8 lam^2, simulated second and third
#    central moments at lam = 5


def test_criterion_01_sign_kernel_moments():
    lam = 5.0
    integ = Integrator(samples=2000, seed=3, strata=2)
    kern = counterexample_kernel()
    var = variance(kern, IntensityModel(lam, SIGN_WINDOW), integ)
    rel = abs(var.value - 200.0) / 200.0
    ok_exact = rel <= 1e-6

    # simulate the point process in bulk; per replicate the kernel sum has
    # the exact side-count form, spot-verified against evaluate() below
    reps = 100_000
    rng = spawn_rng(17, "acceptance-1")
    counts = rng.poisson(2.0 * lam, size=reps)
    edges = np.concatenate([[0], np.cumsum(counts)])
    flat = rng.uniform(-1.0, 1.0, int(edges[-1]))
    cum_pos = np.concatenate([[0], np.cumsum(flat > 0)])
    cum_zero = np.concatenate([[0], np.cumsum(flat == 0)])
    p = cum_pos[edges[1:]] - cum_pos[edges[:-1]]
    z = cum_zero[edges[1:]] - cum_zero[edges[:-1]]
    n = counts - p - z
    values = (
        p * (p - 1) + n * (n - 1) + z * (z - 1) + 2 * z * (p + n) - 2.0 * p * n
    ).astype(float)
    for i in rng.choice(reps, size=200, replace=False):
        cfg = PointConfiguration(flat[edges[i] : edges[i + 1]].reshape(-1, 1))
        assert evaluate(kern, cfg) == values[i]

    centered = values - values.mean()
    s2 = float(np.sum(centered**2) / (reps - 1))
    z_var = (s2 - 200.0) / _sample_variance_se(centered)
    m3 = float(np.mean(centered**3))
    z_m3 = (m3 - 8000.0) / _third_moment_se(centered)
    ok_sim = abs(z_var) <= 3.0 and abs(z_m3) <= 5.0
    _verdict(
        1,
        "sign-kernel-moments",
        ok_exact and ok_sim,
        f"var rel err {rel:.2e}; sim var z={z_var:+.2f}; third-moment z={z_m3:+.2f}",
    )


# ---------------------------------------------------------------------------
# 2. order-1 flat kernel: bound exactly 2 lam^{-1/2}, simulated distance
#    below bound plus the n^{-1/2} estimator floor


def test_criterion_02_flat_count_bound_dominates():
    integ = Integrator(samples=512, seed=2)
    reps = 10_000
    floor = 1.0 / math.sqrt(reps)
    details = []
    ok = True
    for lam in (1.0, 4.0, 16.0, 100.0):
        report = wasserstein_bound(flat_count_kernel(), IntensityModel(lam, UNIT_SQUARE), integ)
        exact = report.bound == 2.0 / math.sqrt(lam)
        config = ExperimentConfig(
            kernel=flat_count_kernel(),
            window=UNIT_SQUARE,
            lambdas=(lam,),
            replicates=reps,
            integrator=integ,
            seed=23,
        )
        std = np.array([rec.standardized for rec in run_replicates(config)])
        sample = SampleSet(std, label=f"flat-count lam={lam:g}")
        d_w = wasserstein_to_normal(sample)
        d_k = kolmogorov_to_normal(sample)
        DISTANCE_PAIRS.append((sample.label, d_w, d_k, reps))
        ok = ok and exact and d_w <= report.bound + floor
        details.append(f"lam={lam:g}: d_w={d_w:.4f} vs {report.bound:g}{'' if exact else '!'}")
    _verdict(2, "flat-count-bound", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. partition families: fixed counts plus full brute-force agreement for
#    every size vector with at most 8 variables


@lru_cache(maxsize=None)
def _partitions_min2(total: int) -> tuple:
    """All set partitions of range(total) whose blocks have >= 2 elements."""

    def rec(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in rec(rest):
            for b in range(len(part)):
                yield part[:b] + [[head] + part[b]] + part[b + 1 :]
            yield [[head]] + part

    keep = []
    for part in rec(list(range(total))):
        if all(len(b) >= 2 for b in part):
            keep.append(tuple(tuple(sorted(b)) for b in part))
    return tuple(keep)


def _connected(blocks, n_factors: int) -> bool:
    reach = {1}
    grew = True
    while grew:
        grew = False
        for block in blocks:
            fs = {l for l, _ in block}
            if fs & reach and not fs <= reach:
                reach |= fs
                grew = True
    return len(reach) == n_factors


def test_criterion_03_partition_counts():
    ok_fixed = (
        len(enumerate_pi((1, 1, 1, 1))) == 4
        and len(enumerate_pi_bar((1, 1, 1, 1))) == 1
        and len(enumerate_pi_bar((2, 2))) == 2
    )
    checked = 0
    mismatches = []
    for total in range(1, 9):
        base = _partitions_min2(total)
        for m in range(1, total + 1):
            for sizes in itertools.product(range(1, total + 1), repeat=m):
                if sum(sizes) != total:
                    continue
                labels = [(l + 1, j + 1) for l, s in enumerate(sizes) for j in range(s)]
                expect = sorted(
                    tuple(sorted(tuple(sorted(labels[i] for i in b)) for b in part))
                    for part in base
                    if all(len({labels[i][0] for i in b}) == len(b) for b in part)
                )
                got = [d.blocks for d in enumerate_pi(sizes)]
                if sorted(got) != expect:
                    mismatches.append(sizes)
                expect_conn = [b for b in expect if _connected(b, m)]
                got_conn = sorted(d.blocks for d in enumerate_pi_bar(sizes))
                if got_conn != expect_conn:
                    mismatches.append(sizes)
                checked += 1
    _verdict(
        3,
        "partition-families",
        ok_fixed and not mismatches,
        f"fixed counts {'ok' if ok_fixed else 'WRONG'}; "
        f"{checked} size vectors swept; mismatches: {mismatches or 'none'}",
    )


# ---------------------------------------------------------------------------
# 4. discrete multiple integrals: isometry, orthogonality, and moments of
#    products against plain Monte Carlo


def test_criterion_04_multiple_integral_moments():
    grid = CellGrid.regular((0.0,), (1.0,), (4,))
    lam = 3.0
    model = IntensityModel(lam, BoxWindow(((0.0, 1.0),)))
    a1 = np.array([0.9, -0.4, 0.2, 0.6])
    a2 = np.array(
        [
            [0.0, 0.7, -0.3, 0.5],
            [0.7, 0.0, 0.4, -0.6],
            [-0.3, 0.4, 0.0, 0.8],
            [0.5, -0.6, 0.8, 0.0],
        ]
    )
    f1 = SimpleFunction(grid, a1)
    f2 = SimpleFunction(grid, a2)
    mu = lam * grid.measures()
    reps = 100_000
    rng = spawn_rng(29, "acceptance-4")
    counts = rng.poisson(mu, size=(reps, grid.n_cells))
    v1 = np.array([wiener_ito_counts(f1, row, model) for row in counts])
    v2 = np.array([wiener_ito_counts(f2, row, model) for row in counts])

    def z_score(samples: np.ndarray, target: float) -> float:
        se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
        return float((np.mean(samples) - target) / se)

    z_iso1 = z_score(v1**2, f1.norm_sq(model))
    z_iso2 = z_score(v2**2, 2.0 * f2.norm_sq(model))
    z_orth = z_score(v1 * v2, 0.0)
    ok = abs(z_iso1) <= 3.0 and abs(z_iso2) <= 3.0 and abs(z_orth) <= 3.0

    details = [f"iso z={z_iso1:+.2f},{z_iso2:+.2f}", f"orth z={z_orth:+.2f}"]
    for factors, samples in (
        ((f1, f1), v1 * v1),
        ((f1, f1, f2), v1 * v1 * v2),
        ((f2, f2, f2), v2 * v2 * v2),
        ((f1, f1, f2, f2), v1 * v1 * v2 * v2),
    ):
        exact = product_expectation(factors, model)
        se = math.hypot(float(np.std(samples, ddof=1) / math.sqrt(reps)), exact.se)
        z = float((np.mean(samples) - exact.value) / se)
        ok = ok and abs(z) <= 3.0
        details.append(f"{len(factors)}-factor z={z:+.2f}")
    _verdict(4, "multiple-integral-moments", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. add-one-point difference identities and the generator's two forms


def test_criterion_05_difference_and_generator():
    kern = make_kernel("pairwise-distance")
    model = IntensityModel(8.0, UNIT_SQUARE)
    rng = spawn_rng(31, "acceptance-5")
    worst = 0.0
    extra_ok = True
    for case in range(100):
        cfg = sample_points(model, spawn_rng(31, "cfg", case))
        y = UNIT_SQUARE.sample(rng, 1)
        lhs = difference(kern, cfg, y[0])
        rhs = evaluate(kern, cfg.with_point(y[0])) - evaluate(kern, cfg)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        ys = UNIT_SQUARE.sample(rng, kern.order + 1)
        extra_ok = extra_ok and iterated_difference(kern, cfg, ys) == 0.0
    ok_ident = worst <= 1e-12

    integ = Integrator(samples=40_000, seed=23)
    gen_model = IntensityModel(4.0, UNIT_SQUARE)
    zs = []
    for seed in (0, 1, 2):
        cfg = sample_points(gen_model, seed)
        a = ou_generator(kern, cfg, gen_model, integ)
        b = ou_generator_direct(kern, cfg, gen_model, integ)
        zs.append((a.value - b.value) / math.hypot(a.se, b.se))
    ok_gen = all(abs(z) <= 3.0 for z in zs)
    _verdict(
        5,
        "difference-and-generator",
        ok_ident and extra_ok and ok_gen,
        f"identity worst rel {worst:.2e}; overshoot zero {'ok' if extra_ok else 'WRONG'}; "
        f"generator z=" + ",".join(f"{z:+.2f}" for z in zs),
    )


# ---------------------------------------------------------------------------
# 6. formula variance vs empirical variance on the three model kernels


def _empirical_variance(config: ExperimentConfig):
    values = np.array([rec.value for rec in run_replicates(config)])
    centered = values - values.mean()
    s2 = float(np.sum(centered**2) / (len(values) - 1))
    return s2, _sample_variance_se(centered)


def test_criterion_06_model_variances():
    reps = 10_000
    cases = [
        ("gilbert-count", gilbert_kernel(0.1), 50.0, UNIT_SQUARE, Integrator(samples=4096, seed=6)),
        ("pairwise-distance", make_kernel("pairwise-distance"), 20.0, UNIT_SQUARE, Integrator(samples=4096, seed=8)),
        ("line-intersections", make_kernel("line-intersections", window=LineWindow(1.0)), 5.0, LineWindow(1.0), Integrator(samples=20_000, seed=9)),
    ]
    ok = True
    details = []
    for name, kern, lam, window, integ in cases:
        formula = variance(kern, IntensityModel(lam, window), integ)
        config = ExperimentConfig(
            kernel=kern, window=window, lambdas=(lam,), replicates=reps, integrator=integ, seed=41
        )
        s2, s2_se = _empirical_variance(config)
        z = (formula.value - s2) / math.hypot(formula.se, s2_se)
        ok = ok and abs(z) <= 3.0
        details.append(f"{name}: formula {formula.value:.4g} vs sim {s2:.4g}, z={z:+.2f}")
    _verdict(6, "model-variances", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 7. decay rate of the distance for the pairwise-distance kernel


def _null_dw_floor(n: int) -> float:
    """The d_w floor of n draws of an exactly normal law, the first-order
    mean of their d_w to N(0, 1), sqrt(2/pi) int sqrt(Phi (1 - Phi)) dx
    n^(-1/2) (del Barrio, Gine and Matran 1999); the integral, 1.6147, by
    the midpoint rule on [-12, 12] with Phi from math.erf."""
    h = 1e-3
    mids = (-12.0 + (i + 0.5) * h for i in range(24_000))
    cdf = (0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) for x in mids)
    integral = h * math.fsum(math.sqrt(p * (1.0 - p)) for p in cdf)
    return math.sqrt(2.0 / math.pi) * integral / math.sqrt(n)


def test_criterion_07_rate_fit():
    lambdas = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    config = ExperimentConfig(
        kernel="pairwise-distance",
        window=UNIT_SQUARE,
        lambdas=lambdas,
        replicates=2000,
        integrator=Integrator(samples=1200, seed=12),
        seed=43,
    )
    fit = rate_experiment(config)
    floor = _null_dw_floor(config.replicates)
    assert floor == pytest.approx(0.0288, abs=5e-5)
    ok_floor = floor < min(fit.d_w)
    ok_slope = -0.75 <= fit.slope <= -0.25
    # quadrupling lam exactly halves the theoretical column
    ok_scale = all(
        fit.bounds[i + 2] == fit.bounds[i] / 2.0 for i in range(len(lambdas) - 2)
    )
    ok_dom = all(b > d for b, d in zip(fit.bounds, fit.d_w))
    for lam, d_w, d_k in zip(fit.lambdas, fit.d_w, fit.d_k):
        DISTANCE_PAIRS.append((f"pairwise-distance lam={lam:g}", d_w, d_k, config.replicates))
    _verdict(
        7,
        "distance-decay-rate",
        ok_floor and ok_slope and ok_scale and ok_dom,
        f"slope {fit.slope:+.3f} (se {fit.slope_se:.3f}) in [-0.75,-0.25]: {ok_slope}; "
        f"bound column halves per 4x: {ok_scale}; floor {floor:.3f} < min d_w {min(fit.d_w):.3f}",
    )


# ---------------------------------------------------------------------------
# 8. proximity model: first chaos kernel, edge-count mean, local bound


def test_criterion_08_proximity_model():
    delta = 0.1
    kern = gilbert_kernel(delta)
    integ = Integrator(samples=60_000, seed=14)
    model25 = IntensityModel(25.0, UNIT_SQUARE)

    target = 25.0 * math.pi * delta**2
    mc = chaos_kernel(kern, 1, np.array([[0.5, 0.5]]), model25, integ)
    z_f1 = (mc.value - target) / mc.se
    exact = gilbert_f1(np.array([0.5, 0.5]), delta, model25)
    ok_f1 = (
        abs(z_f1) <= 3.0
        and math.isclose(exact.value, target, rel_tol=1e-12)
        and exact.se == 0.0
    )

    # mean edge count against the closed-form pair integral on the square
    pair_area = math.pi * delta**2 - 8.0 * delta**3 / 3.0 + delta**4 / 2.0
    mean_target = 25.0**2 * pair_area / 2.0
    reps = 2000
    ok_bound = True
    details = [f"f1 MC z={z_f1:+.2f}"]
    z_mean = None
    for lam in (25.0, 100.0):
        model = IntensityModel(lam, UNIT_SQUARE)
        config = ExperimentConfig(
            kernel=kern,
            window=UNIT_SQUARE,
            lambdas=(lam,),
            replicates=reps,
            integrator=Integrator(samples=4096, seed=15),
            seed=47,
        )
        records = run_replicates(config)
        if lam == 25.0:
            values = np.array([rec.value for rec in records])
            se = float(np.std(values, ddof=1) / math.sqrt(reps))
            z_mean = float((np.mean(values) - mean_target) / se)
            details.append(f"edge mean z={z_mean:+.2f}")
        sample = SampleSet(
            np.array([rec.standardized for rec in records]), label=f"gilbert lam={lam:g}"
        )
        d_w = wasserstein_to_normal(sample)
        d_k = kolmogorov_to_normal(sample)
        DISTANCE_PAIRS.append((sample.label, d_w, d_k, reps))
        report = local_bound(kern, model, Integrator(samples=4096, seed=15))
        ok_here = math.isfinite(report.bound) and report.bound > d_w
        ok_bound = ok_bound and ok_here and report.c_k == default_local_constant(2)
        details.append(f"lam={lam:g}: bound {report.bound:.3g} > d_w {d_w:.3f}")
    ok = ok_f1 and abs(z_mean) <= 3.0 and ok_bound
    _verdict(8, "proximity-model", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 9. convex-position probabilities with their norm sandwich


def test_criterion_09_convex_position():
    integ = Integrator(samples=4096, seed=16)
    model = IntensityModel(4.0, UNIT_SQUARE)
    res3 = sylvester_estimate(3, model, replicates=2000, integrator=integ, seed=51)
    ok3 = abs(res3.p - 1.0) <= 3.0 * max(res3.p_se, 1e-12) and res3.satisfied

    res4 = sylvester_estimate(4, model, replicates=20_000, integrator=integ, seed=53)
    rng = spawn_rng(57, "acceptance-9")
    quads = rng.uniform(0.0, 1.0, size=(40_000, 4, 2))
    hull_counts = np.array([len(ConvexHull(q).vertices) for q in quads])
    p_oracle = float(np.mean(hull_counts == 4))
    se_oracle = math.sqrt(p_oracle * (1.0 - p_oracle) / len(quads))
    z4 = (res4.p - p_oracle) / math.hypot(res4.p_se, se_oracle)
    ok4 = abs(z4) <= 3.0 and res4.satisfied
    _verdict(
        9,
        "convex-position",
        ok3 and ok4,
        f"p3={res3.p:.4f} (se {res3.p_se:.2g}); p4={res4.p:.4f} vs oracle {p_oracle:.4f}, "
        f"z={z4:+.2f}; sandwich: {res3.satisfied and res4.satisfied}",
    )


# ---------------------------------------------------------------------------
# 10. distance estimators: point-mass value and the global Kolmogorov cap


def test_criterion_10_distance_estimators():
    point_mass = SampleSet(np.zeros(1000), label="point mass")
    d_w = wasserstein_to_normal(point_mass)
    ok_mass = abs(d_w - math.sqrt(2.0 / math.pi)) <= 1e-6

    if not DISTANCE_PAIRS:
        pytest.skip("needs the sample sets accumulated by the experiment criteria")
    violations = [
        label
        for label, dw, dk, n in DISTANCE_PAIRS
        if dk > 2.0 * math.sqrt(dw) + 2.0 / math.sqrt(n)
    ]
    _verdict(
        10,
        "distance-estimators",
        ok_mass and not violations,
        f"point-mass d_w err {abs(d_w - math.sqrt(2.0 / math.pi)):.2e}; "
        f"{len(DISTANCE_PAIRS)} sample sets capped; violations: {violations or 'none'}",
    )
