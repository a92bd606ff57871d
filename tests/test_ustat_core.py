"""Kernel sums, difference operators, chaos kernels, and variances."""

import itertools
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisson_ustats import (
    BallWindow,
    BoxWindow,
    CapacityError,
    CellGrid,
    ConfigError,
    Estimate,
    IntegrationError,
    Integrator,
    IntensityModel,
    LineWindow,
    PointConfiguration,
    SimpleFunction,
    UStatKernel,
    chaos_kernel,
    chaos_kernels_simple,
    check_symmetry,
    counterexample_kernel,
    difference,
    evaluate,
    expectation,
    gilbert_kernel,
    iterated_difference,
    line_intersection_kernel,
    m_ij,
    make_kernel,
    ou_generator,
    ou_generator_direct,
    ou_inverse,
    pairwise_distance_kernel,
    sample_points,
    unit_ball_volume,
    variance,
    variance_terms,
)
from poisson_ustats._lattice import lattice_chunks, lattice_shape
from poisson_ustats._streams import spawn_rng
from poisson_ustats.clt_bounds import _fourth_power_norms, estimate_ingredients
from poisson_ustats import chaos_algebra, ustat_core
from poisson_ustats.ustat_core import (
    CHUNK_DRAWS,
    NESTED_INNER,
    NESTED_REPEAT,
    _ball_points,
    _batch_variance,
    _elementary_mean,
    _inner_values,
    _local_radius,
    _pilot_batch_size,
    _product_integral,
    _unit_points,
    _unit_variates,
    _variance_term,
)

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))

# mean distance between two independent uniform points of the unit square
MEAN_DIST_SQUARE = (2.0 + math.sqrt(2.0) + 5.0 * math.asinh(1.0)) / 15.0
# mean distance from the centre of the unit square to a uniform point
MEAN_DIST_CENTER = (math.sqrt(2.0) + math.asinh(1.0)) / 6.0


def _drawn(count: int) -> int:
    """The draws a lattice family of ``count`` keeps: whole shifts of its rule."""
    size, shifts = lattice_shape(count)
    return size * shifts


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


def _evaluate_cells(kern: UStatKernel, arrays, **kwargs) -> list:
    """_evaluate_many on a list of (n_i, d) cells, stacked into its (points, sizes) form."""
    return ustat_core._evaluate_many(kern, np.concatenate(arrays), [len(a) for a in arrays], **kwargs)


def test_locality_grid_too_large_to_index():
    wide = spawn_rng(8, "wide").random((100, 10))
    with pytest.raises(CapacityError):
        evaluate(gilbert_kernel(1e-3), PointConfiguration(wide))
    # also when the wide array is one of several evaluated together, or
    # stacked on one grid with small ones
    small = [spawn_rng(8, "small", i).random((5, 10)) for i in range(3)]
    with pytest.raises(CapacityError):
        _evaluate_cells(gilbert_kernel(1e-3), [small[0], wide, *small[1:]])
    with pytest.raises(CapacityError):
        ustat_core._local_subset_batches(np.concatenate([small[0], wide, *small[1:]]), 1e-3, 2, [5, 100, 5, 5])


def _grid_ids(points: np.ndarray, delta: float) -> int:
    """The cell ids of one array's grid when every axis has its keys two or
    more cells apart: each axis shrinks to keys 1, 3, ..., 2n - 1 and so has
    radix 2n + 1."""
    keys = np.sort(np.floor(points / delta), axis=0)
    assert np.all(np.diff(keys, axis=0) >= 2)
    return (2 * len(points) + 1) ** points.shape[1]


def test_batched_locality_never_refuses_what_one_array_admits():
    # arrays of 58 points in dimension 8 with a tiny delta: every axis ranks
    # 58 keys two apart, so each array alone indexes 117^8 ~ 2^55 cell ids,
    # and 150 of them on one grid would pass 1 << 62 with the owner digit
    kern = gilbert_kernel(1e-9)
    arrays = [spawn_rng(9, "near-2^55", i).random((58, 8)) for i in range(150)]
    ids = [_grid_ids(a, 1e-9) for a in arrays]
    assert all(2**54 < n < 2**56 for n in ids)
    assert len(arrays) * max(ids) >= 1 << 62
    assert _evaluate_cells(kern, arrays) == [evaluate(kern, PointConfiguration(a)) for a in arrays]


def _view_kernel(order: int, delta=None) -> UStatKernel:
    """A symmetric kernel that writes each value into its tuple's first
    coordinate, in place, and returns that column: a view of its input."""

    def fn(t):
        close = 1.0 if delta is None else np.all(np.linalg.norm(t[:, :, None] - t[:, None], axis=-1) <= delta, axis=(1, 2))
        t[:, 0, 0] = close * np.exp(-np.abs(t).sum(axis=(1, 2)))
        return t[:, 0, 0]

    return UStatKernel(order, fn, locality=delta)


def _combinations_oracle(kern: UStatKernel, pts: np.ndarray) -> float:
    """k! times the kernel summed over itertools.combinations of the points,
    each tuple built fresh."""
    combos = list(itertools.combinations(range(len(pts)), kern.order))
    if not combos:
        return 0.0
    return math.factorial(kern.order) * math.fsum(kern(pts[np.array(combos)]).tolist())


@pytest.mark.parametrize("batch", [None, 7])
def test_evaluate_many_reduces_each_call_before_the_next_gather(batch):
    # a kernel returning a view of its tuples sees its values overwritten by
    # the next gather into the shared buffer; every cell must still match
    # the combinations oracle, on both paths: cells below the order, one
    # exhaustive size with more subsets than a batch, and (at batch 7) kernel
    # calls whose batches cross from one cell into the next
    rng = spawn_rng(11, "view")
    sizes = [0, 5, 1, 2, 60, 5, 5, 3, 0, 9, 2, 30, 5]
    cells = [rng.random((n, 2)) for n in sizes]
    big = batch or ustat_core._SUBSET_BATCH
    assert math.comb(60, 3) > big
    with mock.patch.object(ustat_core, "_SUBSET_BATCH", big):
        for kern in (_view_kernel(3), _view_kernel(2, 0.3), _view_kernel(3, 0.3)):
            oracle = [_combinations_oracle(kern, pts) for pts in cells]
            assert _evaluate_cells(kern, cells) == pytest.approx(oracle, rel=1e-12, abs=0.0)
            assert _evaluate_cells(kern, cells, exhaustive=True) == pytest.approx(oracle, rel=1e-12, abs=0.0)


def test_batched_grids_stay_far_below_the_id_limit():
    # a group of several arrays holds at most C points for C = _GROUP_RUNS
    # over the runs per point, each axis of its shrunk keys ranks at most
    # 2 C - 1 values, so its stacked ids number at most C (2 C - 1)^d
    for d in range(1, 16):
        most = ustat_core._GROUP_RUNS // ((3 ** (d - 1) + 1) // 2)
        assert most < 2 or most * (2 * most - 1) ** d < 1 << 61


@st.composite
def _batched_cases(draw):
    """Point arrays for one local kernel: empty and below-order ones, each in
    its own box offset by whole cells, some points on the cell edges."""
    dim = draw(st.integers(1, 3))
    order = draw(st.integers(1, 3))
    delta = draw(st.sampled_from([0.125, 0.25, 0.5]))
    rng = spawn_rng(draw(st.integers(0, 2**16)), "batched")
    arrays = []
    for _ in range(draw(st.integers(1, 8))):
        n = draw(st.integers(0, 12 if order == 3 else 30))
        on_edge = draw(st.integers(0, n))
        pts = np.concatenate([rng.integers(0, int(1 / delta) + 1, (on_edge, dim)) * delta, rng.random((n - on_edge, dim))])
        pts += rng.integers(-40, 40, dim) * delta
        first = np.sort(np.unique(pts, axis=0, return_index=True)[1])  # drop repeated edge points
        arrays.append(pts[first])
    return _diameter_kernel(order, delta, weighted=draw(st.booleans())), arrays


@given(_batched_cases(), st.sampled_from([None, 1, 5, 64]), st.sampled_from([None, 6, 60]))
@settings(max_examples=80, deadline=None)
def test_batched_locality_matches_single_arrays(case, batch, runs):
    # the per-array slices straddle the kernel calls of a group at small
    # batch sizes, and small run caps split the arrays into several groups
    kern, arrays = case
    with mock.patch.object(ustat_core, "_SUBSET_BATCH", batch or ustat_core._SUBSET_BATCH):
        with mock.patch.object(ustat_core, "_GROUP_RUNS", runs or ustat_core._GROUP_RUNS):
            many = _evaluate_cells(kern, arrays)
            alone = [evaluate(kern, PointConfiguration(a)) for a in arrays]
            full = _evaluate_cells(kern, arrays, exhaustive=True)
    assert list(map(repr, many)) == list(map(repr, alone))
    assert many == pytest.approx(full, rel=1e-12, abs=0.0)


def test_batched_locality_memory_stays_bounded():
    # 300 arrays of about 200 points (59,765 points, 465,015 candidate
    # pairs) enumerated together; one grid for all of them peaks at about 17 MB
    rng = spawn_rng(10, "memory")
    arrays = [rng.random((rng.poisson(200), 2)) for _ in range(300)]
    kern = gilbert_kernel(0.1)
    tracemalloc.start()
    try:
        _evaluate_cells(kern, arrays)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _assert_combinations(batches, n: int, k: int, batch: int) -> None:
    """The batches, concatenated, are itertools.combinations(range(n), k),
    and each but the last has exactly ``batch`` rows; compared batch by batch."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    sizes = []
    for rows in batches:
        assert rows.dtype == np.intp and rows.shape[1] == k
        expect = np.fromiter(itertools.islice(flat, rows.size), dtype=np.intp, count=rows.size)
        assert np.array_equal(rows.ravel(), expect)
        sizes.append(len(rows))
    assert next(flat, None) is None
    assert all(m == batch for m in sizes[:-1]) and all(0 < m <= batch for m in sizes[-1:])


# k = 4 is checked only for n <= 40: C(181, 4) is already 43 million rows
@pytest.mark.parametrize(
    "n, k",
    [(n, k) for n in range(13) for k in range(1, 5)] + [(n, k) for n in (181, 182, 256) for k in (1, 2, 3)] + [(257, 2), (60, 3), (40, 4)],
)
def test_subset_batches_are_the_combinations_in_fixed_batches(n, k):
    _assert_combinations(ustat_core._subset_batches(n, k), n, k, ustat_core._SUBSET_BATCH)


@pytest.mark.parametrize("batch", [1, 2, 7, 64])
def test_subset_batches_cut_at_any_batch_size(batch, monkeypatch):
    monkeypatch.setattr(ustat_core, "_SUBSET_BATCH", batch)
    for n in range(13):
        for k in range(1, 5):
            _assert_combinations(ustat_core._subset_batches(n, k), n, k, batch)
    _assert_combinations(ustat_core._subset_batches(30, 3), 30, 3, batch)


@st.composite
def _edge_cases(draw):
    """Points in [0, 1]^d, some on the edges of the grid of cell edge delta
    (exact binary multiples of it), with an order k and a batch size."""
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    delta = draw(st.sampled_from([0.125, 0.25, 0.5]))
    rng = spawn_rng(draw(st.integers(0, 2**16)), "edges")
    n = draw(st.integers(k, 24 if k == 4 else 40))
    on_edge = draw(st.integers(0, n))
    pts = np.concatenate([rng.integers(0, int(1 / delta) + 1, (on_edge, dim)) * delta, rng.random((n - on_edge, dim))])
    return pts, delta, k, draw(st.sampled_from([None, 1, 5, 64]))


@given(_edge_cases())
@settings(max_examples=120, deadline=None)
def test_local_subsets_hold_every_close_subset_once(case):
    pts, delta, k, batch = case
    with mock.patch.object(ustat_core, "_SUBSET_BATCH", batch or ustat_core._SUBSET_BATCH):
        batches = list(ustat_core._local_subset_batches(pts, delta, k, [len(pts)]))
        assert all(len(rows) == ustat_core._SUBSET_BATCH for rows in batches[:-1])
    rows = [tuple(sorted(r)) for r in np.concatenate(batches or [np.zeros((0, k), np.intp)]).tolist()]
    assert len(rows) == len(set(rows))
    gaps = np.linalg.norm(pts[:, None] - pts[None], axis=-1)

    def close(sub):
        return all(gaps[a, b] <= delta for a, b in itertools.combinations(sub, 2))

    brute = {sub for sub in itertools.combinations(range(len(pts)), k) if close(sub)}
    assert {sub for sub in rows if close(sub)} == brute


def test_subset_batches_memory_is_about_two_batches():
    # every pair of 4,096 points is 8.4 million rows (134 MB of indices)
    tracemalloc.start()
    try:
        for _ in ustat_core._subset_batches(4096, 2):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


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
    # a prefix's sum is the same whether it shares its kernel calls with
    # other prefixes (here over several calls of _SUBSET_BATCH tuples) or not
    smooth = UStatKernel(3, lambda t: np.exp(-t.sum(axis=(1, 2))))
    for kernel, size in ((kern, 1000), (smooth, 60)):
        cfg = PointConfiguration(UNIT_SQUARE.sample(rng, size))
        ys = UNIT_SQUARE.sample(rng, 60)[:, None]
        together = ustat_core._ordered_prefix_sums(kernel, cfg, ys)
        assert together.tolist() == [ustat_core._ordered_prefix_sums(kernel, cfg, y[None])[0] for y in ys]


def _contiguous_kernel(order: int, delta=None) -> UStatKernel:
    """A smooth kernel that reduces over each tuple, so its values depend on
    the memory layout of the tuples; it asserts that they are C-contiguous."""

    def fn(t):
        assert t.flags.c_contiguous, t.strides
        close = 1.0 if delta is None else np.all(np.linalg.norm(t[:, :, None] - t[:, None], axis=-1) <= delta, axis=(1, 2))
        return close * np.exp(-t.sum(axis=(1, 2)))

    return UStatKernel(order, fn, locality=delta)


def test_kernels_get_c_contiguous_tuples():
    rng = spawn_rng(6, "contiguous")
    cfg = PointConfiguration(UNIT_SQUARE.sample(rng, 40))
    for kern in (_contiguous_kernel(3), _contiguous_kernel(2, 0.3), _contiguous_kernel(3, 0.3)):
        evaluate(kern, cfg)
        evaluate(kern, cfg, exhaustive=True)
        _evaluate_cells(kern, [cfg.points, cfg.points[:7], cfg.points[7:30]])
        _evaluate_cells(kern, [cfg.points, cfg.points[:7], cfg.points[7:30]], exhaustive=True)
        for i in range(1, kern.order + 1):
            iterated_difference(kern, cfg, UNIT_SQUARE.sample(rng, i))
    # one subset (of the two configuration points) joined to 40 prefixes in one kernel call
    kern = _contiguous_kernel(3)
    two = PointConfiguration(cfg.points[:2])
    ys = UNIT_SQUARE.sample(rng, 40)[:, None]
    together = ustat_core._ordered_prefix_sums(kern, two, ys)
    assert together.tolist() == [ustat_core._ordered_prefix_sums(kern, two, y[None])[0] for y in ys]


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
    # read off T_1's pass: 25,000 samples give 200,000 outer points and an
    # se near 0.09
    kern = pairwise_distance_kernel()
    im = IntensityModel(20.0, UNIT_SQUARE)
    est = expectation(kern, im, Integrator(samples=25_000, seed=4))
    assert 0 < est.se < 0.1
    assert est.within(400.0 * MEAN_DIST_SQUARE)


GILBERT_DELTA = 0.1
MEAN_CALIBRATION = {
    # exact int f dtheta^2 at unit rate; the gilbert value is Penrose (2003)'s
    "pairwise-distance": (pairwise_distance_kernel(), UNIT_SQUARE, MEAN_DIST_SQUARE),
    "gilbert": (
        gilbert_kernel(GILBERT_DELTA), UNIT_SQUARE,
        0.5 * (math.pi * GILBERT_DELTA**2 - 8.0 * GILBERT_DELTA**3 / 3.0 + GILBERT_DELTA**4 / 2.0),
    ),
    "line-intersections": (line_intersection_kernel(LineWindow(1.0)), LineWindow(1.0), math.pi**2),
}


@pytest.mark.parametrize(
    "case, strata",
    # line windows have no stratified draws
    [(case, 1) for case in sorted(MEAN_CALIBRATION)] + [("gilbert", 2), ("pairwise-distance", 2)],
)
def test_mean_se_is_calibrated(case, strata):
    # z-scores of the mean read off T_1's pass against the exact value, over
    # 200 seeds at a small sample count: the se neither under- nor overstates
    kern, window, exact = MEAN_CALIBRATION[case]
    model = IntensityModel(1.0, window)
    z = np.array([
        (est.value - exact) / est.se
        for est in (expectation(kern, model, Integrator(samples=32, seed=seed, strata=strata)) for seed in range(200))
    ])
    assert abs(z.mean()) <= 0.2 and 0.8 <= z.std(ddof=1) <= 1.25, (z.mean(), z.std(ddof=1))


def _chosen_size(est: Estimate, samples: int) -> int:
    """The inner batch size M of a nested estimate's main pass, from its n
    outer points: a lattice family of 128 * samples / M keeps more than
    16/17 of them, so the quotient rounds down to M."""
    return NESTED_REPEAT * NESTED_INNER * samples // est.n


def _mark_pilot(monkeypatch) -> list:
    """Wrap the pilot so that the returned one-item list reads "pilot" while it runs and "main" otherwise."""
    phase = ["main"]
    pilot = ustat_core._pilot_batch_size

    def marked(*args):
        phase[0] = "pilot"
        try:
            return pilot(*args)
        finally:
            phase[0] = "main"

    monkeypatch.setattr(ustat_core, "_pilot_batch_size", marked)
    return phase


def _cell_family(cells: int, band: bool, dim: int = 1):
    """An order-2 cell kernel on [0, 1]^dim, ``cells`` cells per axis (only
    on cells at Chebyshev distance 1 when ``band``, then local with delta
    two cell diagonals, 2 sqrt(dim) / cells) and its exact T_1, T_2 and
    fourth-power norms through chaos_kernels_simple."""
    count = cells**dim
    at = np.stack(np.unravel_index(np.arange(count), (cells,) * dim), axis=-1)
    coeffs = np.zeros((count, count))
    for i, j in itertools.permutations(range(count), 2):
        if not band:
            coeffs[i, j] = 0.5 + ((i + j + i * j) % 5) / 2.0
        elif np.abs(at[i] - at[j]).max() == 1:
            coeffs[i, j] = 1.0 + 0.3 * min(i, j) / cells ** (dim - 1)
    fn = SimpleFunction(CellGrid.regular((0.0,) * dim, (1.0,) * dim, (cells,) * dim), coeffs)
    model = IntensityModel(1.0, BoxWindow(((0.0, 1.0),) * dim))
    chaos = chaos_kernels_simple(fn, model)
    terms = [math.factorial(i) * f_i.norm_sq(model) for i, f_i in enumerate(chaos, start=1)]
    norms = [SimpleFunction(f_i.grid, f_i.coeffs**2).norm_sq(model) for f_i in chaos]
    kern = fn.as_kernel(locality=2.0 * math.sqrt(dim) / cells if band else None)
    if dim > 1:
        # fn.value_at tests the points against every cell in turn; on a grid
        # of 2^p cells per axis flooring finds the same cells of [0, 1)^dim
        ids = cells ** np.arange(dim - 1, -1, -1)

        def lookup(t):
            cell = (t * cells).astype(np.intp) @ ids
            return np.where(np.all(t < 1.0, axis=(1, 2)), coeffs[cell[:, 0], cell[:, 1]], 0.0)

        kern = replace(kern, fn=lookup)
        pts = model.window.sample(spawn_rng(0, "cells"), 4000).reshape(-1, 2, dim)
        assert np.array_equal(kern(pts), fn.value_at(pts))
    return kern, model.window, terms + norms


SE_CALIBRATION = {
    # Santalo: on LineWindow(R), T_1 = 64 pi R^3 / 3 and T_2 = pi^2 R^2
    "line-intersections": (line_intersection_kernel(LineWindow(1.0)), LineWindow(1.0), [64.0 * math.pi / 3.0, math.pi**2]),
    "cell-plain": _cell_family(6, band=False),
    "cell-local": _cell_family(8, band=True),
    # 8 x 8 cells on the unit square: the delta-ball (0.39) is smaller than
    # the window, so every ingredient draws in the ball
    "cell-local-2d": _cell_family(8, band=True, dim=2),
}


@pytest.mark.parametrize("case", sorted(SE_CALIBRATION))
def test_variance_term_and_norm_se_is_calibrated(case):
    # z-scores of T_1, T_2 (and for the cell kernels the two fourth-power
    # norms) against their exact values over 200 seeds: the se of the
    # pilot-sized nested passes neither under- nor overstates the spread;
    # the pilots pick inner batches below NESTED_INNER for every T_1 in 1-D
    # and on the line, and for some T_1 of the 2-D family (8 or 16 for
    # all but a few seeds)
    kern, window, exact = SE_CALIBRATION[case]
    z, sizes = [], set()
    for seed in range(200):
        integ = Integrator(samples=128, seed=seed)
        got = variance_terms(kern, window, integ)
        if len(exact) > 2:
            got += _fourth_power_norms(kern, window, integ)
        z.append([(est.value - value) / est.se for est, value in zip(got, exact)])
        sizes.add(_chosen_size(got[0], 128))
    z = np.array(z)
    mean, sd = z.mean(axis=0), z.std(axis=0, ddof=1)
    assert np.all(np.abs(mean) <= 0.2) and np.all((0.8 <= sd) & (sd <= 1.25)), (mean, sd)
    assert (min(sizes) if case == "cell-local-2d" else max(sizes)) < NESTED_INNER


# T_1 and T_2 of small fixed-seed configs, pinned float for float: reading
# the mean off T_1's pass must move no draw of any variance term; T_1's
# pilot picks inner batches of 2 (4 under strata 2, its smallest stratified
# size), so its n is 128 * samples / M outer points (2,560 = 20 shifts of a
# 128-point rule at strata 1); the strata-2 case pins tensor stratification
PINNED_VARIANCE_TERMS = {
    "pairwise-distance": (
        pairwise_distance_kernel(), Integrator(samples=40, seed=11),
        [(1.1123159525334931, 0.0058794675738742825, 2560), (0.6796481148062214, 0.07135471008114186, 40)],
    ),
    "gilbert-0.2": (
        gilbert_kernel(0.2), Integrator(samples=40, seed=11),
        [(0.011652301696036125, 0.00010905852632360403, 2560), (0.051836278784231596, 0.003437666743322638, 40)],
    ),
    "pairwise-distance-strata-2": (
        pairwise_distance_kernel(), Integrator(samples=64, seed=11, strata=2),
        [(1.1168660938493176, 0.008979088392263032, 2048), (0.6229546717958087, 0.04764901308894504, 64)],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_VARIANCE_TERMS))
def test_variance_terms_are_pinned_to_their_floats(case):
    kern, integ, pinned = PINNED_VARIANCE_TERMS[case]
    mean, terms = variance_terms(kern, UNIT_SQUARE, integ, with_mean=True)
    assert [(t.value, t.se, t.n) for t in terms] == pinned
    assert variance_terms(kern, UNIT_SQUARE, integ) == terms
    # the mean has T_1's outer points
    assert mean.n == terms[0].n


def _viewing(kern: UStatKernel) -> UStatKernel:
    """kern, but writing each value into its tuple's first coordinate, in
    place, and returning that column: a view of its input."""

    def fn(t):
        t[:, 0, 0] = kern.fn(t)
        return t[:, 0, 0]

    return UStatKernel(kern.order, fn, kern.name, locality=kern.locality)


def _floats(result):
    """Every (value, se, n) of an estimate or of a nested structure of them."""
    if isinstance(result, Estimate):
        return [(result.value, result.se, result.n)]
    if isinstance(result, (tuple, list)):
        return [x for part in result for x in _floats(part)]
    if hasattr(result, "terms"):  # Ingredients
        return _floats((result.mean, result.terms, result.norms, result.m))
    return [result]


LINES = LineWindow(1.0)
LINE_KERNEL = line_intersection_kernel(LINES)
GILBERT = gilbert_kernel(0.2)
# an order-1 kernel on two slot lists: the first list's values are kept
# for the mean while the second list's tuples are gathered
DECAY = UStatKernel(1, lambda t: np.exp(-np.abs(t).sum(axis=(1, 2))))
VIEW_CASES = {
    "orbit record": (LINE_KERNEL, lambda kern, integ: chaos_algebra._m_orbit_integrals(kern, LINES, integ)),
    "lines nested T_1": (LINE_KERNEL, lambda kern, integ: _variance_term(kern, LINES, integ, 1, first_mean=True)),
    "lines pilot": (LINE_KERNEL, lambda kern, integ: _pilot_batch_size(kern, 2, LINES, integ, 1, [([0], 2, 1)], ("view",), None)),
    "gilbert local T_1": (GILBERT, lambda kern, integ: _variance_term(kern, UNIT_SQUARE, integ, 1, first_mean=True)),
    "gilbert local norms": (GILBERT, lambda kern, integ: _fourth_power_norms(kern, UNIT_SQUARE, integ)),
    "gilbert pilot": (GILBERT, lambda kern, integ: _pilot_batch_size(kern, 2, UNIT_SQUARE, integ, 1, [([0], 4, 1)], ("view",), 0.2)),
    "gilbert strata-2 record": (GILBERT, lambda kern, integ: estimate_ingredients(kern, UNIT_SQUARE, replace(integ, strata=2), "local")),
    "first mean of two slot lists": (DECAY, lambda kern, integ: _product_integral(kern, 1, UNIT_SQUARE, integ, 2, [[0], [1]], ("view",), first_mean=True)),
    "chunked plain integral": (LINE_KERNEL, lambda kern, integ: Integrator(40_000, 3).integrate(kern, LINES, 2)),
    "chunked local integral": (GILBERT, lambda kern, integ: Integrator(40_000, 3).integrate(kern, UNIT_SQUARE, 2, locality=kern.locality)),
}


@pytest.mark.parametrize("case", sorted(VIEW_CASES))
def test_integrals_use_each_kernel_call_before_its_buffer_is_reused(case):
    # the integrator gathers tuples into buffers that later chunks, slot
    # lists and inner batches overwrite; a kernel that returns a view of its
    # tuples (and writes into them) must give the estimates, float for float,
    # of the same kernel returning fresh arrays
    kern, estimate = VIEW_CASES[case]
    integ = Integrator(samples=64, seed=11)
    assert _floats(estimate(_viewing(kern), integ)) == _floats(estimate(kern, integ))


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


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=4, max_size=8),
    st.sampled_from([1, 2, 4]),
)
def test_elementary_mean_is_the_mean_over_r_subsets(values, r):
    # e_r from power sums against the direct mean of products over all r-subsets
    v = np.array(values)
    direct = np.mean([math.prod(c) for c in itertools.combinations(values, r)])
    both = _elementary_mean(np.stack([v, 2.0 * v]), r)
    assert both[0] == pytest.approx(direct, rel=1e-9, abs=1e-9)
    assert both[1] == pytest.approx(2.0**r * direct, rel=1e-9, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=NESTED_INNER, max_size=NESTED_INNER),
    st.sampled_from([2, 4]),
)
def test_elementary_mean_is_nonnegative_on_sparse_nonnegative_values(values, r):
    # inner batches of a kernel with small support are mostly 0: e_r must not
    # cancel below 0, and is exactly 0 with fewer than r nonzero values
    got = float(_elementary_mean(np.array(values), r))
    direct = math.fsum(math.prod(c) for c in itertools.combinations(values, r)) / math.comb(len(values), r)
    assert got >= 0.0
    assert got == pytest.approx(direct, rel=1e-12, abs=0.0)
    if sum(x > 0 for x in values) < r:
        assert got == 0.0


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative counts summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def _exact_variances(law: dict, c: int, size: int) -> tuple:
    """Exact variances of e_c(v) / C(size, c) over one batch of ``size`` iid
    values of the discrete ``law`` ({value: probability}, as Fractions), by
    enumerating every multiset of values with its multinomial probability,
    and of the product of c means of independent such batches, by
    enumerating the law of a batch sum."""
    values = list(law)
    first = second = Fraction(0)
    for counts in _compositions(size, len(values)):
        prob = Fraction(math.factorial(size), math.prod(math.factorial(n) for n in counts))
        e = [Fraction(1)] + [Fraction(0)] * c
        for v, n in zip(values, counts):
            prob *= law[v] ** n
            for _ in range(n):
                for j in range(c, 0, -1):
                    e[j] += v * e[j - 1]
        u = e[c] / math.comb(size, c)
        first += prob * u
        second += prob * u * u
    sums = {Fraction(0): Fraction(1)}
    for _ in range(size):
        step = {}
        for total, p in sums.items():
            for v, q in law.items():
                step[total + v] = step.get(total + v, Fraction(0)) + p * q
        sums = step
    mean = sum(p * total for total, p in sums.items()) / size
    square = sum(p * total * total for total, p in sums.items()) / size**2
    return second - first * first, square**c - mean ** (2 * c)


LAWS = st.lists(
    st.tuples(st.fractions(-3, 4, max_denominator=4), st.integers(1, 999)), min_size=1, max_size=3, unique_by=lambda vw: vw[0]
)


@settings(max_examples=25, deadline=None)
@given(LAWS)
@example([(Fraction(0), 97), (Fraction(1), 3)])
@example([(Fraction(0), 990), (Fraction(1, 2), 9), (Fraction(3), 1)])
def test_pilot_variance_rule_is_exact(pairs):
    # the pilot's Var(U_M | y) at the law's mu and variance s, for c in {2, 4}
    # and every candidate M, against the exact variance of e_c / C(M, c) and
    # of a product of c independent batch means, sparse laws included
    weight = sum(w for _, w in pairs)
    law = {v: Fraction(w, weight) for v, w in pairs}
    mu = sum(p * v for v, p in law.items())
    s = sum(p * (v - mu) ** 2 for v, p in law.items())
    for c in (2, 4):
        for size in (M for M in (2, 4, 8, 16) if M >= c):
            shared, independent = _exact_variances(law, c, size)
            for exact, flag in ((shared, False), (independent, True)):
                got = float(_batch_variance(np.array(float(mu * mu)), np.array(float(s)), c, size, flag))
                assert got == pytest.approx(float(exact), rel=1e-9, abs=0.0)
                assert (got == 0.0) == (s == 0)


def test_a_family_without_pilot_spread_keeps_its_inner_batches(monkeypatch):
    # convex position of 3 points is 1 almost surely, and a constant kernel
    # on a window of area 2 has equal inner values: no pilot spread, so T_1
    # and the first norm keep M = NESTED_INNER
    half = BoxWindow(((0.0, 2.0), (0.0, 1.0)))
    constant = UStatKernel(2, lambda t: np.full(len(t), 0.7), name="constant")
    for kern, window in ((make_kernel("convex-position-3"), UNIT_SQUARE), (constant, half)):
        integ = Integrator(samples=64, seed=3)
        for est in (variance_terms(kern, window, integ)[0], _fourth_power_norms(kern, window, integ)[0]):
            assert est.n == NESTED_REPEAT * 64 and est.se <= 1e-12 * est.value
    # a kernel of small support whose pilot values are all 0: the main pass
    # keeps inner batches of NESTED_INNER, pinned float for float (a lattice
    # family of 320 = 20 shifts of 16 points; one of the mean's rows hits
    # the support)
    phase = _mark_pilot(monkeypatch)
    pilot_values = []

    def near(t):
        out = (np.abs(t[:, 0] - t[:, 1]).max(axis=1) < 0.01).astype(float)
        if phase[0] == "pilot":
            pilot_values.append(out)
        return out

    t_1, mean = _variance_term(UStatKernel(2, near, name="near"), UNIT_SQUARE, Integrator(samples=40, seed=3), 1, first_mean=True)
    assert len(pilot_values) == 1 and not np.any(pilot_values[0])
    assert (t_1.value, t_1.se, t_1.n) == (0.0, 0.0, 320)
    assert (mean.value, mean.se, mean.n) == (0.00078125, 0.00078125, 320)


def test_variance_terms_cost_is_linear_in_samples(monkeypatch):
    # T_1 of an order-2 kernel is nested: a pilot of samples outer points
    # with one inner batch of 16 each, then a main pass, a lattice family of
    # 128 * samples / M outer points with one shared inner batch of M each,
    # which keeps whole shifts of its rule: at most 128 * samples kernel rows
    # whatever M; the top-order T_2 draws a family of samples tuples; the
    # fourth-power norm of T_1's slot list spends the same as T_1
    rows = {"pilot": 0, "main": 0}
    phase = _mark_pilot(monkeypatch)

    def gap(t):
        rows[phase[0]] += len(t)
        return np.abs(t[:, 0, 0] - t[:, 1, 0])

    kern = UStatKernel(2, gap, name="gap")
    for samples in (100, 300):
        for family in (lambda integ: variance_terms(kern, UNIT_SQUARE, integ), lambda integ: _fourth_power_norms(kern, UNIT_SQUARE, integ)):
            rows.update(pilot=0, main=0)
            nested, top = family(Integrator(samples=samples, seed=1))
            size = _chosen_size(nested, samples)
            assert size in (2, 4, 8, 16)
            assert rows["pilot"] == NESTED_INNER * samples
            assert nested.n == _drawn(NESTED_REPEAT * NESTED_INNER * samples // size)
            assert rows["main"] == nested.n * size + top.n <= NESTED_REPEAT * NESTED_INNER * samples + samples
            assert top.n == _drawn(samples)
    # at 300 samples the families drop a remainder: 300 draws keep 18 shifts
    # of 16 points, and 19,200 outer points (M = 2) keep 18 shifts of 1,024
    assert _drawn(300) == 18 * 16 and _drawn(NESTED_REPEAT * NESTED_INNER * 300 // 2) == 18 * 1024


def test_linear_nested_se_matches_the_spread():
    # strata = 1: the outer points are independent, each with its own shared
    # inner batch, so the reported se must track the spread over seeds
    kern = pairwise_distance_kernel()
    est = [variance_terms(kern, UNIT_SQUARE, Integrator(samples=300, seed=s))[0] for s in range(60)]
    spread = float(np.std([e.value for e in est], ddof=1))
    assert np.mean([e.se for e in est]) == pytest.approx(spread, rel=0.3)
    # T_1 = 4 int (int |x - y| dy)^2 dx; the inner mean distance from the
    # centre is a lower bound for the inner integral at any point
    assert 4.0 * MEAN_DIST_CENTER**2 < np.mean([e.value for e in est]) < 4.0 * MEAN_DIST_SQUARE


@pytest.mark.parametrize("delta", [0.1, 0.3])
def test_gilbert_mean_matches_the_closed_form(delta):
    # int int (1/2) 1[|x - y| <= delta] dx dy on the unit square (Penrose 2003)
    exact = 0.5 * (math.pi * delta**2 - 8.0 * delta**3 / 3.0 + delta**4 / 2.0)
    est = expectation(gilbert_kernel(delta), IntensityModel(1.0, UNIT_SQUARE), Integrator(samples=4000, seed=9))
    assert est.within(exact, 4.0)
    # local draws: about 20% of uniform pairs are within 0.3, 3% within 0.1
    assert est.se < 0.02 * exact


LOCAL_CASES = [
    (BoxWindow(((0.0, 2.0), (0.0, 1.0))), 0.15),
    (BallWindow(0.6), 0.1),
    (BoxWindow(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))), 0.25),
]


@pytest.mark.parametrize("window, delta", LOCAL_CASES, ids=["box", "ball", "cube"])
def test_local_draws_agree_with_uniform_draws(window, delta):
    # the same kernel with and without its locality: mean, T_1, T_2 and the
    # fourth-power norms agree within combined standard errors, and the local
    # draws have the smaller ones
    local = gilbert_kernel(delta, mode="euclidean")
    integ = Integrator(samples=3000, seed=21)

    def ingredients(kern):
        mean = expectation(kern, IntensityModel(1.0, window), integ)
        return [mean, *variance_terms(kern, window, integ), *_fourth_power_norms(kern, window, integ)]

    for x, y in zip(ingredients(local), ingredients(replace(local, locality=None))):
        assert abs(x.value - y.value) <= 4.0 * math.hypot(x.se, y.se)
        assert x.se < y.se


def test_local_draws_need_a_ball_smaller_than_the_window():
    # omega_d delta^d >= theta(W): the uniform draws are kept, bit for bit
    local = gilbert_kernel(0.6)
    plain = replace(local, locality=None)
    integ = Integrator(samples=500, seed=2)
    assert variance_terms(local, UNIT_SQUARE, integ) == variance_terms(plain, UNIT_SQUARE, integ)
    model = IntensityModel(1.0, UNIT_SQUARE)
    assert expectation(local, model, integ) == expectation(plain, model, integ)
    # on the unit square delta 0.55 takes local draws: its cube, 1.21, is
    # larger than the window, but its ball, 0.95, is smaller; the mean still
    # meets the closed form of test_gilbert_mean_matches_the_closed_form
    assert _local_radius(UNIT_SQUARE, 0.6) is None and _local_radius(UNIT_SQUARE, 0.55) == 0.55
    local = gilbert_kernel(0.55)
    got, uniform = expectation(local, model, integ), expectation(replace(local, locality=None), model, integ)
    assert got != uniform
    assert got.within(0.5 * (math.pi * 0.55**2 - 8.0 * 0.55**3 / 3.0 + 0.55**4 / 2.0), 4.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_points_are_uniform_in_the_ball(dim):
    # iid variates through the ball map around anchors well inside the
    # window, and the samples of a centred ball window of radius delta (the
    # same map without anchors): every point lies within delta of its
    # anchor, and a local draw weighs omega_d delta^d / theta(W); E(x - a) = 0
    # and E|x - a|^2 = d / (d + 2) delta^2 within 4 se; the counts in 8
    # equal-volume radial shells and in 8 equal angular sectors (in 1-D the
    # two sides, in 3-D also 8 equal-area zones of the height) pass a
    # chi-square test
    delta, n = 0.3, 40_000
    window = BoxWindow(((-1.0, 1.0),) * dim)
    rng = spawn_rng(5, "ball", dim)
    anchors = rng.uniform(-0.5, 0.5, (n, 1, dim))
    pts, weights = _ball_points(window, rng.random((n, 1, dim)), delta, anchors)
    assert np.all(weights == unit_ball_volume(dim) * delta**dim / 2.0**dim)
    ball = BallWindow(delta, dim)
    sampled = ball.sample(rng, n)
    assert sampled.shape == (n, dim) and ball.contains(sampled).all()
    for x in ((pts - anchors)[:, 0], sampled):
        dist = np.linalg.norm(x, axis=1)
        assert dist.max() <= delta + 1e-12
        for values, mean in [*((x[:, a], 0.0) for a in range(dim)), (dist**2, dim / (dim + 2) * delta**2)]:
            assert abs(values.mean() - mean) <= 4.0 * values.std(ddof=1) / math.sqrt(n)
        shells = np.minimum((8 * (dist / delta) ** dim).astype(int), 7)
        if dim == 1:
            sectors = [(x[:, 0] > 0).astype(int)]
        else:
            turn = np.arctan2(x[:, 1], x[:, 0]) / (2.0 * math.pi) % 1.0
            sectors = [np.minimum((8 * turn).astype(int), 7)]
            if dim == 3:
                # Archimedes: the height over the radius is uniform on [-1, 1]
                sectors.append(np.minimum((4 * (x[:, 2] / dist + 1.0)).astype(int), 7))
        for labels in (shells, *sectors):
            counts = np.bincount(labels, minlength=labels.max() + 1)
            assert scipy.stats.chisquare(counts).pvalue > 1e-3, counts


def test_ball_points_in_one_dimension_are_the_interval():
    # d = 1 is the interval (u - 0.5) 2 delta + a, in that order of float
    # operations, for each of 3 points; a tuple weighs 0 unless all 3 lie in W
    rng = spawn_rng(6, "interval")
    u, anchors = rng.random((500, 3, 1)), rng.random((500, 1, 1))
    window = BoxWindow(((0.0, 1.0),))
    want = (u - 0.5) * (2.0 * 0.15) + anchors
    inside = np.all((want >= 0.0) & (want <= 1.0), axis=(1, 2))
    got, weights = _ball_points(window, u.copy(), 0.15, anchors)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(weights, np.where(inside, (2.0 * 0.15 / 1.0) ** 3, 0.0))


def test_local_draws_call_the_kernel_only_on_positive_weights():
    # a local draw with a point outside the window weighs 0, and the kernel
    # is not called on it: the mean (T_1's pass) calls it once per positive
    # weight of T_1's inner batches, and no call of the mean, T_1 or T_2
    # sees a point outside
    base = gilbert_kernel(0.1)
    seen = []

    def recording(t):
        seen.append(t.copy())
        return base.fn(t)

    kern = replace(base, fn=recording)
    integ = Integrator(samples=1200, seed=0)
    mean = expectation(kern, IntensityModel(1.0, UNIT_SQUARE), integ)
    # redraw the pilot (1200 iid points, batches of 16, on one stream) and
    # the main pass: one lattice family of mean.n draws, each an outer point
    # and its inner batch of the chosen M, (1 + M) * 2 unit variates
    pilot = integ.rng("variance", 1, "pilot")
    ys = UNIT_SQUARE.from_unit(_unit_variates(pilot, 1, 1200, 2, 1)[0])
    _, pilot_weights = _unit_points(UNIT_SQUARE, _unit_variates(pilot, 1200, NESTED_INNER, 2, 1).reshape(1200, -1, 1, 2), 0.1, ys[:, None, None])
    size = _chosen_size(mean, 1200)
    count = NESTED_REPEAT * NESTED_INNER * 1200 // size
    u = np.concatenate([u.copy() for u in lattice_chunks(integ.rng("variance", 1, 0), count, (1 + size) * 2, CHUNK_DRAWS)])
    ys = UNIT_SQUARE.from_unit(u[:, :2])
    _, weights = _unit_points(UNIT_SQUARE, u[:, 2:].reshape(len(u), size, 1, 2), 0.1, ys[:, None, None])
    assert size < NESTED_INNER and len(u) == mean.n
    assert sum(map(len, seen)) == np.count_nonzero(pilot_weights) + np.count_nonzero(weights) < 1200 * NESTED_INNER + mean.n * size
    assert weights.shape == (mean.n, size)
    variance_terms(kern, UNIT_SQUARE, integ)
    tuples = np.concatenate(seen)
    assert np.all((tuples >= 0.0) & (tuples <= 1.0))


def test_local_product_integrals_need_every_shared_variable_next_to_the_first():
    # local draws place every shared variable in the ball around the first,
    # which holds only when each one shares a kernel copy with it: a chain of
    # three copies 0-1, 1-2, 2-3 is refused before any kernel call, and a
    # triangle 0-1, 0-2, 1-2 agrees with uniform draws
    base = gilbert_kernel(0.3, mode="euclidean")
    calls = []

    def fn(t):
        calls.append(len(t))
        return base.fn(t)

    integ = Integrator(samples=4000, seed=3)
    with pytest.raises(ConfigError, match=r"\[2, 3\] share none"):
        _product_integral(fn, 2, UNIT_SQUARE, integ, 4, [[0, 1], [1, 2], [2, 3]], ("chain",), locality=0.3)
    assert calls == []
    assert math.isfinite(_product_integral(fn, 2, UNIT_SQUARE, integ, 4, [[0, 1], [1, 2], [2, 3]], ("chain",)).value)
    local, plain = (
        _product_integral(fn, 2, UNIT_SQUARE, integ, 3, [[0, 1], [0, 2], [1, 2]], ("triangle",), locality=delta)
        for delta in (0.3, None)
    )
    assert abs(local.value - plain.value) <= 4.0 * math.hypot(local.se, plain.se) and local.se < plain.se


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


def test_product_integral_evaluates_later_factors_on_live_rows_only():
    # oracle: the plain loop over every row, factors grouped by slot list in
    # order of first appearance; the fast path must match it bit for bit
    # while the kernel sees only the rows whose product so far is nonzero
    rows = []

    def fn(t):
        rows.append(len(t))
        near = np.abs(t[:, 0, 0] - t[:, 1, 0]) < 0.4
        return np.where(near, np.cos(7.0 * t[:, 0, 1] + t[:, 1, 1]), 0.0)

    slots = [[0, 1], [1, 2], [0, 1], [2, 3]]
    expected = []

    def oracle(ys):
        out = np.ones(len(ys))
        for sl, c in ((slots[0], 2), (slots[1], 1), (slots[3], 1)):
            expected.append(np.count_nonzero(out))
            vals = fn(ys[:, sl])
            for _ in range(c):
                out = out * vals
        return out

    win = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
    integ = Integrator(samples=600, seed=8)
    est = _product_integral(fn, 2, win, integ, 4, slots, ("live",), scale=1.5, repeat=3)
    seen = rows[:]
    rows.clear()
    plain = integ.integrate(oracle, win, 4, path=("live", 0), repeat=3)
    assert (est.value, est.se, est.n) == (1.5 * plain.value, 1.5 * plain.se, plain.n)
    # the lattice family of 3 * 600 draws keeps 28 shifts of 64 points
    assert seen == expected and seen[0] == _drawn(1800) == 1792 > seen[1] > seen[2] > 0


def test_product_integral_skips_non_finite_values_on_zero_rows():
    # the second factor is infinite only where the first one is 0; those
    # rows are not evaluated, so the product stays finite
    def fn(t):
        diagonal = np.all(t[:, 0] == t[:, 1], axis=1)
        return np.where(t[:, 0, 0] < 0.5, np.where(diagonal, 0.0, np.inf), 1.0 + t[:, 1, 1])

    est = _product_integral(fn, 2, UNIT_SQUARE, Integrator(samples=400, seed=2), 2, [[0, 0], [0, 1]], ("dead",))
    assert math.isfinite(est.value) and est.within(0.5 * 1.5**2, 4.0)


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


@pytest.mark.parametrize("locality", [None, 0.1], ids=["uniform", "local"])
def test_integrate_calls_fn_on_at_most_chunk_draws_tuples(locality):
    # a batch larger than CHUNK_DRAWS is evaluated in slices, on uniform and
    # on local draws (where only the tuples of positive weight are passed)
    sizes = []

    def fn(t):
        sizes.append(len(t))
        return np.ones(len(t))

    integ = Integrator(samples=20_000, seed=3)
    for repeat in (1, 3):
        sizes.clear()
        est = integ.integrate(fn, UNIT_SQUARE, 2, path=("chunks",), repeat=repeat, locality=locality)
        assert max(sizes) <= CHUNK_DRAWS < 20_000
        assert est.n == _drawn(20_000 * repeat)
        if locality is None:
            assert sum(sizes) == est.n
        else:
            assert sum(sizes) < est.n


def test_inner_batches_below_their_stratum_count_are_drawn_unstratified(monkeypatch):
    # an inner batch of NESTED_INNER draws over 2 axes has 25 strata at
    # level 5: T_1's main pass draws it plain, bit for bit, with and without
    # a local ball; at level 2 (4 strata) it is stratified
    fine = Integrator(samples=400, seed=2, strata=5)
    source = ustat_core._unit_variates
    calls = []

    def recording(rng, groups, n, axes, level):
        u = source(rng, groups, n, axes, level)
        calls.append((n, level, u.copy()))
        return u

    monkeypatch.setattr(ustat_core, "_unit_variates", recording)

    def first_inner(kernel, integ):
        # the main pass's first inner batch: the call after its first outer,
        # stratified, batch of 400 draws (the pilot's draws are iid)
        calls.clear()
        _variance_term(kernel, UNIT_SQUARE, integ, 1)
        outer = next(j for j, (n, level, _) in enumerate(calls) if n == 400 and level > 1)
        return calls[outer + 1]

    for kernel in (pairwise_distance_kernel(), gilbert_kernel(0.1)):
        n, level, u = first_inner(kernel, fine)
        assert n == NESTED_INNER and level == 1
        np.testing.assert_array_equal(u, fine.rng("variance", 1, 1).random(u.shape))
        n, level, u = first_inner(kernel, replace(fine, strata=2))
        assert level == 2 and not np.array_equal(u, fine.rng("variance", 1, 1).random(u.shape))
    # a batch of the same size without an anchor is an outer one, and too small
    with pytest.raises(ConfigError, match="below the stratum count"):
        replace(fine, samples=NESTED_INNER).integrate(lambda t: t[:, 0, 0], UNIT_SQUARE, 1)
    # no inner batch size up to NESTED_INNER stratifies 25 strata, so T_1's
    # pilot keeps M = NESTED_INNER; at level 2 only M >= 4 is a candidate
    est = _variance_term(pairwise_distance_kernel(), UNIT_SQUARE, fine, 1)
    assert _chosen_size(est, 400) == NESTED_INNER and est.n == NESTED_REPEAT * 400 and math.isfinite(est.se)
    est = _variance_term(pairwise_distance_kernel(), UNIT_SQUARE, replace(fine, strata=2), 1)
    assert _chosen_size(est, 400) in (4, 8, 16) and est.n * _chosen_size(est, 400) == NESTED_REPEAT * NESTED_INNER * 400


def _retired_draw(window, arity, n, rng, groups=1, *, strata=1, radius=None, anchor=None):
    """The retired Integrator.draw, as it was but for ``strata`` passed in:
    the oracle of the one draw pipeline."""
    dim = window.point_dim
    ball = 0 if radius is None else arity - (anchor is None)
    axes = arity * dim
    count = strata**axes
    if strata <= 1 or (anchor is not None and n < count):
        head = window.sample(rng, groups * n * (arity - ball)).reshape(groups * n, arity - ball, dim)
        u = rng.random((groups * n, ball, dim))
        if ball == 0:
            return head, None
        pts, weights = _ball_points(window, u, radius, head[:, :1] if anchor is None else np.repeat(anchor, n, axis=0)[:, None])
        return (pts if anchor is not None else np.concatenate([head, pts], axis=1)), weights
    n_per = n // count
    if n_per < 1:
        raise ConfigError(f"sample count {n} is below the stratum count {count} (level {strata}, {axes} axes)")
    corners = np.stack(np.unravel_index(np.arange(count), (strata,) * axes), axis=-1)
    u = ((corners[:, None, :] + rng.random((groups, count, n_per, axes))) / strata).reshape(-1, arity, dim)
    return _unit_points(window, u, radius, None if anchor is None else np.repeat(anchor, n_per * count, axis=0)[:, None])


def _assert_same_draws(got, want):
    np.testing.assert_array_equal(got[0].reshape(want[0].shape), want[0])
    assert (got[1] is None and want[1] is None) or np.array_equal(got[1].reshape(-1), want[1])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_the_draw_pipeline_matches_the_retired_draw(dim, monkeypatch):
    # every draw maps unit variates through _unit_points, and gives the
    # retired Integrator.draw's tuples and weights bit for bit: outer
    # batches of the stratified rule (through _integrate), the pilot's iid
    # outer rows and inner batches (through _pilot_batch_size), and the
    # inner batches of the stratified rule, at their own level or iid
    # below their stratum count (the map of _inner_values)
    window = BoxWindow(((0.0, 1.0),) * dim)
    maps = []
    unit_points = ustat_core._unit_points

    def recording(*args):
        pts, weights = unit_points(*args)
        maps.append((pts.copy(), None if weights is None else weights.copy()))
        return pts, weights

    monkeypatch.setattr(ustat_core, "_unit_points", recording)
    ones = lambda t: np.ones(len(t))  # noqa: E731
    for radius, groups in itertools.product((None, 0.1), (1, 2, 3)):
        for level, arity in itertools.product((2, 3), (1, 2)):
            integ = Integrator(samples=level ** (arity * dim) + 1, seed=groups, strata=level)
            maps.clear()
            integ._integrate(lambda t, _: ones(t), window, arity, ("oracle",), groups, radius)
            want = _retired_draw(window, arity, integ.samples, integ.rng("oracle"), groups, strata=level, radius=radius)
            _assert_same_draws(maps[0], want)
        for q in (1, 2):
            integ = Integrator(samples=groups, seed=groups)
            maps.clear()
            _pilot_batch_size(ones, q + 1, window, integ, q, [(list(range(q)), 1, 1)], ("oracle",), radius)
            rng = integ.rng("oracle", "pilot")
            ys, weights = _retired_draw(window, q, groups, rng, radius=radius)
            _assert_same_draws(maps[0], (ys, weights))
            y = ys if weights is None else ys[weights > 0]
            if len(y):
                _assert_same_draws(maps[1], _retired_draw(window, 1, NESTED_INNER, rng, len(y), radius=radius, anchor=y[:, 0]))
            assert len(maps) == 1 + bool(len(y))
        y = window.sample(spawn_rng(groups, "anchors"), groups * 2).reshape(groups, 2, dim)
        for level, size in itertools.product((1, 2, 3), (NESTED_INNER, 3**dim)):
            rng, again = spawn_rng(level, "inner"), spawn_rng(level, "inner")
            maps.clear()
            at = level if size >= level**dim else 1
            _inner_values(lambda t: t[:, 0, 0], 2, window, y[:, :1], lambda: _unit_variates(rng, groups, size, dim, at), radius, ustat_core._Scratch())
            _assert_same_draws(maps[0], _retired_draw(window, 1, size, again, groups, strata=level, radius=radius, anchor=y[:, 0]))


NESTED_CHUNK_CASES = {
    "pairwise-T1": lambda integ: _variance_term(pairwise_distance_kernel(), UNIT_SQUARE, integ, 1),
    "lines-T1": lambda integ: _variance_term(line_intersection_kernel(LineWindow(1.0)), LineWindow(1.0), integ, 1),
    "gilbert-mean": lambda integ: expectation(gilbert_kernel(0.1), IntensityModel(1.0, UNIT_SQUARE), integ),
    "gilbert-T1": lambda integ: _variance_term(gilbert_kernel(0.1), UNIT_SQUARE, integ, 1),
}


@pytest.mark.parametrize("case", sorted(NESTED_CHUNK_CASES))
def test_chunk_size_does_not_move_the_estimates(case, monkeypatch):
    # at strata = 1 every draw consumes its stream point by point, so slicing
    # the outer draws (and with them the inner batches) more finely gives the
    # same estimate bit for bit
    integ = Integrator(samples=1200, seed=6)
    default = NESTED_CHUNK_CASES[case](integ)
    monkeypatch.setattr(ustat_core, "CHUNK_DRAWS", 1000)
    assert NESTED_CHUNK_CASES[case](integ) == default


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
    for bad in ({"samples": 2.7}, {"strata": 1.9}, {"seed": 0.5}, {"samples": "100"}):
        with pytest.raises(ConfigError, match="whole number"):
            Integrator(**bad)
    whole = Integrator(samples=100.0, seed=3.0, strata=2.0)
    assert (whole.samples, whole.seed, whole.strata) == (100, 3, 2)
    assert all(type(v) is int for v in (whole.samples, whole.seed, whole.strata))


@pytest.mark.parametrize("strata", [1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_windows_integrate_on_both_rules(dim, strata):
    # int |x|^2 dtheta over the ball B of radius R is d / (d + 2) R^2 theta(B),
    # on the lattice at strata 1, which keeps 31 shifts of 64 points of the
    # 2,000 draws, and on tensor strata at strata 2, which keeps all 2,000
    ball = BallWindow(0.7, dim)
    integ = Integrator(samples=2000, seed=3, strata=strata)
    est = integ.integrate(lambda t: (t[:, 0] ** 2).sum(axis=1), ball, 1, path=("ball", dim))
    assert est.within(dim / (dim + 2) * 0.7**2 * ball.measure(), 4.0)
    assert 0.0 < est.se < 0.05 * est.value
    assert est.n == (_drawn(2000) if strata == 1 else 2000)
    assert _drawn(2000) == 31 * 64


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
