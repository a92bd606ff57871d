"""Cell grids, multiple integrals, partition diagrams, and moment formulas."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ustats import (
    BoxWindow,
    CapacityError,
    CellGrid,
    ConfigError,
    IntensityModel,
    Integrator,
    MAX_DIAGRAM_DRAWS,
    PointConfiguration,
    SimpleFunction,
    UStatKernel,
    apply_replacement,
    cell_counts,
    chaos_kernels_simple,
    convex_position_kernel,
    counterexample_kernel,
    enumerate_pi,
    enumerate_pi_bar,
    evaluate,
    is_connected,
    m_ij,
    product_expectation,
    sample_points,
    wiener_ito,
    wiener_ito_counts,
)
from poisson_ustats._streams import spawn_rng
from poisson_ustats.chaos_algebra import _block_type_orbits

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
GRID4 = CellGrid.regular((0.0, 0.0), (1.0, 1.0), (2, 2))


def _symmetric_zero_diag(n_cells: int, order: int, seed: int) -> np.ndarray:
    rng = spawn_rng(seed, "coeffs")
    coeffs = rng.normal(size=(n_cells,) * order)
    sym = np.zeros_like(coeffs)
    for perm in itertools.permutations(range(order)):
        sym += coeffs.transpose(perm)
    sym /= math.factorial(order)
    idx = np.arange(n_cells)
    for a, b in itertools.combinations(range(order), 2):
        sl = [slice(None)] * order
        sl[a] = idx
        sl[b] = idx
        sym[tuple(sl)] = 0.0
    return sym


# ---------------------------------------------------------------------------
# grids and simple functions


def test_regular_grid_geometry():
    assert GRID4.n_cells == 4
    assert GRID4.dim == 2
    assert np.allclose(GRID4.measures(), 0.25)
    idx = GRID4.locate([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9], [1.5, 0.5]])
    assert idx[3] == -1
    assert len({idx[0], idx[1], idx[2]}) == 3


def test_grid_rejects_overlap_and_degenerate_cells():
    with pytest.raises(ConfigError):
        CellGrid(np.array([[[0.0, 1.0]], [[0.5, 1.5]]]))
    with pytest.raises(ConfigError):
        CellGrid(np.array([[[1.0, 1.0]]]))


def test_simple_function_validation():
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    grid2 = CellGrid.regular((0.0,), (1.0,), (2,))
    with pytest.raises(ConfigError):
        SimpleFunction(grid2, asym)
    diag = np.array([[1.0, 2.0], [2.0, 0.0]])
    with pytest.raises(ConfigError):
        SimpleFunction(grid2, diag)
    with pytest.raises(ConfigError):
        SimpleFunction(grid2, np.zeros((3, 3)))


def test_simple_function_evaluation_and_slice():
    coeffs = _symmetric_zero_diag(4, 2, 1)
    fn = SimpleFunction(GRID4, coeffs)
    assert fn.order == 2
    pts = np.array([[[0.1, 0.1], [0.9, 0.9]]])
    c0 = GRID4.locate([[0.1, 0.1]])[0]
    c1 = GRID4.locate([[0.9, 0.9]])[0]
    assert fn.value_at(pts)[0] == coeffs[c0, c1]
    # same cell twice: structurally zero
    twin = np.array([[[0.1, 0.1], [0.2, 0.2]]])
    assert fn.value_at(twin)[0] == 0.0
    # outside the grid: zero
    outside = np.array([[[0.1, 0.1], [1.5, 0.5]]])
    assert fn.value_at(outside)[0] == 0.0
    sliced = fn.slice_first(c0)
    assert sliced.order == 1
    assert np.array_equal(sliced.coeffs, coeffs[c0])


def test_norm_sq_hand_computed():
    grid2 = CellGrid.regular((0.0,), (1.0,), (2,))
    fn = SimpleFunction(grid2, np.array([[0.0, 3.0], [3.0, 0.0]]))
    im = IntensityModel(2.0, BoxWindow(((0.0, 1.0),)))
    # mu per cell = 2 * 0.5 = 1, so the norm is sum of squares
    assert fn.norm_sq(im) == pytest.approx(18.0)


def test_cell_counts_and_first_integral():
    im = IntensityModel(40.0, UNIT_SQUARE)
    cfg = sample_points(im, 17)
    counts = cell_counts(GRID4, cfg)
    assert counts.sum() == cfg.size
    indicator = np.zeros(4)
    indicator[2] = 1.0
    f1 = SimpleFunction(GRID4, indicator)
    got = wiener_ito(f1, cfg, im)
    assert got == pytest.approx(counts[2] - 40.0 * 0.25, rel=1e-12)


def test_isometry_orders_one_and_two():
    im = IntensityModel(3.0, UNIT_SQUARE)
    mu = 3.0 * GRID4.measures()
    rng = spawn_rng(11, "iso")
    n = 30_000
    cnt = rng.poisson(mu, size=(n, 4))
    for order in (1, 2):
        coeffs = _symmetric_zero_diag(4, order, order)
        fn = SimpleFunction(GRID4, coeffs)
        vals = np.array([wiener_ito_counts(fn, c, im) for c in cnt])
        target = math.factorial(order) * fn.norm_sq(im)
        mean_sq = float(np.mean(vals**2))
        se = float(np.std(vals**2, ddof=1)) / math.sqrt(n)
        assert abs(vals.mean()) < 4.0 * float(np.std(vals, ddof=1)) / math.sqrt(n)
        assert abs(mean_sq - target) < 4.0 * se


# ---------------------------------------------------------------------------
# partitions


def test_partition_counts_small():
    assert len(enumerate_pi((1, 1, 1, 1))) == 4
    assert len(enumerate_pi_bar((1, 1, 1, 1))) == 1
    assert len(enumerate_pi((2, 2))) == 2
    assert len(enumerate_pi_bar((2, 2))) == 2
    # a single factor admits no valid block structure
    assert len(enumerate_pi((2,))) == 0
    assert len(enumerate_pi((1, 1))) == 1


def test_partition_texts_golden():
    texts = [d.to_text() for d in enumerate_pi((2, 2))]
    assert texts == [
        "[(1,1)(2,1)|(1,2)(2,2)]",
        "[(1,1)(2,2)|(1,2)(2,1)]",
    ]
    four = [d.to_text() for d in enumerate_pi((1, 1, 1, 1))]
    assert "[(1,1)(2,1)(3,1)(4,1)]" in four


def test_partition_capacity_guard():
    with pytest.raises(CapacityError):
        enumerate_pi((5, 5, 5, 2))
    with pytest.raises(ConfigError):
        enumerate_pi((0, 2))


def _brute_partitions(sizes):
    """Independent unconstrained enumerator, then filter."""
    variables = [(l + 1, j + 1) for l, s in enumerate(sizes) for j in range(s)]

    def rec(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in rec(rest):
            for b in range(len(part)):
                yield part[:b] + [[head] + part[b]] + part[b + 1 :]
            yield [[head]] + part

    for part in rec(variables):
        if all(len(b) >= 2 for b in part) and all(
            len({l for l, _ in b}) == len(b) for b in part
        ):
            yield tuple(sorted(tuple(sorted(b)) for b in part))


def _brute_connected(blocks, m):
    reach = {1}
    frontier = {1}
    while frontier:
        nxt = set()
        for b in blocks:
            fs = {l for l, _ in b}
            if fs & reach:
                nxt |= fs
        nxt -= reach
        reach |= nxt
        frontier = nxt
    return len(reach) == m


def test_partitions_match_brute_force():
    for sizes in ((1, 1, 1), (2, 1, 1), (2, 2, 2), (3, 3), (1, 2, 2, 1)):
        brute = sorted(set(_brute_partitions(sizes)))
        mine = [d.blocks for d in enumerate_pi(sizes)]
        assert mine == brute
        conn = [b for b in brute if _brute_connected(b, len(sizes))]
        assert [d.blocks for d in enumerate_pi_bar(sizes)] == conn


@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3))
@settings(max_examples=40, deadline=None)
def test_partition_family_invariants(sizes):
    sizes = tuple(sizes)
    labels = sorted((l + 1, j + 1) for l, s in enumerate(sizes) for j in range(s))
    seen = set()
    for d in enumerate_pi(sizes):
        assert sorted(v for b in d.blocks for v in b) == labels
        assert all(len(b) >= 2 for b in d.blocks)
        assert all(len({l for l, _ in b}) == len(b) for b in d.blocks)
        assert d.blocks not in seen
        seen.add(d.blocks)
    connected = {d.blocks for d in enumerate_pi_bar(sizes)}
    assert connected <= seen
    assert all(is_connected(d) for d in enumerate_pi_bar(sizes))


def test_is_connected_by_hand():
    diagrams = enumerate_pi((2, 2, 2))
    # the pairing that marries factors (1,2) and leaves factor 3 hanging on
    # factor 1 only through... every diagram here must place each variable
    # with a different factor, so disconnection needs a clean split
    split = [d for d in diagrams if not is_connected(d)]
    for d in split:
        groups = [{l for l, _ in b} for b in d.blocks]
        # a disconnected diagram never mixes the two halves
        union = set().union(*groups)
        assert union == {1, 2, 3}


def test_apply_replacement_substitution():
    fn = SimpleFunction(GRID4, _symmetric_zero_diag(4, 2, 3))
    diagrams = enumerate_pi((2, 2))
    ys = spawn_rng(4, "sub").random((50, 2, 2))
    for d in diagrams:
        sub = apply_replacement(d, [fn, fn])
        got = sub(ys)
        # both diagrams of two order-2 factors reduce to f(y1,y2)^2 thanks
        # to symmetry
        want = fn.value_at(ys) ** 2
        assert np.allclose(got, want)


def test_apply_replacement_validates_arity():
    fn = SimpleFunction(GRID4, _symmetric_zero_diag(4, 2, 5))
    one = SimpleFunction(GRID4, np.ones(4))
    d = enumerate_pi((2, 2))[0]
    with pytest.raises(ConfigError):
        apply_replacement(d, [fn])
    with pytest.raises(ConfigError):
        apply_replacement(d, [fn, one])


# ---------------------------------------------------------------------------
# moments


def test_single_integral_expectation_is_zero():
    fn = SimpleFunction(GRID4, np.array([1.0, -2.0, 0.5, 3.0]))
    im = IntensityModel(2.0, UNIT_SQUARE)
    assert product_expectation([fn], im).value == 0.0


def test_product_expectation_isometry_case():
    im = IntensityModel(3.0, UNIT_SQUARE)
    for order in (1, 2):
        fn = SimpleFunction(GRID4, _symmetric_zero_diag(4, order, 7 + order))
        est = product_expectation([fn, fn], im)
        assert est.value == pytest.approx(math.factorial(order) * fn.norm_sq(im), rel=1e-12)
        assert est.se == 0.0


def test_product_expectation_orthogonality():
    im = IntensityModel(3.0, UNIT_SQUARE)
    f1 = SimpleFunction(GRID4, np.array([1.0, -1.0, 2.0, 0.5]))
    f2 = SimpleFunction(GRID4, _symmetric_zero_diag(4, 2, 9))
    assert product_expectation([f1, f2], im).value == 0.0


def test_product_expectation_three_factors_vs_mc():
    im = IntensityModel(3.0, UNIT_SQUARE)
    g = SimpleFunction(GRID4, np.array([0.3, -1.0, 0.7, 1.4]))
    f2 = SimpleFunction(GRID4, _symmetric_zero_diag(4, 2, 13))
    exact = product_expectation([g, g, f2], im).value
    rng = spawn_rng(21, "prod")
    mu = 3.0 * GRID4.measures()
    cnt = rng.poisson(mu, size=(60_000, 4))
    prods = np.array(
        [wiener_ito_counts(g, c, im) ** 2 * wiener_ito_counts(f2, c, im) for c in cnt]
    )
    se = float(prods.std(ddof=1)) / math.sqrt(len(prods))
    assert abs(prods.mean() - exact) < 4.0 * se


def test_product_expectation_grid_mismatch():
    other = CellGrid.regular((0.0, 0.0), (1.0, 1.0), (1, 2))
    f_a = SimpleFunction(GRID4, np.ones(4))
    f_b = SimpleFunction(other, np.ones(2))
    with pytest.raises(ConfigError):
        product_expectation([f_a, f_b], IntensityModel(1.0, UNIT_SQUARE))


def test_m_ij_order_one_closed_form():
    # for k = 1 only the four-variable block survives, so M_11 is
    # lam * int |f|^4 dtheta
    win = BoxWindow(((0.0, 1.0),))
    kern_sq = SimpleFunction(
        CellGrid.regular((0.0,), (1.0,), (4,)), np.array([1.0, 2.0, 0.5, 3.0])
    ).as_kernel()
    im = IntensityModel(2.0, win)
    fourth = np.sum(np.array([1.0, 2.0, 0.5, 3.0]) ** 4 * 0.25)
    est = m_ij(kern_sq, 1, 1, im, Integrator(samples=40_000, seed=2, strata=4))
    assert est.value == pytest.approx(2.0 * fourth, rel=1e-12)


def test_m_ij_counterexample_exact():
    # |f| = 1 makes every diagram integral the full measure, so each M_ij is
    # a pure diagram count with (lam * theta)^dims weights
    kern = counterexample_kernel()
    win = BoxWindow(((-1.0, 1.0),))
    lam = 3.0
    im = IntensityModel(lam, win)
    integ = Integrator(samples=2048, seed=0)
    k = 2
    for i, j in ((1, 1), (1, 2), (2, 2)):
        want = 0.0
        for d in enumerate_pi_bar((i, i, j, j)):
            dims = d.n_blocks + 2 * (k - i) + 2 * (k - j)
            want += (2.0 * lam) ** dims
        want *= math.comb(k, i) ** 2 * math.comb(k, j) ** 2
        est = m_ij(kern, i, j, im, integ)
        assert est.se == 0.0
        assert est.value == pytest.approx(want, rel=1e-12)


def test_m_ij_rejects_bad_orders():
    kern = counterexample_kernel()
    im = IntensityModel(1.0, BoxWindow(((-1.0, 1.0),)))
    integ = Integrator(samples=64)
    with pytest.raises(ConfigError):
        m_ij(kern, 2, 1, im, integ)
    with pytest.raises(ConfigError):
        m_ij(kern, 0, 1, im, integ)


def _block_type(diagram) -> tuple:
    types = {}
    for block in diagram.blocks:
        S = tuple(sorted(l - 1 for l, _ in block))
        types[S] = types.get(S, 0) + 1
    return tuple(sorted(types.items()))


def _check_orbits_against_oracle(sizes) -> None:
    expected = {}
    for d in enumerate_pi_bar(sizes):
        t = _block_type(d)
        expected[t] = expected.get(t, 0) + 1
    got = {tuple(sorted(types)): weight for types, weight in _block_type_orbits(sizes)}
    assert len(got) == len(_block_type_orbits(sizes)), sizes
    assert got == expected, sizes


def test_block_type_orbits_match_the_diagram_oracle():
    # every size vector of criterion 03 (total <= 8), then (i, i, j, j) for k <= 3
    for total in range(1, 9):
        for m in range(1, total + 1):
            for sizes in itertools.product(range(1, total + 1), repeat=m):
                if sum(sizes) == total:
                    _check_orbits_against_oracle(sizes)
    for i in range(1, 4):
        for j in range(i, 4):
            _check_orbits_against_oracle((i, i, j, j))
    assert [len(_block_type_orbits((n, n, n, n))) for n in (2, 3)] == [13, 46]
    assert len(_block_type_orbits((2, 2, 3, 3))) == 20


def _per_diagram_m(kernel, i, j, lam, samples, seed) -> tuple:
    """M_ij on the unit square with one plain Monte Carlo integral per diagram."""
    k = kernel.order
    sizes = (i, i, j, j)
    free = (k - i, k - i, k - j, k - j)
    rng = np.random.default_rng(seed)
    values, variances = [], []
    for d in enumerate_pi_bar(sizes):
        slots = [[0] * s for s in sizes]
        for b, members in enumerate(d.blocks):
            for l, t in members:
                slots[l - 1][t - 1] = b
        q = d.n_blocks
        for l in range(4):
            slots[l] += list(range(q, q + free[l]))
            q += free[l]
        ys = rng.random((samples, q, 2))
        vals = lam**q * np.prod([np.abs(kernel(ys[:, sl])) for sl in slots], axis=0)
        values.append(vals.mean())
        variances.append(vals.var(ddof=1) / samples)
    c = math.comb(k, i) ** 2 * math.comb(k, j) ** 2
    return c * math.fsum(values), c * math.sqrt(math.fsum(variances))


@pytest.mark.parametrize(
    "kernel, pairs",
    [
        (
            UStatKernel(2, lambda t: np.exp(-3.0 * np.sum((t[:, 0] - t[:, 1]) ** 2, axis=-1)), name="gauss"),
            ((1, 1), (1, 2), (2, 2)),
        ),
        (
            UStatKernel(3, lambda t: t[:, :, 0].sum(axis=1) * (0.5 + t[:, :, 1].prod(axis=1)), name="sum-prod"),
            ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3)),
        ),
    ],
    ids=["order2", "order3"],
)
def test_m_ij_orbits_agree_with_per_diagram_sum(kernel, pairs):
    lam = 1.5
    im = IntensityModel(lam, UNIT_SQUARE)
    for i, j in pairs:
        est = m_ij(kernel, i, j, im, Integrator(samples=400, seed=3))
        want, want_se = _per_diagram_m(kernel, i, j, lam, 400, seed=100 * i + j)
        assert abs(est.value - want) <= 4.0 * math.hypot(est.se, want_se), (i, j, est, want, want_se)


def test_m_ij_convex_position_counts_diagrams_exactly():
    # the order-3 convex-position kernel is 1 almost surely, so each M_ij is
    # C(3,i)^2 C(3,j)^2 |Pi-bar(i,i,j,j)| at unit intensity on the unit square
    kern = convex_position_kernel(3)
    im = IntensityModel(1.0, UNIT_SQUARE)
    integ = Integrator(samples=8, seed=0)
    for i in range(1, 4):
        for j in range(i, 4):
            est = m_ij(kern, i, j, im, integ)
            count = len(enumerate_pi_bar((i, i, j, j)))
            assert est.value == math.comb(3, i) ** 2 * math.comb(3, j) ** 2 * count
            assert est.se == 0.0 and est.n == 8
    assert m_ij(kern, 3, 3, im, integ).value == 41364.0


def test_m_ij_refuses_a_non_symmetric_kernel():
    kern = UStatKernel(2, lambda t: t[:, 0, 0] - t[:, 1, 1], symmetric=False)
    with pytest.raises(ConfigError, match="symmetric"):
        m_ij(kern, 1, 1, IntensityModel(1.0, UNIT_SQUARE), Integrator(samples=64))


def test_m_ij_guards_the_predicted_draws():
    calls = []

    def constant(t):
        calls.append(len(t))
        return np.ones(len(t))

    kern = UStatKernel(4, constant, name="constant-4")
    im = IntensityModel(1.0, UNIT_SQUARE)
    # an order-4 M_44 at 256 samples needs 256 * 18,365,184 draws
    with pytest.raises(CapacityError, match="draws"):
        m_ij(kern, 4, 4, im, Integrator(samples=256))
    assert calls == []
    # M_33 of an order-3 kernel at 1,024 samples stays admitted
    assert 1024 * sum(w for _, w in _block_type_orbits((3, 3, 3, 3))) <= MAX_DIAGRAM_DRAWS


def test_chaos_kernels_simple_variance_cross_check():
    im = IntensityModel(5.0, UNIT_SQUARE)
    fn = SimpleFunction(GRID4, _symmetric_zero_diag(4, 2, 31))
    kernels = chaos_kernels_simple(fn, im)
    assert len(kernels) == 2
    assert np.array_equal(kernels[1].coeffs, fn.coeffs)
    mu = 5.0 * GRID4.measures()
    assert np.allclose(kernels[0].coeffs, 2.0 * fn.coeffs @ mu)
    # chaos variance formula against simulation of the kernel sum
    var_formula = math.fsum(
        math.factorial(i + 1) * g.norm_sq(im) for i, g in enumerate(kernels)
    )
    vals = np.array(
        [evaluate(fn.as_kernel(), sample_points(im, s)) for s in range(6000)]
    )
    emp = vals.var(ddof=1)
    m4 = float(np.mean((vals - vals.mean()) ** 4))
    se = math.sqrt(max(m4 - emp**2, 0.0) / len(vals))
    assert abs(var_formula - emp) < 4.0 * se


def test_wiener_ito_rejects_foreign_grid_points():
    # points outside every cell simply do not count
    big = BoxWindow(((0.0, 2.0), (0.0, 2.0)))
    im = IntensityModel(10.0, big)
    cfg = sample_points(im, 3)
    ind = SimpleFunction(GRID4, np.array([1.0, 0.0, 0.0, 0.0]))
    val = wiener_ito(ind, cfg, im)
    inside = GRID4.locate(cfg.points)
    assert val == pytest.approx(np.count_nonzero(inside == 0) - 10.0 * 0.25)
