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
    Estimate,
    IntensityModel,
    Integrator,
    LineWindow,
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
    line_intersection_kernel,
    m_ij,
    pairwise_distance_kernel,
    product_expectation,
    sample_points,
    wiener_ito,
    wiener_ito_counts,
)
from poisson_ustats import chaos_algebra, ustat_core
from poisson_ustats._lattice import lattice_shape
from poisson_ustats._streams import spawn_rng
from poisson_ustats.chaos_algebra import _assemble_m, _block_type_orbits, _m_orbit_integrals, _orbit_slots

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
GRID4 = CellGrid.regular((0.0, 0.0), (1.0, 1.0), (2, 2))


def _drawn(count: int) -> int:
    """The draws a lattice family of ``count`` keeps: whole shifts of its rule."""
    size, shifts = lattice_shape(count)
    return size * shifts


def _symmetric_table(n_cells: int, order: int, seed: int) -> np.ndarray:
    """Random table that is exactly symmetric (each entry read at its sorted index) with a zero diagonal."""
    raw = spawn_rng(seed, "table").normal(size=(n_cells,) * order)
    idx = np.sort(np.indices(raw.shape).reshape(order, -1), axis=0)
    table = raw[tuple(idx)]
    table[np.any(idx[1:] == idx[:-1], axis=0)] = 0.0
    return table.reshape(raw.shape)


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
    coeffs = _symmetric_table(4, 2, 1)
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
        coeffs = _symmetric_table(4, order, order)
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
    zeros = [SimpleFunction(GRID4, np.zeros((4,) * n)) for n in (5, 5, 5, 2)]
    with pytest.raises(CapacityError):
        product_expectation(zeros, IntensityModel(1.0, UNIT_SQUARE))
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
    fn = SimpleFunction(GRID4, _symmetric_table(4, 2, 3))
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
    fn = SimpleFunction(GRID4, _symmetric_table(4, 2, 5))
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
        fn = SimpleFunction(GRID4, _symmetric_table(4, order, 7 + order))
        est = product_expectation([fn, fn], im)
        assert est.value == pytest.approx(math.factorial(order) * fn.norm_sq(im), rel=1e-12)
        assert est.se == 0.0


def test_product_expectation_orthogonality():
    im = IntensityModel(3.0, UNIT_SQUARE)
    f1 = SimpleFunction(GRID4, np.array([1.0, -1.0, 2.0, 0.5]))
    f2 = SimpleFunction(GRID4, _symmetric_table(4, 2, 9))
    assert product_expectation([f1, f2], im).value == 0.0


def test_product_expectation_three_factors_vs_mc():
    im = IntensityModel(3.0, UNIT_SQUARE)
    g = SimpleFunction(GRID4, np.array([0.3, -1.0, 0.7, 1.4]))
    f2 = SimpleFunction(GRID4, _symmetric_table(4, 2, 13))
    exact = product_expectation([g, g, f2], im).value
    rng = spawn_rng(21, "prod")
    mu = 3.0 * GRID4.measures()
    cnt = rng.poisson(mu, size=(60_000, 4))
    prods = np.array(
        [wiener_ito_counts(g, c, im) ** 2 * wiener_ito_counts(f2, c, im) for c in cnt]
    )
    se = float(prods.std(ddof=1)) / math.sqrt(len(prods))
    assert abs(prods.mean() - exact) < 4.0 * se


def _labelled_product_expectation(factors, intensity) -> float:
    """The diagram formula summed over every labelled diagram of enumerate_pi."""
    mu = intensity.lam * factors[0].grid.measures()
    total = 0.0
    for d in enumerate_pi(tuple(f.order for f in factors)):
        ops = []
        for l, f in enumerate(factors, start=1):
            ops.extend([f.coeffs, [d.block_of(l, j) for j in range(1, f.order + 1)]])
        for b in range(d.n_blocks):
            ops.extend([mu, [b]])
        total += float(np.einsum(*ops, []))
    return total


@pytest.mark.parametrize("sizes", [(1, 1, 2, 2), (2, 2, 2, 2), (2, 2, 3, 3), (1, 2, 3)])
def test_product_expectation_matches_the_labelled_diagram_sum(sizes):
    grid = CellGrid.regular((0.0, 0.0), (1.0, 1.0), (3, 2))
    im = IntensityModel(2.5, UNIT_SQUARE)
    factors = [SimpleFunction(grid, _symmetric_table(6, n, 40 + l)) for l, n in enumerate(sizes)]
    want = _labelled_product_expectation(factors, im)
    got = product_expectation(factors, im)
    assert want != 0.0
    assert got.value == pytest.approx(want, rel=1e-12)
    assert (got.se, got.n) == (0.0, 0)


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
    # connected types against Pi-bar, and (connected=False) every type against Pi
    diagrams = enumerate_pi(sizes)
    for connected, family in ((True, [d for d in diagrams if is_connected(d)]), (False, diagrams)):
        expected = {}
        for d in family:
            t = _block_type(d)
            expected[t] = expected.get(t, 0) + 1
        orbits = _block_type_orbits(sizes, connected=connected)
        got = {tuple(sorted(types)): weight for types, weight in orbits}
        assert len(got) == len(orbits), (sizes, connected)
        assert got == expected, (sizes, connected)


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
    # each pair assembled from one record is the m_ij of that pair, bit for bit
    record = {(i, j): orbit_integrals for i, j, orbit_integrals in _m_orbit_integrals(kernel, UNIT_SQUARE, Integrator(samples=400, seed=3))}
    for i, j in pairs:
        est = _assemble_m(kernel.order, i, j, record[i, j], lam)
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


def _exact_orbit_integrals(fn: SimpleFunction, i: int, j: int) -> list:
    """(v_o, I_o) of every orbit of M_ij for an order-2 cell-grid kernel: the
    orbit weight times the contraction of |coefficients| over the orbit's
    slot lists, with one cell-measure vector per variable."""
    measures = fn.grid.measures()
    out = []
    for types, weight in _block_type_orbits((i, i, j, j)):
        slots, n_vars = _orbit_slots(types, (2 - i, 2 - i, 2 - j, 2 - j))
        ops = [x for s in slots for x in (np.abs(fn.coeffs), s)]
        ops += [x for b in range(n_vars) for x in (measures, [b])]
        out.append((n_vars, weight * float(np.einsum(*ops, []))))
    return out


def test_allocated_orbit_integrals_match_the_cell_contraction():
    # for a cell-grid kernel each orbit integral is exact (_exact_orbit_integrals)
    fn = SimpleFunction(GRID4, _symmetric_table(4, 2, 17))
    pairs = [(1, 1), (1, 2), (2, 2)]
    got = _m_orbit_integrals(fn.as_kernel(), UNIT_SQUARE, Integrator(samples=400, seed=5))
    for (i, j), (gi, gj, orbit_integrals) in zip(pairs, got):
        assert (gi, gj) == (i, j)
        exact = _exact_orbit_integrals(fn, i, j)
        assert len(orbit_integrals) == len(exact)
        for (n_vars, value), (v, est) in zip(exact, orbit_integrals):
            assert v == n_vars and est.n in {_drawn(400 * b) for b in range(1, 218)} and est.se > 0
            assert abs(est.value - value) <= 4.0 * est.se, (i, j, est, value)


def test_orbit_se_is_calibrated():
    # z-scores of each assembled M_ij of an order-2 cell kernel on [0, 1]
    # against its exact value over 200 seeds: the se of the allocated lattice
    # families neither under- nor overstates the spread
    fn = SimpleFunction(CellGrid.regular((0.0,), (1.0,), (4,)), _symmetric_table(4, 2, 17))
    window = BoxWindow(((0.0, 1.0),))
    exact = {(i, j): _assemble_m(2, i, j, [(v, Estimate(value, 0.0)) for v, value in _exact_orbit_integrals(fn, i, j)], 1.0).value for i, j in _record_pairs(2)}
    z = np.zeros((200, len(exact)))
    for seed in range(200):
        for col, (i, j, orbits) in enumerate(_m_orbit_integrals(fn.as_kernel(), window, Integrator(samples=32, seed=seed))):
            est = _assemble_m(2, i, j, orbits, 1.0)
            z[seed, col] = (est.value - exact[i, j]) / est.se
    mean, sd = z.mean(axis=0), z.std(axis=0, ddof=1)
    assert np.all(np.abs(mean) <= 0.2) and np.all((0.8 <= sd) & (sd <= 1.25)), (mean, sd)


def test_allocated_root_sum_se_matches_the_spread():
    # sum sqrt(M_ij) of line intersections at unit intensity over 20 seeds:
    # the reported delta-method se tracks the spread of the estimates
    window = LineWindow(1.0)
    kern = line_intersection_kernel(window)
    sums, ses = [], []
    for seed in range(20):
        terms = [_assemble_m(2, i, j, orbit_integrals, 1.0) for i, j, orbit_integrals in
                 _m_orbit_integrals(kern, window, Integrator(samples=300, seed=seed))]
        sums.append(math.fsum(math.sqrt(t.value) for t in terms))
        ses.append(math.sqrt(math.fsum((t.se / (2.0 * math.sqrt(t.value))) ** 2 for t in terms)))
    spread = float(np.std(sums, ddof=1))
    assert 0.5 <= float(np.median(ses)) / spread <= 2.0, (np.median(ses), spread)


def _record_pairs(k: int) -> list:
    return [(i, j) for i in range(1, k + 1) for j in range(i, k + 1)]


def test_pooled_allocation_spends_the_record_budget(monkeypatch):
    # one allocation over every orbit of the record: sum_o w_o batches in all,
    # at least one per orbit, and M_11 (one orbit of weight 1) can get more;
    # each orbit's n is the lattice family of its batches
    kern = UStatKernel(3, lambda t: t[:, :, 0].sum(axis=1) * (0.5 + t[:, :, 1].prod(axis=1)), name="sum-prod")
    pairs = _record_pairs(3)
    allocated = {}
    product_integral = chaos_algebra._product_integral

    def recording(*args, **kwargs):
        stream, i, j, o = args[6]
        if stream == "m":
            allocated.setdefault((i, j), []).append(kwargs["repeat"])
        return product_integral(*args, **kwargs)

    monkeypatch.setattr(chaos_algebra, "_product_integral", recording)
    got = _m_orbit_integrals(kern, UNIT_SQUARE, Integrator(samples=40, seed=2))
    assert all(est.n == _drawn(40 * b) for i, j, orbit_integrals in got for (_, est), b in zip(orbit_integrals, allocated[i, j]))
    assert sum(map(sum, allocated.values())) == sum(w for i, j in pairs for _, w in _block_type_orbits((i, i, j, j)))
    assert min(map(min, allocated.values())) >= 1 and allocated[1, 1][0] > 1


def test_pooled_allocation_keeps_one_batch_per_exact_orbit():
    # convex-position-3 is 1 almost surely: no pilot spreads, so every orbit
    # of the record keeps one batch and M_33 stays exact
    pairs = _record_pairs(3)
    got = _m_orbit_integrals(convex_position_kernel(3), UNIT_SQUARE, Integrator(samples=8, seed=0))
    assert [(i, j) for i, j, _ in got] == pairs
    assert all(est.n == 8 and est.se == 0.0 for *_, orbit_integrals in got for _, est in orbit_integrals)
    assert _assemble_m(3, 3, 3, got[-1][2], 1.0).value == 41364.0


def test_m_ij_equals_the_pooled_record_for_line_intersections():
    # m_ij pilots every pair of the record, so its M_ij is the record's bit for bit
    window = LineWindow(1.0)
    kern = line_intersection_kernel(window)
    integ = Integrator(samples=300, seed=7)
    record = _m_orbit_integrals(kern, window, integ)
    for i, j, orbit_integrals in record:
        est = m_ij(kern, i, j, IntensityModel(3.0, window), integ)
        assert est == _assemble_m(2, i, j, orbit_integrals, 3.0)


def test_m_ij_guards_the_record_before_any_draw(monkeypatch):
    # a one-shot m_ij draws the whole record: samples times one pilot batch
    # per orbit plus the budget of one batch per labelled diagram; the guard
    # admits exactly that many draws and refuses one less before any kernel call
    calls = []

    def sum_prod(t):
        calls.append(len(t))
        return t[:, :, 0].sum(axis=1) * (0.5 + t[:, :, 1].prod(axis=1))

    kern = UStatKernel(3, sum_prod, name="sum-prod")
    im, integ = IntensityModel(1.0, UNIT_SQUARE), Integrator(samples=8, seed=2)
    est = m_ij(kern, 1, 1, im, integ)
    draws = 8 * sum(1 + w for i, j in _record_pairs(3) for _, w in _block_type_orbits((i, i, j, j)))
    monkeypatch.setattr(chaos_algebra, "MAX_DIAGRAM_DRAWS", draws)
    assert m_ij(kern, 1, 1, im, integ) == est
    monkeypatch.setattr(chaos_algebra, "MAX_DIAGRAM_DRAWS", draws - 1)
    calls.clear()
    with pytest.raises(CapacityError, match="the orbit integrals of the order-3 M_ij take"):
        m_ij(kern, 1, 1, im, integ)
    assert calls == []


def test_an_order_3_record_at_1024_samples_is_admitted():
    # the record draws one pilot batch per orbit plus its budget of sum_o w_o
    draws = 1024 * sum(1 + w for i, j in _record_pairs(3) for _, w in _block_type_orbits((i, i, j, j)))
    assert draws == 1024 * 43919 <= MAX_DIAGRAM_DRAWS


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
    fn = SimpleFunction(GRID4, _symmetric_table(4, 2, 31))
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


# the orbit integrals of two records at 64 samples, integrator seed 11, each
# (v_o, (value, se, n)) in repr: pins the integrator's floats below the CLI
PINNED_ORBIT_INTEGRALS = {
    "line-intersections": (
        LineWindow(1.0),
        [
            (1, 1, [
                (5, (50.87577259555304, 1.890177388834715, 3200)),
            ]),
            (1, 2, [
                (4, (55.807291738230546, 5.4313407090678405, 768)),
                (4, (61.98760338527426, 7.382111650377969, 704)),
                (5, (206.43138219351957, 9.318763097296175, 3712)),
                (5, (198.91279511043294, 26.84852925833441, 1280)),
            ]),
            (2, 2, [
                (2, (12.64543063889574, 1.8556841244556483, 64)),
                (3, (33.91311511907792, 5.336539257044474, 256)),
                (3, (24.546635705237353, 5.895792836206558, 192)),
                (3, (41.85847351840476, 6.067214041690469, 320)),
                (3, (57.16782262930278, 10.936651005509068, 256)),
                (3, (34.88206126533729, 7.9867280324488, 192)),
                (3, (41.66468428915288, 10.844696448634265, 256)),
                (3, (52.969055995512186, 10.47144679732982, 192)),
                (4, (160.72500020610397, 24.759019432826605, 320)),
                (3, (63.95044565311837, 14.072532089348606, 256)),
                (3, (45.21748682543723, 10.879312178550656, 192)),
                (4, (131.50227289590327, 19.06071506113161, 640)),
                (4, (137.51871675388577, 15.618374889815835, 1088)),
            ]),
        ],
    ),
    "convex-position-3": (
        UNIT_SQUARE,
        [
            (1, 1, [
                (9, (1.0, 0.0, 64)),
            ]),
            (1, 2, [
                (8, (4.0, 0.0, 64)),
                (8, (4.0, 0.0, 64)),
                (9, (4.0, 0.0, 64)),
                (9, (4.0, 0.0, 64)),
            ]),
            (1, 3, [
                (7, (18.0, 0.0, 64)),
                (7, (36.0, 0.0, 64)),
                (8, (18.0, 0.0, 64)),
                (8, (18.0, 0.0, 64)),
            ]),
            (2, 2, [
                (6, (8.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (8, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (7, (16.0, 0.0, 64)),
                (8, (16.0, 0.0, 64)),
                (8, (16.0, 0.0, 64)),
            ]),
            (2, 3, [
                (5, (72.0, 0.0, 64)),
                (5, (144.0, 0.0, 64)),
                (6, (72.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (6, (72.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (7, (36.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (6, (72.0, 0.0, 64)),
                (7, (144.0, 0.0, 64)),
                (7, (36.0, 0.0, 64)),
                (6, (72.0, 0.0, 64)),
                (6, (144.0, 0.0, 64)),
                (7, (72.0, 0.0, 64)),
                (7, (72.0, 0.0, 64)),
            ]),
            (3, 3, [
                (3, (216.0, 0.0, 64)),
                (4, (1296.0, 0.0, 64)),
                (4, (1296.0, 0.0, 64)),
                (4, (1296.0, 0.0, 64)),
                (4, (1296.0, 0.0, 64)),
                (4, (648.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (4, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (5, (324.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (4, (648.0, 0.0, 64)),
                (4, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (6, (324.0, 0.0, 64)),
                (5, (324.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (6, (324.0, 0.0, 64)),
                (4, (648.0, 0.0, 64)),
                (4, (1296.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (6, (324.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (1296.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (6, (1296.0, 0.0, 64)),
                (6, (324.0, 0.0, 64)),
                (5, (324.0, 0.0, 64)),
                (5, (648.0, 0.0, 64)),
                (6, (324.0, 0.0, 64)),
                (6, (324.0, 0.0, 64)),
            ]),
        ],
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED_ORBIT_INTEGRALS))
def test_orbit_integrals_are_pinned_to_their_floats(case):
    window, pinned = PINNED_ORBIT_INTEGRALS[case]
    kern = line_intersection_kernel(window) if case == "line-intersections" else convex_position_kernel(3)
    record = _m_orbit_integrals(kern, window, Integrator(samples=64, seed=11))
    assert [(i, j, [(v, (e.value, e.se, e.n)) for v, e in orbits]) for i, j, orbits in record] == pinned


@pytest.mark.parametrize("window", [BoxWindow(((0.0, 1e100), (0.0, 1e100))), LineWindow(1e200)])
def test_m_ij_refuses_a_window_whose_measure_overflows_before_any_draw(monkeypatch, window):
    # the orbit integrals scale by theta(W)^v: their pilots printed
    # RuntimeWarnings, then theta^arity raised a bare OverflowError; now the
    # refusal of estimate_ingredients comes first, for M_11's 4k - 3 = 5
    # variables
    draws = []
    monkeypatch.setattr(ustat_core, "lattice_chunks", lambda *args, **kwargs: draws.append(args) or iter(()))
    kern = line_intersection_kernel(window) if isinstance(window, LineWindow) else pairwise_distance_kernel()
    theta = window.measure()
    with pytest.raises(ConfigError) as err:
        m_ij(kern, 1, 1, IntensityModel(1e-200, window), Integrator(samples=64))
    assert str(err.value) == (
        f"window {window} is too large: its measure {theta:g} to the power 10 "
        "overflows, the square of an order-2 integral over 5 of its variables"
    )
    assert draws == []
