"""Model kernels: proximity graphs, convex position, line crossings, signs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from poisson_ustats import applications
from poisson_ustats import (
    BoxWindow,
    CapacityError,
    ConfigError,
    IntensityModel,
    Integrator,
    LineWindow,
    PointConfiguration,
    WindowError,
    convex_position_kernel,
    convex_position_mask,
    counterexample_closed_form,
    counterexample_kernel,
    evaluate,
    gilbert_f1,
    gilbert_kernel,
    hull_vertices,
    kernel_names,
    kernel_summaries,
    line_intersection,
    line_intersection_kernel,
    make_kernel,
    orientation,
    pairwise_distance_kernel,
    sample_lines,
    sample_points,
    sylvester_estimate,
)
from poisson_ustats._streams import spawn_rng
from poisson_ustats.applications import _distance
from poisson_ustats.ustat_core import _variance_term

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))
SIGN_WINDOW = BoxWindow(((-1.0, 1.0),))

# probability that four uniform points of a square span a convex
# quadrilateral, 1 - 4 * 11/144
SQUARE_FOUR_POINT = 25.0 / 36.0


def test_orientation_signs():
    a, b, c = [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]
    assert orientation(a, b, c) > 0
    assert orientation(a, c, b) < 0
    assert orientation(a, b, [2.0, 0.0]) == 0.0


def test_hull_vertices_small_cases():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert len(hull_vertices(square)) == 4
    with_center = np.vstack([square, [[0.5, 0.5]]])
    assert len(hull_vertices(with_center)) == 4
    collinear = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    # interior collinear points are not vertices
    assert len(hull_vertices(collinear)) == 2


def test_convex_position_squares_and_centroids():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert convex_position_mask(square[None])[0] == 1.0
    dent = np.vstack([square[:3], [[0.6, 0.4]]])
    assert convex_position_mask(dent[None])[0] == 0.0
    triangle_mid = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, 0.3]])
    assert convex_position_mask(triangle_mid[None])[0] == 0.0
    collinear3 = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    assert convex_position_mask(collinear3[None])[0] == 0.0
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]])
    assert convex_position_mask(triangle[None])[0] == 1.0


def test_convex_position_permutation_invariant():
    rng = spawn_rng(8, "perm")
    for k in (3, 4, 5):
        pts = rng.random((k, 2))
        base = convex_position_mask(pts[None])[0]
        for perm in itertools.permutations(range(k)):
            assert convex_position_mask(pts[list(perm)][None])[0] == base


def test_convex_position_matches_qhull():
    rng = spawn_rng(9, "qhull")
    for k in (4, 5, 6):
        tuples = rng.random((200, k, 2))
        mine = convex_position_mask(tuples)
        for t, got in zip(tuples, mine):
            want = float(len(ConvexHull(t).vertices) == k)
            assert got == want


def test_convex_position_vectorized_shape():
    rng = spawn_rng(10, "vec")
    tuples = rng.random((37, 4, 2))
    out = convex_position_mask(tuples)
    assert out.shape == (37,)
    assert set(np.unique(out)) <= {0.0, 1.0}


# ---------------------------------------------------------------------------
# proximity graph


# finite values from subnormal to near overflow, and the non-finite ones
_COORDS = st.one_of(
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1e154, 1.7e308, -1.7e308]),
)


@st.composite
def _row_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=20))
    rows = st.lists(st.lists(_COORDS, min_size=d, max_size=d), min_size=n, max_size=n)
    a, b = (np.array(draw(rows), dtype=float).reshape(n, d) for _ in range(2))
    return a, b


@given(_row_pairs())
@settings(max_examples=300, deadline=None)
def test_distance_is_bit_identical_to_linalg_norm(pair):
    a, b = pair
    with np.errstate(over="ignore", invalid="ignore"):
        got = _distance(a, b)
        want = np.linalg.norm(a - b, axis=1)
        # against a single point too, as gilbert_f1's integrand calls it
        got_point = _distance(a, b[0]) if len(b) else None
        want_point = np.linalg.norm(a - b[0], axis=1) if len(b) else None
    assert got.shape == want.shape == (len(a),)
    assert np.array_equal(got, want, equal_nan=True)
    finite = np.isfinite(want)
    assert np.array_equal(got[finite].view(np.int64), want[finite].view(np.int64))
    if got_point is not None:
        assert np.array_equal(got_point, want_point, equal_nan=True)


@st.composite
def _pair_tuples(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    m = draw(st.integers(min_value=0, max_value=20))
    coords = st.lists(_COORDS, min_size=2 * d * m + d, max_size=2 * d * m + d)
    flat = np.array(draw(coords), dtype=float)
    return flat[: 2 * d * m].reshape(m, 2, d), flat[2 * d * m :]


@given(_pair_tuples())
# 0.3^2 + 0.5^2 + 0.7^2 rounds differently when added in reverse order
@example((np.array([[[0.3, 0.5, 0.7], [0.0, 0.0, 0.0]]]), np.zeros(3)))
# two NaNs of opposite sign: the sum keeps one of them, and norm's choice must win
@example((np.zeros((1, 2, 3)), np.array([0.0, np.nan, -np.nan])))
@settings(max_examples=300, deadline=None)
def test_distance_on_kernel_views_is_bit_identical_to_linalg_norm(case):
    # the kernels pass strided column views of C-contiguous (m, 2, d) tuples
    t, anchor = case
    assert t.flags.c_contiguous
    a, b = t[:, 0, :], t[:, 1, :]
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [(_distance(a, b), np.linalg.norm(a - b, axis=1))]
        pairs.append((_distance(a, anchor), np.linalg.norm(a - anchor, axis=1)))
    for got, want in pairs:
        assert got.shape == want.shape == (len(t),)
        assert got.tobytes() == want.tobytes()


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32),
)
@settings(max_examples=100, deadline=None)
def test_take_gathers_equal_fancy_indexing(n, d, k, seed):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    idx = rng.integers(0, n, size=(int(rng.integers(0, 50)), k))
    taken = np.take(rows, idx, axis=0)
    indexed = rows[idx]
    assert taken.shape == indexed.shape == (len(idx), k, d)
    assert taken.flags.c_contiguous and indexed.flags.c_contiguous
    assert np.array_equal(taken.view(np.int64), indexed.view(np.int64))


def test_gilbert_kernel_edge_count_matches_brute_force():
    kern = gilbert_kernel(0.2)
    assert kern.locality == 0.2
    im = IntensityModel(40.0, UNIT_SQUARE)
    cfg = sample_points(im, 12)
    pts = cfg.points
    edges = 0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) <= 0.2:
                edges += 1
    # ordered sum of the half kernel counts each edge once
    assert evaluate(kern, cfg) == pytest.approx(edges)


def test_gilbert_length_kernel():
    kern = gilbert_kernel(0.5, mode="euclidean")
    pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.9, 0.0]])
    cfg = PointConfiguration(pts)
    assert evaluate(kern, cfg) == pytest.approx(0.3)
    with pytest.raises(ConfigError):
        gilbert_kernel(0.5, mode="taxicab")
    with pytest.raises(ConfigError):
        gilbert_kernel(-0.1)


def test_gilbert_f1_closed_forms():
    im = IntensityModel(50.0, UNIT_SQUARE)
    interior = gilbert_f1([0.5, 0.5], 0.1, im)
    assert interior.value == pytest.approx(50.0 * math.pi * 0.01)
    assert interior.se == 0.0
    corner = gilbert_f1([0.0, 0.0], 0.1, im)
    assert corner.value == pytest.approx(50.0 * math.pi * 0.01 / 4.0)
    euclid = gilbert_f1([0.5, 0.5], 0.1, im, mode="euclidean")
    assert euclid.value == pytest.approx(50.0 * 2.0 * math.pi * 0.001 / 3.0)


def test_gilbert_f1_ball_window():
    from poisson_ustats import BallWindow

    im = IntensityModel(3.0, BallWindow(2.0))
    inside = gilbert_f1([0.5, 0.0], 0.25, im)
    assert inside.value == pytest.approx(3.0 * math.pi * 0.0625)


def test_gilbert_f1_monte_carlo_edge():
    im = IntensityModel(50.0, UNIT_SQUARE)
    est = gilbert_f1([0.5, 0.0], 0.1, im, integrator=Integrator(samples=400_000, seed=2))
    # half disk at an edge midpoint
    assert est.within(50.0 * math.pi * 0.01 / 2.0, nse=4.0)


def test_gilbert_f1_errors():
    im = IntensityModel(50.0, UNIT_SQUARE)
    with pytest.raises(WindowError):
        gilbert_f1([1.5, 0.5], 0.1, im)
    with pytest.raises(ConfigError):
        gilbert_f1([0.5, 0.0], 0.1, im)  # no closed form, no integrator
    with pytest.raises(ConfigError):
        gilbert_f1([0.5], 0.1, im)


# ---------------------------------------------------------------------------
# sign kernel


def test_counterexample_kernel_values():
    kern = counterexample_kernel()
    tuples = np.array(
        [
            [[0.5], [0.25]],
            [[-0.5], [-0.25]],
            [[0.5], [-0.25]],
            [[0.0], [-0.25]],
        ]
    )
    assert np.array_equal(kern(tuples), [1.0, 1.0, -1.0, 1.0])


def test_counterexample_closed_form_hand_cases():
    # two negatives: both ordered pairs agree in sign
    two_neg = PointConfiguration(np.array([[-0.5], [-0.2]]), window=SIGN_WINDOW)
    assert counterexample_closed_form(two_neg) == 2.0
    assert evaluate(counterexample_kernel(), two_neg) == 2.0
    # one on each side
    mixed = PointConfiguration(np.array([[-0.5], [0.2]]), window=SIGN_WINDOW)
    assert counterexample_closed_form(mixed) == -2.0
    assert evaluate(counterexample_kernel(), mixed) == -2.0
    # a point exactly at zero pairs positively with everything
    with_zero = PointConfiguration(np.array([[0.0], [-0.5]]), window=SIGN_WINDOW)
    assert counterexample_closed_form(with_zero) == 2.0
    assert evaluate(counterexample_kernel(), with_zero) == 2.0


def test_counterexample_closed_form_matches_evaluate():
    kern = counterexample_kernel()
    im = IntensityModel(6.0, SIGN_WINDOW)
    for seed in range(300):
        cfg = sample_points(im, seed)
        assert counterexample_closed_form(cfg) == evaluate(kern, cfg)


@given(st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=8, unique=True))
@settings(max_examples=80, deadline=None)
def test_counterexample_closed_form_on_arbitrary_points(xs):
    pts = np.array(xs, dtype=float).reshape(-1, 1)
    cfg = PointConfiguration(pts, window=SIGN_WINDOW)
    assert counterexample_closed_form(cfg) == evaluate(counterexample_kernel(), cfg)


# ---------------------------------------------------------------------------
# line process


def test_line_intersection_solver():
    # perpendicular diameters meet at the origin
    pt = line_intersection([0.0, 0.0], [math.pi / 2.0, 0.0])
    assert np.allclose(pt, [0.0, 0.0], atol=1e-12)
    # parallel lines have no crossing
    assert line_intersection([0.3, 0.1], [0.3, -0.4]) is None
    # a line x = 0.5 (phi=0) against y = 0.25 (phi=pi/2)
    pt = line_intersection([0.0, 0.5], [math.pi / 2.0, 0.25])
    assert np.allclose(pt, [0.5, 0.25], atol=1e-12)


def test_line_intersection_point_on_both_lines():
    rng = spawn_rng(14, "lines")
    for _ in range(50):
        a = np.array([rng.uniform(0, math.pi), rng.uniform(-1, 1)])
        b = np.array([rng.uniform(0, math.pi), rng.uniform(-1, 1)])
        pt = line_intersection(a, b)
        if pt is None:
            continue
        for phi, p in (a, b):
            assert abs(pt[0] * math.cos(phi) + pt[1] * math.sin(phi) - p) < 1e-9


def test_line_intersection_kernel_counts():
    win = LineWindow(1.0)
    kern = line_intersection_kernel(win)
    cross = PointConfiguration(
        np.array([[0.0, 0.0], [math.pi / 2.0, 0.0]]), kind="lines", window=win
    )
    assert evaluate(kern, cross) == pytest.approx(1.0)
    parallel = PointConfiguration(
        np.array([[0.4, 0.0], [0.4, 0.5]]), kind="lines", window=win
    )
    assert evaluate(kern, parallel) == 0.0
    # crossing outside the disk does not count: x = 0.9 meets a slightly
    # tilted near-vertical line at height y ~ 2.5
    far = PointConfiguration(
        np.array([[0.0, 0.9], [0.02, 0.95]]), kind="lines", window=win
    )
    assert evaluate(kern, far) == 0.0


@pytest.mark.parametrize("radius, region", [(1e200, None), (1e-200, None), (1.0, 1e-200), (1.0, 1e200), (1e100, 1e155)])
def test_line_intersection_kernel_refuses_radii_whose_squares_leave_the_normal_floats(radius, region):
    # at 1e200 the squares overflow and the count rested on inf/NaN
    # comparisons; at 1e-200 they underflow to 0 and every non-parallel pair
    # counted.  The kernel is still built (a window samples), and refuses
    # only when it is evaluated
    kern = line_intersection_kernel(LineWindow(radius), region)
    pairs = LineWindow(radius).sample(spawn_rng(2, "huge"), 8).reshape(4, 2, 2)
    with pytest.raises(ConfigError, match=r"radii in \[1\.49e-154, 6\.7e\+153\]"):
        kern(pairs)


@pytest.mark.parametrize("radius", [1e-150, 1.0, 2.5, 1e100])
def test_line_intersection_kernel_counts_half_the_pairs_at_any_normal_scale(radius):
    # the crossing of two uniform lines lies in their disk with probability
    # 1/2 at every radius (int f dtheta^2 = pi^2 R^2 over theta^2 = (2 pi R)^2
    # pairs, times 2 for the 1/2 per pair); 1e-150 and 1e100 keep their
    # squares normal, so they count as radius 1 does
    pairs = LineWindow(radius).sample(spawn_rng(2, "scale"), 400_000).reshape(-1, 2, 2)
    share = 2.0 * float(np.mean(line_intersection_kernel(LineWindow(radius))(pairs)))
    assert share == pytest.approx(0.5, abs=0.005)


def _oracle_line_values(pairs, r_sq):
    """The scalar solver's kernel values, 0.5 * 1{|pt|^2 <= r^2}, and |pt|^2
    (inf for a parallel pair)."""
    values = np.zeros(len(pairs))
    dist_sq = np.full(len(pairs), np.inf)
    for m, (a, b) in enumerate(pairs):
        pt = line_intersection(a, b)
        if pt is not None:
            dist_sq[m] = pt @ pt
            values[m] = 0.5 * (dist_sq[m] <= r_sq)
    return values, dist_sq


@pytest.mark.parametrize("radius", [1.0, 2.5])
def test_line_intersection_kernel_matches_the_scalar_solver(radius):
    win = LineWindow(radius)
    kern = line_intersection_kernel(win)
    r_sq = radius * radius
    rng = spawn_rng(18, "line-oracle", int(10 * radius))
    uniform = win.sample(rng, 2 * 100_000).reshape(-1, 2, 2)
    # near-parallel pairs on both sides of ORIENTATION_TOL = 1e-12, half of
    # them with equal offsets
    first = win.sample(rng, 4000)
    turns = np.repeat([1e-13, -1e-13, 1e-11, -1e-11], 1000)
    offsets = np.where(np.arange(4000) % 2 == 0, first[:, 1], win.sample(rng, 4000)[:, 1])
    near = np.stack([first, np.column_stack([first[:, 0] + turns, offsets])], axis=1)
    pairs = np.concatenate([uniform, near])

    got = kern(pairs)
    want, dist_sq = _oracle_line_values(pairs, r_sq)
    # pairs whose crossing lies within rounding of the circle may differ
    in_band = np.abs(dist_sq - r_sq) <= 1e-9 * r_sq
    assert int(in_band.sum()) == 0
    np.testing.assert_array_equal(got, want)
    assert np.array_equal(kern(pairs[:, ::-1]), got)
    near_values = got[len(uniform):]
    assert np.all(near_values[np.abs(turns) < 1e-12] == 0.0)
    # an equal-offset pair turned by 1e-11 crosses at distance |p| < r
    assert np.all(near_values[(np.abs(turns) > 1e-12) & (offsets == first[:, 1])] == 0.5)

    cases = np.array([
        [[0.4, 0.3], [0.4 + 1e-13, 0.3]],  # parallel within the tolerance
        [[0.4, 0.3], [0.4 + 1e-11, 0.3]],  # crosses at distance 0.3
        [[0.0, radius], [math.pi / 2.0, 0.0]],  # crosses at (r, 0), on the circle
        [[math.pi / 2.0, radius], [0.0, 0.0]],  # (0, r)
        [[0.0, -radius], [math.pi / 2.0, 0.0]],  # (-r, 0)
    ])
    expected = [0.0, 0.5, 0.5, 0.5, 0.5]
    assert kern(cases).tolist() == expected
    assert kern(cases[:, ::-1]).tolist() == expected
    assert _oracle_line_values(cases, r_sq)[0].tolist() == expected


@pytest.mark.parametrize("radius", [1.0, 2.0])
def test_line_intersection_exact_moments(radius):
    # the Blaschke-Petkantschin and Crofton values of the kernel's docstring
    win = LineWindow(radius)
    kern = line_intersection_kernel(win)
    fine = Integrator(samples=200_000, seed=3)
    mean = fine.integrate(kern, win, 2, path=("line-moments",))
    t2 = _variance_term(kern, win, fine, 2)
    t1 = _variance_term(kern, win, Integrator(samples=20_000, seed=3), 1)
    for est, exact in (
        (mean, math.pi**2 * radius**2),
        (t2, math.pi**2 * radius**2),
        (t1, 64.0 * math.pi * radius**3 / 3.0),
    ):
        assert 0.0 < est.se < 0.01 * exact
        assert est.within(exact, 4.0), (est, exact)


def test_line_intersection_campbell_mean():
    win = LineWindow(1.0)
    kern = line_intersection_kernel(win)
    im = IntensityModel(3.0, win)
    integ = Integrator(samples=120_000, seed=6)
    mean_integral = integ.integrate(
        lambda t: kern(t), win, 2, path=("campbell",)
    )
    formula = 9.0 * mean_integral.value
    vals = np.array([evaluate(kern, sample_lines(im, s)) for s in range(3000)])
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    gap = abs(vals.mean() - formula)
    assert gap < 4.0 * math.hypot(se, 9.0 * mean_integral.se)


# ---------------------------------------------------------------------------
# convex position probability


def test_sylvester_three_points_certain():
    im = IntensityModel(4.0, UNIT_SQUARE)
    res = sylvester_estimate(3, im, replicates=300, integrator=Integrator(samples=2000, seed=1))
    assert abs(res.p - 1.0) <= 3.0 * res.p_se + 1e-9
    assert res.satisfied


def test_sylvester_four_points_square():
    im = IntensityModel(12.0, UNIT_SQUARE)
    res = sylvester_estimate(4, im, replicates=400, integrator=Integrator(samples=1500, seed=2))
    assert abs(res.p - SQUARE_FOUR_POINT) <= 4.0 * res.p_se
    assert res.lower.value <= res.f1_norm_sq.value + 3.0 * math.hypot(res.lower.se, res.f1_norm_sq.se)
    assert res.f1_norm_sq.value <= res.upper.value + 3.0 * math.hypot(res.upper.se, res.f1_norm_sq.se)


def test_sylvester_window_guard():
    im = IntensityModel(4.0, BoxWindow(((0.0, 2.0), (0.0, 1.0))))
    with pytest.raises(ConfigError):
        sylvester_estimate(3, im, replicates=10, integrator=Integrator(samples=100))


def test_sylvester_refuses_replicates_above_the_point_budget_before_any_stream(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(applications, "_cell_streams", refused)
    with pytest.raises(CapacityError, match="budget"):
        sylvester_estimate(3, IntensityModel(8.0, UNIT_SQUARE), replicates=100_000_000, integrator=Integrator(samples=100))


# ---------------------------------------------------------------------------
# registry


def test_registry_names_and_summaries():
    names = kernel_names()
    assert "pairwise-distance" in names
    assert "counterexample" in names
    assert set(kernel_summaries()) == set(names)


def test_make_kernel_dispatch():
    assert make_kernel("pairwise-distance").order == 2
    assert make_kernel("gilbert-count", delta=0.1).locality == 0.1
    assert make_kernel("gilbert-length", delta=0.1).name == "gilbert-length"
    assert make_kernel("convex-position-5").order == 5
    assert make_kernel("convex-position-k", k=4).order == 4
    assert make_kernel("line-intersections", window=LineWindow(2.0)).order == 2
    assert make_kernel("counterexample").order == 2


def test_make_kernel_errors():
    with pytest.raises(ConfigError):
        make_kernel("no-such")
    with pytest.raises(ConfigError, match="unknown kernel"):
        make_kernel("no-such", delta=0.1, k=4)
    with pytest.raises(ConfigError):
        make_kernel("gilbert-count")
    with pytest.raises(ConfigError):
        make_kernel("convex-position-k")
    with pytest.raises(ConfigError):
        make_kernel("convex-position-2")
    with pytest.raises(ConfigError):
        make_kernel("line-intersections")


@pytest.mark.parametrize(
    "name, constants, message",
    [
        ("pairwise-distance", {"delta": 0.1}, "takes no delta"),
        ("convex-position-3", {"delta": 0.1}, "takes no delta"),
        ("pairwise-distance", {"k": 4}, "takes no k"),
        ("gilbert-count", {"delta": 0.1, "k": 4}, "takes no k"),
        ("convex-position-4", {"k": 4}, "takes no k"),
        ("convex-position-k", {"k": 4, "delta": 0.1}, "takes no delta"),
    ],
)
def test_make_kernel_rejects_constants_the_kernel_does_not_read(name, constants, message):
    with pytest.raises(ConfigError, match=message):
        make_kernel(name, **constants)


def test_pairwise_distance_symmetry_flag():
    kern = pairwise_distance_kernel()
    assert kern.order == 2
