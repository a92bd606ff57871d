"""Windows, Poisson sampling, and configuration plumbing."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ustats import (
    BallWindow,
    BoxWindow,
    ConfigError,
    IntensityModel,
    LineWindow,
    PointConfiguration,
    WindowError,
    read_points_csv,
    sample_lines,
    sample_points,
    unit_ball_volume,
    window_measure,
    write_points_csv,
)
from poisson_ustats import point_process
from poisson_ustats._streams import _cell_streams, spawn_rng, stream_token

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))


def test_unit_ball_volumes():
    assert unit_ball_volume(1) == 2.0
    assert unit_ball_volume(2) == math.pi
    assert unit_ball_volume(3) == 4.0 * math.pi / 3.0
    with pytest.raises(WindowError):
        unit_ball_volume(4)


def test_window_measures():
    assert window_measure(UNIT_SQUARE) == 1.0
    assert window_measure(BoxWindow(((-1.0, 1.0),))) == 2.0
    assert window_measure(BallWindow(2.0)) == pytest.approx(4.0 * math.pi)
    assert window_measure(LineWindow(1.0)) == pytest.approx(2.0 * math.pi)


def test_degenerate_windows_rejected():
    with pytest.raises(WindowError):
        BoxWindow(((0.0, 0.0),))
    with pytest.raises(WindowError):
        BoxWindow(((1.0, 0.0),))
    with pytest.raises(WindowError):
        BallWindow(-1.0)
    with pytest.raises(WindowError):
        LineWindow(0.0)
    with pytest.raises(WindowError):
        IntensityModel(0.0, UNIT_SQUARE)


def test_box_contains_and_from_unit():
    box = BoxWindow(((-1.0, 1.0), (0.0, 2.0)))
    inside = box.contains([[0.0, 1.0], [-1.0, 0.0], [1.0, 2.0]])
    assert inside.all()
    assert not box.contains([[1.1, 1.0]])[0]
    corners = box.from_unit(np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5]]))
    assert np.allclose(corners, [[-1.0, 0.0], [1.0, 2.0], [0.0, 1.0]])


def test_line_window_from_unit_range():
    win = LineWindow(3.0)
    u = np.random.default_rng(0).random((500, 2))
    params = win.from_unit(u)
    assert np.all(params[:, 0] >= 0.0) and np.all(params[:, 0] < math.pi)
    assert np.all(np.abs(params[:, 1]) <= 3.0)
    assert win.contains(params).all()


def test_sampling_is_deterministic():
    im = IntensityModel(20.0, UNIT_SQUARE)
    a = sample_points(im, 123)
    b = sample_points(im, 123)
    c = sample_points(im, 124)
    assert np.array_equal(a.points, b.points)
    assert a.size != c.size or not np.array_equal(a.points, c.points)


def test_sample_points_properties():
    im = IntensityModel(30.0, UNIT_SQUARE)
    cfg = sample_points(im, 5)
    assert cfg.kind == "spatial"
    assert cfg.dim == 2
    assert UNIT_SQUARE.contains(cfg.points).all()
    # simple: no exact duplicates
    assert len(np.unique(cfg.points, axis=0)) == cfg.size


def test_poisson_count_moments():
    im = IntensityModel(4.0, BoxWindow(((-1.0, 1.0), (0.0, 1.0))))
    mean = im.mean_count()
    assert mean == pytest.approx(8.0)
    sizes = np.array([sample_points(im, s).size for s in range(4000)], dtype=float)
    se_mean = sizes.std(ddof=1) / math.sqrt(len(sizes))
    assert abs(sizes.mean() - mean) < 4 * se_mean
    # Poisson: variance equals the mean
    var = sizes.var(ddof=1)
    se_var = math.sqrt((np.mean((sizes - sizes.mean()) ** 4) - var**2) / len(sizes))
    assert abs(var - mean) < 4 * se_var


def test_disjoint_counts_uncorrelated():
    im = IntensityModel(12.0, UNIT_SQUARE)
    left = []
    right = []
    for s in range(3000):
        pts = sample_points(im, s).points
        left.append(np.count_nonzero(pts[:, 0] < 0.5))
        right.append(np.count_nonzero(pts[:, 0] >= 0.5))
    cov = np.cov(np.array(left), np.array(right))[0, 1]
    # independent scattering: covariance of disjoint counts is zero
    assert abs(cov) < 4 * 6.0 / math.sqrt(3000)


def test_ball_sampling_inside():
    win = BallWindow(1.5)
    im = IntensityModel(10.0, win)
    cfg = sample_points(im, 11)
    assert np.all(np.linalg.norm(cfg.points, axis=1) <= 1.5)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_from_unit_lands_inside_at_the_float_edge(dim):
    # radius variates at nextafter(1, 0) and up to 64 ulps below it, crossed
    # with angle (and height) variates at 0, near 1 and at random, for radii
    # e^-8 .. e^8: the polar map rounds some of these past the radius
    # (2-D and 3-D), and from_unit must keep every point in contains
    rng = spawn_rng(3, "ball-edge", dim)
    below_one = 1.0 - np.arange(1, 66) * 2.0**-53
    assert below_one[0] == np.nextafter(1.0, 0.0)
    angles = np.concatenate([[0.0, 2.0**-53, 0.25, 0.5], below_one[:8], rng.random(1500 if dim == 2 else 24)])
    axes = [np.concatenate([below_one, angles])] if dim == 1 else [below_one] + [angles] * (dim - 1)
    u = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)
    for radius in np.exp(np.linspace(-8.0, 8.0, 33)):
        ball = BallWindow(radius, dim)
        assert ball.contains(ball.from_unit(u)).all()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_ball_contains_its_draws_at_the_largest_finite_measure(dim):
    # at the largest radius whose measure is a float, the squares of the
    # coordinates overflow; contains still holds every mapped draw, with no
    # floating-point warning, and the next radius up has no finite measure
    def finite(radius) -> bool:
        try:
            return window_measure(BallWindow(radius, dim)) > 0
        except WindowError:
            return False

    radius = (np.finfo(float).max / unit_ball_volume(dim)) ** (1.0 / dim)
    while finite(np.nextafter(radius, np.inf)):
        radius = np.nextafter(radius, np.inf)
    while not finite(radius):
        radius = np.nextafter(radius, 0.0)
    with pytest.raises(WindowError, match="finite"):
        window_measure(BallWindow(np.nextafter(radius, np.inf), dim))
    u = np.concatenate([spawn_rng(5, "ball-far", dim).random((4000, dim)), np.full((1, dim), np.nextafter(1.0, 0.0))])
    ball = BallWindow(radius, dim)
    with np.errstate(all="raise"):
        assert ball.contains(ball.from_unit(u)).all()


def test_sample_lines_kind_and_ranges():
    win = LineWindow(1.0)
    im = IntensityModel(5.0, win)
    cfg = sample_lines(im, 9)
    assert cfg.kind == "lines"
    assert win.contains(cfg.points).all()
    with pytest.raises(ConfigError):
        sample_points(im, 9)
    with pytest.raises(ConfigError):
        sample_lines(IntensityModel(5.0, UNIT_SQUARE), 9)


def test_sampling_accepts_generator():
    im = IntensityModel(15.0, UNIT_SQUARE)
    a = sample_points(im, spawn_rng(7, 1, 2))
    b = sample_points(im, spawn_rng(7, 1, 2))
    assert np.array_equal(a.points, b.points)


def test_stream_tokens_distinct():
    tokens = {stream_token(0, i, r) for i in range(4) for r in range(50)}
    assert len(tokens) == 200


def test_configuration_validation():
    with pytest.raises(ConfigError):
        PointConfiguration(np.array([[0.2, 0.2], [0.2, 0.2]]))
    with pytest.raises(ConfigError, match="repeated"):
        PointConfiguration(np.array([[0.0, 1.0], [0.5, 0.5], [-0.0, 1.0]]))
    with pytest.raises(ConfigError):
        PointConfiguration(np.array([[np.nan, 0.0]]))
    with pytest.raises(ConfigError):
        PointConfiguration(np.array([[2.0, 2.0]]), window=UNIT_SQUARE)


@st.composite
def _integer_grid_configurations(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    coord = st.sampled_from([-1.0, -0.0, 0.0, 1.0, 2.0])
    rows = draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), max_size=9))
    return np.array(rows, dtype=float).reshape(len(rows), dim)


@given(_integer_grid_configurations())
@settings(max_examples=150, deadline=None)
def test_duplicate_check_agrees_with_unique_rows(pts):
    repeated = len(pts) > 1 and len(np.unique(pts, axis=0)) != len(pts)
    if repeated:
        with pytest.raises(ConfigError, match="repeated"):
            PointConfiguration(pts)
    else:
        assert PointConfiguration(pts).size == len(pts)


CHECK_WINDOWS = {
    "box": BoxWindow(((0.0, 1.0), (-1.0, 0.5))),
    "box-3d": BoxWindow(((0.0, 1.0), (0.0, 1.0), (-1.0, 1.0))),
    "ball": BallWindow(1.0, 2),
    "lines": LineWindow(1.0),
}


def _per_array_failure(window, pts: np.ndarray):
    """The message fragment of the first check one array fails, by brute force (None if it passes)."""
    rows = [tuple(row) for row in pts.tolist()]
    if not all(math.isfinite(v) for row in rows for v in row):
        return "non-finite"
    # tuple equality compares floats, so -0.0 == 0.0
    if any(rows[i] == rows[j] for i in range(len(rows)) for j in range(i)):
        return "repeated"
    if not all(window.contains(np.array([row]))[0] for row in rows):
        return "outside"
    return None


@st.composite
def _cell_batches(draw):
    name = draw(st.sampled_from(sorted(CHECK_WINDOWS)))
    window = CHECK_WINDOWS[name]
    dim = window.point_dim
    # few values, so that repeats within and across cells are common; 2.0
    # and -1.0 lie outside some windows, nan and inf are not finite
    coord = st.sampled_from([-0.0, 0.0, 0.25, 1.0, -1.0, 2.0, math.nan, math.inf])
    row = st.lists(coord, min_size=dim, max_size=dim)
    cells = draw(st.lists(st.lists(row, max_size=5), max_size=7))
    return window, [np.array(rows, dtype=float).reshape(len(rows), dim) for rows in cells]


def _check_stacked(window, arrays) -> None:
    """_check_cells on a list of (n_i, d) cells, stacked into its (points, sizes) form."""
    points = np.concatenate(arrays) if arrays else np.empty((0, 2))
    point_process._check_cells(window, points, [len(pts) for pts in arrays])


@pytest.mark.parametrize("block", [3, point_process._CHECK_POINTS])
@given(case=_cell_batches())
@settings(max_examples=200, deadline=None)
def test_check_cells_matches_the_per_array_oracle(block, case):
    window, arrays = case
    failures = {f for f in (_per_array_failure(window, pts) for pts in arrays) if f}
    with mock.patch.object(point_process, "_CHECK_POINTS", block):
        if not failures:
            _check_stacked(window, arrays)
            return
        with pytest.raises(ConfigError) as err:
            _check_stacked(window, arrays)
    # blocks run the checks in a fixed order, so with several failing cells
    # the message is that of one of them
    assert any(f in str(err.value) for f in failures)


def test_check_cells_counts_repeats_within_a_cell_only():
    # a's last point in sorted order is b's first
    a = np.array([[0.0, 0.5], [0.25, 0.25]])
    b = np.array([[0.75, 0.5], [0.25, 0.25]])
    empty = np.empty((0, 2))
    # the same point in two cells, in one block and across a block boundary
    _check_stacked(UNIT_SQUARE, [a, empty, b])
    with mock.patch.object(point_process, "_CHECK_POINTS", 3):
        _check_stacked(UNIT_SQUARE, [empty, a, empty, b, empty])
        _check_stacked(UNIT_SQUARE, [])
        # a cell larger than a block is a block of its own, and -0.0 == 0.0
        big = np.vstack([a, [[0.9, 0.9], [0.1, 0.1], [-0.0, 0.5]]])
        with pytest.raises(ConfigError, match="repeated"):
            _check_stacked(UNIT_SQUARE, [a, big, b])
        with pytest.raises(ConfigError, match="outside"):
            _check_stacked(UNIT_SQUARE, [a, b, empty, np.array([[0.5, 1.5]])])
        with pytest.raises(ConfigError, match="non-finite"):
            _check_stacked(None, [a, b, np.array([[np.nan, 0.5]])])
    # without a window only the finite and repeat checks run
    _check_stacked(None, [np.array([[5.0, -5.0]])])


def test_check_cells_sorts_first_and_lexsorts_only_on_a_tie():
    # distinct rows that share a first coordinate pass
    _check_stacked(UNIT_SQUARE, [np.array([[0.5, 0.25], [0.5, 0.75], [0.5, 0.0]])])
    # the same row in two arrays of one block passes
    row = np.array([[0.3, 0.6]])
    _check_stacked(UNIT_SQUARE, [np.vstack([row, [[0.1, 0.2]]]), np.vstack([[[0.9, 0.2]], row])])
    # -0.0 and 0.0 tie in the first coordinate, and the rows are equal
    with pytest.raises(ConfigError, match="repeated"):
        _check_stacked(UNIT_SQUARE, [np.array([[-0.0, 0.5], [0.5, 0.5], [0.0, 0.5]])])
    pts = spawn_rng(3, "check").random((point_process._CHECK_POINTS, 2))
    assert len(np.unique(pts[:, 0])) == len(pts)
    with mock.patch.object(point_process.np, "lexsort", wraps=np.lexsort) as lexsort:
        _check_stacked(UNIT_SQUARE, [pts])
        assert lexsort.call_count == 0
        # one repeat hidden among the random points of one array
        hidden = pts.copy()
        hidden[9000] = hidden[123]
        with pytest.raises(ConfigError, match="repeated"):
            _check_stacked(UNIT_SQUARE, [hidden])
        assert lexsort.call_count == 1


_EDGES = (-1.0, -0.25, 0.0, 0.5, 1.0, 2.0)
_MEMBER_COORDS = st.one_of(
    st.sampled_from(_EDGES + (-0.0, math.nan, math.inf, -math.inf, 0.6, 0.8, 1e200, 5e-324)),
    st.floats(min_value=-3.0, max_value=3.0),
)


@st.composite
def _membership_cases(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    lead = tuple(draw(st.lists(st.integers(min_value=0, max_value=4), min_size=0, max_size=2)))
    size = int(np.prod(lead + (dim,)))
    pts = np.array(draw(st.lists(_MEMBER_COORDS, min_size=size, max_size=size)), dtype=float).reshape(lead + (dim,))
    bounds = tuple(draw(st.lists(st.sampled_from(_EDGES), min_size=2, max_size=2, unique=True).map(sorted)) for _ in range(dim))
    return pts, BoxWindow(bounds)


@given(_membership_cases())
@settings(max_examples=300, deadline=None)
def test_box_membership_matches_the_short_axis_expression(case):
    pts, box = case
    rows = np.atleast_2d(pts)
    want = ((rows >= box.lows()) & (rows <= box.highs())).all(axis=-1)
    got = box.contains(pts)
    assert got.dtype == bool
    assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("window", [UNIT_SQUARE, BallWindow(1.0, 2), LineWindow(1.0)], ids=["box", "ball", "lines"])
def test_points_of_another_width_than_the_window_fail(window, tmp_path):
    # the first two coordinates lie inside every window here; the third must not be ignored
    pts = np.array([[0.5, 0.5, 7.0], [0.25, 0.1, -3.0]])
    with pytest.raises(ConfigError, match="3 coordinates, the window takes 2"):
        window.contains(pts)
    with pytest.raises(ConfigError, match="3 coordinates"):
        PointConfiguration(pts, window=window)
    with pytest.raises(ConfigError, match="1 coordinates"):
        PointConfiguration(pts[:, :1], window=window)
    path = tmp_path / "points.csv"
    write_points_csv(PointConfiguration(pts), path)
    with pytest.raises(ConfigError, match="3 coordinates"):
        read_points_csv(path, window=window)
    assert window.contains(pts[:, :2]).all()


def test_box_sampling_matches_from_unit():
    box = BoxWindow(((-0.3, 1.7), (2.0, 2.5), (-4.0, -1.0)))
    drawn = box.sample(spawn_rng(5, "box"), 50)
    mapped = box.from_unit(spawn_rng(5, "box").random((50, 3)))
    assert np.array_equal(drawn, mapped)
    assert np.all(box.contains(drawn))


@pytest.mark.parametrize("radius", [1.0, 2.5, 0.3, 7.0])
@pytest.mark.parametrize("n", [0, 1, 17, 1000])
def test_line_sampling_matches_from_unit(radius, n):
    win = LineWindow(radius)
    drawn = win.sample(spawn_rng(8, "lines", n), n)
    mapped = win.from_unit(spawn_rng(8, "lines", n).random((n, 2)))
    assert drawn.shape == (n, 2) and drawn.dtype == mapped.dtype
    assert drawn.tobytes() == mapped.tobytes()
    assert np.all(win.contains(drawn))


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, 17, 1000])
def test_box_sampling_is_bit_identical_to_from_unit(dim, n):
    box = BoxWindow(((-1.0, 0.5), (0.25, 3.0), (-2.0, -1.5))[:dim])
    drawn = box.sample(spawn_rng(8, "box", n), n)
    u = spawn_rng(8, "box", n).random((n, dim))
    mapped = box.from_unit(u)
    # the broadcast map along the short last axis, with the same operations
    u *= box.highs() - box.lows()
    u += box.lows()
    assert drawn.shape == (n, dim) and drawn.dtype == mapped.dtype
    assert drawn.tobytes() == mapped.tobytes() == u.tobytes()
    assert np.all(box.contains(drawn))


DRAW_WINDOWS = [
    BoxWindow(((-1.0, 1.0),)),
    BoxWindow(((0.0, 1.0), (-1.0, 0.5))),
    BoxWindow(((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0))),
    LineWindow(1.5),
    BallWindow(0.8, 2),
]


@pytest.mark.parametrize("window", DRAW_WINDOWS, ids=["box-1d", "box-2d", "box-3d", "lines", "ball"])
@pytest.mark.parametrize("mean, sized_for", [(0.7, 40), (30.0, 3)])
def test_draw_cells_match_one_shot_samples(window, mean, sized_for):
    # mean 0.7 leaves about half of the cells empty; a buffer sized for 3
    # cells of mean 30 grows several times while 40 are drawn
    intensity = IntensityModel(mean / window_measure(window), window)
    streams = _cell_streams(5, (1,), range(40))
    points, sizes, tokens = point_process._draw_cells(window, intensity.mean_count(), streams, sized_for)
    draw = sample_lines if isinstance(window, LineWindow) else sample_points
    starts = np.cumsum([0] + sizes)
    assert points.shape == (starts[-1], window.point_dim)
    assert tokens == [stream_token(5, 1, r) for r in range(40)]
    for r in range(40):
        one = draw(intensity, spawn_rng(5, 1, r)).points
        assert points[starts[r] : starts[r + 1]].tobytes() == one.tobytes()
    if mean < 1:
        assert 0 in sizes
    else:
        total = intensity.mean_count() * sized_for
        assert starts[-1] > total + 10.0 * math.sqrt(total) + 1


def test_with_point_and_without_index():
    cfg = PointConfiguration(np.array([[0.1, 0.1], [0.5, 0.5]]), window=UNIT_SQUARE)
    grown = cfg.with_point([0.9, 0.9])
    assert grown.size == 3
    assert np.allclose(grown.points[-1], [0.9, 0.9])
    shrunk = grown.without_index(0)
    assert shrunk.size == 2
    assert np.allclose(shrunk.points[0], [0.5, 0.5])
    # original untouched
    assert cfg.size == 2


def test_points_are_frozen():
    cfg = PointConfiguration(np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        cfg.points[0, 0] = 0.5


def test_csv_round_trip(tmp_path):
    im = IntensityModel(25.0, UNIT_SQUARE)
    cfg = sample_points(im, 3)
    path = tmp_path / "pts.csv"
    write_points_csv(cfg, path)
    text = path.read_text().splitlines()
    assert text[0] == "x1,x2"
    back = read_points_csv(path, window=UNIT_SQUARE)
    # 17 significant digits reproduce doubles exactly
    assert np.array_equal(back.points, cfg.points)
    assert back.kind == "spatial"
    # lines end with LF; files written with CRLF line ends still read
    assert b"\r" not in path.read_bytes()
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert np.array_equal(read_points_csv(crlf).points, cfg.points)


def test_csv_round_trip_lines(tmp_path):
    im = IntensityModel(4.0, LineWindow(2.0))
    cfg = sample_lines(im, 13)
    path = tmp_path / "lines.csv"
    write_points_csv(cfg, path)
    assert path.read_text().splitlines()[0] == "phi,p"
    back = read_points_csv(path)
    assert back.kind == "lines"
    assert np.array_equal(back.points, cfg.points)


def test_csv_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        read_points_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        read_points_csv(empty)


def test_empty_configuration_round_trip(tmp_path):
    cfg = PointConfiguration(np.empty((0, 2)))
    path = tmp_path / "none.csv"
    write_points_csv(cfg, path)
    back = read_points_csv(path)
    assert back.size == 0
    assert back.dim == 2
