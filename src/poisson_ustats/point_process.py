"""Poisson point processes on bounded windows, and line processes hitting a disk.

The intensity measure always has the product form ``lambda * theta`` where
``theta`` is a fixed reference measure on the state space: Lebesgue measure on
a box or ball in R^d (d <= 3), or, for line processes, the standard isotropic
measure on the set of lines meeting a centred disk.  A line is parameterized
by ``(phi, p)`` as ``{x : x . (cos phi, sin phi) = p}``; the angle ``phi`` is
uniform on ``[0, pi)`` with density one (total angle mass pi) and the signed
offset ``p`` carries Lebesgue measure on ``[-r, r]``, so the measure of all
lines hitting the disk of radius r is ``2*pi*r``.

Sampling draws ``N ~ Poisson(lambda * theta(W))`` and then N i.i.d. points
from normalized ``theta``, N rows of unit-cube variates mapped through the
window's measure-preserving ``from_unit``.  Configurations are simple (no
repeated points), ordered, and carry their seed for provenance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from ._files import _csv_numbers, _read_csv, _write_text
from ._streams import spawn_rng
from .errors import CapacityError, ConfigError, WindowError

__all__ = [
    "BoxWindow",
    "BallWindow",
    "LineWindow",
    "Window",
    "IntensityModel",
    "PointConfiguration",
    "window_measure",
    "sample_points",
    "sample_lines",
    "write_points_csv",
    "read_points_csv",
    "unit_ball_volume",
]

_MAX_DIM = 3


def unit_ball_volume(dim: int) -> float:
    """Lebesgue volume of the unit ball in R^dim for dim <= 3."""
    if dim == 1:
        return 2.0
    if dim == 2:
        return math.pi
    if dim == 3:
        return 4.0 * math.pi / 3.0
    raise WindowError(f"dimension {dim} not supported (need 1 <= d <= {_MAX_DIM})")


def _as_points(points, width: int) -> np.ndarray:
    """``points`` as a float array of at least two axes, ``width`` coordinates each."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[-1] != width:
        raise ConfigError(f"points have {pts.shape[-1]} coordinates, the window takes {width}")
    return pts


class _UnitCubeWindow:
    """Every window samples by mapping uniform unit-cube variates through its from_unit."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random((n, self.point_dim))
        return self.from_unit(u, out=u)


@dataclass(frozen=True)
class BoxWindow(_UnitCubeWindow):
    """Axis-aligned box given by per-axis (low, high) bounds."""

    bounds: tuple

    def __post_init__(self):
        b = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        object.__setattr__(self, "bounds", b)
        if not 1 <= len(b) <= _MAX_DIM:
            raise WindowError(f"box dimension must be 1..{_MAX_DIM}, got {len(b)}")
        for lo, hi in b:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise WindowError(f"degenerate box axis ({lo}, {hi})")
        # corners and edge lengths as read-only arrays, built once for the
        # per-draw maps below
        low = np.array([lo for lo, _ in b])
        high = np.array([hi for _, hi in b])
        for name, arr in (("_low", low), ("_high", high), ("_span", high - low)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    @property
    def point_dim(self) -> int:
        return len(self.bounds)

    def measure(self) -> float:
        return float(np.prod([hi - lo for lo, hi in self.bounds]))

    def lows(self) -> np.ndarray:
        return self._low.copy()

    def highs(self) -> np.ndarray:
        return self._high.copy()

    def contains(self, points: np.ndarray) -> np.ndarray:
        # axis by axis, as the tests along the short last axis are slow
        pts = _as_points(points, self.point_dim)
        inside = np.ones(pts.shape[:-1], dtype=bool)
        for c, (lo, hi) in enumerate(self.bounds):
            col = pts[..., c]
            inside &= (col >= lo) & (col <= hi)
        return inside

    def from_unit(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Map uniform unit-cube variates (shape (..., d)) into the box, into
        ``out`` if given (which may be u itself)."""
        # axis by axis, as the products along the short last axis are slow
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape) if out is None else out
        for c in range(self.dimension):
            np.multiply(u[..., c], self._span[c], out=out[..., c])
            out[..., c] += self._low[c]
        return out


def _ball_map(u: np.ndarray, radius: float) -> list:
    """Map unit variates u (..., dim), in place, uniformly into the centred
    ball of the given radius; returns u's columns as transposed views.

    The map of one point's variates (u_1, .., u_d) preserves measure: in
    1-D the interval, (u_1 - 1/2) 2 radius, in that order of float
    operations; in 2-D polar, radius sqrt(u_1) at angle phi = 2 pi u_2; in
    3-D the equal-area sphere, radius u_1^(1/3), height z = 1 - 2 u_2 and
    angle phi = 2 pi u_3.  cos phi and sin phi come from the half angle
    h = pi u_d in [0, pi), sin h = sqrt(1 - cos^2 h) >= 0: one cosine over
    half the range, and no sign.  Every step runs column by column on the
    transposed views (where _ball_points adds anchors innermost)."""
    dim = u.shape[-1]
    cols = [u[..., a].T for a in range(dim)]
    if dim == 1:
        (x,) = cols
        x -= 0.5
        x *= 2.0 * radius
        return cols
    # twice the radius, which the double-angle formulas halve, and cos h
    r = np.cbrt(cols[0], order="C") if dim == 3 else np.sqrt(cols[0], order="C")
    r *= 2.0 * radius
    cos = np.multiply(cols[-1], math.pi, order="C")
    np.cos(cos, out=cos)
    if dim == 3:
        # the height 2 r (1/2 - u_2) into the spent angle column, and the
        # radius sqrt(1 - z^2) = 2 sqrt(u_2 - u_2^2) of its circle into r
        u_2 = cols[1]
        np.subtract(0.5, u_2, out=cols[2])
        cols[2] *= r
        np.multiply(u_2, u_2, out=cols[0])
        u_2 -= cols[0]
        np.sqrt(u_2, out=u_2)
        r *= u_2
        r *= 2.0
    # sin(phi) / 2 = sin h cos h in the spent first column
    sin = cols[0]
    np.multiply(cos, cos, out=sin)
    np.subtract(1.0, sin, out=sin)
    np.sqrt(sin, out=sin)
    sin *= cos
    np.multiply(sin, r, out=cols[1])
    cos *= cos
    cos -= 0.5  # cos(phi) / 2
    np.multiply(cos, r, out=cols[0])
    return cols


@dataclass(frozen=True)
class BallWindow(_UnitCubeWindow):
    """Centred Euclidean ball of given radius in R^dim."""

    radius: float
    dimension: int = 2

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        object.__setattr__(self, "dimension", int(self.dimension))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise WindowError(f"ball radius must be positive, got {self.radius}")
        if not 1 <= self.dimension <= _MAX_DIM:
            raise WindowError(f"ball dimension must be 1..{_MAX_DIM}")

    @property
    def point_dim(self) -> int:
        return self.dimension

    def measure(self) -> float:
        try:
            return unit_ball_volume(self.dimension) * self.radius**self.dimension
        except OverflowError:
            raise WindowError(f"ball of radius {self.radius:g} in dimension {self.dimension} has no finite measure") from None

    def contains(self, points: np.ndarray) -> np.ndarray:
        # scaled by a power of two near 1 / R (at most 2^1022): exactly the
        # unscaled test, but no square of a point in the ball overflows
        scale = 2.0 ** -max(math.frexp(self.radius)[1], -1022)
        return np.linalg.norm(_as_points(points, self.point_dim) * scale, axis=-1) <= self.radius * scale

    def from_unit(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Map uniform unit-cube variates (shape (..., d)) into the ball by
        _ball_map, into ``out`` if given (which may be u itself).  In 2-D and
        3-D the radius variate is capped at 1 - 2^-40 first: the map rounds
        by a few ulps, which carries some u_1 near 1 past R (by up to 2 ulps
        in 3-D), outside ``contains``; capped, every radius is below
        (1 - 2^-42) R, over a thousand ulps inside, and only draws of
        probability 2^-40 move.  A cap, not a pull-back of the rows that land
        outside, as it costs one column pass, not a norm of every point."""
        out = np.empty(np.shape(u)) if out is None else out
        out[...] = u  # a no-op when out is u
        if self.dimension > 1:
            np.minimum(out[..., 0], 1.0 - 2.0**-40, out=out[..., 0])
        _ball_map(out, self.radius)
        return out


@dataclass(frozen=True)
class LineWindow(_UnitCubeWindow):
    """All lines meeting the centred disk of the given radius.

    State space points are (phi, p) pairs; see the module docstring for the
    measure normalization.
    """

    radius: float

    def __post_init__(self):
        object.__setattr__(self, "radius", float(self.radius))
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise WindowError(f"disk radius must be positive, got {self.radius}")

    @property
    def point_dim(self) -> int:
        return 2

    def measure(self) -> float:
        return 2.0 * math.pi * self.radius

    def contains(self, params: np.ndarray) -> np.ndarray:
        pts = _as_points(params, self.point_dim)
        phi, p = pts[..., 0], pts[..., 1]
        return (phi >= 0.0) & (phi < math.pi) & (np.abs(p) <= self.radius)

    def from_unit(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Map uniform unit-square variates (shape (..., 2)) to (phi, p), into
        ``out`` if given (which may be u itself)."""
        u = np.asarray(u, dtype=float)
        out = np.empty(u.shape) if out is None else out
        np.multiply(u[..., 0], math.pi, out=out[..., 0])
        col = np.multiply(u[..., 1], 2.0, out=out[..., 1])
        col -= 1.0
        col *= self.radius
        return out


Window = Union[BoxWindow, BallWindow, LineWindow]


def window_measure(window: Window) -> float:
    """Reference measure theta(W) of the window."""
    value = window.measure()
    if not (math.isfinite(value) and value > 0):
        raise WindowError(f"window measure must be finite and positive, got {value}")
    return value


@dataclass(frozen=True)
class IntensityModel:
    """Intensity measure ``lambda * theta`` restricted to a window."""

    lam: float
    window: Window

    def __post_init__(self):
        object.__setattr__(self, "lam", float(self.lam))
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise WindowError(f"intensity rate must be positive, got {self.lam}")
        window_measure(self.window)

    def mean_count(self) -> float:
        return self.lam * window_measure(self.window)


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """Ordered, simple realization of a point process.

    ``kind`` is "spatial" for points in R^d and "lines" for (phi, p) pairs.
    """

    points: np.ndarray
    kind: str = "spatial"
    seed: Optional[int] = None
    window: Optional[Window] = field(default=None, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2:
            raise ConfigError(f"points must be a (n, d) array, got shape {pts.shape}")
        if self.kind not in ("spatial", "lines"):
            raise ConfigError(f"unknown configuration kind {self.kind!r}")
        _check_cells(self.window, pts, [len(pts)])
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    @property
    def dim(self) -> int:
        return int(self.points.shape[1])

    def with_point(self, y) -> "PointConfiguration":
        y = np.asarray(y, dtype=float).reshape(1, -1)
        return PointConfiguration(
            np.concatenate([self.points, y], axis=0) if self.size else y,
            kind=self.kind,
            seed=self.seed,
            window=self.window,
        )

    def without_index(self, i: int) -> "PointConfiguration":
        return PointConfiguration(
            np.delete(self.points, i, axis=0),
            kind=self.kind,
            seed=self.seed,
            window=self.window,
        )


# points per block of _check_cells
_CHECK_POINTS = 1 << 14
# rows of one _draw_cells buffer, 200 MB at d = 3: it admits every benchmark workload
# (128,000 rows at most), demo and test (1.01M rows at most, acceptance criterion 02)
_DRAW_POINTS = 1 << 23
# cells (random streams) of one _buffer_rows check: it admits every workload (2,000 replicates), demo and test (20,000
# at most) and 10^6 streams (0.88 s, 246 MB); it refuses 8M replicates at lambda 1.02 on the unit square, within _DRAW_POINTS
_DRAW_CELLS = 1 << 20


def _check_cells(window: Optional[Window], points: np.ndarray, sizes) -> None:
    """PointConfiguration's data checks on each cell of ``points``, an
    (N, d) float array whose consecutive rows hold cells of ``sizes`` points.

    Raises ConfigError if a cell has a non-finite coordinate, repeats a
    point, or has a point outside ``window`` (when given).  Consecutive
    cells form blocks of at most _CHECK_POINTS points (a larger cell is a
    block of its own), each a slice of ``points``, so each check runs once
    per block.  Equal rows count as repeated only within one cell: sorted
    lexicographically by (cell, coordinates) they are adjacent, with
    -0.0 == 0.0 as in np.unique(axis=0).  Two equal rows have equal first
    coordinates, so a block whose sorted first column has no two equal
    neighbours holds no repeat; only a block with such a tie pays for the
    lexsort.  Drawn coordinates are continuous, so a tie is rare.
    """

    def check(block, counts):
        if not np.isfinite(block).all():
            raise ConfigError("configuration contains non-finite coordinates")
        first = np.sort(block[:, 0])
        if (first[1:] == first[:-1]).any():
            cell = np.repeat(np.arange(len(counts)), counts)
            order = np.lexsort((*block.T[::-1], cell))
            srt, cell = block[order], cell[order]
            if ((srt[1:] == srt[:-1]).all(axis=1) & (cell[1:] == cell[:-1])).any():
                raise ConfigError("configuration has repeated points")
        if window is not None and not window.contains(block).all():
            raise ConfigError("configuration has points outside its window")

    start, size, counts = 0, 0, []
    for n in sizes:
        if counts and size + n > _CHECK_POINTS:
            check(points[start : start + size], counts)
            start, size, counts = start + size, 0, []
        counts.append(n)
        size += n
    if counts:
        check(points[start : start + size], counts)


def _buffer_rows(mean: float, cells: int) -> int:
    """Rows of _draw_cells' first buffer for ``cells`` cells of mean count ``mean``, their total
    mean count plus ten standard deviations; CapacityError from _DRAW_POINTS up, then above _DRAW_CELLS cells."""
    total = mean * cells
    start = total + 10.0 * math.sqrt(total)
    if not start < _DRAW_POINTS:
        raise CapacityError(f"{cells} cell(s) of mean count {mean:.6g} need about {start:.4g} points, above the budget of {_DRAW_POINTS:,}")
    if cells > _DRAW_CELLS:
        raise CapacityError(f"{cells} cell(s) need as many random streams, above the budget of {_DRAW_CELLS:,}")
    return int(start) + 1


def _draw_cells(window: Window, mean: float, streams, cells: int) -> tuple:
    """Draw one Poisson sample of mean count ``mean`` on ``window`` from each
    of the ``cells`` (token, generator) pairs of ``streams`` (as
    _streams._cell_streams yields them, or one (None, generator) pair for a
    one-shot sample_points or sample_lines) into one buffer.

    Returns (points, sizes, tokens): an (N, d) array holding the cells'
    points in order, each cell's count and each stream's token.  Each cell
    draws its Poisson count, then that many rows of uniform variates into
    the buffer, mapped once at the end by the window's from_unit, point by
    point, so each cell equals window.sample after its count bit for bit.
    The buffer starts at _buffer_rows (CapacityError before any draw above
    _DRAW_POINTS rows) and doubles when a draw would overrun it."""
    buf = np.empty((_buffer_rows(mean, cells), window.point_dim))
    sizes, tokens = [], []
    pos = 0
    for token, rng in streams:
        n = int(rng.poisson(mean))
        if pos + n > len(buf):
            grown = np.empty((max(2 * len(buf), pos + n), buf.shape[1]))
            grown[:pos] = buf[:pos]
            buf = grown
        if n:
            rng.random(out=buf[pos : pos + n])
        sizes.append(n)
        tokens.append(token)
        pos += n
    points = buf[:pos]
    return window.from_unit(points, out=points), sizes, tokens


def _sample(intensity: IntensityModel, seed, kind: str) -> PointConfiguration:
    rng = seed if isinstance(seed, np.random.Generator) else spawn_rng(seed)
    return PointConfiguration(
        _draw_cells(intensity.window, intensity.mean_count(), [(None, rng)], 1)[0],
        kind=kind,
        seed=seed if isinstance(seed, int) else None,
        window=intensity.window,
    )


def sample_points(intensity: IntensityModel, seed) -> PointConfiguration:
    """Sample a Poisson configuration on a box or ball window."""
    if isinstance(intensity.window, LineWindow):
        raise ConfigError("sample_points needs a spatial window; use sample_lines")
    return _sample(intensity, seed, "spatial")


def sample_lines(intensity: IntensityModel, seed) -> PointConfiguration:
    """Sample a Poisson line process as (phi, p) parameter pairs."""
    if not isinstance(intensity.window, LineWindow):
        raise ConfigError("sample_lines needs a LineWindow")
    return _sample(intensity, seed, "lines")


def _points_csv(config: PointConfiguration) -> str:
    """CSV text of a configuration, as write_points_csv writes it."""
    header = ["phi", "p"] if config.kind == "lines" else [f"x{i + 1}" for i in range(config.dim)]
    return _csv_numbers(header, (float,) * len(header), config.points.tolist())


def write_points_csv(config: PointConfiguration, path) -> None:
    """Write a configuration as CSV with header x1..xd, or phi,p for lines."""
    _write_text(path, _points_csv(config))


def read_points_csv(path, window: Optional[Window] = None) -> PointConfiguration:
    """Read a configuration written by :func:`write_points_csv` (LF or CRLF line ends)."""
    header, rows = _read_csv(
        path, "points", lambda h: h == ["phi", "p"] or h == [f"x{i + 1}" for i in range(len(h))]
    )
    pts = np.array(rows, dtype=float) if rows else np.empty((0, len(header)))
    return PointConfiguration(pts, kind="lines" if header == ["phi", "p"] else "spatial", window=window)
