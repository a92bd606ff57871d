"""Concrete kernels: proximity graphs, convex position, line intersections.

Every kernel here is symmetric and fits the ordered-tuple convention of
:mod:`ustat_core`: a statistic over unordered point sets divides by the
tuple count, e.g. the edge-count kernel is (1/2) * 1{dist <= delta} so the
full sum counts each edge once.

Coordinates are assumed of order one; orientation predicates use the
absolute tolerance ORIENTATION_TOL and treat degenerate (collinear) tuples
as not in convex position.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._streams import _cell_streams
from .errors import ConfigError, WindowError
from .point_process import (
    BallWindow,
    BoxWindow,
    IntensityModel,
    LineWindow,
    _buffer_rows,
    _check_cells,
    _draw_cells,
    unit_ball_volume,
    window_measure,
)
from .ustat_core import (
    Estimate,
    Integrator,
    UStatKernel,
    _evaluate_many,
    _lam_polynomial,
    _variance_term,
    combine_se,
)

__all__ = [
    "ORIENTATION_TOL",
    "orientation",
    "hull_vertices",
    "convex_position_mask",
    "line_intersection",
    "gilbert_kernel",
    "gilbert_f1",
    "pairwise_distance_kernel",
    "counterexample_kernel",
    "counterexample_closed_form",
    "convex_position_kernel",
    "line_intersection_kernel",
    "sylvester_estimate",
    "SylvesterResult",
    "kernel_names",
    "kernel_summaries",
    "make_kernel",
]

ORIENTATION_TOL = 1e-12


# ---------------------------------------------------------------------------
# planar predicates


def orientation(a, b, c) -> np.ndarray:
    """Signed parallelogram area (b - a) x (c - a); broadcasts over leading axes."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    c = np.asarray(c, dtype=float)
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
        c[..., 0] - a[..., 0]
    )


def hull_vertices(points: np.ndarray) -> np.ndarray:
    """Indices of the strict convex hull vertices, in boundary order.

    Collinear points interior to an edge are not vertices.  Degenerate
    inputs (all collinear) yield the two extreme points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ConfigError(f"need an (n, 2) array, got shape {pts.shape}")
    n = len(pts)
    if n <= 2:
        return np.arange(n)
    order = np.lexsort((pts[:, 1], pts[:, 0]))

    def chain(seq):
        out = []
        for i in seq:
            while len(out) >= 2 and orientation(pts[out[-2]], pts[out[-1]], pts[i]) <= ORIENTATION_TOL:
                out.pop()
            out.append(i)
        return out

    lower = chain(order)
    upper = chain(order[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _convex_position_3(t: np.ndarray) -> np.ndarray:
    cross = orientation(t[:, 0], t[:, 1], t[:, 2])
    return (np.abs(cross) > ORIENTATION_TOL).astype(float)


def _convex_position_4(t: np.ndarray) -> np.ndarray:
    # degenerate triples are out; otherwise in convex position iff no point
    # sits inside (or on the boundary of) the others' triangle
    quads = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    orients = np.stack([orientation(t[:, a], t[:, b], t[:, c]) for a, b, c in quads])
    ok = np.all(np.abs(orients) > ORIENTATION_TOL, axis=0)
    convex = ok.copy()
    for p in range(4):
        others = [q for q in range(4) if q != p]
        s1 = orientation(t[:, others[0]], t[:, others[1]], t[:, p])
        s2 = orientation(t[:, others[1]], t[:, others[2]], t[:, p])
        s3 = orientation(t[:, others[2]], t[:, others[0]], t[:, p])
        tol = ORIENTATION_TOL
        inside = ((s1 >= -tol) & (s2 >= -tol) & (s3 >= -tol)) | (
            (s1 <= tol) & (s2 <= tol) & (s3 <= tol)
        )
        convex &= ~inside
    return convex.astype(float)


def convex_position_mask(tuples: np.ndarray) -> np.ndarray:
    """1.0 per tuple whose points are all strict convex hull vertices."""
    t = np.asarray(tuples, dtype=float)
    single = t.ndim == 2
    if single:
        t = t[None]
    if t.ndim != 3 or t.shape[2] != 2:
        raise ConfigError(f"need (m, k, 2) tuples, got shape {t.shape}")
    k = t.shape[1]
    if k < 3:
        raise ConfigError("convex position needs at least 3 points")
    if k == 3:
        out = _convex_position_3(t)
    elif k == 4:
        out = _convex_position_4(t)
    else:
        out = np.array([float(len(hull_vertices(tup)) == k) for tup in t])
    return float(out[0]) if single else out


def line_intersection(line_a, line_b) -> Optional[np.ndarray]:
    """Intersection point of two (angle, offset) lines, None when parallel.

    A line (phi, p) is {x : x . (cos phi, sin phi) = p}; the system's
    determinant is sin(phi_b - phi_a).
    """
    phi1, p1 = float(line_a[0]), float(line_a[1])
    phi2, p2 = float(line_b[0]), float(line_b[1])
    det = math.sin(phi2 - phi1)
    if abs(det) <= ORIENTATION_TOL:
        return None
    x = (p1 * math.sin(phi2) - p2 * math.sin(phi1)) / det
    y = (p2 * math.cos(phi1) - p1 * math.cos(phi2)) / det
    return np.array([x, y])


# ---------------------------------------------------------------------------
# kernels


def _distance(a: np.ndarray, b) -> np.ndarray:
    """Euclidean norms of the rows of ``a - b`` (a of shape (n, d)).

    ``b`` is an (n, d) array or one (d,) point.  Works column by column:
    for each coordinate in order it subtracts, squares and adds the square
    to a running total, then takes the square root in place.  These are the
    operations of np.linalg.norm(a - b, axis=1) in the same order, so the
    values are bit-identical.  Every numpy call runs along the long axis:
    the kernels pass strided views ``t[:, 0, :]`` of their (n, 2, d) tuples,
    and an operation on such an (n, d) view, or a reduction over its short
    last axis, runs several times slower than on one column.

    Which NaN comes out of a sum of two NaNs depends on the loop numpy
    runs, and the column loops here do not keep the one norm's reduction
    keeps; rows that end in NaN are therefore redone with np.linalg.norm,
    so their sign and payload bits match too.
    """
    total = a[:, 0] - b[..., 0]
    total *= total
    for c in range(1, a.shape[1]):
        diff = a[:, c] - b[..., c]
        diff *= diff
        total += diff
    out = np.sqrt(total, out=total)
    if np.isnan(np.max(out, initial=0.0)):
        bad = np.isnan(out)
        out[bad] = np.linalg.norm(a[bad] - (b[bad] if b.ndim == 2 else b), axis=1)
    return out


def gilbert_kernel(delta: float, mode: str = "unit") -> UStatKernel:
    """Order-2 proximity kernel: (1/2) g(|x - y|) on pairs within delta.

    mode "unit" weighs each close pair 1 (edge count); "euclidean" weighs it
    by the distance (total edge length).  Carries locality delta, so
    ``evaluate`` sums only over pairs in adjacent cells of a grid with edge
    delta.
    """
    delta = float(delta)
    if not delta > 0:
        raise ConfigError(f"delta must be positive, got {delta}")
    if mode not in ("unit", "euclidean"):
        raise ConfigError(f"mode must be 'unit' or 'euclidean', got {mode!r}")

    def fn(tuples: np.ndarray) -> np.ndarray:
        t = np.asarray(tuples, dtype=float)
        dist = _distance(t[:, 0, :], t[:, 1, :])
        close = dist <= delta
        if mode == "unit":
            return 0.5 * close
        return 0.5 * dist * close

    name = "gilbert-count" if mode == "unit" else "gilbert-length"
    return UStatKernel(order=2, fn=fn, name=name, locality=delta)


def gilbert_f1(y, delta: float, intensity: IntensityModel, mode: str = "unit", integrator: Optional[Integrator] = None) -> Estimate:
    """First chaos kernel of the proximity kernel at a location.

    f_1(y) = lam * int g(|y - x|) 1{|y - x| <= delta} dtheta(x).  Closed
    forms cover a ball B(y, delta) inside the window and, for boxes, y
    exactly at a corner (an orthant fraction 2^-d); elsewhere a Monte Carlo
    integrator is required.
    """
    win = intensity.window
    lam = float(intensity.lam)
    delta = float(delta)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if isinstance(win, LineWindow):
        raise ConfigError("proximity kernels need a spatial window")
    d = win.dimension
    if y.shape != (d,):
        raise ConfigError(f"location must have dimension {d}, got shape {y.shape}")
    if not win.contains(y[None])[0]:
        raise WindowError(f"location {y.tolist()} lies outside the window")
    kappa = unit_ball_volume(d)
    if mode == "unit":
        full = kappa * delta**d
    elif mode == "euclidean":
        full = d * kappa * delta ** (d + 1) / (d + 1)
    else:
        raise ConfigError(f"mode must be 'unit' or 'euclidean', got {mode!r}")

    if isinstance(win, BoxWindow):
        lows, highs = win.lows(), win.highs()
        if np.all((y >= lows + delta) & (y <= highs - delta)):
            return Estimate(lam * full, 0.0, 0)
        at_corner = np.all((y == lows) | (y == highs))
        if at_corner and delta <= np.min(highs - lows):
            return Estimate(lam * full / 2**d, 0.0, 0)
    elif isinstance(win, BallWindow):
        if np.linalg.norm(y) <= win.radius - delta:
            return Estimate(lam * full, 0.0, 0)
    if integrator is None:
        raise ConfigError("no closed form at this location; pass an integrator")

    def integrand(xs: np.ndarray) -> np.ndarray:
        dist = _distance(xs[:, 0, :], y)
        g = np.ones_like(dist) if mode == "unit" else dist
        return g * (dist <= delta)

    est = integrator.integrate(integrand, win, 1, path=("gilbert-f1",))
    return est.scaled(lam)


def pairwise_distance_kernel() -> UStatKernel:
    """Order-2 kernel |x - y|; its sum runs over ordered pairs.

    No 1/2 factor here: the sum counts each unordered pair twice, so on
    three collinear unit-spaced points it evaluates to 8.
    """

    def fn(tuples: np.ndarray) -> np.ndarray:
        t = np.asarray(tuples, dtype=float)
        return _distance(t[:, 0, :], t[:, 1, :])

    return UStatKernel(order=2, fn=fn, name="pairwise-distance")


def counterexample_kernel() -> UStatKernel:
    """Sign kernel on the line: +1 when x1 * x2 >= 0, else -1.

    Its first chaos kernel vanishes identically on a window symmetric about
    zero, so the sum has no Gaussian first-order part; it is the standing
    example of a degenerate functional where variance-based normality
    arguments must refuse to run.
    """

    def fn(tuples: np.ndarray) -> np.ndarray:
        t = np.asarray(tuples, dtype=float)
        # multiply signs, not values: the raw product underflows to -0.0
        # for tiny magnitudes and would misreport an opposite-side pair
        return np.where(np.sign(t[:, 0, 0]) * np.sign(t[:, 1, 0]) >= 0, 1.0, -1.0)

    return UStatKernel(order=2, fn=fn, name="counterexample")


def counterexample_closed_form(config) -> float:
    """Exact sign-kernel sum from side counts.

    With P points > 0, N points < 0 and Z points at exactly 0 (a pair
    containing a zero always multiplies to +-0.0, which compares >= 0):

        F = P(P-1) + N(N-1) + Z(Z-1) + 2 Z (P + N) - 2 P N.
    """
    xs = np.asarray(config.points, dtype=float).ravel()
    p = int(np.sum(xs > 0))
    n = int(np.sum(xs < 0))
    z = int(np.sum(xs == 0))
    return float(p * (p - 1) + n * (n - 1) + z * (z - 1) + 2 * z * (p + n) - 2 * p * n)


def convex_position_kernel(k: int) -> UStatKernel:
    """Order-k indicator that the points are in strict convex position."""
    k = int(k)
    if k < 3:
        raise ConfigError(f"convex position needs order >= 3, got {k}")
    return UStatKernel(order=k, fn=convex_position_mask, name=f"convex-position-{k}")


def line_intersection_kernel(window: LineWindow, region_radius: Optional[float] = None) -> UStatKernel:
    """Order-2 kernel counting line crossings inside a disk.

    Lines are (angle, offset) points; the kernel is (1/2) per ordered pair
    whose intersection point exists and lies within region_radius r of the
    origin (default: the window radius).  Parallel pairs, |sin D| <=
    ORIENTATION_TOL as in :func:`line_intersection`, contribute 0.

    With D = phi2 - phi1 the crossing x of (phi1, p1) and (phi2, p2) obeys
    |x|^2 sin^2 D = p1^2 + p2^2 - 2 p1 p2 cos D (the law of cosines on the two
    unit normals), so a pair counts when the right-hand side is at most
    r^2 sin^2 D: two trigonometric calls per pair and no division.

    Exact moments on LineWindow(R) with r = R (Santalo, Integral Geometry
    and Geometric Probability, 1976):

    * int f dtheta^2 = pi^2 R^2: Blaschke-Petkantschin gives
      dG1 dG2 = |sin D| dx dphi1 dphi2, and |sin D| integrates to 2 pi over
      [0, pi)^2;
    * T_2 = 2 int f^2 dtheta^2 = pi^2 R^2;
    * T_1 = 4 int (int f dtheta)^2 dtheta = 64 pi R^3 / 3: the lines meeting
      a chord of length l have measure 2 l, so int f(L, .) dtheta = l(L) =
      2 sqrt(R^2 - p^2).

    The test is exact in floats only while its squares are normal floats:
    the left side reaches (|p1| + |p2|)^2 <= 4 R^2, the right side r^2.
    Both radii must lie in [sqrt(tiny), sqrt(max) / 2], about
    [1.49e-154, 6.7e153] (tiny and max the smallest normal and the largest
    float64).  Above it the squares overflow and the count rests on inf and
    NaN comparisons; below it they underflow to 0 and every non-parallel
    pair counts.  Such a kernel is built, so a window can still be sampled,
    but raises ConfigError when it is evaluated; the radii are checked once
    here, not per call.
    """
    if not isinstance(window, LineWindow):
        raise ConfigError("line intersections need a line window")
    radius = window.radius if region_radius is None else float(region_radius)
    if not radius > 0:
        raise ConfigError(f"region radius must be positive, got {radius}")
    floats = np.finfo(float)
    lo, hi = math.sqrt(floats.tiny), math.sqrt(floats.max) / 2.0
    if not lo <= min(window.radius, radius) <= max(window.radius, radius) <= hi:

        def refused(tuples: np.ndarray) -> np.ndarray:
            raise ConfigError(
                f"line intersections need window and region radii in [{lo:.3g}, {hi:.3g}], where the squares "
                f"of the crossing test are normal floats; got {window.radius:g} and {radius:g}"
            )

        return UStatKernel(order=2, fn=refused, name="line-intersections")
    r_sq = radius * radius

    def fn(tuples: np.ndarray) -> np.ndarray:
        t = np.asarray(tuples, dtype=float)
        phi1, p1 = t[:, 0, 0], t[:, 0, 1]
        phi2, p2 = t[:, 1, 0], t[:, 1, 1]
        turn = phi2 - phi1
        det = np.sin(turn)
        ok = np.abs(det) > ORIENTATION_TOL
        inside = ok & (p1 * p1 + p2 * p2 - 2.0 * p1 * p2 * np.cos(turn) <= r_sq * det * det)
        return 0.5 * inside

    return UStatKernel(order=2, fn=fn, name="line-intersections")


# ---------------------------------------------------------------------------
# convex position probability


@dataclass(frozen=True)
class SylvesterResult:
    """Convex position probability with the first-chaos norm sandwich."""

    k: int
    lam: float
    p: float
    p_se: float
    replicates: int
    f1_norm_sq: Estimate
    lower: Estimate
    upper: Estimate
    satisfied: bool


def sylvester_estimate(k: int, intensity: IntensityModel, replicates: int, integrator: Integrator, seed: int = 0) -> SylvesterResult:
    """Estimate the probability that k uniform points are in convex position.

    Uses E F = lam^k * p on a unit-measure window, averaging the ordered
    convex-position count over replicates.  Also checks the two-sided
    control of the first chaos kernel's squared norm,

        k^2 p^2 lam^{2k-1} <= |f_1|^2 <= k^2 p lam^{2k-1},

    within 3 combined standard errors.
    """
    win = intensity.window
    if isinstance(win, LineWindow):
        raise ConfigError("convex position probability needs a spatial window")
    if abs(window_measure(win) - 1.0) > 1e-12:
        raise ConfigError("convex position probability needs a unit-measure window")
    replicates = int(replicates)
    if replicates < 2:
        raise ConfigError("need at least 2 replicates")
    _buffer_rows(intensity.mean_count(), replicates)
    kernel = convex_position_kernel(k)
    lam = float(intensity.lam)
    streams = _cell_streams(seed, ("sylvester",), range(replicates))
    points, sizes, _ = _draw_cells(win, intensity.mean_count(), streams, replicates)
    _check_cells(win, points, sizes)
    scaled = np.array(_evaluate_many(kernel, points, sizes)) / lam**k
    p = float(np.mean(scaled))
    p_se = float(np.std(scaled, ddof=1) / math.sqrt(replicates))
    norm_sq = _lam_polynomial([(2 * k - 1, _variance_term(kernel, win, integrator, 1)[0])], lam, "|f_1|^2")
    base = k * k * lam ** (2 * k - 1)
    lower = Estimate(base * p * p, base * 2 * abs(p) * p_se, replicates)
    upper = Estimate(base * p, base * p_se, replicates)
    ok_low = norm_sq.value >= lower.value - 3.0 * combine_se(norm_sq.se, lower.se)
    ok_high = norm_sq.value <= upper.value + 3.0 * combine_se(norm_sq.se, upper.se)
    return SylvesterResult(
        k=int(k),
        lam=lam,
        p=p,
        p_se=p_se,
        replicates=replicates,
        f1_norm_sq=norm_sq,
        lower=lower,
        upper=upper,
        satisfied=bool(ok_low and ok_high),
    )


# ---------------------------------------------------------------------------
# registry

_SUMMARIES = {
    "gilbert-count": "edges of the proximity graph at range delta",
    "gilbert-length": "total edge length of the proximity graph at range delta",
    "pairwise-distance": "sum of all pairwise distances",
    "convex-position-k": "k-tuples in strict convex position (needs k >= 3)",
    "line-intersections": "line crossings inside the observation disk",
    "counterexample": "degenerate sign kernel with vanishing first chaos",
}


def kernel_names() -> tuple:
    return tuple(_SUMMARIES)


def kernel_summaries() -> dict:
    return dict(_SUMMARIES)


def make_kernel(name: str, *, delta: Optional[float] = None, k: Optional[int] = None, window=None) -> UStatKernel:
    """Build a registered kernel by name.

    convex-position-k takes the order either via the k argument or inline
    as convex-position-<int>.  A constant the kernel does not read is an
    error: k on any other name, delta on a kernel without locality.
    """
    name = str(name)
    m = re.fullmatch(r"convex-position-(\d+)", name)
    if m:
        kernel = convex_position_kernel(int(m.group(1)))
    elif name == "convex-position-k":
        if k is None:
            raise ConfigError("convex-position-k needs k")
        kernel = convex_position_kernel(k)
    elif name in ("gilbert-count", "gilbert-length"):
        if delta is None:
            raise ConfigError(f"{name} needs delta")
        kernel = gilbert_kernel(delta, mode="unit" if name == "gilbert-count" else "euclidean")
    elif name == "pairwise-distance":
        kernel = pairwise_distance_kernel()
    elif name == "counterexample":
        kernel = counterexample_kernel()
    elif name == "line-intersections":
        if window is None:
            raise ConfigError("line-intersections needs the line window")
        kernel = line_intersection_kernel(window)
    else:
        raise ConfigError(f"unknown kernel {name!r}; known: {', '.join(kernel_names())}")
    if k is not None and name != "convex-position-k":
        raise ConfigError(f"{name} takes no k; only convex-position-k reads it")
    if delta is not None and kernel.locality is None:
        raise ConfigError(f"{name} has no locality, so it takes no delta")
    return kernel
