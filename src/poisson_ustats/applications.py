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

from ._streams import spawn_rng
from .errors import ConfigError, WindowError
from .point_process import (
    BallWindow,
    BoxWindow,
    IntensityModel,
    LineWindow,
    sample_points,
    unit_ball_volume,
    window_measure,
)
from .ustat_core import (
    Estimate,
    Integrator,
    UStatKernel,
    _evaluate_many,
    combine_se,
    variance_terms,
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
        dist = np.linalg.norm(t[:, 0, :] - t[:, 1, :], axis=1)
        close = dist <= delta
        if mode == "unit":
            return 0.5 * close
        return 0.5 * dist * close

    name = "gilbert-count" if mode == "unit" else "gilbert-length"
    return UStatKernel(order=2, fn=fn, name=name, geometric=True, locality=delta)


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
        dist = np.linalg.norm(xs[:, 0, :] - y, axis=1)
        g = np.ones_like(dist) if mode == "unit" else dist
        return g * (dist <= delta)

    est = integrator.integrate(integrand, win, 1, path=("gilbert-f1",))
    return Estimate(lam * est.value, lam * est.se, est.n)


def pairwise_distance_kernel() -> UStatKernel:
    """Order-2 kernel |x - y|; its sum runs over ordered pairs.

    No 1/2 factor here: the sum counts each unordered pair twice, so on
    three collinear unit-spaced points it evaluates to 8.
    """

    def fn(tuples: np.ndarray) -> np.ndarray:
        t = np.asarray(tuples, dtype=float)
        return np.linalg.norm(t[:, 0, :] - t[:, 1, :], axis=1)

    return UStatKernel(order=2, fn=fn, name="pairwise-distance", geometric=True)


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

    return UStatKernel(order=2, fn=fn, name="counterexample", geometric=True)


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
    return UStatKernel(
        order=k,
        fn=convex_position_mask,
        name=f"convex-position-{k}",
        geometric=True,
    )


def line_intersection_kernel(window: LineWindow, region_radius: Optional[float] = None) -> UStatKernel:
    """Order-2 kernel counting line crossings inside a disk.

    Lines are (angle, offset) points; the kernel is (1/2) per ordered pair
    whose intersection point exists and lies within region_radius of the
    origin (default: the window radius).  Parallel pairs contribute 0.
    """
    if not isinstance(window, LineWindow):
        raise ConfigError("line intersections need a line window")
    radius = window.radius if region_radius is None else float(region_radius)
    if not radius > 0:
        raise ConfigError(f"region radius must be positive, got {radius}")
    r_sq = radius * radius

    def fn(tuples: np.ndarray) -> np.ndarray:
        t = np.asarray(tuples, dtype=float)
        phi1, p1 = t[:, 0, 0], t[:, 0, 1]
        phi2, p2 = t[:, 1, 0], t[:, 1, 1]
        det = np.sin(phi2 - phi1)
        ok = np.abs(det) > ORIENTATION_TOL
        safe = np.where(ok, det, 1.0)
        x = (p1 * np.sin(phi2) - p2 * np.sin(phi1)) / safe
        y = (p2 * np.cos(phi1) - p1 * np.cos(phi2)) / safe
        inside = ok & (x * x + y * y <= r_sq)
        return 0.5 * inside

    return UStatKernel(order=2, fn=fn, name="line-intersections", geometric=True)


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
    if abs(window_measure(win) - 1.0) > 1e-12:
        raise ConfigError("convex position probability needs a unit-measure window")
    replicates = int(replicates)
    if replicates < 2:
        raise ConfigError("need at least 2 replicates")
    kernel = convex_position_kernel(k)
    lam = float(intensity.lam)
    samples = [sample_points(intensity, spawn_rng(seed, "sylvester", r)).points for r in range(replicates)]
    scaled = np.array(_evaluate_many(kernel, samples)) / lam**k
    p = float(np.mean(scaled))
    p_se = float(np.std(scaled, ddof=1) / math.sqrt(replicates))
    terms = variance_terms(kernel, win, integrator)
    t1 = terms[0]
    norm_sq = Estimate(lam ** (2 * k - 1) * t1.value, lam ** (2 * k - 1) * t1.se, t1.n)
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
    as convex-position-<int>.
    """
    name = str(name)
    m = re.fullmatch(r"convex-position-(\d+)", name)
    if m:
        return convex_position_kernel(int(m.group(1)))
    if name == "convex-position-k":
        if k is None:
            raise ConfigError("convex-position-k needs k")
        return convex_position_kernel(k)
    if name in ("gilbert-count", "gilbert-length"):
        if delta is None:
            raise ConfigError(f"{name} needs delta")
        return gilbert_kernel(delta, mode="unit" if name == "gilbert-count" else "euclidean")
    if name == "pairwise-distance":
        return pairwise_distance_kernel()
    if name == "counterexample":
        return counterexample_kernel()
    if name == "line-intersections":
        if window is None:
            raise ConfigError("line-intersections needs the line window")
        return line_intersection_kernel(window)
    raise ConfigError(f"unknown kernel {name!r}; known: {', '.join(kernel_names())}")
