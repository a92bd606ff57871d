"""U-statistics of Poisson processes and their Malliavin-type operators.

A U-statistic of order k sums a symmetric kernel f over all k-tuples of
distinct points of a configuration.  This module evaluates such sums (for
local kernels only over subsets in adjacent cells of a grid, found by
sorting the points by cell id), estimates moments by Monte Carlo against
the intensity measure ``lambda * theta``, and implements the
add-one-point difference operators, the generator L of the associated
Ornstein-Uhlenbeck semigroup, its pseudo-inverse, the projection kernels of
the chaos decomposition, and the closed-form variance

    Var F = sum_{i=1..k} i! C(k,i)^2 lam^(2k-i)
            int (int f dtheta^(k-i))^2 dtheta^i.

The variance terms, the fourth-power norms of the local bound and the
fourth-moment terms M_ij are all integrals of a product of kernel copies
that share some variables; one estimator, _product_integral, computes them.
It draws the shared variables through Integrator.integrate and averages
each factor's free variables over an independent inner batch, so the
product of inner means (for a square: two independent inner replicates) is
unbiased.  Under ``strata`` > 1 the shared variables and each inner batch
are stratified separately.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from ._streams import spawn_rng
from .errors import CapacityError, ConfigError, IntegrationError
from .point_process import (
    BallWindow,
    IntensityModel,
    PointConfiguration,
    Window,
    window_measure,
)

__all__ = [
    "Estimate",
    "Integrator",
    "UStatKernel",
    "evaluate",
    "expectation",
    "difference",
    "iterated_difference",
    "ou_generator",
    "ou_generator_direct",
    "ou_inverse",
    "chaos_kernel",
    "variance",
    "variance_terms",
    "check_symmetry",
]

# tuples drawn at once when an integral repeats its batches (Integrator.integrate)
CHUNK_DRAWS = 1 << 14


@dataclass(frozen=True)
class Estimate:
    """A numeric estimate with its standard error and sample count."""

    value: float
    se: float
    n: int = 0

    def __float__(self) -> float:
        return float(self.value)

    def within(self, target: float, nse: float = 3.0) -> bool:
        return abs(self.value - target) <= nse * self.se


def combine_se(*ses: float) -> float:
    return math.sqrt(math.fsum(s * s for s in ses))


@dataclass(frozen=True)
class UStatKernel:
    """Symmetric kernel of a U-statistic.

    ``fn`` maps an array of tuples with shape (m, order, dim) to m values.
    ``geometric`` marks kernels whose value does not depend on the intensity
    rate (up to the optional scalar factor ``intensity_factor(lam)``), and
    ``locality`` is a radius beyond which the kernel vanishes: if set, ``fn``
    must return 0 whenever the Euclidean distance between two tuple points
    exceeds it.

    The kernel at rate lam is ``factor(lam) * fn``.  Functions that take an
    IntensityModel apply the factor; lambda-free estimators integrate ``fn``
    alone, and Ingredients, expectation, variance and m_ij scale what they
    assemble at lam by factor(lam)^p (p = 1, 2, 4 for E F, Var F, M_ij).
    """

    order: int
    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    symmetric: bool = True
    geometric: bool = False
    locality: Optional[float] = None
    intensity_factor: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if int(self.order) < 1:
            raise ConfigError(f"kernel order must be >= 1, got {self.order}")
        object.__setattr__(self, "order", int(self.order))
        if self.locality is not None and not self.locality > 0:
            raise ConfigError(f"locality radius must be positive, got {self.locality}")

    def __call__(self, tuples: np.ndarray) -> np.ndarray:
        tuples = np.asarray(tuples, dtype=float)
        out = np.asarray(self.fn(tuples), dtype=float)
        return out.reshape(tuples.shape[0])

    def factor(self, lam: float) -> float:
        """The scalar intensity factor g(lam); 1.0 for a kernel without one."""
        return 1.0 if self.intensity_factor is None else float(self.intensity_factor(float(lam)))

    def at_intensity(self, lam: float) -> "UStatKernel":
        """The kernel at rate lam, factor(lam) * fn, with no factor left."""
        if self.intensity_factor is None:
            return self
        g = self.factor(lam)
        base = self.fn
        return replace(self, fn=lambda tuples: g * np.asarray(base(tuples)), intensity_factor=None)


@dataclass(frozen=True)
class Integrator:
    """Monte Carlo integrator against the normalized window measure.

    ``samples`` is the sample count used per integral.  ``strata`` > 1
    switches on tensor stratification of the unit-cube driver: with level L
    and a q-fold integral over a d-dimensional window the cube splits into
    L^(q*d) equal strata with equal allocation (the remainder of ``samples``
    modulo the stratum count is dropped).  In a nested integral the shared
    outer variables and each inner batch are stratified separately; an inner
    batch smaller than its stratum count is drawn unstratified.
    Stratification needs a window with an inverse unit-cube map, which
    excludes balls.
    """

    samples: int = 4096
    seed: int = 0
    strata: int = 1

    def __post_init__(self):
        if int(self.samples) < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.samples}")
        if int(self.strata) < 1:
            raise ConfigError(f"stratification level must be >= 1, got {self.strata}")

    def rng(self, *path) -> np.random.Generator:
        return spawn_rng(self.seed, *path)

    def draw(self, window: Window, arity: int, n: int, rng: np.random.Generator, groups: int = 1) -> np.ndarray:
        """Draw ``groups`` batches of n tuples of ``arity`` theta-uniform points,
        each stratified on its own, shape (groups * n, arity, dim)."""
        dim = window.point_dim
        if self.strata <= 1:
            return window.sample(rng, groups * n * arity).reshape(groups * n, arity, dim)
        if isinstance(window, BallWindow):
            raise ConfigError("stratified sampling needs an invertible window map; balls sample by rejection")
        d_total = arity * dim
        count = self.strata**d_total
        n_per = n // count
        if n_per < 1:
            raise ConfigError(
                f"sample count {n} is below the stratum count {count} (level {self.strata}, {d_total} axes)"
            )
        corners = np.stack(np.unravel_index(np.arange(count), (self.strata,) * d_total), axis=-1)
        u = (corners[:, None, :] + rng.random((groups, count, n_per, d_total))) / self.strata
        return window.from_unit(u.reshape(groups * count * n_per, arity, dim))

    def integrate(self, fn, window: Window, arity: int, *, path=(), repeat: int = 1) -> Estimate:
        """Estimate of int_{W^arity} fn dtheta^arity with its standard error.

        ``repeat`` > 1 averages that many independent batches of ``samples``
        draws, each stratified on its own.  The batches come from the path's
        one stream in chunks of at most about CHUNK_DRAWS tuples, so only the
        integrand values, not the drawn tuples, grow with ``repeat``.
        """
        rng = self.rng(*path) if path else self.rng("integrate")
        per_chunk = max(1, CHUNK_DRAWS // self.samples)
        parts = []
        for start in range(0, repeat, per_chunk):
            pts = self.draw(window, arity, self.samples, rng, groups=min(per_chunk, repeat - start))
            vals = np.asarray(fn(pts), dtype=float).reshape(-1)
            if not np.all(np.isfinite(vals)):
                bad = int(np.flatnonzero(~np.isfinite(vals))[0])
                raise IntegrationError(f"non-finite integrand value at tuple {pts[bad].tolist()}")
            parts.append(vals)
        vals = np.concatenate(parts)
        scale = window_measure(window) ** arity
        n_eff = len(vals)
        mean = float(vals.mean())
        count = self.strata ** (arity * window.point_dim)
        n_per = n_eff // (count * repeat)
        if self.strata > 1 and n_per >= 2:
            per_stratum = vals.reshape(repeat * count, n_per).var(axis=1, ddof=1)
            se = scale * math.sqrt(float(per_stratum.sum()) / n_per) / (count * repeat)
        else:
            se = scale * float(vals.std(ddof=1)) / math.sqrt(n_eff) if n_eff > 1 else math.inf
        return Estimate(scale * mean, se, n_eff)


def _product_integral(fn, order: int, window: Window, integrator: Integrator, q: int, slots, path, inner: int = 0, scale: float = 1.0, repeat: int = 1) -> Estimate:
    """Estimate of scale * int prod_l (int fn(y[slots_l], x_l) dtheta^(order-|slots_l|)) dtheta^q(y).

    ``fn`` maps (m, order, dim) tuples to m values; factor l puts the shared
    variables y[slots_l] first and its own free variables x_l after them.
    The q shared variables are drawn by ``integrator.integrate`` on stream
    path + (0,), which stratifies them, averages ``repeat`` batches and gives
    the standard error.  A factor with free variables averages ``inner``
    draws per outer sample on stream path + (l,) (each batch stratified on
    its own, or unstratified if it is smaller than its stratum count); the
    product of these independent inner means is unbiased for the product of
    the inner integrals.  A factor without free variables spawns no stream,
    ignores ``inner``, and reuses the values of an earlier such factor with
    the same slot list.
    """
    dim = window.point_dim
    factors = []
    for l, sl in enumerate(slots, start=1):
        r = order - len(sl)
        if r == 0:
            factors.append((list(sl), 0, 1.0, None, None))
            continue
        drawer = integrator if inner >= integrator.strata ** (r * dim) else replace(integrator, strata=1)
        factors.append((list(sl), r, window_measure(window) ** r, drawer, integrator.rng(*path, l)))

    def integrand(ys: np.ndarray) -> np.ndarray:
        out = np.ones(len(ys))
        copies = {}  # slot list -> kernel values of a factor without free variables
        for sl, r, theta_r, drawer, rng in factors:
            if r == 0:
                key = tuple(sl)
                if key not in copies:
                    copies[key] = fn(ys[:, sl])
                out = out * copies[key]
                continue
            means = np.empty(len(ys))
            chunk = max(1, (1 << 18) // inner)
            for s in range(0, len(ys), chunk):
                y = ys[s : s + chunk, sl]
                m = len(y)
                xs = drawer.draw(window, r, inner, rng, groups=m).reshape(m, -1, r, dim)
                tup = np.concatenate([np.broadcast_to(y[:, None], (m, xs.shape[1], len(sl), dim)), xs], axis=2)
                means[s : s + m] = fn(tup.reshape(-1, order, dim)).reshape(m, -1).mean(axis=1)
            out = out * (theta_r * means)
        return out

    est = integrator.integrate(integrand, window, q, path=(*path, 0), repeat=repeat)
    return Estimate(scale * est.value, scale * est.se, est.n)


# ---------------------------------------------------------------------------
# tuple enumeration

# subsets per enumerated batch, and tuples per kernel call of _evaluate_many
_SUBSET_BATCH = 1 << 15


def _subset_batches(n: int, k: int, batch: int = _SUBSET_BATCH):
    """Yield index arrays (m, k) covering all unordered k-subsets of range(n)."""
    if k > n:
        return
    if k == 1:
        for s in range(0, n, batch):
            yield np.arange(s, min(s + batch, n), dtype=np.intp)[:, None]
        return
    if k == 2 and n <= 4096:
        i, j = np.triu_indices(n, 1)
        idx = np.stack([i, j], axis=1).astype(np.intp)
        for s in range(0, len(idx), batch):
            yield idx[s : s + batch]
        return
    it = itertools.combinations(range(n), k)
    while True:
        chunk = list(itertools.islice(it, batch))
        if not chunk:
            return
        yield np.array(chunk, dtype=np.intp)


def _local_subset_batches(points: np.ndarray, delta: float, k: int, batch: int = _SUBSET_BATCH):
    """Yield index arrays (m, k) covering every k-subset of diameter <= delta.

    Points are binned on an axis-aligned grid with cell edge delta and ranked
    by cell id.  A subset of diameter <= delta lies in the 3^d cell
    neighbourhood of its lowest-ranked point, and its other points sit in
    cells of equal or higher id there.  Those points are the anchor's
    partners, and a candidate subset is an anchor plus k - 1 of its partners,
    so each subset is enumerated once.  Candidates wider than delta
    contribute exactly 0 under the locality contract.
    """
    n, d = points.shape
    keys = np.floor(points / delta).astype(np.int64)
    # per axis, shrink gaps of two or more cells to exactly two: adjacency is
    # unchanged and the mixed-radix cell id below stays small
    for a in range(d):
        values, inverse = np.unique(keys[:, a], return_inverse=True)
        keys[:, a] = np.concatenate(([1], 1 + np.cumsum(np.minimum(np.diff(values), 2))))[inverse]
    radix = keys.max(axis=0) + 2
    if math.prod(int(r) for r in radix) >= 1 << 62:
        raise CapacityError(f"grid of {n} points in dimension {d} has too many cells to index")
    weights = np.concatenate(([1], np.cumprod(radix[:-1])))
    cell = keys @ weights
    order = np.argsort(cell)
    cell = cell[order]
    # ids are mixed radix with axis 0 fastest, so the three cells along axis 0
    # at a fixed offset h of the other axes have consecutive ids: the
    # partners of rank r are the run from r + 1 to the end of its cell id + 1,
    # plus one three-cell run for each h that raises the id
    others = np.array(list(itertools.product((-1, 0, 1), repeat=d - 1)), dtype=np.int64)
    raise_id = others.reshape(3 ** (d - 1), d - 1) @ weights[1:]
    raise_id = raise_id[raise_id > 0]
    lo = np.column_stack([np.arange(1, n + 1), np.searchsorted(cell, cell[:, None] + raise_id - 1, "left")])
    hi = np.column_stack([np.searchsorted(cell, cell + 1, "right"), np.searchsorted(cell, cell[:, None] + raise_id + 1, "right")])
    lo, hi = lo.ravel(), hi.ravel()
    counts = hi - lo
    start = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    partner = order[np.arange(len(start)) + start]
    per_anchor = counts.reshape(n, -1).sum(axis=1)
    if k == 2:
        pairs = np.stack([np.repeat(order, per_anchor), partner], axis=1)
        for s in range(0, len(pairs), batch):
            yield pairs[s : s + batch]
        return
    bounds = np.concatenate(([0], np.cumsum(per_anchor)))
    buf = []
    for r, anchor in enumerate(order.tolist()):
        partners = partner[bounds[r] : bounds[r + 1]].tolist()
        buf.extend((anchor, *rest) for rest in itertools.combinations(partners, k - 1))
        if len(buf) >= batch:
            yield np.array(buf, dtype=np.intp)
            buf = []
    if buf:
        yield np.array(buf, dtype=np.intp)


def evaluate(kernel: UStatKernel, config: PointConfiguration, *, exhaustive: bool = False) -> float:
    """Sum of the kernel over ordered tuples of distinct configuration points.

    Computed as k! times the sum over unordered subsets, which requires the
    declared symmetry.  Local kernels sum only over subsets whose points lie
    in adjacent cells of a grid with edge ``locality`` (found by sorting the
    points by cell id) unless ``exhaustive`` is set; both paths sum the same
    nonzero terms.  This is the one-configuration case of _evaluate_many.
    """
    return _evaluate_many(kernel, [config.points], exhaustive=exhaustive)[0]


def _evaluate_many(kernel: UStatKernel, point_arrays, *, exhaustive: bool = False) -> list:
    """evaluate for each (n_i, d) point array, as a list of floats.

    Each value is k! times the fsum of per-batch sums over the batches of
    _subset_batches (or _local_subset_batches), so it does not depend on
    which other arrays are passed.  Exhaustive sums group the arrays by
    size: each subset batch is indexed once per size and applied to as many
    same-size arrays as fit in one kernel call of at most _SUBSET_BATCH
    tuples, whose row sums are each array's batch sums.  Local kernels
    enumerate their grid per array.
    """
    if not kernel.symmetric:
        raise ConfigError("evaluate needs a symmetric kernel")
    k = kernel.order
    parts = [[] for _ in point_arrays]
    if kernel.locality is not None and not exhaustive:
        for pts, out in zip(point_arrays, parts):
            if len(pts) >= k:
                out.extend(float(kernel(pts[idx]).sum()) for idx in _local_subset_batches(pts, kernel.locality, k))
    else:
        by_size = {}
        for i, pts in enumerate(point_arrays):
            if len(pts) >= k:
                by_size.setdefault(len(pts), []).append(i)
        for n, members in by_size.items():
            rows = np.concatenate([point_arrays[i] for i in members])
            for idx in _subset_batches(n, k):
                step = max(1, _SUBSET_BATCH // len(idx))
                for s in range(0, len(members), step):
                    group = members[s : s + step]
                    # row indices into the stacked arrays, so that the tuples
                    # are C-ordered as pts[idx] is for a single array
                    at = (n * np.arange(s, s + len(group)))[:, None, None] + idx
                    sums = kernel(rows[at.reshape(-1, k)]).reshape(len(group), len(idx)).sum(axis=1)
                    for i, v in zip(group, sums.tolist()):
                        parts[i].append(v)
    return [math.factorial(k) * math.fsum(p) for p in parts]


# ---------------------------------------------------------------------------
# difference operators


def _ordered_prefix_sums(
    kernel: UStatKernel, config: PointConfiguration, fixed: np.ndarray, chunk: int = 1 << 16
) -> np.ndarray:
    """For each fixed prefix (shape (m, i, d)), the sum of f(prefix, xs) over
    ordered (k-i)-tuples xs of distinct configuration points."""
    fixed = np.asarray(fixed, dtype=float)
    m, i, d = fixed.shape
    k = kernel.order
    r = k - i
    pts = config.points
    n = len(pts)
    if r == 0:
        return kernel(fixed)
    if r > n:
        return np.zeros(m)
    out = np.zeros(m)
    for idx in _subset_batches(n, r):
        sub = pts[idx]
        count = len(idx)
        step = max(1, chunk // count)
        for s in range(0, m, step):
            fb = fixed[s : s + step]
            mm = len(fb)
            tup = np.concatenate(
                [
                    np.broadcast_to(fb[:, None, :, :], (mm, count, i, d)),
                    np.broadcast_to(sub[None], (mm, count, r, d)),
                ],
                axis=2,
            ).reshape(mm * count, k, d)
            out[s : s + step] += kernel(tup).reshape(mm, count).sum(axis=1)
    return math.factorial(r) * out


def iterated_difference(kernel: UStatKernel, config: PointConfiguration, ys) -> float:
    """i-fold add-one-point difference of the U-statistic at the points ys.

    Equals k!/(k-i)! times the sum of f(ys, xs) over ordered (k-i)-tuples of
    distinct configuration points, and is identically 0 for i > k.
    """
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    i = ys.shape[0]
    k = kernel.order
    if i > k:
        return 0.0
    perm = math.factorial(k) // math.factorial(k - i)
    return perm * float(_ordered_prefix_sums(kernel, config, ys[None])[0])


def difference(kernel: UStatKernel, config: PointConfiguration, y) -> float:
    """Add-one-point difference F(config + y) - F(config)."""
    return iterated_difference(kernel, config, np.asarray(y, dtype=float).reshape(1, -1))


# ---------------------------------------------------------------------------
# moments and chaos kernels


def expectation(kernel: UStatKernel, intensity: IntensityModel, integrator: Integrator, *, path=("expectation",)) -> Estimate:
    """E F = lam^k factor(lam) int f dtheta^k, by Monte Carlo (Ingredients.moments' mean)."""
    lam = float(intensity.lam)
    est = integrator.integrate(kernel, intensity.window, kernel.order, path=path)
    scale = lam**kernel.order * kernel.factor(lam)
    return Estimate(scale * est.value, scale * est.se, est.n)


def ou_generator(kernel: UStatKernel, config: PointConfiguration, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Ornstein-Uhlenbeck generator L F at the configuration.

    L F = -k F + k int sum_{(k-1)-tuples} f(xs, z) dmu(z); the integral is
    estimated by Monte Carlo over z.
    """
    kernel = kernel.at_intensity(intensity.lam)
    k = kernel.order
    F = evaluate(kernel, config)
    est = integrator.integrate(
        lambda zs: _ordered_prefix_sums(kernel, config, zs),
        intensity.window,
        1,
        path=("ou-generator",),
    )
    lam = float(intensity.lam)
    return Estimate(-k * F + k * lam * est.value, k * lam * est.se, est.n)


def ou_generator_direct(kernel: UStatKernel, config: PointConfiguration, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """L F through its definition: remove-one-point differences over the
    configuration plus the integrated add-one-point difference.

    Cross-validates :func:`ou_generator`; the two agree in distribution and,
    for fixed configurations, within Monte Carlo error.
    """
    kernel = kernel.at_intensity(intensity.lam)
    F = evaluate(kernel, config)
    removal = math.fsum(evaluate(kernel, config.without_index(i)) - F for i in range(config.size))
    k = kernel.order
    est = integrator.integrate(
        lambda zs: k * _ordered_prefix_sums(kernel, config, zs),
        intensity.window,
        1,
        path=("ou-generator-direct",),
    )
    lam = float(intensity.lam)
    return Estimate(removal + lam * est.value, lam * est.se, est.n)


def ou_inverse(kernel: UStatKernel, config: PointConfiguration, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Pseudo-inverse L^{-1}(F - E F) evaluated at the configuration.

    Uses the representation as a harmonic-weighted combination of partially
    integrated U-statistics of orders 1..k; for order k the integral is empty
    and the term is the exact U-statistic value.
    """
    kernel = kernel.at_intensity(intensity.lam)
    k = kernel.order
    lam = float(intensity.lam)
    mean_est = expectation(kernel, intensity, integrator, path=("ou-inverse", 0))
    harmonic = math.fsum(1.0 / m for m in range(1, k + 1))
    value = harmonic * mean_est.value
    var = (harmonic * mean_est.se) ** 2
    n = mean_est.n
    for m in range(1, k):
        est = integrator.integrate(
            lambda ys: _ordered_prefix_sums(kernel, config, ys),
            intensity.window,
            k - m,
            path=("ou-inverse", m),
        )
        value -= lam ** (k - m) * est.value / m
        var += (lam ** (k - m) * est.se / m) ** 2
        n = min(n, est.n)
    value -= evaluate(kernel, config) / k
    return Estimate(value, math.sqrt(var), n)


def chaos_kernel(kernel: UStatKernel, i: int, ys, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Projection kernel f_i(ys) = C(k,i) int f(ys, xs) dmu^{k-i}(xs).

    Exact (zero standard error) for i = k, identically zero for i > k,
    Monte Carlo otherwise.
    """
    kernel = kernel.at_intensity(intensity.lam)
    k = kernel.order
    if i < 1:
        raise ConfigError(f"chaos kernel index must be >= 1, got {i}")
    if i > k:
        return Estimate(0.0, 0.0, 0)
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if ys.shape[0] != i:
        raise ConfigError(f"need {i} points for chaos kernel index {i}, got {ys.shape[0]}")
    if i == k:
        return Estimate(float(kernel(ys[None])[0]), 0.0, 1)

    def fixed_fn(xs: np.ndarray) -> np.ndarray:
        m = xs.shape[0]
        tup = np.concatenate([np.broadcast_to(ys[None], (m, i, ys.shape[1])), xs], axis=1)
        return kernel(tup)

    est = integrator.integrate(fixed_fn, intensity.window, k - i, path=("chaos", i))
    c = math.comb(k, i) * float(intensity.lam) ** (k - i)
    return Estimate(c * est.value, c * est.se, est.n)


# ---------------------------------------------------------------------------
# variance


def variance_terms(kernel: UStatKernel, window: Window, integrator: Integrator) -> list:
    """Rate-free variance terms T_i = i! C(k,i)^2 int (int f dtheta^{k-i})^2 dtheta^i.

    Var F = sum_i lam^(2k-i) T_i.  Inner squared integrals are estimated as
    the product of two independent inner replicates of ``samples`` draws
    each, which is unbiased.  Index 0 of the returned list is T_1.
    """
    k = kernel.order
    return [
        _product_integral(
            kernel, k, window, integrator, i, [range(i)] * 2, ("variance", i),
            inner=integrator.samples, scale=math.factorial(i) * math.comb(k, i) ** 2,
        )
        for i in range(1, k + 1)
    ]


def assemble_variance(terms, lam: float, factor: float = 1.0) -> Estimate:
    """Var F = sum_i lam^(2k-i) factor^2 T_i from the rate-free terms T_1..T_k.

    ``factor`` is the kernel's scalar intensity factor at ``lam``.
    """
    k = len(terms)
    parts = [lam ** (2 * k - i) * factor**2 * t.value for i, t in enumerate(terms, start=1)]
    ses = [lam ** (2 * k - i) * factor**2 * t.se for i, t in enumerate(terms, start=1)]
    return Estimate(math.fsum(parts), combine_se(*ses), max(t.n for t in terms))


def variance(kernel: UStatKernel, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Var F = sum_i lam^(2k-i) factor(lam)^2 T_i from the chaos decomposition (Ingredients.moments' variance)."""
    lam = float(intensity.lam)
    return assemble_variance(variance_terms(kernel, intensity.window, integrator), lam, kernel.factor(lam))


def check_symmetry(kernel: UStatKernel, window: Window, seed: int = 0, trials: int = 64, tol: float = 1e-9) -> bool:
    """Spot-check the declared symmetry on random tuples and permutations."""
    rng = spawn_rng(seed, "symmetry")
    k = kernel.order
    pts = window.sample(rng, trials * k).reshape(trials, k, window.point_dim)
    base = kernel(pts)
    for _ in range(3):
        perm = rng.permutation(k)
        other = kernel(pts[:, perm, :])
        scale = np.maximum(1.0, np.abs(base))
        if np.any(np.abs(other - base) > tol * scale):
            return False
    return True
