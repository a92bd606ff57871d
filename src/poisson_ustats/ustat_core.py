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

Every such sum runs over one enumerator, _anchor_subsets: an anchor point
plus k - 1 of its partners (every later point for exhaustive sums, the
later-ranked points of adjacent grid cells for local kernels), in batches
of exactly _SUBSET_BATCH rows but the last.  _evaluate_many enumerates
many configurations of a local kernel on one grid, the configuration index
being the slowest digit of the cell id, and sums each configuration's
values in its own _SUBSET_BATCH slices, as if it were enumerated alone.

The variance terms, the fourth-power norms of the local bound and the
fourth-moment terms M_ij are all integrals of a product of kernel copies
that share some variables; one estimator, _product_integral, computes them
through Integrator, and reads the mean int f dtheta^k off the kernel values
of T_1's pass.  The sampling rules (randomly shifted lattice points at
``strata`` 1, tensor strata above, iid draws for the pilots; the draw
counts, local draws and chunks) are stated in the Integrator
docstring, the estimator of a nested term in _product_integral's, the
pilot that sizes its inner batches in _pilot_batch_size's, and the
allocation of the M_ij draws in chaos_algebra._m_orbit_integrals'.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._lattice import lattice_chunks, lattice_shape
from ._streams import spawn_rng
from .errors import CapacityError, ConfigError, IntegrationError, _whole_number
from .point_process import (
    IntensityModel,
    LineWindow,
    PointConfiguration,
    Window,
    _ball_map,
    unit_ball_volume,
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
# a nested integral spends NESTED_REPEAT * NESTED_INNER * samples kernel rows per
# slot list, in inner batches of at most NESTED_INNER draws (Integrator)
NESTED_REPEAT = 8
NESTED_INNER = 16


@dataclass(frozen=True)
class Estimate:
    """A numeric estimate with its standard error and sample count.

    ``n`` counts the draws of the outermost integral, less a lattice
    family's remainder (Integrator): for a nested term (one whose kernel
    copies keep free variables) the outer points of its main pass,
    NESTED_REPEAT * NESTED_INNER * samples / M, each of which drew its own
    inner batches of the pilot's M points (the pilot's draws are not
    counted).  For M_ij see chaos_algebra._m_orbit_integrals; a lambda
    polynomial (_lam_polynomial) takes the fewest ``n`` of its terms.
    """

    value: float
    se: float
    n: int = 0

    def __float__(self) -> float:
        return float(self.value)

    def within(self, target: float, nse: float = 3.0) -> bool:
        return abs(self.value - target) <= nse * self.se

    def scaled(self, c: float) -> "Estimate":
        """The estimate of c times the quantity: value times c, se times |c|, same n."""
        return Estimate(c * self.value, abs(c) * self.se, self.n)


def combine_se(*ses: float) -> float:
    """sqrt of the sum of squares: plain unless the squares overflow or underflow,
    then rescaled by the largest term (so one se combines to its absolute value)."""
    try:
        total = math.sqrt(math.fsum(s * s for s in ses))
    except OverflowError:  # fsum's intermediate overflow
        total = math.inf
    top = max(map(abs, ses), default=0.0)
    if (total == math.inf or total < top) and top < math.inf:
        return top * math.sqrt(math.fsum((s / top) ** 2 for s in ses))
    return total


def _lam_polynomial(terms, lam: float, what: str) -> Estimate:
    """The estimate of sum_p lam^p E_p from (p, E_p) pairs of lambda-free estimates,
    the one assembly of every moment, M_ij and operator value at rate lam: value by
    fsum, se by combine_se, n the fewest of the terms'.  ConfigError naming the top
    power of ``what`` when a power of lam, or the sum, has no float."""
    try:
        parts = [(lam**p * est.value, lam**p * est.se) for p, est in terms]
        value = math.fsum(v for v, _ in parts)
    except (OverflowError, ValueError):  # a power past the floats, or inf - inf
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"lambda {lam:g} overflows the lambda^{max(p for p, _ in terms)} of {what}")
    return Estimate(value, combine_se(*(s for _, s in parts)), min(est.n for _, est in terms))


@dataclass(frozen=True)
class UStatKernel:
    """Symmetric kernel of a U-statistic.

    ``fn`` maps an array of tuples with shape (m, order, dim) to m values.
    It takes no intensity, so any kernel (its ``fn`` is lambda-free) is
    geometric in the paper's sense: lambda-free estimators integrate ``fn``
    once, and the moments at rate lam scale by powers of lam alone.
    ``locality`` is a radius beyond which the kernel vanishes: if set,
    ``fn`` must return 0 whenever the Euclidean distance between two tuple
    points exceeds it.
    """

    order: int
    fn: Callable[[np.ndarray], np.ndarray]
    name: str = ""
    symmetric: bool = True
    locality: Optional[float] = None

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


@dataclass(frozen=True)
class Integrator:
    """Monte Carlo integrator against the normalized window measure.

    ``samples`` is the draw count of a plain integral (of each of its
    ``repeat`` batches).  A nested integral, one whose kernel copies keep
    free variables (the variance terms T_i and the fourth-power norms for
    i < k), spends NESTED_REPEAT * NESTED_INNER * samples kernel rows per
    slot list (less a lattice family's remainder) on its estimate:
    NESTED_REPEAT * NESTED_INNER / M batches of ``samples`` outer points,
    and for each outer point one inner batch of M draws per slot list,
    shared by the copies on it.  The inner batch size M, a power of two up
    to NESTED_INNER, comes from a
    pilot of ``samples`` outer points with inner batches of NESTED_INNER
    (_pilot_batch_size), whose NESTED_INNER * samples kernel rows per slot
    list come on top of the budget and enter no estimate.

    Draw rules.  Every draw maps unit-cube variates through _unit_points
    (the window's measure-preserving from_unit, or local draws below); only
    their source and the estimator depend on the rule.  At ``strata`` 1 an
    integral is one family of randomly shifted rank-1 lattice points
    (_lattice): its repeat * samples draws become R >= 16 uniform shifts of
    a 2^m-point lattice, less a remainder under 1/16 of them; the estimate
    is the mean over the points, its standard error the spread of the R
    shift means.  A nested family draws each outer point with its inner
    batches as one lattice point (_product_integral).  The pilots draw iid
    variates.  ``strata`` > 1 switches on tensor stratification of the
    unit-cube variates (_unit_variates): with level L and a q-fold integral
    over a d-dimensional window the cube splits into L^(q*d) equal strata
    with equal allocation (the remainder of ``samples`` modulo the stratum
    count is dropped).  In a nested integral each outer batch is stratified
    on its own, and the r copies on a slot list draw r independent inner
    batches of M instead of sharing one, each stratified on its own; an
    inner batch whose M draws are fewer than its L^(r*d) strata is iid.

    Chunks: a lattice family is drawn, and its integrand called, on index
    ranges of at most CHUNK_DRAWS draws and 8 * CHUNK_DRAWS unit variates,
    so its draws do not depend on the chunk size; the stratified rule draws
    max(1, CHUNK_DRAWS // samples) batches at a time from its path's one
    stream and calls the integrand on at most CHUNK_DRAWS of their tuples
    at a time.  Neither the drawn tuples nor a nested integral's inner batches
    grow with ``repeat``.  Rows move by index only: a lattice family builds
    every chunk in one buffer (lattice_chunks) and maps it in
    place, and the rows of positive weight of local draws, a product
    integral's slot-list columns and its inner-batch tuples are gathered by
    np.take into buffers that the chunks of the integral reuse (_Scratch).
    Each chunk's values are copied out before the next chunk overwrites
    them, so a kernel may return a view of its tuples.

    Streams: each ingredient draws on its own path, the variance term T_i
    on ("variance", i, ...), the fourth-power norms and the M_ij orbits on
    theirs, except the mean int f dtheta^k, which has no draw of its own:
    it is read off T_1's kernel values (see _product_integral).  A nested
    integral's pilot draws on its path + ("pilot",), apart from the streams
    of its estimate.

    Local draws: given a kernel's locality delta on a box or ball window W
    whose delta-ball is smaller than W, omega_d delta^d < theta(W)
    (_local_radius), every point after a tuple's anchor is drawn uniformly
    in the ball of radius delta around the anchor, the kernel's support,
    and weighted by omega_d delta^d / theta(W) and the indicator of W.  The
    anchor is the tuple's first point, uniform in W (the top-order T_k and
    the outer draws of a nested integral), or for an inner batch its
    copies' first shared variable.  The ball is drawn through a
    measure-preserving map of the unit cube (_ball_points), so the lattice
    and ``strata`` apply to it.  Other windows and kernels keep
    theta-uniform draws.
    """

    samples: int = 4096
    seed: int = 0
    strata: int = 1

    def __post_init__(self):
        for name in ("samples", "seed", "strata"):
            object.__setattr__(self, name, _whole_number(f"integrator {name}", getattr(self, name)))
        if self.samples < 1:
            raise ConfigError(f"sample count must be >= 1, got {self.samples}")
        if self.strata < 1:
            raise ConfigError(f"stratification level must be >= 1, got {self.strata}")
        if self.seed < 0:
            raise ConfigError(f"integrator seed must be nonnegative, got {self.seed}")

    def rng(self, *path) -> np.random.Generator:
        return spawn_rng(self.seed, *path)

    def integrate(self, fn, window: Window, arity: int, *, path=(), repeat: int = 1, locality: Optional[float] = None):
        """Estimate of int_{W^arity} fn dtheta^arity with its standard error.

        ``repeat`` > 1 multiplies the draws by ``repeat`` (one lattice family,
        or that many batches of ``samples``, each stratified on its own).
        The draws and the calls of fn follow the chunk rule of the class
        docstring.  A ``locality`` delta switches on local draws (see the
        class docstring); fn must then vanish unless every point lies within
        delta of the first, and it is called only on the tuples of positive
        weight.

        fn maps m tuples to m values, or to a (p, m) array of p integrands
        at once; then the result is a tuple of their p estimates, each by the
        same rule over the same draws.
        """
        return self._integrate(lambda tuples, _: fn(tuples), window, arity, path, repeat, locality)

    def _integrate(self, fn, window: Window, arity: int, path, repeat: int, locality: Optional[float], extra: int = 0):
        """integrate for fn(tuples, variates): under the lattice rule each draw
        has ``extra`` unit variates after its tuple's, passed to fn as
        ``variates`` (rows of the tuples, columns in draw order); the other
        rules pass None and take no ``extra``."""
        rng = self.rng(*path) if path else self.rng("integrate")
        radius = _local_radius(window, locality)
        scale = window_measure(window) ** arity
        dim = window.point_dim
        axes = arity * dim
        if self.strata <= 1:
            # a chunk holds at most CHUNK_DRAWS draws and 8 * CHUNK_DRAWS unit variates
            chunk = max(1, min(CHUNK_DRAWS, 8 * CHUNK_DRAWS // (axes + extra)))
            chunks = lattice_chunks(rng, self.samples * repeat, axes + extra, chunk)
            # the estimator and its groups of consecutive draws: the shifts, or the strata of every batch
            estimate, groups = _shift_estimate, lattice_shape(self.samples * repeat)[1]
        else:
            per_chunk = max(1, CHUNK_DRAWS // self.samples)
            chunks = (_unit_variates(rng, min(per_chunk, repeat - start), self.samples, axes, self.strata) for start in range(0, repeat, per_chunk))
            estimate, groups = _mean_estimate, self.strata**axes * repeat
        parts = []
        scratch = _Scratch()
        for u in chunks:
            pts, weights = _unit_points(window, u[..., :axes].reshape(-1, arity, dim), radius)
            variates = u[:, axes:] if extra else None

            def values(live) -> np.ndarray:
                # the live rows (None: every row) in calls of at most CHUNK_DRAWS, at
                # least one; the concatenation copies the values out of any view of
                # the buffers that the next chunk overwrites
                tuples, more = pts, variates
                if live is not None:
                    tuples = np.take(pts, live, axis=0, out=scratch("tuples", (len(live), *pts.shape[1:])), mode="clip")
                    if more is not None:
                        more = np.take(more, live, axis=0, out=scratch("variates", (len(live), more.shape[1])), mode="clip")
                calls = range(0, max(1, len(tuples)), CHUNK_DRAWS)
                return np.concatenate([np.asarray(fn(tuples[s : s + CHUNK_DRAWS], None if more is None else more[s : s + CHUNK_DRAWS]), dtype=float) for s in calls], axis=-1)

            parts.append(_finite(_weighted_values(values, weights), pts))
        vals = np.concatenate(parts, axis=-1)
        return tuple(estimate(v, scale, groups) for v in vals) if vals.ndim == 2 else estimate(vals, scale, groups)


def _finite(vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """vals, or IntegrationError naming the first tuple with a non-finite value."""
    if not np.all(np.isfinite(vals)):
        bad = int(np.flatnonzero(~np.isfinite(vals).reshape(-1, vals.shape[-1]).all(axis=0))[0])
        raise IntegrationError(f"non-finite integrand value at tuple {pts[bad].tolist()}")
    return vals


def _shift_estimate(vals: np.ndarray, scale: float, shifts: int) -> Estimate:
    """scale times the mean of a lattice family's draws ``vals``, with the
    standard error from the spread of its ``shifts`` shift means, each the
    mean of a contiguous run of draws (exactly 0 when they are all equal)."""
    means = vals.reshape(shifts, -1).mean(axis=1)
    se = scale * math.sqrt(float(_spread(means)) / (shifts - 1)) if shifts > 1 else math.inf
    return Estimate(scale * float(vals.mean()), se, len(vals))


def _mean_estimate(vals: np.ndarray, scale: float, groups: int) -> Estimate:
    """scale times the mean of the stratified draws ``vals`` with its
    standard error: from the spread within each of ``groups`` equal
    consecutive groups (the strata of every batch) when each holds at least
    2 draws, else plain."""
    n_eff = len(vals)
    mean = float(vals.mean())
    n_per = n_eff // groups
    if n_per >= 2:
        per_stratum = vals.reshape(groups, n_per).var(axis=1, ddof=1)
        se = scale * math.sqrt(float(per_stratum.sum()) / n_per) / groups
    else:
        se = scale * float(vals.std(ddof=1)) / math.sqrt(n_eff) if n_eff > 1 else math.inf
    return Estimate(scale * mean, se, n_eff)


def _weighted_values(values, weights) -> np.ndarray:
    """The integrand times the draw weights, one value per row on the last
    axis, where ``values(live)`` evaluates the integrand on the rows of the
    index array ``live``: every row for theta-uniform draws (weights None,
    ``live`` None), else only the rows of positive weight, so it is never
    called where a zero weight would void its value."""
    if weights is None:
        return np.asarray(values(None), dtype=float)
    live = np.flatnonzero(weights > 0)
    kept = np.asarray(values(live), dtype=float) * np.take(weights, live)
    vals = np.zeros(kept.shape[:-1] + weights.shape)
    vals[..., live] = kept
    return vals


class _Scratch:
    """Float buffers that the chunks of one integral reuse, one per name,
    each as large as the largest request for it so far.  A request returns
    a C-contiguous view whose contents the next request of that name
    overwrites, so whatever is computed from it, kernel values included
    (a kernel may return a view of its tuples), is used up before then."""

    def __init__(self):
        self._held = {}

    def __call__(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        held = self._held.get(name)
        if held is None or len(held) < size:
            held = self._held[name] = np.empty(size)
        return held[:size].reshape(shape)


def _ball_points(window: Window, u: np.ndarray, radius: float, anchors) -> tuple:
    """Local draws, in place: the unit variates u (..., c, dim) mapped
    uniformly into the ball of radius delta = ``radius`` around ``anchors``
    (broadcast against u), and their weights, of u's leading shape:
    (omega_d delta^d / theta(W))^c times the indicator that the c ball
    points lie in W.  The ball is _ball_map's, without BallWindow.from_unit's
    radius cap: nothing here tests the ball, only W."""
    dim = u.shape[-1]
    for a, x in enumerate(_ball_map(u, radius)):
        x += anchors[..., a].T
    # the window test of each of the c points, joined point by point
    held = window.contains(u)
    inside = held[..., 0]
    for j in range(1, held.shape[-1]):
        inside = inside & held[..., j]
    weight = (unit_ball_volume(dim) * radius**dim / window_measure(window)) ** u.shape[-2]
    return u, np.where(inside, weight, 0.0)


def _unit_points(window: Window, u: np.ndarray, radius: Optional[float], anchors=None) -> tuple:
    """(tuples, weights) of unit-cube variates u (..., arity, dim), mapped in
    place: through the window's unit-cube map without a ball ``radius``
    (weights None), else local draws (_ball_points) around ``anchors`` or
    around each tuple's first point, itself mapped into the window (u then
    has shape (m, arity, dim))."""
    if radius is None or (anchors is None and u.shape[1] == 1):
        return window.from_unit(u, out=u), None
    if anchors is not None:
        return _ball_points(window, u, radius, anchors)
    head = window.from_unit(u[:, :1], out=u[:, :1])
    return u, _ball_points(window, u[:, 1:], radius, head)[1]


def _unit_variates(rng: np.random.Generator, groups: int, n: int, axes: int, level: int) -> np.ndarray:
    """Unit-cube variates of ``groups`` batches of n draws on ``axes`` axes,
    (groups, n', axes), from one rng.random call: iid at ``level`` 1, else
    each batch stratified on its own over level^axes equal strata, stratum
    by stratum, n' = n less its remainder (ConfigError if n is below it)."""
    if level <= 1:
        return rng.random((groups, n, axes))
    count = level**axes
    n_per = n // count
    if n_per < 1:
        raise ConfigError(f"sample count {n} is below the stratum count {count} (level {level}, {axes} axes)")
    corners = np.stack(np.unravel_index(np.arange(count), (level,) * axes), axis=-1)
    return ((corners[:, None, :] + rng.random((groups, count, n_per, axes))) / level).reshape(groups, count * n_per, axes)


def _local_radius(window: Window, locality: Optional[float]) -> Optional[float]:
    """Radius delta of the ball of local draws around their anchor, or None
    for theta-uniform draws: no locality, a line window, or a ball no
    smaller than the window.  omega_d delta^d < theta(W) is tested as
    delta < (theta(W) / omega_d)^(1/d), which cannot overflow (in 1-D it is
    2 delta < theta(W), exactly)."""
    if locality is None or isinstance(window, LineWindow):
        return None
    dim = window.point_dim
    radius = float(locality)
    return radius if radius < (window_measure(window) / unit_ball_volume(dim)) ** (1.0 / dim) else None


def _refuse_overflowing_window(window: Window, order: int, variables: int) -> None:
    """ConfigError for a window whose measure theta(W) overflows an
    order-``order`` integral over ``variables`` of its variables: the
    integral scales its values by theta^variables, and its standard error
    squares them.  Called before any draw by the estimators that hold most
    variables (clt_bounds.estimate_ingredients, chaos_algebra._m_orbit_integrals)."""
    theta = window_measure(window)
    try:
        theta ** (2 * variables)
    except OverflowError:
        raise ConfigError(
            f"window {window} is too large: its measure {theta:g} to the power {2 * variables} overflows, "
            f"the square of an order-{order} integral over {variables} of its variables"
        ) from None


def _elementary_mean(v: np.ndarray, r: int) -> np.ndarray:
    """e_r(v_1..v_M) / C(M, r) over the last axis, the mean of the products
    over all r-subsets, by the recurrence e_j += v_m e_(j-1) over m, which
    has no cancellation: nonnegative v give e_r >= 0, and exactly 0 when
    fewer than r of them are nonzero.  Unbiased for mu^r when the v_m are
    independent with mean mu."""
    columns = np.moveaxis(v, -1, 0).copy()
    e = [np.ones(v.shape[:-1])] + [np.zeros(v.shape[:-1]) for _ in range(r)]
    for m, column in enumerate(columns):
        for j in range(min(m + 1, r), 0, -1):
            e[j] += column * e[j - 1]
    return e[r] / math.comb(v.shape[-1], r)


def _batch_variance(m, s, c: int, size: int, independent: bool):
    """Variance of the estimate of mu^c from iid inner values of mean mu and
    variance s, with m = mu^2: e_c(v) / C(size, c) of one batch of ``size``
    values (Hoeffding: sum_j C(c,j) C(size-c,c-j) / C(size,c) zeta_j, with
    zeta_j = (m + s)^j m^(c-j) - m^c), or with ``independent`` the product of
    c means of independent batches of ``size``, (m + s/size)^c - m^c.  Both
    are expanded into nonnegative terms in s^t, t >= 1, so they are exactly
    0 where s is."""
    if independent:
        return sum(math.comb(c, t) * (s / size) ** t * m ** (c - t) for t in range(1, c + 1))
    return sum(
        math.comb(c, j) * math.comb(size - c, c - j) / math.comb(size, c)
        * sum(math.comb(j, t) * s**t * m ** (c - t) for t in range(1, j + 1))
        for j in range(1, c + 1)
    )


def _spread(x: np.ndarray) -> np.ndarray:
    """Plug-in variance (ddof 0) over the last axis, exactly 0 where all values are equal."""
    return np.where(x.max(axis=-1) == x.min(axis=-1), 0.0, x.var(axis=-1))


def _inner_values(fn, order: int, window: Window, y: np.ndarray, variates, radius: Optional[float], scratch) -> np.ndarray:
    """theta^r fn(y_j, x) times the draw weight, shape (len(y), M):
    ``variates()`` gives the unit variates (len(y), M, r * dim) of the inner
    batches, mapped in place by _unit_points around each row's y_j[0] (a
    ball ``radius`` or None).  The tuples are built in the "inner" buffer
    of the _Scratch ``scratch``: every row for
    theta-uniform draws, else only the live rows, each gathered by np.take
    of its y row and of its drawn points, so y must not live in that
    buffer."""
    m, shared, dim = y.shape
    r = order - shared
    xs = variates()
    xs, weights = _unit_points(window, xs.reshape(*xs.shape[:2], r, dim), radius, y[:, None, :1])
    per = xs.shape[1]
    theta_r = window_measure(window) ** r

    def tuples(live) -> np.ndarray:
        # row t of the batch joins y[t // per]
        if live is None:
            out = scratch("inner", (m, per, order, dim))
            out[:, :, :shared] = y[:, None]
            out[:, :, shared:] = xs
            return out.reshape(m * per, order, dim)
        out = scratch("inner", (len(live), order, dim))
        out[:, :shared] = np.take(y, live // per, axis=0)
        out[:, shared:] = np.take(xs.reshape(m * per, r, dim), live, axis=0)
        return out

    return _weighted_values(lambda live: theta_r * fn(tuples(live)), None if weights is None else weights.reshape(-1)).reshape(m, per)


def _pilot_batch_size(fn, order: int, window: Window, integrator: Integrator, q: int, plan, path, radius) -> int:
    """Inner batch size M of a nested _product_integral's main pass, chosen
    by a pilot on its own stream path + ("pilot",).

    The candidates are the powers of two from the slot list's copy count c
    to NESTED_INNER; under ``strata`` > 1 only those that stratify the inner
    batch (M >= L^(r*d)), or NESTED_INNER alone if none does.  A single
    candidate, or a plan of several slot lists, keeps NESTED_INNER and draws
    no pilot.  The pilot draws ``samples`` plain outer rows, each with one
    plain inner batch of NESTED_INNER values, and takes per row the plug-in
    mean mu and variance s of those values.  A row's estimate at batch size
    M, w U_M with w the outer draw weight, has conditional variance
    w^2 Var(U_M | y) (_batch_variance), and its spread over rows is
    V_M = A + mean_rows(w^2 Var(U_M | y)), with the between-row part
    A = max(0, var_rows(w U_16) - mean_rows(w^2 Var(U_16 | y))).  At a fixed
    count of kernel rows the main pass's variance is proportional to
    V_M * M; the smallest wins, a tie (or a pilot that shows no spread, or
    one whose values are not finite) keeping the larger M.
    """
    if len(plan) > 1:
        return NESTED_INNER
    ((sl, c, r),) = plan
    sizes = [1 << e for e in range(NESTED_INNER.bit_length()) if c <= 1 << e <= NESTED_INNER]
    stratified = integrator.strata > 1
    if stratified:
        sizes = [M for M in sizes if M >= integrator.strata ** (r * window.point_dim)] or [NESTED_INNER]
    if len(sizes) == 1:
        return sizes[0]
    rng = integrator.rng(*path, "pilot")
    n, dim = integrator.samples, window.point_dim
    # iid outer rows; a local tuple draws its anchors, then its ball points
    heads = q if radius is None else 1
    u = np.concatenate([_unit_variates(rng, 1, n, heads * dim, 1), _unit_variates(rng, 1, n, (q - heads) * dim, 1)], axis=-1)
    ys, weights = _unit_points(window, u.reshape(n, q, dim), radius)
    w = np.ones(n) if weights is None else weights
    # per row mu^2, s and U_16; rows of zero weight keep 0 and draw no inner batch
    m, s, u = np.zeros(n), np.zeros(n), np.zeros(n)
    live = np.flatnonzero(w)
    scratch = _Scratch()
    for start in range(0, len(live), CHUNK_DRAWS):
        rows = live[start : start + CHUNK_DRAWS]
        y = np.take(np.take(ys, rows, axis=0), sl, axis=1)
        v = _inner_values(fn, order, window, y, lambda: _unit_variates(rng, len(y), NESTED_INNER, r * dim, 1), radius, scratch)
        m[rows], s[rows], u[rows] = v.mean(axis=1) ** 2, _spread(v), _elementary_mean(v, c)

    def within(M: int, independent: bool) -> float:
        return float(np.mean(w * w * _batch_variance(m, s, c, M, independent)))

    between = max(0.0, float(_spread(w * u)) - within(NESTED_INNER, False))
    return min(reversed(sizes), key=lambda M: (between + within(M, stratified)) * M)


def _product_integral(fn, order: int, window: Window, integrator: Integrator, q: int, slots, path, scale: float = 1.0, repeat: int = 1, locality: Optional[float] = None, first_mean: bool = False):
    """Estimate of scale * int prod_l (int fn(y[slots_l], x_l) dtheta^(order-|slots_l|)) dtheta^q(y).

    ``fn`` maps (m, order, dim) tuples to m values; factor l puts the shared
    variables y[slots_l] first and its own free variables x_l after them.
    The c factors on one slot list multiply c copies of one kernel
    evaluation if they have no free variables.  Otherwise the integral is
    nested (Integrator): a pilot on stream path + ("pilot",) picks the inner
    batch size M (_pilot_batch_size), and the main pass draws
    NESTED_REPEAT * NESTED_INNER / M times ``repeat`` times ``samples``
    outer points, each with one inner batch of M draws per slot list.  Only
    this main pass enters the estimate.

    The main pass is one Integrator._integrate on stream path + (0,), whose
    integrand maps each row's inner batches of unit variates, like its
    outer draws, through _unit_points (_inner_values); only their source
    and estimator depend on the rule.  Under the lattice rule (Integrator)
    each lattice draw holds the q shared variables and, slot list by slot
    list in order of first appearance, its inner batch of M draws of the
    free variables, (q + M sum_g r_g) d unit variates in all, and the
    estimate of the c-th power of an inner integral is e_c(v) / C(M, c) of
    its batch.  Under ``strata`` > 1 each outer batch is stratified on its
    own, and slot list g draws c independent inner batches on stream
    path + (g,), 1-based in order of first appearance, whose means multiply.
    ``locality`` switches on local draws around the first shared variable,
    so every shared variable must share a factor with it (ConfigError).

    ``first_mean`` returns (that estimate, the estimate of
    int (int fn(y[slots_1], x) dtheta^(order-|slots_1|)) dtheta^q(y),
    unscaled), the second read off the same pass with no kernel call of its
    own: per outer row the mean of the first slot list's kernel values, the
    inner batch's mean for a nested factor (under ``strata`` > 1 the average
    of its c batch means) or the kernel value itself for a factor without
    free variables; its standard error follows the same rule over the same
    outer rows.  For T_1 (q = 1, slots_1 = (0,)) it is int fn dtheta^order,
    the mean of the U-statistic at unit rate.

    A factor without free variables is evaluated only on the rows whose
    product so far is nonzero; the others keep their value, so a kernel
    value that is not finite on such a row is never computed and raises no
    IntegrationError.  Nested factors draw their inner batches for every row.

    Rows are gathered by np.take into buffers of the integral's _Scratch,
    reused across its chunks: a factor without free variables takes its
    live rows along axis 0 (the "live" buffer, skipped when every row is
    live), then every factor takes its slot list along axis 1 (the "slots"
    buffer), and _inner_values builds the inner-batch tuples in the "inner"
    buffer.  Each slot list's kernel values are multiplied into the product
    before the next gather, and the first mean is copied, so a kernel may
    return a view of its tuples.
    """
    radius = _local_radius(window, locality)
    copies = {}
    for sl in slots:
        copies[tuple(sl)] = copies.get(tuple(sl), 0) + 1
    plan = [(list(sl), c, order - len(sl)) for sl, c in copies.items()]
    if locality is not None:
        unlinked = sorted(set(range(q)).difference(*(sl for sl, _, _ in plan if 0 in sl)))
        if unlinked:
            raise ConfigError(f"local draws need every shared variable in a factor with the first; {unlinked} share none")
    nested = any(r for _, _, r in plan)
    size = _pilot_batch_size(fn, order, window, integrator, q, plan, path, radius) if nested else NESTED_INNER
    lattice = integrator.strata <= 1
    streams = [integrator.rng(*path, g) if r and not lattice else None for g, (_, _, r) in enumerate(plan, start=1)]
    dim = window.point_dim
    scratch = _Scratch()

    def slots(ys: np.ndarray, sl) -> np.ndarray:
        # the slot list's columns of the rows ys, gathered into the "slots" buffer
        return np.take(ys, sl, axis=1, out=scratch("slots", (len(ys), len(sl), dim)), mode="clip")

    def integrand(ys: np.ndarray, variates) -> np.ndarray:
        out = np.ones(len(ys))
        at = 0  # the next slot list's first column of variates
        for g, ((sl, c, r), rng) in enumerate(zip(plan, streams)):
            keep = first_mean and g == 0
            if r == 0:
                # != 0, not > 0: a product of signed kernel values can be negative
                live = None if out.all() else np.flatnonzero(out)
                part = out if live is None else np.take(out, live)
                if len(part):
                    rows = ys if live is None else np.take(ys, live, axis=0, out=scratch("live", (len(live), q, dim)), mode="clip")
                    means = fn(slots(rows, sl))
                else:
                    means = part
                for _ in range(c):
                    part = part * means
                if live is None:
                    out = part
                else:
                    np.put(out, live, part)
            else:
                y = slots(ys, sl)
                if lattice:
                    # one batch for the c copies; batch j of row t: the variates' (t, j) block
                    block = variates[:, at : at + size * r * dim].reshape(len(y), size, r * dim)
                    at += size * r * dim
                    v = _inner_values(fn, order, window, y, lambda: block, radius, scratch)
                    out *= _elementary_mean(v, c)
                    means = v.mean(axis=1) if keep else None
                else:
                    # c batches, stratified only when their M draws fill the L^(r*d) strata
                    level = integrator.strata if size >= integrator.strata ** (r * dim) else 1
                    batches = [_inner_values(fn, order, window, y, lambda: _unit_variates(rng, len(y), size, r * dim, level), radius, scratch).mean(axis=1) for _ in range(c)]
                    for batch in batches:
                        out *= batch
                    means = sum(batches) / c if keep else None
            if keep:
                # a copy: a kernel may return a view of the "slots" buffer
                first = np.array(means, dtype=float)
        return np.stack([out, first]) if first_mean else out

    extra = size * sum(r for _, _, r in plan) * dim if lattice else 0
    batches = NESTED_REPEAT * NESTED_INNER // size * repeat if nested else repeat
    est = integrator._integrate(integrand, window, q, (*path, 0), batches, locality, extra)
    if first_mean:
        return est[0].scaled(scale), est[1]
    return est.scaled(scale)


# ---------------------------------------------------------------------------
# tuple enumeration

# subsets per enumerated batch, and tuples per kernel call of _evaluate_many and _ordered_prefix_sums
_SUBSET_BATCH = 1 << 15
# most partner runs, points times (3^(d-1) + 1) / 2, of one local grid of _evaluate_many
_GROUP_RUNS = 1 << 13


def _anchor_subsets(k: int, anchors: np.ndarray, lo: np.ndarray, hi: np.ndarray, partner: np.ndarray):
    """Yield intp index rows (m, k): each anchor followed by each (k-1)-subset
    of its partners partner[lo[a]:hi[a]] (a the anchor's position), in anchor
    order, then lexicographic in positions, in batches of exactly
    _SUBSET_BATCH rows but the last.  A pass extends a group of partial rows
    by every later position that leaves room for the rest; a group whose
    complete rows, C(free positions, positions to choose) per partial row,
    exceed _SUBSET_BATCH is first cut into consecutive groups of at most
    that many, or of one partial row, so memory stays at about one batch per
    pass."""
    carry = None  # complete rows not yet yielded
    todo = [(anchors[:, None], lo, hi)]  # groups of partial rows and their free positions, next last
    while todo:
        head, start, stop = todo.pop()
        need = k - head.shape[1]
        if need and len(head):
            span = stop - start
            done = span
            for j in range(1, need):
                done = done * (span - j) // (j + 1)
            ends = done.cumsum()
            if len(head) > 1 and ends[-1] > _SUBSET_BATCH:
                cuts = [0]
                while cuts[-1] < len(head):
                    base = ends[cuts[-1] - 1] if cuts[-1] else 0
                    cuts.append(max(cuts[-1] + 1, int(ends.searchsorted(base + _SUBSET_BATCH, "right"))))
                todo += [(head[a:b], start[a:b], stop[a:b]) for a, b in reversed(list(zip(cuts, cuts[1:])))]
                continue
            fan = np.maximum(span - (need - 1), 0)
            last = fan.cumsum()
            at = np.repeat(start + fan - last, fan) + np.arange(last[-1])
            head = np.column_stack([head.repeat(fan, axis=0), partner[at]])
            if need > 1:
                todo.append((head, at + 1, stop.repeat(fan)))
                continue
        if len(head):
            carry = head if carry is None else np.concatenate([carry, head])
            while len(carry) >= _SUBSET_BATCH:
                yield carry[:_SUBSET_BATCH]
                carry = carry[_SUBSET_BATCH:]
    if carry is not None and len(carry):
        yield carry


def _subset_batches(n: int, k: int):
    """Yield the k-subsets of range(n) as lexicographic index rows: every later point is a partner."""
    everyone = np.arange(n, dtype=np.intp)
    return _anchor_subsets(k, everyone, everyone + 1, np.full(n, n), everyone)


def _local_subset_batches(points: np.ndarray, delta: float, k: int, sizes):
    """Yield index arrays (m, k) covering every k-subset of diameter <= delta
    of each of the stacked point arrays, of positive ``sizes``.

    Points are binned on an axis-aligned grid with cell edge delta and ranked
    by cell id, ties in input order.  A subset of diameter <= delta lies in
    the 3^d cell neighbourhood of its lowest-ranked point, and its other
    points sit in cells of equal or higher id there.  Those points are the
    anchor's partners, and a candidate subset is an anchor plus k - 1 of its
    partners, so each subset is enumerated once.  Candidates wider than
    delta contribute exactly 0 under the locality contract.  The anchors, in
    rank order, and their flattened partner runs go to _anchor_subsets.

    Each array (owner) shrinks its own gaps and is the slowest digit of the
    mixed-radix cell id, so cells of different owners are never adjacent and
    an owner's rows come consecutively, in owner order, as the rows of its
    array alone (shifted by its offset); only batch boundaries differ.
    A grid whose stacked ids reach 1 << 62 raises CapacityError; the
    groups of _evaluate_many are too small for that unless they hold a single
    array.
    """
    n, d = points.shape
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.concatenate(([0], sizes.cumsum()))
    owner = np.repeat(np.arange(len(sizes)), sizes)
    keys = np.floor(points / delta).astype(np.int64)
    # per axis and owner, shrink gaps of two or more cells to exactly two:
    # adjacency is unchanged and the mixed-radix cell id below stays small
    for a in range(d):
        rank = np.lexsort((keys[:, a], owner))
        shrunk = np.concatenate(([0], np.cumsum(np.minimum(np.diff(keys[rank, a]), 2))))
        keys[rank, a] = 1 + shrunk - np.repeat(shrunk[starts[:-1]], sizes)
    radix = keys.max(axis=0) + 2
    per_owner = math.prod(radix.tolist())
    if len(sizes) * per_owner >= 1 << 62:
        raise CapacityError(f"grid of {n} points in dimension {d} has too many cells to index")
    weights = np.concatenate(([1], np.cumprod(radix[:-1])))
    cell = keys @ weights + owner * per_owner
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    # ids are mixed radix with axis 0 fastest, so the three cells along axis 0
    # at a fixed offset h of the other axes have consecutive ids: the
    # partners of rank r are the run from r + 1 to the end of its cell id + 1,
    # plus one three-cell run for each h that raises the id; every key digit
    # has a margin of one cell, so no run leaves its owner
    others = np.array(list(itertools.product((-1, 0, 1), repeat=d - 1)), dtype=np.int64)
    raise_id = others.reshape(3 ** (d - 1), d - 1) @ weights[1:]
    raise_id = raise_id[raise_id > 0]
    lo = np.column_stack([np.arange(1, n + 1), np.searchsorted(cell, cell[:, None] + raise_id - 1, "left")])
    hi = np.column_stack([np.searchsorted(cell, cell + 1, "right"), np.searchsorted(cell, cell[:, None] + raise_id + 1, "right")])
    lo, hi = lo.ravel(), hi.ravel()
    counts = hi - lo
    ends = counts.cumsum()
    partner = order[np.arange(ends[-1]) + np.repeat(lo - ends + counts, counts)]
    ends = ends.reshape(n, -1)[:, -1]  # where each anchor's partners end
    return _anchor_subsets(k, order, np.concatenate(([0], ends[:-1])), ends, partner)


def evaluate(kernel: UStatKernel, config: PointConfiguration, *, exhaustive: bool = False) -> float:
    """Sum of the kernel over ordered tuples of distinct configuration points.

    Computed as k! times the sum over unordered subsets, which requires the
    declared symmetry.  Local kernels sum only over subsets whose points lie
    in adjacent cells of a grid with edge ``locality`` (found by sorting the
    points by cell id) unless ``exhaustive`` is set; both paths sum the same
    nonzero terms.  This is the one-configuration case of _evaluate_many.
    """
    return _evaluate_many(kernel, config.points, [config.size], exhaustive=exhaustive)[0]


def _evaluate_many(kernel: UStatKernel, points: np.ndarray, sizes, *, exhaustive: bool = False) -> list:
    """evaluate for each cell of ``points``, an (N, d) array whose
    consecutive rows hold cells of ``sizes`` points, as a list of floats.

    Each value is k! times the fsum of the cell's batch sums: the sums of
    its rows of _subset_batches (or _local_subset_batches) in consecutive
    slices of _SUBSET_BATCH rows, the fixed batches of the one enumerator
    _anchor_subsets, so it does not depend on which other cells are
    passed.  Exhaustive sums group the cells by size: each subset batch is
    indexed once per size and applied to as many same-size cells as fit in
    one kernel call of at most _SUBSET_BATCH tuples, whose row sums are each
    cell's batch sums.  Local kernels stack consecutive cells of at least
    k points in groups of at most _GROUP_RUNS partner runs (a larger cell
    alone), each a slice of ``points`` where no smaller cell lies between
    them, and enumerate each group on one grid; a kernel call takes one
    batch of the group's rows, and _owner_slice_sums cuts each cell's
    slices out of the calls' values.

    Every kernel call gathers its tuples into one buffer of at most
    _SUBSET_BATCH tuples, allocated once per call of _evaluate_many (as is
    the exhaustive path's buffer of index rows), by np.take along axis 0
    (the same copy as fancy indexing, but faster in numpy) in "clip" mode:
    the indices are in range by construction, and "raise" mode would copy
    through a fresh temporary.  A kernel may return a view of its tuples,
    so each call's values are reduced before the next gather overwrites
    them.  A cell whose sum is not finite raises IntegrationError naming
    its index and point count.
    """
    if not kernel.symmetric:
        raise ConfigError("evaluate needs a symmetric kernel")
    k = kernel.order
    d = points.shape[1]
    sizes = np.asarray(sizes, dtype=np.intp)
    starts = np.concatenate(([0], sizes.cumsum()))
    # no kernel call takes more tuples than the k-subsets of all the points
    batch = min(_SUBSET_BATCH, math.comb(len(points), k))
    tuples = np.empty(batch * k * d)

    def gather(rows, idx):
        out = tuples[: idx.size * d].reshape(*idx.shape, d)
        return kernel(np.take(rows, idx, axis=0, out=out, mode="clip"))

    parts = [[] for _ in sizes]
    if kernel.locality is not None and not exhaustive:
        # a grid stores (3^(d-1) + 1) / 2 partner runs per point; holding at
        # most _GROUP_RUNS of them keeps a grid of several cells near one
        # batch of tuples in size, and its stacked ids, at most C (2C - 1)^d
        # for C points, far below 1 << 62 (2e15 at most, in dimension 5)
        per_point = (3 ** (d - 1) + 1) // 2
        groups, held = [], _GROUP_RUNS
        for i in np.flatnonzero(sizes >= k).tolist():
            runs = int(sizes[i]) * per_point
            if held + runs > _GROUP_RUNS:
                groups.append([])
                held = 0
            groups[-1].append(i)
            held += runs
        for group in groups:
            counts = sizes[group]
            lo, hi = starts[group[0]], starts[group[-1] + 1]
            if hi - lo > counts.sum():  # smaller cells lie between the group's
                rows = np.concatenate([points[starts[i] : starts[i + 1]] for i in group])
            else:
                rows = points[lo:hi]
            owner = np.repeat(group, counts)
            batches = (
                (owner[idx[:, 0]], gather(rows, idx))
                for idx in _local_subset_batches(rows, kernel.locality, k, counts)
            )
            for i, v in _owner_slice_sums(batches):
                parts[i].append(v)
    else:
        at = np.empty(batch * k, dtype=np.intp)
        by_size = {}
        for i, n in enumerate(sizes.tolist()):
            by_size.setdefault(n, []).append(i)
        for n, members in by_size.items():
            first = starts[members]
            for idx in _subset_batches(n, k):
                step = max(1, _SUBSET_BATCH // len(idx))
                for s in range(0, len(members), step):
                    group = members[s : s + step]
                    # row indices into points, so that the tuples are
                    # C-ordered as pts[idx] is for a single cell
                    rows = np.add(first[s : s + len(group), None, None], idx, out=at[: len(group) * idx.size].reshape(len(group), *idx.shape))
                    sums = gather(points, rows.reshape(-1, k)).reshape(len(group), len(idx)).sum(axis=1)
                    for i, v in zip(group, sums.tolist()):
                        parts[i].append(v)
    values = []
    for i, p in enumerate(parts):
        try:
            value = math.factorial(k) * math.fsum(p)
        except (OverflowError, ValueError):  # fsum's partials overflow, or add inf to -inf
            value = math.nan
        if not math.isfinite(value):
            raise IntegrationError(f"non-finite kernel sum on configuration {i} ({sizes[i]} points)")
        values.append(value)
    return values


def _owner_slice_sums(batches):
    """Yield (owner, sum) for every _SUBSET_BATCH consecutive values of one
    owner (its last slice possibly shorter), from (owners, values) batches
    of one stream in which each owner's values are consecutive.  A slice is
    summed as one contiguous array, as if its owner's values had come alone
    in batches of _SUBSET_BATCH, whatever the batch boundaries."""
    held, current = np.zeros(0), None
    for owners, values in batches:
        cuts = np.flatnonzero(owners[1:] != owners[:-1]) + 1
        for own, vals in zip(owners[np.concatenate(([0], cuts))].tolist(), np.split(values, cuts)):
            if own != current and len(held):
                yield current, float(held.sum())
                held = held[:0]
            held, current = np.concatenate([held, vals]), own
            while len(held) >= _SUBSET_BATCH:
                yield current, float(held[:_SUBSET_BATCH].sum())
                held = held[_SUBSET_BATCH:]
    if len(held):
        yield current, float(held.sum())


# ---------------------------------------------------------------------------
# difference operators


def _ordered_prefix_sums(kernel: UStatKernel, config: PointConfiguration, fixed: np.ndarray) -> np.ndarray:
    """For each fixed prefix (shape (m, i, d)), the sum of f(prefix, xs) over
    ordered (k-i)-tuples xs of distinct configuration points.  A kernel call
    joins one subset batch to as many prefixes as fit in _SUBSET_BATCH
    tuples; a prefix's sum does not depend on how many share the call."""
    fixed = np.asarray(fixed, dtype=float)
    m, i, d = fixed.shape
    k = kernel.order
    r = k - i
    if r == 0:
        return kernel(fixed)
    out = np.zeros(m)
    for idx in _subset_batches(config.size, r):
        sub = np.take(config.points, idx, axis=0)
        count = len(idx)
        step = max(1, _SUBSET_BATCH // count)
        for s in range(0, m, step):
            fb = fixed[s : s + step]
            mm = len(fb)
            # C-contiguous, as evaluate's tuples are: a kernel that reduces
            # over a tuple then sums in the same order on both
            tup = np.empty((mm, count, k, d))
            tup[:, :, :i] = fb[:, None]
            tup[:, :, i:] = sub
            out[s : s + step] += kernel(tup.reshape(mm * count, k, d)).reshape(mm, count).sum(axis=1)
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


def expectation(kernel: UStatKernel, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """E F = lam^k int f dtheta^k, read off T_1's pass (see variance_terms);
    equals Ingredients.moments' mean bit for bit."""
    return _lam_polynomial([(kernel.order, _variance_term(kernel, intensity.window, integrator, 1, first_mean=True)[1])], float(intensity.lam), "E F")


def ou_generator(kernel: UStatKernel, config: PointConfiguration, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Ornstein-Uhlenbeck generator L F at the configuration.

    L F = -k F + k int sum_{(k-1)-tuples} f(xs, z) dmu(z); the integral is
    estimated by Monte Carlo over z.
    """
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
    k = kernel.order
    harmonic = math.fsum(1.0 / m for m in range(1, k + 1))
    terms = [(k, integrator.integrate(kernel, intensity.window, k, path=("ou-inverse", 0), locality=kernel.locality).scaled(harmonic))]
    for m in range(1, k):
        est = integrator.integrate(lambda ys: _ordered_prefix_sums(kernel, config, ys), intensity.window, k - m, path=("ou-inverse", m))
        terms.append((k - m, est.scaled(-1.0 / m)))
    est = _lam_polynomial(terms, float(intensity.lam), "L^-1 F")
    return Estimate(est.value - evaluate(kernel, config) / k, est.se, est.n)


def chaos_kernel(kernel: UStatKernel, i: int, ys, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Projection kernel f_i(ys) = C(k,i) int f(ys, xs) dmu^{k-i}(xs).

    Exact (zero standard error) for i = k, identically zero for i > k,
    Monte Carlo otherwise.
    """
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
    return _lam_polynomial([(k - i, est)], float(intensity.lam), f"f_{i}").scaled(math.comb(k, i))


# ---------------------------------------------------------------------------
# variance


def variance_terms(kernel: UStatKernel, window: Window, integrator: Integrator, *, with_mean: bool = False):
    """Rate-free variance terms T_i = i! C(k,i)^2 int (int f dtheta^{k-i})^2 dtheta^i.

    Var F = sum_i lam^(2k-i) T_i.  For i < k the inner integral's square is
    the nested estimate of _product_integral, unbiased and linear in
    ``samples``.  Index 0 of the returned list is T_1.

    ``with_mean`` returns (mean, terms) instead, with mean the estimate of
    int f dtheta^k read off T_1's pass at no kernel call of its own: for
    k > 1 the average of each outer point's inner-batch mean, an unbiased
    estimate of int f(y, .) dtheta^(k-1).
    """
    if with_mean:
        first, mean = _variance_term(kernel, window, integrator, 1, first_mean=True)
    else:
        first = _variance_term(kernel, window, integrator, 1)
    terms = [first] + [_variance_term(kernel, window, integrator, i) for i in range(2, kernel.order + 1)]
    return (mean, terms) if with_mean else terms


def _variance_term(kernel: UStatKernel, window: Window, integrator: Integrator, i: int, first_mean: bool = False):
    """The one term T_i of :func:`variance_terms`, on its stream ("variance", i);
    ``first_mean`` adds the mean of its first factor's kernel values (_product_integral)."""
    k = kernel.order
    return _product_integral(
        kernel, k, window, integrator, i, [range(i)] * 2, ("variance", i),
        scale=math.factorial(i) * math.comb(k, i) ** 2, locality=kernel.locality, first_mean=first_mean,
    )


def assemble_variance(terms, lam: float) -> Estimate:
    """Var F = sum_i lam^(2k-i) T_i from the rate-free terms T_1..T_k."""
    return _lam_polynomial([(2 * len(terms) - i, t) for i, t in enumerate(terms, start=1)], lam, "Var F")


def variance(kernel: UStatKernel, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Var F = sum_i lam^(2k-i) T_i from the chaos decomposition (Ingredients.moments' variance)."""
    return assemble_variance(variance_terms(kernel, intensity.window, integrator), float(intensity.lam))


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
