"""Wasserstein bounds for normalized U-statistic sums.

Three assembly modes share one report type:

* general: 2 k^{7/2} sum_{i<=j} sqrt(M_ij) / Var F at the full intensity,
  where each M_ij = C(k,i)^2 C(k,j)^2 sum_o lam^(v_o) I_o is a polynomial
  in lam whose coefficients are lam-free block-type orbit integrals I_o;
* geometric: for any kernel (its ``fn`` is lambda-free) and lam >= 1 the
  same shape factors as lam^{-1/2} times a lam-free constant, with M and
  the leading variance coefficient V-tilde evaluated at unit intensity;
* local: for a kernel supported on tuples of diameter <= delta, a sum of
  per-order terms lam^{1 - 3i/2} max(1, b^{i/2}) weighted by the fourth
  powers of the rescaled chaos kernels, where b is the largest mass a
  4*delta-ball can carry.

Every mode depends on lam only through explicit powers: estimate_ingredients
estimates its lam-free integrals once into an Ingredients record, whose
report method assembles the bound at any lam; each *_bound function is that
estimation followed by one report.

A small Monte Carlo oracle (r_terms_small) simulates the inner-product
fluctuation terms that the M quantities dominate, on cell-grid kernels
where the chaos integrals reduce to finite sums.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ._streams import _cell_streams
# enumerate_pi_bar, m_ij and (below) variance are no longer called here; the imports stay
# because the benchmark's tracing wraps them at these import sites (perfbench/tracing.py SITES)
from .chaos_algebra import MAX_INGREDIENT_ROWS, SimpleFunction, _assemble_m, _block_type_orbits, _m_orbit_integrals, cell_counts, enumerate_pi_bar, m_ij
from .errors import (
    AssumptionViolationError,
    CapacityError,
    ConfigError,
    DegenerateFunctionalError,
    LocalityError,
    _as_config_error,
)
from .point_process import IntensityModel, LineWindow, Window, _buffer_rows, sample_points, unit_ball_volume
from .ustat_core import NESTED_INNER, NESTED_REPEAT, Estimate, Integrator, UStatKernel, _lam_polynomial, _product_integral, _refuse_overflowing_window, assemble_variance, variance, variance_terms

__all__ = [
    "MTerm",
    "LocalTerm",
    "BoundReport",
    "Ingredients",
    "estimate_ingredients",
    "wasserstein_bound",
    "geometric_bound",
    "local_bound",
    "default_local_constant",
    "r_terms_small",
]


@dataclass(frozen=True)
class MTerm:
    """One fourth-moment entry with its Monte Carlo error."""

    i: int
    j: int
    value: float
    se: float


@dataclass(frozen=True)
class LocalTerm:
    """One order's contribution to the local bound."""

    i: int
    norm: float  # L2 norm of the squared rescaled chaos kernel
    norm_se: float
    weight: float  # lam^{1 - 3i/2} * max(1, b^{i/2})
    contribution: float


@dataclass(frozen=True)
class BoundReport:
    """Assembled distance bound with its ingredients.

    The JSON form carries exactly the fields mode, k, lambda, variance,
    variance_se, m, bound, vtilde, b_delta, c_k; the remaining attributes
    (rate_factor, delta, local_terms, vtilde_se, notes) are in-process
    detail for callers and tests.
    """

    mode: str
    k: int
    lam: float
    variance: float
    variance_se: float
    m: tuple
    bound: float
    vtilde: Optional[float] = None
    b_delta: Optional[float] = None
    c_k: Optional[float] = None
    vtilde_se: float = field(default=0.0, compare=False)
    rate_factor: Optional[float] = None
    delta: Optional[float] = None
    local_terms: tuple = ()
    notes: str = field(default="", compare=False)

    def __post_init__(self):
        if self.mode not in ("general", "geometric", "local"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if not self.bound >= 0:
            raise ConfigError(f"bound must be nonnegative, got {self.bound}")
        if not self.variance > 0:
            raise ConfigError(f"variance must be positive, got {self.variance}")
        for term in self.m:
            if term.value < 0:
                raise ConfigError(f"M_{term.i}{term.j} is negative: {term.value}")
        object.__setattr__(self, "m", tuple(self.m))
        object.__setattr__(self, "local_terms", tuple(self.local_terms))

    def to_json(self) -> str:
        doc = {
            "mode": self.mode,
            "k": self.k,
            "lambda": self.lam,
            "variance": self.variance,
            "variance_se": self.variance_se,
            "m": [{"i": t.i, "j": t.j, "value": t.value, "se": t.se} for t in self.m],
            "bound": self.bound,
            "vtilde": self.vtilde,
            "b_delta": self.b_delta,
            "c_k": self.c_k,
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "BoundReport":
        with _as_config_error("report JSON"):
            doc = json.loads(text)
            required = {"mode", "k", "lambda", "variance", "variance_se", "m", "bound", "vtilde", "b_delta", "c_k"}
            missing = required - set(doc)
            if missing:
                raise ConfigError(f"report JSON misses fields: {sorted(missing)}")
            terms = tuple(MTerm(int(t["i"]), int(t["j"]), float(t["value"]), float(t["se"])) for t in doc["m"])
            return cls(
                mode=doc["mode"],
                k=int(doc["k"]),
                lam=float(doc["lambda"]),
                variance=float(doc["variance"]),
                variance_se=float(doc["variance_se"]),
                m=terms,
                bound=float(doc["bound"]),
                vtilde=None if doc["vtilde"] is None else float(doc["vtilde"]),
                b_delta=None if doc["b_delta"] is None else float(doc["b_delta"]),
                c_k=None if doc["c_k"] is None else float(doc["c_k"]),
            )


def _sqrt_estimate(value: float, se: float) -> tuple:
    """Delta-method square root of a nonnegative Monte Carlo estimate."""
    v = max(value, 0.0)
    root = math.sqrt(v)
    if root > 0:
        return root, se / (2.0 * root)
    return 0.0, math.sqrt(max(se, 0.0))


def _sign_note(kernel: UStatKernel, window, integrator: Integrator) -> str:
    rng = integrator.rng("sign-check")
    pts = window.sample(rng, 256 * kernel.order).reshape(256, kernel.order, -1)
    if np.min(kernel(pts)) < 0:
        return "kernel attains negative values; fourth-moment terms integrate its absolute value"
    return ""


def wasserstein_bound(kernel: UStatKernel, intensity: IntensityModel, integrator: Integrator) -> BoundReport:
    """Distance bound from fourth-moment terms at the full intensity.

    bound = 2 k^{7/2} sum_{1<=i<=j<=k} sqrt(M_ij) / Var F, both assembled at
    lam from the "general" Ingredients.  The variance must clear three
    standard errors of zero; a flat kernel is refused because the
    normalized sum does not exist.
    """
    return estimate_ingredients(kernel, intensity.window, integrator, "general").report(intensity.lam)


@lru_cache(maxsize=None)
def default_local_constant(k: int) -> float:
    """Documented default for the local mode's order constant.

    2 k^{7/2} times the total count of connected diagrams over the
    (i, i, j, j) factor sizes, summed over 1 <= i <= j <= k (as the weights
    of their block-type orbits); callers with sharper constants may override.
    """
    total = 0
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            total += sum(weight for _, weight in _block_type_orbits((i, i, j, j)))
    return 2.0 * k**3.5 * total


def _fourth_power_norms(kernel: UStatKernel, window, integrator: Integrator) -> list:
    """Estimates of int (f~_i)^4 dtheta^i for i = 1..k at unit intensity.

    The order-i rescaled chaos kernel f~_i(y) = C(k,i) int f(y, x) dtheta^{k-i}
    enters through its fourth power, for i < k the nested estimate of
    _product_integral with four copies on one slot list (e_4 of one shared
    inner batch, or four independent stratified batches under ``strata`` > 1).
    """
    k = kernel.order
    return [
        _product_integral(
            kernel, k, window, integrator, i, [range(i)] * 4, ("fourth-power", i),
            scale=math.comb(k, i) ** 4, locality=kernel.locality,
        )
        for i in range(1, k + 1)
    ]


@dataclass(frozen=True)
class Ingredients:
    """The lambda-free integrals of one (kernel, window, integrator).

    E F = lam^k mean and Var F = sum_i lam^(2k-i) terms[i-1]; mean =
    int f dtheta^k is read off the kernel values of T_1's pass
    (variance_terms), not drawn on its own.
    A "local" record adds the norms
    int (f~_i)^4 dtheta^i, a "general" or "geometric" one the triples (i, j,
    orbit integrals of the lam polynomial M_ij); local and geometric records
    passed the check that vtilde = T_1 clears three standard errors of zero.
    """

    kernel: UStatKernel
    window: Window
    mean: Estimate
    terms: tuple
    mode: Optional[str] = None
    norms: tuple = ()
    m: tuple = ()
    notes: str = ""

    def moments(self, lam: float) -> tuple:
        """Formula mean and variance estimate at rate lam."""
        return _lam_polynomial([(self.kernel.order, self.mean)], lam, "E F").value, assemble_variance(self.terms, lam)

    def report(self, lam: float, c_k: Optional[float] = None) -> BoundReport:
        """Bound at lam (lam >= 1 in the rate forms); c_k (local mode) defaults to default_local_constant(k)."""
        if self.mode is None:
            raise ConfigError("these ingredients carry no bound")
        lam = float(lam)
        k = self.kernel.order
        var = assemble_variance(self.terms, lam)
        # the geometric mode reads its M~_ij at unit intensity
        at = lam if self.mode == "general" else 1.0
        m = []
        for i, j, orbit_integrals in self.m:
            est = _assemble_m(k, i, j, orbit_integrals, at)
            m.append(MTerm(i, j, est.value, est.se))
        root_sum = 2.0 * k**3.5 * math.fsum(_sqrt_estimate(t.value, t.se)[0] for t in m)
        vtilde = self.terms[0]
        if self.mode == "general":
            if not var.value > 3.0 * var.se:
                raise DegenerateFunctionalError(f"variance {var.value:.3g} (se {var.se:.3g}) is consistent with zero")
            detail = dict(bound=root_sum / var.value, notes=self.notes)
        elif lam < 1.0:
            raise AssumptionViolationError(f"rate form needs lam >= 1, got {lam}")
        elif self.mode == "geometric":
            rate_factor = root_sum / vtilde.value
            detail = dict(bound=rate_factor / math.sqrt(lam), rate_factor=rate_factor, notes=self.notes)
        else:
            c_k = default_local_constant(k) if c_k is None else float(c_k)
            if not c_k > 0:
                raise ConfigError(f"c_k must be positive, got {c_k}")
            delta = float(self.kernel.locality)
            b = _local_mass(lam, delta, self.window.dimension)
            local_terms = []
            for i, q in enumerate(self.norms, start=1):
                norm, norm_se = _sqrt_estimate(q.value, q.se)
                weight = lam ** (1.0 - 1.5 * i) * max(1.0, b ** (i / 2.0))
                local_terms.append(LocalTerm(i, norm, norm_se, weight, weight * norm / vtilde.value))
            bound = c_k * math.fsum(t.contribution for t in local_terms)
            detail = dict(bound=bound, b_delta=b, c_k=c_k, delta=delta, local_terms=tuple(local_terms))
        if self.mode != "general":
            detail.update(vtilde=vtilde.value, vtilde_se=vtilde.se)
        return BoundReport(mode=self.mode, k=k, lam=lam, variance=var.value, variance_se=var.se, m=m, **detail)


def _local_mass(lam: float, delta: float, dim: int) -> float:
    """b = lam * vol(B(0, 4 delta)) of the local bound, or ConfigError
    naming delta where it has no float value."""
    try:
        b = lam * unit_ball_volume(dim) * (4.0 * delta) ** dim
    except OverflowError:
        b = math.inf
    if not math.isfinite(b):
        raise ConfigError(f"delta {delta:g} overflows b(delta) = lambda * vol(B(0, 4 delta)) at lambda {lam:g} in dimension {dim}")
    return b


def _ingredient_rows(k: int, samples: int, norms: bool) -> int:
    """The most kernel rows of a record's T_1..T_k, and with ``norms`` of its
    fourth-power norms: each family of index i < k is nested on one slot list
    (its pilot and main pass), the top-order one plain."""
    per_family = (k - 1) * (1 + NESTED_REPEAT) * NESTED_INNER * samples + samples
    return per_family * (2 if norms else 1)


def estimate_ingredients(kernel: UStatKernel, window: Window, integrator: Integrator, mode: Optional[str] = None) -> Ingredients:
    """Estimate the lambda-free ingredients, each on its own integrator
    stream but the mean, which shares T_1's pass (variance_terms).

    mode None gives the moment integrals only; "general", "local" or
    "geometric" adds what that bound needs (a kernel can fit several).
    Before any draw, CapacityError refuses a record whose T_i and norms may
    take more than MAX_INGREDIENT_ROWS kernel rows, or whose M_ij orbits
    take more than MAX_DIAGRAM_DRAWS draws, and ConfigError a window whose
    measure overflows the record's integrals."""
    if mode == "local":
        if kernel.locality is None:
            raise LocalityError("kernel declares no support diameter; not a local kernel")
        if isinstance(window, LineWindow):
            raise ConfigError("local bounds need a spatial window")
    elif mode not in (None, "general", "geometric"):
        raise ConfigError(f"unknown mode {mode!r}")
    rows = _ingredient_rows(kernel.order, integrator.samples, mode == "local")
    if rows > MAX_INGREDIENT_ROWS:
        raise CapacityError(f"the order-{kernel.order} variance terms and norms take up to {rows:,} kernel rows, above the guard of {MAX_INGREDIENT_ROWS:,}")
    # the most variables are T_1's 2k - 1, or 4k - 3 for the norms and M_11
    # (whose one connected diagram is one block)
    _refuse_overflowing_window(window, kernel.order, 2 * kernel.order - 1 if mode is None else 4 * kernel.order - 3)
    # the M_ij record goes first: its guard refuses an over-budget record before any draw
    m = _m_orbit_integrals(kernel, window, integrator) if mode in ("general", "geometric") else ()
    mean, terms = variance_terms(kernel, window, integrator, with_mean=True)
    terms = tuple(terms)
    if mode is None:
        return Ingredients(kernel, window, mean, terms)
    vtilde = terms[0]
    if mode != "general" and not vtilde.value > 3.0 * vtilde.se:
        raise AssumptionViolationError(
            "first-order variance coefficient is consistent with zero "
            f"({vtilde.value:.3g}, se {vtilde.se:.3g}); the normalized sum "
            "has no Gaussian first-order part"
        )
    if mode == "local":
        return Ingredients(kernel, window, mean, terms, mode, norms=tuple(_fourth_power_norms(kernel, window, integrator)))
    return Ingredients(kernel, window, mean, terms, mode, m=m, notes=_sign_note(kernel, window, integrator))


def geometric_bound(kernel: UStatKernel, intensity: IntensityModel, integrator: Integrator) -> BoundReport:
    """Rate-form bound for any kernel (its ``fn`` is lambda-free) at lam >= 1.

    Evaluates all ingredients at unit intensity: vtilde is the leading
    variance coefficient k^2 int (int f dtheta^{k-1})^2 dtheta, the m
    entries are the unit-intensity fourth-moment terms, and

        bound(lam) = rate_factor / sqrt(lam)

    holds exactly (bit for bit, so quadrupling lam halves the bound) with
    rate_factor = 2 k^{7/2} sum sqrt(M~_ij) / vtilde.
    The reported variance is assembled at the requested lam from the same
    unit-intensity integrals.
    """
    return estimate_ingredients(kernel, intensity.window, integrator, "geometric").report(intensity.lam)


def local_bound(kernel: UStatKernel, intensity: IntensityModel, integrator: Integrator, c_k: Optional[float] = None) -> BoundReport:
    """Rate-form bound for a kernel supported on tuples of diameter <= delta.

    bound = c_k * sum_{i=1..k} lam^{1 - 3i/2} max(1, b^{i/2}) |f~_i^2| / vtilde
    where |.| is the L2(theta^i) norm, vtilde = |f~_1|^2, and
    b = lam * (volume of a radius-4*delta ball) upper-bounds the mass any
    such ball can carry.  c_k defaults to default_local_constant(k).
    """
    return estimate_ingredients(kernel, intensity.window, integrator, "local").report(intensity.lam, c_k)


def r_terms_small(chaos_fns: Sequence[SimpleFunction], intensity: IntensityModel, replicates: int, seed: int = 0, batches: int = 20) -> tuple:
    """Monte Carlo oracle for the chaos inner-product fluctuation terms.

    For cell-grid chaos kernels [g_1, ..., g_k] (g_i of order i) the random
    inner products

        X_ij = int I_{i-1}(g_i(s, .)) I_{j-1}(g_j(s, .)) dmu(s)

    reduce to cell sums.  Returns (R, Rtilde) where R[i-1][j-1] estimates
    Var X_ij for i = j (exactly zero when i = j = 1, since X_11 is a
    constant) and E X_ij^2 for i != j (the squared-mean subtrahend is
    structurally zero across chaos orders), and Rtilde[i-1] estimates the
    expected cell sum of the fourth power.  Standard errors come from
    batch means.  Small-scale only: at most order 2 and 32 cells.
    """
    fns = list(chaos_fns)
    k = len(fns)
    if k == 0:
        raise ConfigError("need at least one chaos kernel")
    for idx, f in enumerate(fns, start=1):
        if not isinstance(f, SimpleFunction):
            raise ConfigError(f"chaos kernel {idx} is not a cell-grid simple function")
        if f.order != idx:
            raise ConfigError(f"chaos kernel {idx} must have order {idx}, got {f.order}")
    grid = fns[0].grid
    for f in fns[1:]:
        if f.grid is not grid and not np.array_equal(f.grid.cells, grid.cells):
            raise ConfigError("chaos kernels live on incompatible grids")
    if k > 2:
        raise CapacityError(f"oracle is limited to order <= 2, got {k}")
    if grid.n_cells > 32:
        raise CapacityError(f"oracle is limited to 32 cells, got {grid.n_cells}")
    replicates = int(replicates)
    batches = int(batches)
    if batches < 2 or replicates < 2 * batches:
        raise ConfigError(f"need >= 2 batches and >= 2 replicates per batch, got {replicates} / {batches}")
    _buffer_rows(intensity.mean_count(), replicates)
    mu = float(intensity.lam) * grid.measures()
    xs = np.empty((replicates, k, k))
    ws = np.empty((replicates, k))
    for rep, (_, rng) in enumerate(_cell_streams(seed, ("r-terms",), range(replicates))):
        config = sample_points(intensity, rng)
        centered = cell_counts(grid, config) - mu
        v = np.empty((k, grid.n_cells))
        for i, f in enumerate(fns, start=1):
            t = f.coeffs
            for _ in range(i - 1):
                t = np.tensordot(t, centered, axes=([t.ndim - 1], [0]))
            v[i - 1] = t
        for i in range(k):
            ws[rep, i] = float(np.sum(mu * v[i] ** 4))
            for j in range(k):
                xs[rep, i, j] = float(np.sum(mu * v[i] * v[j]))
    groups = np.array_split(np.arange(replicates), batches)

    def batch_means(per_batch) -> Estimate:
        return Estimate(float(np.mean(per_batch)), float(np.std(per_batch, ddof=1) / math.sqrt(batches)), replicates)

    r_out = [[None] * k for _ in range(k)]
    rt_out = [None] * k
    for i in range(k):
        for j in range(k):
            if i == j:
                per_batch = np.array([np.var(xs[g, i, j], ddof=1) for g in groups])
            else:
                per_batch = np.array([np.mean(xs[g, i, j] ** 2) for g in groups])
            r_out[i][j] = batch_means(per_batch)
        rt_out[i] = batch_means(np.array([np.mean(ws[g, i]) for g in groups]))
    return r_out, rt_out
