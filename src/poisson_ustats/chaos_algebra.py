"""Discrete multiple stochastic integrals and partition combinatorics.

Simple functions live on a shared grid of disjoint rectangular cells and
vanish whenever a cell index repeats; their multiple integral against the
compensated process is the polynomial

    I_n(f) = sum_{cells} coeff * prod_l (eta(B_l) - mu(B_l)).

Moments of products of such integrals reduce to sums over partitions of the
argument variables subject to three constraints: variables of one factor
never share a block, every block has at least two elements, and (for the
connected family) the blocks hook all factors together.

Both moment formulas sum one term per diagram, and for symmetric factors that
term depends only on the diagram's block-type vector (which sets of factors
its blocks join, and how often).  One enumeration of the types, built from
the factor sizes alone with the number of labelled diagrams of each type,
serves both: product_expectation contracts every type exactly, and the
record of every M_ij, 1 <= i <= j <= k, estimates the integral of every
connected type, its draws allocated after a pilot to the types whose
integrands spread, into polynomials in lam whose coefficients are
lambda-free; :func:`m_ij` reads one pair of that record.  The labelled
enumerations enumerate_pi and enumerate_pi_bar remain as their reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, ConfigError
from .point_process import IntensityModel, PointConfiguration, Window
from .ustat_core import Estimate, Integrator, UStatKernel, _lam_polynomial, _product_integral, _refuse_overflowing_window

__all__ = [
    "CellGrid",
    "SimpleFunction",
    "PartitionDiagram",
    "wiener_ito",
    "wiener_ito_counts",
    "cell_counts",
    "enumerate_pi",
    "enumerate_pi_bar",
    "is_connected",
    "apply_replacement",
    "product_expectation",
    "m_ij",
    "chaos_kernels_simple",
    "MAX_PARTITION_VARIABLES",
    "MAX_DIAGRAM_DRAWS",
    "MAX_INGREDIENT_ROWS",
]

MAX_PARTITION_VARIABLES = 16
# the orbit integrals of a record draw at most samples * (pilots + budget) tuples:
# one pilot batch per orbit of every 1 <= i <= j <= k and one batch per labelled
# diagram; 10^8 admits an order-3 record at 1,024 samples (45.0M) and refuses it
# from 2,277 samples on, and refuses an order-4 record at 256 samples (4.9e9)
MAX_DIAGRAM_DRAWS = 10**8
# the T_i and fourth-power norms of a record call the kernel on at most
# (1 + NESTED_REPEAT) * NESTED_INNER * samples rows per nested family (its pilot
# and main pass) and samples rows per top-order one (clt_bounds._ingredient_rows);
# 10^8 admits an order-2 local record (T_1, T_2 and two norms, 290 rows per
# sample) up to 344,827 samples and an order-3 moment record up to 346,020, and
# refuses 2 * 10^9 samples before a pilot allocates its outer draws
MAX_INGREDIENT_ROWS = 10**8


@dataclass(frozen=True, eq=False)
class CellGrid:
    """Finite family of pairwise disjoint half-open rectangular cells."""

    cells: np.ndarray  # (n_cells, dim, 2) with [lo, hi) per axis

    def __post_init__(self):
        cells = np.asarray(self.cells, dtype=float)
        if cells.ndim != 3 or cells.shape[2] != 2:
            raise ConfigError(f"cells must have shape (n, dim, 2), got {cells.shape}")
        if np.any(cells[..., 0] >= cells[..., 1]):
            raise ConfigError("every cell axis needs lo < hi")
        for a, b in itertools.combinations(range(len(cells)), 2):
            overlap = np.all((cells[a, :, 0] < cells[b, :, 1]) & (cells[b, :, 0] < cells[a, :, 1]))
            if overlap:
                raise ConfigError(f"cells {a} and {b} overlap")
        cells = cells.copy()
        cells.flags.writeable = False
        object.__setattr__(self, "cells", cells)

    @property
    def n_cells(self) -> int:
        return int(self.cells.shape[0])

    @property
    def dim(self) -> int:
        return int(self.cells.shape[1])

    def measures(self) -> np.ndarray:
        return np.prod(self.cells[..., 1] - self.cells[..., 0], axis=-1)

    def locate(self, points: np.ndarray) -> np.ndarray:
        """Cell index per point, -1 when a point lies in no cell."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(len(pts), -1, dtype=np.intp)
        for c in range(self.n_cells):
            inside = np.all((pts >= self.cells[c, :, 0]) & (pts < self.cells[c, :, 1]), axis=1)
            out[inside] = c
        return out

    @classmethod
    def regular(cls, lows, highs, shape) -> "CellGrid":
        """Tensor grid splitting the box [lows, highs] into shape[a] slabs per axis."""
        lows = np.atleast_1d(np.asarray(lows, dtype=float))
        highs = np.atleast_1d(np.asarray(highs, dtype=float))
        shape = tuple(int(s) for s in np.atleast_1d(shape))
        edges = [np.linspace(lo, hi, s + 1) for lo, hi, s in zip(lows, highs, shape)]
        cells = []
        for ids in itertools.product(*(range(s) for s in shape)):
            cells.append([(edges[a][i], edges[a][i + 1]) for a, i in enumerate(ids)])
        return cls(np.array(cells))


def _check_symmetric_coeffs(coeffs: np.ndarray) -> None:
    n = coeffs.ndim
    for a in range(n - 1):
        axes = list(range(n))
        axes[a], axes[a + 1] = axes[a + 1], axes[a]
        if not np.array_equal(coeffs, coeffs.transpose(axes)):
            raise ConfigError("coefficient table must be symmetric")
    for a, b in itertools.combinations(range(n), 2):
        if np.any(np.diagonal(coeffs, axis1=a, axis2=b)):
            raise ConfigError("repeated-cell coefficients must be zero")


@dataclass(frozen=True, eq=False)
class SimpleFunction:
    """Symmetric simple function on a shared cell grid.

    The coefficient table has one axis per argument; entries with a repeated
    cell index are structurally zero, so the function vanishes whenever two
    arguments fall in the same cell.
    """

    grid: CellGrid
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim > 0 and any(s != self.grid.n_cells for s in coeffs.shape):
            raise ConfigError(
                f"coefficient table shape {coeffs.shape} does not match {self.grid.n_cells} cells"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ConfigError("coefficients must be finite")
        if coeffs.ndim >= 2:
            _check_symmetric_coeffs(coeffs)
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self) -> int:
        return int(self.coeffs.ndim)

    def value_at(self, tuples: np.ndarray) -> np.ndarray:
        """Pointwise values on an (m, order, dim) array of argument tuples."""
        tuples = np.asarray(tuples, dtype=float)
        if self.order == 0:
            return np.full(tuples.shape[0], float(self.coeffs))
        m = tuples.shape[0]
        idx = self.grid.locate(tuples.reshape(m * self.order, -1)).reshape(m, self.order)
        inside = np.all(idx >= 0, axis=1)
        out = np.zeros(m)
        if np.any(inside):
            sel = tuple(idx[inside, a] for a in range(self.order))
            out[inside] = self.coeffs[sel]
        return out

    def as_kernel(self, **flags) -> UStatKernel:
        if self.order < 1:
            raise ConfigError("an order-0 simple function is not a U-statistic kernel")
        return UStatKernel(order=self.order, fn=self.value_at, name="simple", **flags)

    def norm_sq(self, intensity: IntensityModel) -> float:
        """Squared L^2(mu^order) norm."""
        return _contract(self.coeffs**2, float(intensity.lam) * self.grid.measures())

    def slice_first(self, cell: int) -> "SimpleFunction":
        """Freeze the first argument to a cell, dropping one order."""
        if self.order < 1:
            raise ConfigError("cannot slice an order-0 function")
        return SimpleFunction(self.grid, self.coeffs[int(cell)])


def cell_counts(grid: CellGrid, config: PointConfiguration) -> np.ndarray:
    idx = grid.locate(config.points) if config.size else np.empty(0, dtype=np.intp)
    return np.bincount(idx[idx >= 0], minlength=grid.n_cells).astype(float)


def _contract(coeffs: np.ndarray, vec: np.ndarray) -> float:
    n = coeffs.ndim
    if n == 0:
        return float(coeffs)
    ops = [coeffs, list(range(n))]
    for a in range(n):
        ops.extend([vec, [a]])
    return float(np.einsum(*ops, []))


def wiener_ito_counts(fn: SimpleFunction, counts: np.ndarray, intensity: IntensityModel) -> float:
    """Multiple integral from precomputed per-cell counts."""
    centered = np.asarray(counts, dtype=float) - float(intensity.lam) * fn.grid.measures()
    return _contract(fn.coeffs, centered)


def wiener_ito(fn: SimpleFunction, config: PointConfiguration, intensity: IntensityModel) -> float:
    """Multiple integral I_n(fn) of the compensated configuration."""
    return wiener_ito_counts(fn, cell_counts(fn.grid, config), intensity)


# ---------------------------------------------------------------------------
# partitions


@dataclass(frozen=True)
class PartitionDiagram:
    """Partition of the variables {(l, j) : l = 1..m, j = 1..sizes[l-1]}.

    Variables of one factor l never share a block and every block has at
    least two elements.  Blocks and members are stored in canonical sorted
    order; indices are 1-based.
    """

    sizes: tuple
    blocks: tuple  # tuple of tuples of (l, j)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, l: int, j: int) -> int:
        for b, members in enumerate(self.blocks):
            if (l, j) in members:
                return b
        raise KeyError((l, j))

    def to_text(self) -> str:
        return "[" + "|".join("".join(f"({l},{j})" for l, j in block) for block in self.blocks) + "]"


def _canonical(blocks) -> tuple:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def enumerate_pi(sizes: Sequence[int]) -> tuple:
    """All diagrams over factor sizes, in canonical order.

    Constraints: same-factor variables sit in different blocks and every
    block has >= 2 elements.  Guarded at MAX_PARTITION_VARIABLES total
    variables.
    """
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 for s in sizes):
        raise ConfigError(f"factor sizes must be >= 1, got {sizes}")
    if sum(sizes) > MAX_PARTITION_VARIABLES:
        raise CapacityError(f"{sum(sizes)} variables exceed the enumeration guard of {MAX_PARTITION_VARIABLES}")
    variables = [(l + 1, j + 1) for l, s in enumerate(sizes) for j in range(s)]
    found = []
    blocks: list = []
    factor_sets: list = []

    def rec(idx: int) -> None:
        remaining = len(variables) - idx
        singles = sum(1 for b in blocks if len(b) == 1)
        if singles > remaining:
            return
        if idx == len(variables):
            if singles == 0:
                found.append(_canonical(blocks))
            return
        l, j = variables[idx]
        for b, fset in zip(blocks, factor_sets):
            if l not in fset:
                b.append((l, j))
                fset.add(l)
                rec(idx + 1)
                b.pop()
                fset.discard(l)
        blocks.append([(l, j)])
        factor_sets.append({l})
        rec(idx + 1)
        blocks.pop()
        factor_sets.pop()

    rec(0)
    return tuple(PartitionDiagram(sizes, b) for b in sorted(set(found)))


def _joins_all(m: int, groups) -> bool:
    """True when the groups (iterables of 0-based factor indices) hook all m factors together."""
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for first, *rest in groups:
        anchor = find(first)
        for l in rest:
            parent[find(l)] = anchor
    return len({find(l) for l in range(m)}) == 1


def is_connected(diagram: PartitionDiagram) -> bool:
    """True when the blocks hook every factor index together.

    Equivalent to: no split of the factors into two nonempty groups leaves
    every block inside a single group.  A single factor is connected.
    """
    return _joins_all(len(diagram.sizes), ([l - 1 for l, _ in block] for block in diagram.blocks))


def enumerate_pi_bar(sizes: Sequence[int]) -> tuple:
    """The connected diagrams over the factor sizes."""
    return tuple(d for d in enumerate_pi(sizes) if is_connected(d))


def apply_replacement(diagram: PartitionDiagram, factors: Sequence) -> "callable":
    """Substitution operator: identify variables within a block.

    Returns a callable taking block points of shape (m, n_blocks, dim) and
    producing the product of the factors with each variable replaced by its
    block's point.  Factors may be SimpleFunctions, kernels, or plain
    callables accepting (m, arity, dim) arrays.
    """
    if len(factors) != len(diagram.sizes):
        raise ConfigError(f"{len(factors)} factors for {len(diagram.sizes)} declared sizes")
    fns = []
    for l, (factor, size) in enumerate(zip(factors, diagram.sizes), start=1):
        if isinstance(factor, SimpleFunction):
            if factor.order != size:
                raise ConfigError(f"factor {l} has order {factor.order}, diagram expects {size}")
            fn = factor.value_at
        elif isinstance(factor, UStatKernel):
            if factor.order != size:
                raise ConfigError(f"factor {l} has order {factor.order}, diagram expects {size}")
            fn = factor
        else:
            fn = factor
        slots = [diagram.block_of(l, j) for j in range(1, size + 1)]
        fns.append((fn, slots))

    def substituted(ys: np.ndarray) -> np.ndarray:
        ys = np.asarray(ys, dtype=float)
        out = np.ones(ys.shape[0])
        for fn, slots in fns:
            out = out * np.asarray(fn(ys[:, slots, :]), dtype=float)
        return out

    return substituted


def product_expectation(factors: Sequence[SimpleFunction], intensity: IntensityModel) -> Estimate:
    """E prod_l I_{n_l}(f_l) for simple functions on one shared grid.

    Evaluated exactly by the orbit sum M_ij also uses: each block type,
    connected or not, adds its cell-assignment contraction times its number
    of labelled diagrams.  The returned standard error is zero.
    """
    if not factors:
        raise ConfigError("need at least one factor")
    grid = factors[0].grid
    for f in factors[1:]:
        if f.grid is not grid and not np.array_equal(f.grid.cells, grid.cells):
            raise ConfigError("factors live on incompatible grids")
    sizes = tuple(f.order for f in factors)
    if any(s < 1 for s in sizes):
        raise ConfigError("order-0 factors are plain constants; multiply them in directly")
    if sum(sizes) > MAX_PARTITION_VARIABLES:
        raise CapacityError(f"{sum(sizes)} variables exceed the enumeration guard of {MAX_PARTITION_VARIABLES}")
    mu = float(intensity.lam) * grid.measures()
    total = 0.0
    for types, weight in _block_type_orbits(sizes, connected=False):
        slots, n_blocks = _orbit_slots(types, (0,) * len(sizes))
        ops = [x for f, s in zip(factors, slots) for x in (f.coeffs, s)]
        ops += [x for b in range(n_blocks) for x in (mu, [b])]
        total += weight * float(np.einsum(*ops, []))
    return Estimate(total, 0.0, 0)


def _block_type_orbits(sizes: Sequence[int], *, connected: bool = True) -> tuple:
    """Block-type vectors over the factor sizes, with their weights.

    A diagram's block-type vector counts, for every set S of at least two
    factors (0-based indices), the blocks c_S whose members come from exactly
    the factors in S; factor l lies in sum_{S contains l} c_S = sizes[l]
    blocks.  Returns ((types, weight), ...) where ``types`` lists the pairs
    (S, c_S) with c_S > 0 and ``weight`` = prod_l sizes[l]! / prod_S c_S! is
    the number of labelled diagrams of that type; only connected types are
    kept unless ``connected`` is False.  Built from the sizes alone: the sets
    are visited grouped by their smallest factor, which must absorb what its
    earlier sets left of it.
    """
    sizes = tuple(int(s) for s in sizes)
    if any(s < 1 for s in sizes):
        raise ConfigError(f"factor sizes must be >= 1, got {sizes}")
    m = len(sizes)
    # by_min[l]: the other members of each set whose smallest factor is l
    by_min = [[S for r in range(1, m - l) for S in itertools.combinations(range(l + 1, m), r)] for l in range(m)]
    labelled = math.prod(math.factorial(s) for s in sizes)
    rem = list(sizes)
    chosen: list = []
    found = []

    def rec(l: int, t: int) -> None:
        if l == m:
            if not connected or _joins_all(m, (S for S, _ in chosen)):
                found.append((tuple(chosen), labelled // math.prod(math.factorial(c) for _, c in chosen)))
            return
        if t == len(by_min[l]):
            if rem[l] == 0:
                rec(l + 1, 0)
            return
        S = (l, *by_min[l][t])
        cap = min(rem[x] for x in S)
        # the last set of factor l takes all of its remaining blocks
        for c in [rem[l]] if t == len(by_min[l]) - 1 else range(cap + 1):
            if c > cap:
                return
            for x in S:
                rem[x] -= c
            if c:
                chosen.append((S, c))
            rec(l, t + 1)
            if c:
                chosen.pop()
            for x in S:
                rem[x] += c

    rec(0, 0)
    return tuple(found)


def _orbit_slots(types, free) -> tuple:
    """Slot lists of one block type: blocks numbered in ``types`` order, then
    factor l's free[l] own variables; returns (per-factor slots, variable count)."""
    slots = [[] for _ in free]
    pos = 0
    for S, count in types:
        for l in S:
            slots[l].extend(range(pos, pos + count))
        pos += count
    for l, n in enumerate(free):
        slots[l].extend(range(pos, pos + n))
        pos += n
    return slots, pos


def _m_orbit_integrals(kernel: UStatKernel, window: Window, integrator: Integrator) -> tuple:
    """The lambda-free orbit integrals of the record's M_ij, every pair
    1 <= i <= j <= k in order, as ((i, j, ((v_o, I_o), ...)), ...).

    M_ij sums, over connected diagrams of four factors with (i, i, j, j)
    identified arguments, the integral of the absolute product of four
    kernel copies; factors 1-2 keep k-i free arguments and factors 3-4 keep
    k-j.  For a symmetric kernel the integral depends only on the diagram's
    block-type orbit o: I_o is the orbit weight w_o times the integral over
    its v_o <= 4k-i-j variables, a mean over ``samples`` unit-intensity
    draws per batch: one lattice family of all its batches' draws at
    ``strata`` 1, or batches each stratified on its own under
    ``strata`` > 1 (Integrator).

    One allocation serves the record, by Neyman's rule for the error of
    sum_{i<=j} sqrt(M_ij) at unit intensity.  Every orbit of every pair
    first draws one pilot batch on stream ("m-pilot", i, j, o, 0); orbit o
    of (i, j) is scored g_ij se_o, its pilot standard error times the
    delta-method gradient g_ij = C(k,i)^2 C(k,j)^2 / (2 sqrt(M_ij)) of the
    pilots' M_ij (0 when that is not positive).  Of the sum of w_o over the record's orbits,
    the batches that one per labelled diagram would take, every orbit keeps
    one and the others go in proportion to the scores, rounded to whole
    batches by largest remainder, so when no pilot shows spread each orbit
    keeps one.  The estimate uses only these batches, drawn on stream
    ("m", i, j, o, 0), so it is unbiased, and its ``n`` counts the orbit's
    allocated draws, less a lattice family's remainder (an assembled M_ij
    reports the fewest of its orbits).

    Before any draw the guard counts ``samples`` times the pilots and the
    budget, every draw the record makes when a pilot shows spread, and
    raises CapacityError when that exceeds MAX_DIAGRAM_DRAWS; then
    ConfigError refuses a window whose measure overflows the orbit
    integral of most variables, M_11's 4k - 3.
    """
    k = kernel.order
    if not kernel.symmetric:
        raise ConfigError("m_ij sums diagrams by block type, which needs a symmetric kernel")
    # per record pair (i, j), per orbit o: (o, v_o, slot lists, w_o)
    plan = {}
    for i in range(1, k + 1):
        for j in range(i, k + 1):
            free = (k - i, k - i, k - j, k - j)
            orbits = []
            for o, (types, weight) in enumerate(_block_type_orbits((i, i, j, j))):
                slots, v = _orbit_slots(types, free)
                orbits.append((o, v, slots, weight))
            plan[i, j] = orbits
    budget = sum(weight for orbits in plan.values() for *_, weight in orbits)
    draws = integrator.samples * (sum(map(len, plan.values())) + budget)
    if draws > MAX_DIAGRAM_DRAWS:
        raise CapacityError(f"the orbit integrals of the order-{k} M_ij take {draws:,} draws, above the guard of {MAX_DIAGRAM_DRAWS:,}")
    _refuse_overflowing_window(window, k, max(v for orbits in plan.values() for _, v, _, _ in orbits))

    def absolute(tuples: np.ndarray) -> np.ndarray:
        return np.abs(kernel(tuples))

    def integral(i: int, j: int, orbit, stream: str, batches: int) -> Estimate:
        o, v, slots, weight = orbit
        return _product_integral(absolute, k, window, integrator, v, slots, (stream, i, j, o), scale=weight, repeat=batches)

    keys, scores = [], []
    for (i, j), orbits in plan.items():
        pilots = [integral(i, j, orbit, "m-pilot", 1) for orbit in orbits]
        c = math.comb(k, i) ** 2 * math.comb(k, j) ** 2
        m_hat = c * math.fsum(est.value for est in pilots)
        g = c / (2.0 * math.sqrt(m_hat)) if m_hat > 0 else 0.0
        keys.extend((i, j, o) for o, *_ in orbits)
        scores.extend(g * est.se if g else 0.0 for est in pilots)
    total = math.fsum(scores)
    spare = budget - len(scores) if 0 < total < math.inf else 0
    shares = [spare * score / total if spare else 0.0 for score in scores]
    batches = [1 + int(share) for share in shares]
    # the batches that rounding down leaves go to the largest remainders
    left = spare - sum(int(share) for share in shares)
    for n in sorted(range(len(shares)), key=lambda n: int(shares[n]) - shares[n])[:left]:
        batches[n] += 1
    allocated = dict(zip(keys, batches))
    return tuple(
        (i, j, tuple((orbit[1], integral(i, j, orbit, "m", allocated[i, j, orbit[0]])) for orbit in orbits))
        for (i, j), orbits in plan.items()
    )


def _assemble_m(k: int, i: int, j: int, orbit_integrals, lam: float) -> Estimate:
    """M_ij = C(k,i)^2 C(k,j)^2 sum_o lam^(v_o) I_o at lam, by ustat_core._lam_polynomial."""
    scale = math.comb(k, i) ** 2 * math.comb(k, j) ** 2
    return _lam_polynomial(orbit_integrals, lam, f"M_{i}{j} (order {k})").scaled(scale)


def m_ij(kernel: UStatKernel, i: int, j: int, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Fourth-moment quantity M_ij at the given intensity, the general report's MTerm:
    the lam polynomial C(k,i)^2 C(k,j)^2 sum_o lam^(v_o) I_o of the
    orbit integrals I_o over v_o variables that _m_orbit_integrals draws.

    It estimates the kernel's whole record, every pair 1 <= i' <= j' <= k
    under the record's one guard, and assembles (i, j) from it, so it
    equals the M_ij of a record bit for bit."""
    k = kernel.order
    if not 1 <= i <= j <= k:
        raise ConfigError(f"need 1 <= i <= j <= order, got i={i}, j={j}, order={k}")
    record = {(a, b): orbit_integrals for a, b, orbit_integrals in _m_orbit_integrals(kernel, intensity.window, integrator)}
    return _assemble_m(k, i, j, record[i, j], float(intensity.lam))


def chaos_kernels_simple(fn: SimpleFunction, intensity: IntensityModel) -> list:
    """Exact chaos kernels of the U-statistic with a simple kernel.

    Returns [f_1, ..., f_k] with f_i = C(k,i) int fn dmu^{k-i}, computed as
    cell sums; each f_i is again simple on the same grid.
    """
    k = fn.order
    if k < 1:
        raise ConfigError("need an order >= 1 simple function")
    mu = float(intensity.lam) * fn.grid.measures()
    out = []
    for i in range(1, k + 1):
        coeffs = fn.coeffs
        for _ in range(k - i):
            coeffs = np.tensordot(coeffs, mu, axes=([coeffs.ndim - 1], [0]))
        out.append(SimpleFunction(fn.grid, math.comb(k, i) * coeffs))
    return out
