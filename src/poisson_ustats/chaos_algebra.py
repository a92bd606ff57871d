"""Discrete multiple stochastic integrals and partition combinatorics.

Simple functions live on a shared grid of disjoint rectangular cells and
vanish whenever a cell index repeats; their multiple integral against the
compensated process is the polynomial

    I_n(f) = sum_{cells} coeff * prod_l (eta(B_l) - mu(B_l)).

Moments of products of such integrals reduce to sums over partitions of the
argument variables subject to three constraints: variables of one factor
never share a block, every block has at least two elements, and (for the
connected family) the blocks hook all factors together.

The fourth-moment quantities M_ij (:func:`m_ij`) sum one integral per
connected diagram.  For a symmetric kernel that integral depends only on the
diagram's block-type vector (which sets of factors its blocks join, and how
often), so M_ij integrates once per type, weighted by the number of diagrams
of that type, into a polynomial in lam whose coefficients are lambda-free.
The types and weights are built from the factor sizes alone; the explicit
enumerations enumerate_pi and enumerate_pi_bar remain as their reference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, ConfigError
from .point_process import IntensityModel, PointConfiguration, Window
from .ustat_core import Estimate, Integrator, UStatKernel, _product_integral, combine_se

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
]

MAX_PARTITION_VARIABLES = 16
# m_ij draws samples * |Pi-bar(i,i,j,j)| tuples; 10^8 admits M_33 at 1,024
# samples (42.4M) and refuses an order-4 M_44 at 256 (4.7e9)
MAX_DIAGRAM_DRAWS = 10**8


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
        mu = float(intensity.lam) * self.grid.measures()
        if self.order == 0:
            return float(self.coeffs) ** 2
        ops = [self.coeffs**2, list(range(self.order))]
        for a in range(self.order):
            ops.extend([mu, [a]])
        return float(np.einsum(*ops, []))

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
    total = sum(sizes)
    if total > MAX_PARTITION_VARIABLES:
        raise CapacityError(
            f"{total} variables exceed the enumeration guard of {MAX_PARTITION_VARIABLES}"
        )
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


def product_expectation(factors: Sequence[SimpleFunction], intensity: IntensityModel, integrator: Optional[Integrator] = None) -> Estimate:
    """E prod_l I_{n_l}(f_l) for simple functions on one shared grid.

    Evaluated exactly as a sum over diagrams of cell-assignment
    contractions; the integrator argument is accepted for interface
    uniformity and unused, and the returned standard error is zero.
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
    mu = float(intensity.lam) * grid.measures()
    total = 0.0
    for diagram in enumerate_pi(sizes):
        ops = []
        for l, f in enumerate(factors, start=1):
            ops.extend([f.coeffs, [diagram.block_of(l, j) for j in range(1, f.order + 1)]])
        for b in range(diagram.n_blocks):
            ops.extend([mu, [b]])
        total += float(np.einsum(*ops, []))
    return Estimate(total, 0.0, 0)


def _block_type_orbits(sizes: Sequence[int]) -> tuple:
    """Connected block-type vectors over the factor sizes, with their weights.

    A diagram's block-type vector counts, for every set S of at least two
    factors (0-based indices), the blocks c_S whose members come from exactly
    the factors in S; factor l lies in sum_{S contains l} c_S = sizes[l]
    blocks.  Returns ((types, weight), ...) where ``types`` lists the pairs
    (S, c_S) with c_S > 0 and ``weight`` = prod_l sizes[l]! / prod_S c_S! is
    the number of labelled diagrams of that type; only connected types are
    kept.  Built from the sizes alone: the sets are visited grouped by their
    smallest factor, which must absorb what its earlier sets left of it.
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
            if _joins_all(m, (S for S, _ in chosen)):
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


def _m_orbit_integrals(kernel: UStatKernel, i: int, j: int, window: Window, integrator: Integrator) -> tuple:
    """The lambda-free orbit integrals of M_ij, as ((v_o, I_o), ...).

    M_ij sums, over connected diagrams of four factors with (i, i, j, j)
    identified arguments, the integral of the absolute product of four
    kernel copies; factors 1-2 keep k-i free arguments and factors 3-4 keep
    k-j.  For a symmetric kernel the integral depends only on the diagram's
    block-type orbit o: I_o is the orbit weight w times the mean of w
    batches of ``samples`` unit-intensity draws of its v_o <= 4k-i-j
    variables (drawn jointly on stream ("m", i, j, o, 0), each batch
    stratified on its own under ``strata`` > 1), so the draws and expected
    standard error equal those of one integral per diagram, and ``n``
    counts the draws per diagram.  Raises CapacityError, before any draw,
    when ``samples`` times the diagram count exceeds MAX_DIAGRAM_DRAWS.
    """
    k = kernel.order
    if not 1 <= i <= j <= k:
        raise ConfigError(f"need 1 <= i <= j <= order, got i={i}, j={j}, order={k}")
    if not kernel.symmetric:
        raise ConfigError("m_ij sums diagrams by block type, which needs a symmetric kernel")
    sizes = (i, i, j, j)
    free = (k - i, k - i, k - j, k - j)
    orbits = _block_type_orbits(sizes)
    draws = integrator.samples * sum(weight for _, weight in orbits)
    if draws > MAX_DIAGRAM_DRAWS:
        raise CapacityError(
            f"M_{i}{j} needs {draws:,} draws, above the guard of {MAX_DIAGRAM_DRAWS:,}"
        )

    def absolute(tuples: np.ndarray) -> np.ndarray:
        return np.abs(kernel(tuples))

    out = []
    for o_idx, (types, weight) in enumerate(orbits):
        slots = [[] for _ in sizes]
        pos = 0
        for S, count in types:
            for b in range(pos, pos + count):
                for l in S:
                    slots[l].append(b)
            pos += count
        for l in range(4):
            slots[l].extend(range(pos, pos + free[l]))
            pos += free[l]
        # pos = blocks + 2(k-i) + 2(k-j) variables, at most 4k-i-j
        est = _product_integral(
            absolute, k, window, integrator, pos, slots, ("m", i, j, o_idx), scale=weight, repeat=weight,
        )
        out.append((pos, Estimate(est.value, est.se, est.n // weight)))
    return tuple(out)


def _assemble_m(k: int, i: int, j: int, orbit_integrals, lam: float, factor: float = 1.0) -> Estimate:
    """M_ij = C(k,i)^2 C(k,j)^2 factor^4 sum_o lam^(v_o) I_o, with the kernel's intensity factor at lam."""
    scale = math.comb(k, i) ** 2 * math.comb(k, j) ** 2 * factor**4
    value = math.fsum(lam**v * est.value for v, est in orbit_integrals)
    se = combine_se(*(lam**v * est.se for v, est in orbit_integrals))
    return Estimate(scale * value, scale * se, min(est.n for _, est in orbit_integrals))


def m_ij(kernel: UStatKernel, i: int, j: int, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Fourth-moment quantity M_ij at the given intensity, the general report's MTerm:
    the lam polynomial C(k,i)^2 C(k,j)^2 factor(lam)^4 sum_o lam^(v_o) I_o of the
    orbit integrals I_o over v_o variables that _m_orbit_integrals draws."""
    lam = float(intensity.lam)
    orbit_integrals = _m_orbit_integrals(kernel, i, j, intensity.window, integrator)
    return _assemble_m(kernel.order, i, j, orbit_integrals, lam, kernel.factor(lam))


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
