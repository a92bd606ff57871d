"""Discrete multiple stochastic integrals and partition combinatorics.

Simple functions live on a shared grid of disjoint rectangular cells and
vanish whenever a cell index repeats; their multiple integral against the
compensated process is the polynomial

    I_n(f) = sum_{cells} coeff * prod_l (eta(B_l) - mu(B_l)).

Moments of products of such integrals reduce to sums over partitions of the
argument variables subject to three constraints: variables of one factor
never share a block, every block has at least two elements, and (for the
connected family) the blocks hook all factors together.  The enumeration
here is the exact combinatorial input to the fourth-moment quantities
M_ij computed by :func:`m_ij`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, ConfigError
from .point_process import IntensityModel, PointConfiguration
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
]

MAX_PARTITION_VARIABLES = 16


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


def is_connected(diagram: PartitionDiagram) -> bool:
    """True when the blocks hook every factor index together.

    Equivalent to: no split of the factors into two nonempty groups leaves
    every block inside a single group.  A single factor is connected.
    """
    m = len(diagram.sizes)
    parent = list(range(m + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for block in diagram.blocks:
        anchor = find(block[0][0])
        for l, _ in block[1:]:
            parent[find(l)] = anchor
    return len({find(l) for l in range(1, m + 1)}) == 1


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


def m_ij(kernel: UStatKernel, i: int, j: int, intensity: IntensityModel, integrator: Integrator) -> Estimate:
    """Fourth-moment quantity M_ij of the kernel at the given intensity.

    Sums, over connected diagrams of four factors with (i, i, j, j)
    identified arguments, the integral of the absolute product of four
    kernel copies; factors 1-2 keep k-i free arguments and factors 3-4
    keep k-j.  Each diagram integral runs over at most 4k-i-j variables,
    all drawn jointly (and stratified together under ``strata`` > 1) on the
    diagram's own stream; the total carries the square C(k,i)^2 C(k,j)^2.
    """
    k = kernel.order
    if not 1 <= i <= j <= k:
        raise ConfigError(f"need 1 <= i <= j <= order, got i={i}, j={j}, order={k}")
    sizes = (i, i, j, j)
    free = (k - i, k - i, k - j, k - j)
    lam = float(intensity.lam)

    def absolute(tuples: np.ndarray) -> np.ndarray:
        return np.abs(kernel(tuples))

    values, ses, n = [], [], integrator.samples
    for d_idx, diagram in enumerate(enumerate_pi_bar(sizes)):
        slots = [[0] * size for size in sizes]
        for b, members in enumerate(diagram.blocks):
            for l, t in members:
                slots[l - 1][t - 1] = b
        pos = diagram.n_blocks
        for l in range(4):
            slots[l].extend(range(pos, pos + free[l]))
            pos += free[l]
        # pos = n_blocks + 2(k-i) + 2(k-j) variables, at most 4k-i-j
        est = _product_integral(absolute, k, intensity.window, integrator, pos, slots, ("m", i, j, d_idx), scale=lam**pos)
        values.append(est.value)
        ses.append(est.se)
        n = min(n, est.n)
    scale = math.comb(k, i) ** 2 * math.comb(k, j) ** 2
    return Estimate(scale * math.fsum(values), scale * combine_se(*ses), n)


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
