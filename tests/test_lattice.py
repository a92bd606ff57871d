"""Randomly shifted rank-1 lattices: the draws of every unstratified integral."""

import math
import tracemalloc

import numpy as np
import pytest

from poisson_ustats import BoxWindow, Integrator, LineWindow, UStatKernel, variance_terms
from poisson_ustats._lattice import BITS, GENERATOR, MIN_SHIFTS, _rule, lattice_chunks, lattice_shape
from poisson_ustats._lattice_build import build
from poisson_ustats._streams import spawn_rng
from poisson_ustats.ustat_core import CHUNK_DRAWS

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))


def test_the_committed_vector_is_the_build_scripts():
    # CBC is sequential, so the first components of a longer build are a shorter build's
    assert GENERATOR[:6] == build(BITS, 6)


def test_every_rule_in_use_is_a_full_lattice():
    # every component is odd, so each one-dimensional projection of the
    # 2^m-point rule is {i / 2^m}, for every m up to BITS
    z = np.array(GENERATOR)
    assert np.all(z % 2 == 1) and np.all((0 < z) & (z < 1 << BITS))
    for m in range(13):
        size = 1 << m
        rule = _rule(0, size, z, size)
        np.testing.assert_array_equal(np.sort(rule, axis=0), np.repeat(np.arange(size)[:, None] / size, len(z), axis=1))


@pytest.mark.parametrize("count", [1, 15, 16, 31, 32, 300, 1200, 76_800, 80_000, 10**9])
def test_a_family_keeps_whole_shifts_of_the_largest_rule(count):
    # at least MIN_SHIFTS shifts of the largest power-of-two rule (up to 2^BITS);
    # the dropped remainder is under count / MIN_SHIFTS
    size, shifts = lattice_shape(count)
    assert size & (size - 1) == 0 and size <= 1 << BITS
    assert shifts >= min(count, MIN_SHIFTS) and size * shifts <= count
    if size < 1 << BITS:
        assert count - size * shifts < max(1, count / MIN_SHIFTS)
        assert count // (2 * size) < MIN_SHIFTS
    assert {76_800: 73_728, 80_000: 77_824, 300: 288}.get(count, size * shifts) == size * shifts


@pytest.mark.parametrize("count, dims", [(1200, 6), (76_800, 34), (3000, 70), (20, 3)])
def test_chunks_by_index_range_give_the_same_draws(count, dims):
    # the shifts come first, then the padding axes in draw order, so any chunk
    # size gives the same draws, none of them with more rows than its chunk
    whole = np.concatenate([u.copy() for u in lattice_chunks(spawn_rng(5, "family"), count, dims, 10**9)])
    for chunk in (1, 7, 1000, CHUNK_DRAWS):
        if count > 2000 * chunk:
            continue
        parts = [u.copy() for u in lattice_chunks(spawn_rng(5, "family"), count, dims, chunk)]
        assert max(map(len, parts)) <= chunk
        np.testing.assert_array_equal(np.concatenate(parts), whole)
    size, shifts = lattice_shape(count)
    assert whole.shape == (size * shifts, dims) and np.all((0.0 <= whole) & (whole < 1.0))
    # the lattice axes of one shift are that shift of the rule
    axes = min(dims, len(GENERATOR))
    first = whole[:size, :axes] - _rule(0, size, np.array(GENERATOR[:axes]), size)
    assert np.allclose(first - np.floor(first), first[0] - np.floor(first[0]), atol=1e-12)


def test_a_family_is_drawn_chunk_by_chunk():
    # 2^20 draws on 40 axes would be a 320 MB table; the chunks hold a few MB
    tracemalloc.start()
    try:
        rows = sum(len(u) for u in lattice_chunks(spawn_rng(1, "big"), 1 << 20, 40, CHUNK_DRAWS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 1 << 20
    assert peak < 4 * CHUNK_DRAWS * 40 * 8 < (1 << 20) * 40 * 8 / 10


def test_a_constant_integrand_has_zero_standard_error():
    # every shift mean is the same mean of the same values
    integ = Integrator(samples=1000, seed=2)
    for window, arity in ((UNIT_SQUARE, 2), (LineWindow(1.0), 3)):
        est = integ.integrate(lambda t: np.full(len(t), 0.7), window, arity)
        assert est.se == 0.0 and est.value == pytest.approx(0.7 * window.measure() ** arity, rel=1e-14)
    constant = UStatKernel(2, lambda t: np.full(len(t), 0.7), name="constant")
    assert all(t.se == 0.0 for t in variance_terms(constant, UNIT_SQUARE, integ))


def test_the_standard_error_is_the_spread_of_the_shift_means():
    # one-dimensional f(x) = x^2 over 1,200 draws: 18 shifts of 64 points
    est = Integrator(samples=1200, seed=4).integrate(lambda t: t[:, 0, 0] ** 2, BoxWindow(((0.0, 1.0),)), 1, path=("shifts",))
    u = np.concatenate([u.copy() for u in lattice_chunks(Integrator(seed=4).rng("shifts"), 1200, 1, CHUNK_DRAWS)])[:, 0]
    means = (u**2).reshape(18, 64).mean(axis=1)
    assert est.n == 1152 and est.value == float((u**2).mean())
    assert est.se == pytest.approx(means.std(ddof=1) / math.sqrt(18), rel=1e-12)
    # a shift of the 64-point rule errs by about (Delta - 1/2) / 64 on x^2, so
    # the se is near 1 / (64 sqrt(12 * 18)), far below plain Monte Carlo's 0.3 / sqrt(1152)
    assert 0.0 < est.se < 0.25 * 0.3 / math.sqrt(1152) and est.within(1.0 / 3.0, 4.0)
