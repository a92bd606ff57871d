"""Randomly shifted rank-1 lattice points, the draws of every unstratified integral.

A family of ``count`` draws on ``dims`` unit-cube axes takes R = count // 2^m
independent uniform shifts of the full 2^m-point rank-1 lattice
{i z / 2^m mod 1 : 0 <= i < 2^m} (L'Ecuyer & Lemieux, Management Science 46,
2000): 2^m is the largest power of two up to 2^BITS that leaves
R >= MIN_SHIFTS (a family of fewer than MIN_SHIFTS draws is R single-point
shifts, plain Monte Carlo), and the remainder, under count / MIN_SHIFTS
unless 2^m is capped, is dropped.  Draw t is lattice point t mod 2^m under
shift t // 2^m, so every shift is a contiguous run of 2^m draws; the estimate
is the mean over all draws and its standard error the spread of the R shift
means.  Axes past the length of GENERATOR are iid uniform per draw, which
keeps every draw uniform on the cube and the estimate unbiased.

The family's stream gives the R shifts first, then the padding axes in draw
order, so the draws of any run of indices do not depend on how the family is
cut into chunks, and no chunk holds more than its own rows.

GENERATOR is the embedded vector that _lattice_build.py builds by fast CBC
(product weights j^-2); reduced mod 2^m it serves every m <= BITS.  Every
component is odd, so each one-dimensional projection of a rule is
{i / 2^m}.
"""

from __future__ import annotations

import numpy as np

BITS = 20
MIN_SHIFTS = 16
GENERATOR = (
    1, 433461, 227565, 154533, 354221, 271721, 954245, 160537, 579729, 139049,
    859069, 556005, 118297, 841257, 936425, 562297, 59721, 595857, 948873, 928145,
    860345, 583545, 79661, 726281, 490741, 609565, 636821, 705309, 124089, 14685,
    1025497, 235141, 605625, 282181, 624865, 502025, 819889, 441177, 617661, 757089,
    973497, 373577, 230005, 399073, 234249, 872529, 719893, 579233, 291861, 498641,
    862349, 152145, 427453, 531881, 715281, 418605, 303245, 179817, 941873, 267485,
    714489, 506297, 450729, 701757,
)


def lattice_shape(count: int) -> tuple:
    """(points per shift 2^m, shift count R) of a family of ``count`` draws."""
    m = min(BITS, max(0, (count // MIN_SHIFTS).bit_length() - 1))
    return 1 << m, count >> m


def _rule(lo: int, hi: int, z: np.ndarray, size: int, out=None, index=None) -> np.ndarray:
    """Points lo..hi-1 of the unshifted 2^m-point rule, exact in float64,
    into ``out`` (hi - lo, len(z)) through the int64 scratch ``index`` of
    that shape when they are given."""
    index = np.multiply.outer(np.arange(lo, hi, dtype=np.int64), z, out=index)
    index &= size - 1
    return np.multiply(index, 1.0 / size, out=out)


def lattice_chunks(rng: np.random.Generator, count: int, dims: int, chunk: int):
    """Yield the unit-cube draws (rows, dims) of a family in draw order, at
    most ``chunk`` rows at a time: whole shifts of one rule built once when
    2^m <= chunk, else runs of one shift.  Every chunk is built in place in
    one buffer of the largest chunk's rows (shift added into it, wrapped
    into [0, 1), padding axes drawn into a scratch block and copied in),
    which the next chunk overwrites: the caller must be done with a chunk,
    or copy it, before it asks for the next."""
    size, shifts = lattice_shape(count)
    axes = min(dims, len(GENERATOR))
    z = np.array(GENERATOR[:axes], dtype=np.int64)
    shift = rng.random((shifts, axes))
    rule = _rule(0, size, z, size) if size <= chunk else None
    per = chunk // size if rule is not None else 1  # shifts per chunk
    rows = min(per, shifts) * size if rule is not None else chunk  # the largest chunk
    pad = np.empty((rows, dims - axes)) if axes < dims else None
    index = np.empty((rows, axes), dtype=np.int64) if rule is None else None
    buf = np.empty((rows, dims))

    def draws(s: int, lo: int) -> np.ndarray:
        n = min(chunk, size - lo) if rule is None else min(per, shifts - s) * size
        u = buf[:n]
        head = u[:, :axes]
        if rule is None:
            _rule(lo, lo + n, z, size, head, index[:n])
            head += shift[s]
        else:
            np.add(rule, shift[s : s + n // size, None], out=u.reshape(-1, size, dims)[..., :axes])
        head -= head >= 1.0
        if pad is not None:
            u[:, axes:] = rng.random(out=pad[:n])
        return u

    for s in range(0, shifts, per):
        for lo in range(0, size, chunk) if rule is None else (0,):
            yield draws(s, lo)
