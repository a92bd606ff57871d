"""Deterministic splittable random streams.

Every stochastic routine in the package derives its generator from a master
seed plus a structural path (replicate index, integral name, diagram index).
Streams for different paths never overlap, results do not depend on
execution order, and reruns with the same seed are bit-identical.

spawn_rng builds one SeedSequence and one PCG64 generator per path.  A run
of replicate streams (paths that differ only in their last part) goes
through _cell_streams instead: it computes SeedSequence's entropy mixing for
all replicates at once, as uint32 arithmetic over numpy columns, and resets
one generator in place per replicate, giving the same streams and tokens
bit for bit.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["seed_sequence", "spawn_rng", "stream_token"]

# numpy's SeedSequence (pool of four 32-bit words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _key_part(part) -> int:
    # spawn_key entries must be non-negative integers; hash names stably
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    value = int(part)
    if value < 0:
        raise ValueError(f"stream path parts must be non-negative, got {part!r}")
    return value


def seed_sequence(seed: int, *path) -> np.random.SeedSequence:
    """SeedSequence for the child stream at ``path`` under ``seed``."""
    return np.random.SeedSequence(int(seed), spawn_key=tuple(_key_part(p) for p in path))


def spawn_rng(seed: int, *path) -> np.random.Generator:
    """Generator for the child stream at ``path`` under ``seed``."""
    return np.random.default_rng(seed_sequence(seed, *path))


def stream_token(seed: int, *path) -> int:
    """Stable integer identifying a child stream (for provenance records)."""
    return int(seed_sequence(seed, *path).generate_state(1, np.uint64)[0])


def _width(value: int) -> int:
    """Number of 32-bit words SeedSequence splits a non-negative int into (0 is one word)."""
    return max(1, (value.bit_length() + 31) // 32)


def _words(value: int) -> list:
    return [(value >> (32 * j)) & _MASK32 for j in range(_width(value))]


def _hasher(const: int, mult: int):
    """SeedSequence's hashmix step; its multiplier advances with every call."""

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ value >> 16

    return hashmix


def _generate_state(columns: list) -> list:
    """SeedSequence mix_entropy, then generate_state(4, uint64): one uint64 column per word, one row per stream."""
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ result >> 16

    zero = np.zeros_like(columns[0])
    pool = [hashmix(columns[i] if i < len(columns) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in columns[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    out = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(2 * _POOL_SIZE)]
    return [out[2 * i] | out[2 * i + 1] << 32 for i in range(_POOL_SIZE)]


def _cell_streams(seed: int, prefix: tuple, indices):
    """Yield (stream_token(seed, *prefix, r), spawn_rng(seed, *prefix, r)) for each r in ``indices``.

    The values and the generator's draws are bit-identical to those two
    calls.  The yielded generator is one object, reset in place for every
    item, so it is valid only until the next item: draw from it before
    advancing.  Negative parts raise at the call, as _key_part does.
    """
    head = _words(_key_part(int(seed)))
    # a spawned SeedSequence pads its run entropy with zeros to the pool size
    head += [0] * (_POOL_SIZE - len(head))
    for part in prefix:
        head += _words(_key_part(part))
    parts = [_key_part(r) for r in indices]
    # streams whose entropy has the same length share every hash constant
    groups = {}
    for row, r in enumerate(parts):
        groups.setdefault(_width(r), []).append(row)
    seeds = np.empty((len(parts), _POOL_SIZE), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for width, rows in groups.items():
            columns = [np.full(len(rows), word, dtype=np.uint32) for word in head]
            columns += [np.array([parts[i] >> (32 * j) & _MASK32 for i in rows], dtype=np.uint32) for j in range(width)]
            seeds[rows] = np.column_stack(_generate_state(columns))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)

    def streams():
        for s0, s1, i0, i1 in seeds.tolist():
            # PCG64 srandom: state 0, step, add the initial state, step
            inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
            state = ((inc + (s0 << 64 | s1)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield s0, rng

    return streams()
