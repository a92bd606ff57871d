"""Build the generating vector of _lattice.py: embedded fast CBC.

Rank-1 lattice rules of 2^m points, {i z / 2^m mod 1 : 0 <= i < 2^m}, for
every m up to BITS, all read off one vector z of odd integers below 2^BITS
(reduced mod 2^m).  Component by component (Nuyens & Cools, Math. Comp. 75,
2006; for embedded sizes Cools, Kuo & Nuyens, SIAM J. Sci. Comput. 28, 2006),
z_j minimises over the odd residues the worst ratio, over m from 3 to BITS,
of the shift-averaged squared worst-case error in the weighted unanchored
Sobolev space with product weights gamma_j = j^-2,

    e_m^2 = -1 + 2^-m sum_i prod_j (1 + gamma_j B2({i z_j / 2^m})),
    B2(x) = x^2 - x + 1/6,

to the least e_m^2 that any residue attains for that m given z_1..z_(j-1).

Every odd residue mod 2^B is +-5^a, and B2(x) = B2(1 - x), so the candidates
are z = 5^a, a < 2^(B-2).  The sum over the points i = 2^v u (u odd) of one
2-adic valuation v is a cyclic correlation over the exponent of 5 modulo
2^(B-v), computed by FFT.  Run as

    python -m poisson_ustats._lattice_build

to print the vector that _lattice.py commits.
"""

from __future__ import annotations

import numpy as np

BITS = 20
COMPONENTS = 64


def _omega(x: np.ndarray) -> np.ndarray:
    return x * x - x + 1.0 / 6.0


def _powers_of_five(count: int, modulus: int) -> np.ndarray:
    out = np.empty(count, dtype=np.int64)
    value = 1
    for a in range(count):
        out[a] = value
        value = value * 5 % modulus
    return out


def build(bits: int = BITS, components: int = COMPONENTS) -> tuple:
    """The first ``components`` components of the embedded vector, odd ints below 2^bits."""
    n = 1 << bits
    five = _powers_of_five(n >> 2, n)  # 5^a mod 2^bits, a < 2^(bits-2)
    index = np.arange(n, dtype=np.int64)
    p = np.ones(n)  # prod over the chosen components of 1 + gamma_j B2(i z_j / n), per point i
    z = []
    for j in range(1, components + 1):
        gamma = float(j) ** -2
        # sums of p and of p * B2(i z / n) over the 2^m-point rule, the points i of
        # 2-adic valuation >= bits - m: the four of valuation >= bits - 2 do not
        # depend on z; those of valuation bits - m (m >= 3) are 2^(bits-m) (+-5^b),
        # b < 2^(m-2), and give a cyclic correlation in the exponent of z = 5^a
        fixed = p[[0, n >> 1, n >> 2, 3 * (n >> 2)]]
        mass = fixed.sum()
        total = np.array([fixed @ _omega(np.array([0.0, 0.5, 0.25, 0.75]))])
        score = np.zeros(1)  # worst ratio so far, as a function of a mod 2^(m-2)
        for m in range(3, bits + 1):
            v = bits - m
            modulus, period = 1 << m, 1 << (m - 2)
            units = five[:period] % modulus
            weights = p[units << v]
            shape = _omega(units / modulus)
            level = 2.0 * np.fft.irfft(np.conj(np.fft.rfft(weights)) * np.fft.rfft(shape), period)
            mass += 2.0 * weights.sum()
            total = np.tile(total, 2) + level
            error = -1.0 + (mass + gamma * total) / modulus
            ratio = error / error.min()
            score = np.maximum(np.tile(score, 2), ratio)
        # every odd z_1 gives the same one-dimensional rule
        a = int(np.argmin(score)) if j > 1 else 0
        zj = int(five[a])
        z.append(zj)
        p *= 1.0 + gamma * _omega((index * zj & (n - 1)) / n)
    return tuple(z)


if __name__ == "__main__":
    print(build())
