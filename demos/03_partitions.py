#!/usr/bin/env python3
"""Partition diagrams behind the moment formulas.

Enumerates the constrained partition family for small size vectors, shows
the connected subfamily and how many block-type orbits it falls into (the
integrals M_ij actually runs), and prints the fourth-moment terms they produce
for the order-2 sign kernel, where every integral is exact.
"""

from poisson_ustats import (
    BoxWindow,
    IntensityModel,
    Integrator,
    counterexample_kernel,
    enumerate_pi,
    enumerate_pi_bar,
    m_ij,
)
from poisson_ustats.chaos_algebra import _block_type_orbits


def main() -> None:
    print("size vector  |Pi|  |Pi-bar|  orbits")
    for sizes in ((1, 1), (2, 2), (1, 1, 1, 1), (2, 1, 1), (2, 2, 2), (2, 2, 1, 1), (2, 2, 3, 3), (3, 3, 3, 3)):
        full = len(enumerate_pi(sizes))
        connected = len(enumerate_pi_bar(sizes))
        orbits = len(_block_type_orbits(sizes))
        print(f"{str(sizes):12} {full:5d} {connected:9d} {orbits:7d}")

    print("\nconnected diagrams for sizes (2, 2):")
    for diagram in enumerate_pi_bar((2, 2)):
        print(f"  {diagram.to_text()}")

    lam = 5.0
    model = IntensityModel(lam, BoxWindow(((-1.0, 1.0),)))
    integ = Integrator(samples=1000, seed=1, strata=2)
    kern = counterexample_kernel()
    print(f"\nfourth-moment terms for the sign kernel at lam={lam:g}")
    print("(|f| = 1, so each diagram contributes (2 lam)^(number of free variables))")
    for i, j in ((1, 1), (1, 2), (2, 2)):
        est = m_ij(kern, i, j, model, integ)
        print(f"  M_{i}{j} = {est.value:,.0f} (se {est.se:g})")


if __name__ == "__main__":
    main()
