#!/usr/bin/env python3
"""The three normal-approximation bound modes on model kernels.

general:   fourth-moment terms at the full intensity (any kernel), each a
           polynomial in lam, so one estimation serves every lam
geometric: any kernel (its fn is lambda-free), bound = rate_factor / sqrt(lam)
local:     kernels with a support radius, ingredients at unit intensity
"""

import math

from poisson_ustats import (
    BoxWindow,
    IntensityModel,
    Integrator,
    UStatKernel,
    estimate_ingredients,
    geometric_bound,
    gilbert_kernel,
    local_bound,
    make_kernel,
)
import numpy as np

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))


def main() -> None:
    integ = Integrator(samples=2000, seed=5)

    # order-1 count: everything is exact and the bound is 2 / sqrt(lam); the
    # lambda-free ingredients are estimated once and reported at each lam
    flat = UStatKernel(1, lambda t: np.ones(t.shape[0]), name="flat-count")
    record = estimate_ingredients(flat, UNIT_SQUARE, integ, "general")
    for lam in (1.0, 4.0, 16.0, 100.0):
        rep = record.report(lam)
        print(f"flat count lam={lam:6g}: bound {rep.bound:.6f} (= 2/sqrt(lam) {2 / math.sqrt(lam):.6f})")

    print()
    kern = make_kernel("pairwise-distance")
    for lam in (4.0, 16.0, 64.0):
        rep = geometric_bound(kern, IntensityModel(lam, UNIT_SQUARE), integ)
        print(
            f"pairwise-distance lam={lam:4g}: bound {rep.bound:8.3f} "
            f"(rate factor {rep.rate_factor:.2f}, variance {rep.variance:.3g})"
        )
    print("quadrupling lam halves the bound, bit for bit")

    print()
    kern = gilbert_kernel(0.1)
    rep = local_bound(kern, IntensityModel(25.0, UNIT_SQUARE), integ)
    print(f"proximity kernel lam=25, delta=0.1: bound {rep.bound:.4g}")
    print(f"  occupation mass b = {rep.b_delta:.4f}, order constant c_k = {rep.c_k:.1f}")
    for term in rep.local_terms:
        print(f"  order {term.i}: norm {term.norm:.4g}, weight {term.weight:.4g}, "
              f"contribution {term.contribution:.4g}")
    print("the constants are conservative; the content is the lam^(-1/2) decay")


if __name__ == "__main__":
    main()
