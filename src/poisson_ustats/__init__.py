"""Poisson U-statistics: simulation, chaos expansions, normal-approximation bounds.

The package covers the full pipeline for sums of a symmetric kernel over
k-tuples of distinct points of a Poisson process: sampling configurations,
evaluating and differencing the functionals, exact variance and product
formulas on simple functions, fourth-moment quantities, Wasserstein bounds
on the distance to a standard normal, and a harness that measures the decay
of that distance across intensities.

Each public module states its names once, in its own ``__all__``; the
package exports exactly their union.
"""

from . import applications, chaos_algebra, clt_bounds, distance, errors, harness, point_process, ustat_core
from .applications import *
from .chaos_algebra import *
from .clt_bounds import *
from .distance import *
from .errors import *
from .harness import *
from .point_process import *
from .ustat_core import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (applications, chaos_algebra, clt_bounds, distance, errors, harness, point_process, ustat_core)
    for name in module.__all__
]
