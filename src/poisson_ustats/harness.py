"""Experiment driver: replicate batches, rate fits, persistence.

Replicates standardize with formula moments (mean and variance assembled
from intensity-free integrals), not sample moments, so the recorded values
are exactly the normalized quantity the distance estimates refer to.  The
integrals are estimated once per run (clt_bounds.Ingredients); a rate
experiment shares them with its bound column and returns the records it
simulated (RateFitResult.records).  Every random stream derives from
(master seed, lambda index, replicate index); rerunning a config
byte-reproduces its outputs.

The replicates of one lambda run as a batch.  _streams._cell_streams
derives the streams of all its cells in one vectorized pass, each equal to
spawn_rng(seed, lambda index, replicate index) with the stream_token value
as the record's token, and resets one generator in place per cell.
point_process._draw_cells draws every cell from its stream, by the draw
rule of sample_points and sample_lines, into one point buffer for the
lambda: consecutive rows per cell, with the cell sizes beside it.  Then
point_process._check_cells runs every PointConfiguration check on all
cells of the lambda, in blocks that are slices of that buffer, and
ustat_core._evaluate_many computes their kernel sums together, gathering
every kernel call's tuples into one reused buffer: exhaustive kernels
grouped by configuration size, local kernels on one cell grid per group of
consecutive cells (at most _GROUP_RUNS partner runs); every value equals
evaluate on the sampled configuration of that cell alone, bit for bit.
A lambda's buffer is freed before the next lambda draws.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from ._files import _csv_numbers, _read_csv, _write_text
# spawn_rng, stream_token and evaluate are unused here (_simulate derives each
# lambda's streams and tokens with _cell_streams and calls _evaluate_many);
# perfbench/tracing.py SITES wraps all three names at this import site
from ._streams import _cell_streams, spawn_rng, stream_token
from .applications import make_kernel
# geometric_bound, local_bound and variance_terms are unused here; perfbench/tracing.py SITES wraps them
from .clt_bounds import BoundReport, Ingredients, _local_mass, estimate_ingredients, geometric_bound, local_bound
from .distance import SampleSet, kolmogorov_to_normal, wasserstein_to_normal
from .errors import ConfigError, DegenerateFunctionalError, _as_config_error, _whole_number
from .point_process import (
    BallWindow,
    BoxWindow,
    IntensityModel,
    LineWindow,
    Window,
    _buffer_rows,
    _check_cells,
    _draw_cells,
    # sample_lines and sample_points are unused here (_simulate calls
    # _draw_cells and _check_cells); perfbench/tracing.py SITES wraps both
    sample_lines,
    sample_points,
)
from .ustat_core import Integrator, UStatKernel, _evaluate_many, evaluate, variance_terms

__all__ = [
    "ExperimentConfig",
    "ReplicateRecord",
    "RateFitResult",
    "window_from_spec",
    "window_to_spec",
    "default_window",
    "moment_table",
    "run_replicates",
    "rate_experiment",
    "emit_csv",
    "emit_report",
    "read_records",
    "read_rates",
]


def window_from_spec(doc: dict) -> Window:
    """Build a window from a JSON-style {"shape": ...} mapping."""
    if not isinstance(doc, dict) or "shape" not in doc:
        raise ConfigError("window spec needs a 'shape' key")
    with _as_config_error("window spec"):
        shape = doc["shape"]
        if shape == "box":
            if "bounds" not in doc:
                raise ConfigError("box window spec needs 'bounds'")
            return BoxWindow(tuple(tuple(float(v) for v in axis) for axis in doc["bounds"]))
        if shape == "ball":
            if "radius" not in doc:
                raise ConfigError("ball window spec needs 'radius'")
            return BallWindow(float(doc["radius"]), int(doc.get("dimension", 2)))
        if shape == "line-disk":
            if "radius" not in doc:
                raise ConfigError("line-disk window spec needs 'radius'")
            return LineWindow(float(doc["radius"]))
        raise ConfigError(f"unknown window shape {shape!r}; use box, ball or line-disk")


def window_to_spec(window: Window) -> dict:
    if isinstance(window, BoxWindow):
        return {"shape": "box", "bounds": [list(axis) for axis in window.bounds]}
    if isinstance(window, BallWindow):
        return {"shape": "ball", "radius": window.radius, "dimension": window.dimension}
    if isinstance(window, LineWindow):
        return {"shape": "line-disk", "radius": window.radius}
    raise ConfigError(f"unknown window type {type(window).__name__}")


def default_window(kernel_name: str) -> Window:
    """Conventional window for a registered kernel name."""
    if kernel_name == "counterexample":
        return BoxWindow(((-1.0, 1.0),))
    if kernel_name == "line-intersections":
        return LineWindow(1.0)
    return BoxWindow(((0.0, 1.0), (0.0, 1.0)))


def _section(doc: dict, key: str, known: set) -> dict:
    """The config object under ``key`` ({} if absent); ConfigError if it is not an object or has other keys than ``known``."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config {key!r} must be an object")
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown config keys in {key!r}: {sorted(unknown)}; known: {sorted(known)}")
    return section


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: kernel, window, lambda grid, replication plan."""

    kernel: Union[str, UStatKernel]
    window: Window
    lambdas: tuple
    replicates: int
    integrator: Integrator = Integrator()
    seed: int = 0
    delta: Optional[float] = None
    k: Optional[int] = None
    c_k: Optional[float] = None
    records_path: Optional[str] = None
    rates_path: Optional[str] = None
    report_path: Optional[str] = None

    def __post_init__(self):
        with _as_config_error("config"):
            lambdas = tuple(float(v) for v in self.lambdas)
            object.__setattr__(self, "replicates", _whole_number("replicates", self.replicates))
            object.__setattr__(self, "seed", _whole_number("seed", self.seed))
            if self.k is not None:
                object.__setattr__(self, "k", _whole_number("k", self.k))
            for name in ("delta", "c_k"):
                value = getattr(self, name)
                if isinstance(value, bool):
                    raise ConfigError(f"{name} must be a number, got {value!r}")
                value = None if value is None else float(value)
                if value is not None and not (math.isfinite(value) and value > 0):
                    raise ConfigError(f"{name} must be positive and finite, got {value}")
                object.__setattr__(self, name, value)
        if not lambdas:
            raise ConfigError("need at least one lambda")
        if any(not (v > 0 and math.isfinite(v)) for v in lambdas):
            raise ConfigError(f"lambdas must be positive and finite, got {lambdas}")
        if any(b <= a for a, b in zip(lambdas, lambdas[1:])):
            raise ConfigError(f"lambda grid must be strictly increasing, got {lambdas}")
        object.__setattr__(self, "lambdas", lambdas)
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        # a constant that no part of the run reads is an error; make_kernel
        # checks delta and k against a kernel name
        if isinstance(self.kernel, UStatKernel) and (self.delta is not None or self.k is not None):
            raise ConfigError("delta and k build a registered kernel; a kernel object takes neither")
        kernel = self.resolve_kernel()
        if self.c_k is not None and kernel.locality is None:
            raise ConfigError(f"c_k is the local bound's constant; {kernel.name} has no locality")
        # the moments take powers of lambda up to lam^(2k-1); refuse, before any
        # draw, a grid whose largest lambda has no float lam^(2k)
        try:
            lambdas[-1] ** (2 * kernel.order)
        except OverflowError:
            raise ConfigError(f"lambda {lambdas[-1]:g} overflows lambda^{2 * kernel.order} (2k for order {kernel.order})") from None
        # and a delta whose local bound has no float b(delta) at that lambda
        if kernel.locality is not None and not isinstance(self.window, LineWindow):
            _local_mass(lambdas[-1], kernel.locality, self.window.point_dim)

    def resolve_kernel(self) -> UStatKernel:
        if isinstance(self.kernel, UStatKernel):
            return self.kernel
        return make_kernel(self.kernel, delta=self.delta, k=self.k, window=self.window)

    def intensity(self, lam: float) -> IntensityModel:
        return IntensityModel(lam, self.window)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**cls._json_fields(text))

    @staticmethod
    def _json_fields(text: str) -> dict:
        """The constructor's fields from a JSON config, parsed but not yet
        validated together, so that overrides can join them first."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config JSON must be an object")
        known = {
            "kernel", "window", "lambdas", "replicates", "integrator",
            "seed", "delta", "k", "c_k", "out",
        }
        unknown = set(doc) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("kernel", "lambdas", "replicates"):
            if key not in doc:
                raise ConfigError(f"config misses required key {key!r}")
        with _as_config_error("config"):
            kernel = doc["kernel"]
            if not isinstance(kernel, str):
                raise ConfigError("config 'kernel' must be a registered name")
            # tuple() of a string would read "48" as the grid (4, 8), and float(True) is 1.0
            lambdas = doc["lambdas"]
            if not isinstance(lambdas, list) or any(isinstance(v, bool) for v in lambdas):
                raise ConfigError(f"config 'lambdas' must be a list of numbers, got {lambdas!r}")
            window = window_from_spec(doc["window"]) if "window" in doc else default_window(kernel)
            integ = _section(doc, "integrator", {"samples", "seed", "strata"})
            integrator = Integrator(**integ)
            out = _section(doc, "out", {"records", "rates", "report"})
            for key in ("records", "rates", "report"):
                if not isinstance(out.get(key, ""), str):
                    raise ConfigError(f"config 'out.{key}' must be a path string")
            return dict(
                kernel=kernel,
                window=window,
                lambdas=tuple(lambdas),
                replicates=doc["replicates"],
                integrator=integrator,
                seed=doc.get("seed", 0),
                delta=doc.get("delta"),
                k=doc.get("k"),
                c_k=doc.get("c_k"),
                records_path=out.get("records"),
                rates_path=out.get("rates"),
                report_path=out.get("report"),
            )


class ReplicateRecord(NamedTuple):
    """One simulated value with its formula-moment standardization: a row
    of the records CSV, its fields in RECORDS_HEADER's column order."""

    lam: float
    index: int
    value: float
    standardized: float
    seed: int


@dataclass(frozen=True)
class RateFitResult:
    """Per-lambda distances and bounds with a log-log slope fit."""

    lambdas: tuple
    d_w: tuple
    d_k: tuple
    bounds: tuple
    ratios: tuple  # bound / d_w per lambda
    slope: float
    slope_se: float
    intercept: float
    replicates: int
    records: tuple = field(default=(), repr=False)  # the ReplicateRecords the fit used


def moment_table(config: ExperimentConfig) -> list:
    """Formula moments per lambda: rows of (lambda, mean, variance estimate)."""
    ingredients = estimate_ingredients(config.resolve_kernel(), config.window, config.integrator)
    return [(lam,) + ingredients.moments(lam) for lam in config.lambdas]


def run_replicates(config: ExperimentConfig) -> list:
    """Simulate every (lambda, replicate) cell of the config.

    Refuses the largest lambda's point buffer above its budget before any
    stream or ingredient, and aborts before sampling a lambda whose formula
    variance is statistically indistinguishable from zero, naming it.
    """
    _buffer_rows(config.intensity(config.lambdas[-1]).mean_count(), config.replicates)
    return _simulate(config, estimate_ingredients(config.resolve_kernel(), config.window, config.integrator))


def _simulate(config: ExperimentConfig, ingredients: Ingredients) -> list:
    records = []
    for li, lam in enumerate(config.lambdas):
        mean, var = ingredients.moments(lam)
        if not var.value > 3.0 * var.se:
            raise DegenerateFunctionalError(
                f"variance at lambda={lam:g} is consistent with zero "
                f"({var.value:.3g}, se {var.se:.3g})"
            )
        sd = math.sqrt(var.value)
        streams = _cell_streams(config.seed, (li,), range(config.replicates))
        points, sizes, tokens = _draw_cells(config.window, config.intensity(lam).mean_count(), streams, config.replicates)
        _check_cells(config.window, points, sizes)
        values = _evaluate_many(ingredients.kernel, points, sizes)
        # the next lambda draws into a buffer of its own: free this one first
        del points
        standardized = ((np.array(values) - mean) / sd).tolist()
        records.extend(map(ReplicateRecord, itertools.repeat(lam), itertools.count(), values, standardized, tokens))
    return records


def _ols_loglog(lambdas: Sequence[float], d_w: Sequence[float]) -> tuple:
    x = np.log(np.asarray(lambdas, dtype=float))
    y = np.log(np.asarray(d_w, dtype=float))
    xbar = float(np.mean(x))
    ybar = float(np.mean(y))
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    dof = len(x) - 2
    slope_se = float(math.sqrt(float(np.sum(resid**2)) / dof / sxx)) if dof > 0 else 0.0
    return slope, slope_se, intercept


def rate_experiment(config: ExperimentConfig) -> RateFitResult:
    """Distances and bounds across the lambda grid with a slope fit.

    Needs at least 3 lambdas, at least 100 replicates per lambda and
    lambdas >= 1 (the rate-form bounds assume it).  Any kernel (its ``fn``
    is lambda-free) has a rate-form bound: the local one when it declares a
    locality radius, else the geometric one.
    """
    if len(config.lambdas) < 3:
        raise ConfigError(f"rate fit needs >= 3 lambdas, got {len(config.lambdas)}")
    if config.replicates < 100:
        raise ConfigError(f"distance estimation needs >= 100 replicates, got {config.replicates}")
    if config.lambdas[0] < 1.0:
        raise ConfigError("rate-form bounds need every lambda >= 1")
    kernel = config.resolve_kernel()
    local = kernel.locality is not None
    # the largest lambda's replicate buffer, refused before any stream or ingredient
    _buffer_rows(config.intensity(config.lambdas[-1]).mean_count(), config.replicates)
    ingredients = estimate_ingredients(
        kernel, config.window, config.integrator, "local" if local else "geometric"
    )
    records = _simulate(config, ingredients)
    bounds = [ingredients.report(lam, config.c_k).bound for lam in config.lambdas]
    d_w = []
    d_k = []
    reps = config.replicates
    for li, lam in enumerate(config.lambdas):
        # _simulate returns each lambda's records as one run of replicates
        values = np.array([r.standardized for r in records[li * reps : (li + 1) * reps]])
        sample = SampleSet(values, label=f"lambda={lam:g}")
        d_w.append(wasserstein_to_normal(sample))
        d_k.append(kolmogorov_to_normal(sample))
    slope, slope_se, intercept = _ols_loglog(config.lambdas, d_w)
    return RateFitResult(
        lambdas=tuple(config.lambdas),
        d_w=tuple(d_w),
        d_k=tuple(d_k),
        bounds=tuple(bounds),
        ratios=tuple(b / d for b, d in zip(bounds, d_w)),
        slope=slope,
        slope_se=slope_se,
        intercept=intercept,
        replicates=config.replicates,
        records=tuple(records),
    )


RECORDS_HEADER = ["lambda", "replicate", "value", "standardized", "seed"]
RATES_HEADER = ["lambda", "d_w", "d_k", "bound", "ratio"]
RECORDS_TYPES = (float, int, float, float, int)


def _csv_table(payload) -> str:
    """CSV text of replicate records or of a rate fit, as emit_csv writes it."""
    if isinstance(payload, RateFitResult):
        rows = zip(payload.lambdas, payload.d_w, payload.d_k, payload.bounds, payload.ratios)
        return _csv_numbers(RATES_HEADER, (float,) * len(RATES_HEADER), rows)
    return _csv_numbers(RECORDS_HEADER, RECORDS_TYPES, payload)


def emit_csv(payload, path) -> None:
    """Write replicate records or a rate fit as CSV (17 significant digits)."""
    _write_text(path, _csv_table(payload))


def emit_report(report: BoundReport, path) -> None:
    """Write a bound report as schema JSON."""
    _write_text(path, report.to_json() + "\n")


def read_records(path) -> list:
    """Parse a records CSV back into ReplicateRecord rows."""
    _, rows = _read_csv(path, "records", lambda h: h == RECORDS_HEADER, RECORDS_TYPES)
    return [ReplicateRecord(*row) for row in rows]


def read_rates(path) -> list:
    """Parse a rate CSV into (lambda, d_w, d_k, bound, ratio) tuples."""
    return _read_csv(path, "rate", lambda h: h == RATES_HEADER)[1]
