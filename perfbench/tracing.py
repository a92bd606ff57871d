"""Spans and counts recorded from outside the package.

The package imports its helpers with ``from .x import y``, so a call such as
``harness.run_replicates -> evaluate`` goes through the ``evaluate`` name
bound in ``harness``, not through ``ustat_core.evaluate``.  ``install``
therefore wraps every public function at each module that imports it (its
import site).  A site missing from the package makes ``install`` raise, so a
change that moves an import must update ``SITES`` with it instead of losing
that layer's spans without notice.

Spans are kept in memory as ``[id, parent, name, start, end]`` and written
by the caller when the run ends.  The kernel ``fn`` of every kernel that
``make_kernel`` returns is wrapped for counts only, with no span per call.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import time
from collections import Counter

import numpy as np

# (importing module, attribute, span name); the layer is the span name's prefix
SITES = (
    ("harness", "sample_points", "point_process.sample_points"),
    ("harness", "sample_lines", "point_process.sample_lines"),
    ("cli", "sample_points", "point_process.sample_points"),
    ("cli", "sample_lines", "point_process.sample_lines"),
    ("harness", "spawn_rng", "streams.spawn_rng"),
    ("harness", "stream_token", "streams.stream_token"),
    ("cli", "spawn_rng", "streams.spawn_rng"),
    ("harness", "evaluate", "ustat_core.evaluate"),
    ("cli", "evaluate", "ustat_core.evaluate"),
    ("harness", "variance_terms", "ustat_core.variance_terms"),
    ("clt_bounds", "variance_terms", "ustat_core.variance_terms"),
    ("ustat_core", "variance_terms", "ustat_core.variance_terms"),
    ("clt_bounds", "variance", "ustat_core.variance"),
    ("clt_bounds", "m_ij", "chaos_algebra.m_ij"),
    ("chaos_algebra", "enumerate_pi_bar", "chaos_algebra.enumerate_pi_bar"),
    ("clt_bounds", "enumerate_pi_bar", "chaos_algebra.enumerate_pi_bar"),
    ("harness", "local_bound", "clt_bounds.local_bound"),
    ("harness", "geometric_bound", "clt_bounds.geometric_bound"),
    ("cli", "local_bound", "clt_bounds.local_bound"),
    ("cli", "geometric_bound", "clt_bounds.geometric_bound"),
    ("cli", "wasserstein_bound", "clt_bounds.wasserstein_bound"),
    ("harness", "wasserstein_to_normal", "distance.wasserstein_to_normal"),
    ("harness", "kolmogorov_to_normal", "distance.kolmogorov_to_normal"),
    ("harness", "run_replicates", "harness.run_replicates"),
    ("cli", "run_replicates", "harness.run_replicates"),
    ("cli", "rate_experiment", "harness.rate_experiment"),
    ("cli", "emit_csv", "harness.emit_csv"),
    ("cli", "emit_report", "harness.emit_report"),
)
LAYERS = ("point_process", "streams", "ustat_core", "chaos_algebra", "clt_bounds", "distance", "harness")


class Tracer:
    """In-memory spans plus named counts for one traced run."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.kernel = {}  # innermost span name -> [calls, tuples, nonzero values]
        self._stack = []

    def wrap(self, name: str, fn, on_result=None):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = [len(self.spans), parent, name, time.perf_counter(), None]
            self.spans.append(record)
            self._stack.append(record[0])
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[layer + ".failed"] += 1
                raise
            finally:
                record[4] = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result, args, None if parent is None else self.spans[parent][2])
            return result

        return traced

    def count_kernel(self, kernel):
        """Copy of a kernel whose ``fn`` counts calls, tuples and nonzero values."""
        fn = kernel.fn

        def counted(tuples):
            try:
                out = fn(tuples)
            except Exception:
                self.counts["kernel.failed"] += 1
                raise
            where = self.spans[self._stack[-1]][2] if self._stack else None
            row = self.kernel.get(where)
            if row is None:
                row = self.kernel[where] = [0, 0, 0]
            row[0] += 1
            row[1] += len(tuples)
            row[2] += int(np.count_nonzero(out))
            return out

        return dataclasses.replace(kernel, fn=counted)

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its direct children."""
        own = [s[4] - s[3] for s in self.spans]
        for span in self.spans:
            if span[1] is not None:
                own[span[1]] -= span[4] - span[3]
        return own


def install(tracer: Tracer) -> None:
    """Wrap every import site in ``SITES`` and the kernels ``make_kernel`` returns."""

    def on_points(result, _args, _parent):
        tracer.counts["point_process.points"] += int(result.size)

    def on_diagrams(result, _args, parent):
        if parent == "chaos_algebra.m_ij":
            tracer.counts["chaos_algebra.diagrams"] += len(result)

    def on_emit(_result, args, _parent):
        if len(args) >= 2 and isinstance(args[0], (list, tuple)):
            tracer.counts["harness.records_bytes"] += os.path.getsize(args[1])

    hooks = {
        "point_process.sample_points": on_points,
        "point_process.sample_lines": on_points,
        "chaos_algebra.enumerate_pi_bar": on_diagrams,
        "harness.emit_csv": on_emit,
    }
    for module_name, attr, name in SITES:
        module = importlib.import_module(f"poisson_ustats.{module_name}")
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), hooks.get(name)))
    harness = importlib.import_module("poisson_ustats.harness")
    make_kernel = harness.make_kernel
    harness.make_kernel = lambda *args, **kwargs: tracer.count_kernel(make_kernel(*args, **kwargs))


def summarize(tracer: Tracer, wall_s: float) -> dict:
    """Per-layer metrics from the spans and counts of one traced run."""
    spans = tracer.spans
    own = tracer.self_times()
    counts = tracer.counts
    total = Counter()
    calls = Counter()
    layer_self = Counter()
    for span, self_s in zip(spans, own):
        name = span[2]
        total[name] += span[4] - span[3]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += self_s

    def total_of(*names):
        return sum(total[n] for n in names)

    def calls_of(*names):
        return sum(calls[n] for n in names)

    bound_names = ("clt_bounds.local_bound", "clt_bounds.geometric_bound", "clt_bounds.wasserstein_bound")
    kernel_calls = sum(row[0] for row in tracer.kernel.values())
    kernel_tuples = sum(row[1] for row in tracer.kernel.values())
    kernel_nonzero = sum(row[2] for row in tracer.kernel.values())
    out = {
        "point_process.sample_s": total_of("point_process.sample_points", "point_process.sample_lines"),
        "point_process.sample_calls": calls_of("point_process.sample_points", "point_process.sample_lines"),
        "point_process.points": counts["point_process.points"],
        "point_process.failed": counts["point_process.failed"],
        "streams.spawn_s": total_of("streams.spawn_rng", "streams.stream_token"),
        "streams.spawn_calls": calls_of("streams.spawn_rng", "streams.stream_token"),
        "streams.failed": counts["streams.failed"],
        "ustat_core.evaluate_s": total_of("ustat_core.evaluate"),
        "ustat_core.evaluate_calls": calls_of("ustat_core.evaluate"),
        "ustat_core.variance_terms_s": total_of("ustat_core.variance_terms"),
        "ustat_core.variance_terms_calls": calls_of("ustat_core.variance_terms"),
        "ustat_core.variance_terms_tuples": tracer.kernel.get("ustat_core.variance_terms", [0, 0, 0])[1],
        "ustat_core.failed": counts["ustat_core.failed"],
        "kernel.calls": kernel_calls,
        "kernel.tuples": kernel_tuples,
        "kernel.tuples_per_call": kernel_tuples / kernel_calls if kernel_calls else 0.0,
        "kernel.nonzero_ratio": kernel_nonzero / kernel_tuples if kernel_tuples else 0.0,
        "kernel.failed": counts["kernel.failed"],
        "chaos_algebra.m_ij_s": total_of("chaos_algebra.m_ij"),
        "chaos_algebra.m_ij_calls": calls_of("chaos_algebra.m_ij"),
        "chaos_algebra.diagrams": counts["chaos_algebra.diagrams"],
        "chaos_algebra.enumerate_s": total_of("chaos_algebra.enumerate_pi_bar"),
        "chaos_algebra.failed": counts["chaos_algebra.failed"],
        "clt_bounds.bound_calls": calls_of(*bound_names),
        "clt_bounds.bound_s": total_of(*bound_names),
        "clt_bounds.bound_self_s": layer_self["clt_bounds"],
        "clt_bounds.failed": counts["clt_bounds.failed"],
        "distance.s": total_of("distance.wasserstein_to_normal", "distance.kolmogorov_to_normal"),
        "distance.failed": counts["distance.failed"],
        "harness.run_replicates_calls": calls_of("harness.run_replicates"),
        "harness.run_replicates_s": total_of("harness.run_replicates"),
        "harness.emit_s": total_of("harness.emit_csv", "harness.emit_report"),
        "harness.records_bytes": counts["harness.records_bytes"],
        "harness.failed": counts["harness.failed"],
    }
    for layer in LAYERS:
        if layer != "clt_bounds":  # reported above as clt_bounds.bound_self_s
            out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.spans"] = len(spans)
    out["trace.explained_share"] = sum(layer_self[layer] for layer in LAYERS) / wall_s
    return out
