"""The benchmark's trace sites exist on the package.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` row of ``SITES``
when a run is traced, and fails on a name that is gone.  Checking the rows
here finds a moved or deleted import without running the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_trace_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.SITES
    missing = [
        (module, attr)
        for module, attr, _name in tracing.SITES
        if not callable(getattr(importlib.import_module(f"poisson_ustats.{module}"), attr, None))
    ]
    assert missing == []
