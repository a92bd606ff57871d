"""The benchmark's trace sites exist on the package, and only they keep dead imports.

``perfbench/tracing.py`` wraps each ``(module, attribute)`` row of ``SITES``
when a run is traced, and fails on a name that is gone.  Checking the rows
here finds a moved or deleted import without running the benchmark.  An
import that its module never uses is allowed only as such a row, so a new
dead import fails here, and dropping a row means dropping its kept import.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "poisson_ustats"


def _sites() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SITES


def test_every_trace_site_resolves():
    sites = _sites()
    assert sites
    missing = [
        (module, attr)
        for module, attr, _name in sites
        if not callable(getattr(importlib.import_module(f"poisson_ustats.{module}"), attr, None))
    ]
    assert missing == []


def _unused_imports(source: str) -> set:
    """Names bound by an import statement that no other node of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_are_trace_sites():
    sites = {(module, attr) for module, attr, _name in _sites()}
    dead = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        if path.stem != "__init__"
        for name in _unused_imports(path.read_text())
    }
    assert sorted(dead - sites) == []
