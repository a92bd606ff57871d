"""The package exports each public module's names once, and the documented imports resolve."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import poisson_ustats

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "poisson_ustats"
# the command-line front end is a script, not a library module
PUBLIC = sorted(p.stem for p in PACKAGE.glob("*.py") if not p.stem.startswith("_") and p.stem != "cli")


def test_package_all_is_the_union_of_module_alls():
    names = poisson_ustats.__all__
    assert len(names) == len(set(names))
    union = set()
    for stem in PUBLIC:
        module = importlib.import_module(f"poisson_ustats.{stem}")
        assert len(module.__all__) == len(set(module.__all__)), stem
        union.update(module.__all__)
    assert set(names) == {"__version__"} | union
    assert [name for name in names if not hasattr(poisson_ustats, name)] == []


def _package_imports(source: str) -> set:
    """Names imported ``from poisson_ustats`` by a Python source, found without running it."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "poisson_ustats"
        for alias in node.names
    }


def test_documented_package_imports_resolve():
    sources = {p.name: p.read_text() for p in sorted((ROOT / "demos").glob("*.py"))}
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    sources.update((f"README.md block {n}", block) for n, block in enumerate(blocks))
    imported = {name: _package_imports(source) for name, source in sources.items()}
    assert imported["README.md block 0"]
    missing = {
        name: sorted(n for n in names if not hasattr(poisson_ustats, n))
        for name, names in imported.items()
    }
    assert {name: names for name, names in missing.items() if names} == {}


def test_src_imports_no_scipy():
    # scipy is a test-only dependency: the package runs on numpy alone
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names if n.split(".")[0] == "scipy"]
    assert found == []


def test_the_package_runs_as_a_module():
    # python -m poisson_ustats is the command line front end
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "poisson_ustats", "kernels"], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "pairwise-distance:" in done.stdout
