"""Every demo script runs to completion against the package sources."""

import os
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from poisson_ustats.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr


def test_every_demo_is_collected():
    assert DEMOS


def _readme_commands() -> list:
    """The lines of the README's "Command line equivalents" block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("Command line equivalents:", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.strip()]


def test_readme_commands_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert commands and all(line.startswith("poisson-ustats ") for line in commands)
    (tmp_path / "demos").mkdir()
    shutil.copy(ROOT / "demos" / "config.example.json", tmp_path / "demos")
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
