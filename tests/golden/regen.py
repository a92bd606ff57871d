"""Golden outputs: tiny CLI runs whose output bytes are pinned by SHA-256.

Every run reads a config of this folder and writes into one work
directory; ``digests.json`` holds the SHA-256 of each output file and the
numpy version that produced them (numpy does not promise identical random
streams across versions).  ``tests/test_golden.py`` recomputes them.

After a change that moves outputs on purpose, rewrite the digests with

    python tests/golden/regen.py

which first prints the output files whose digest moved against the
committed ``digests.json``; name them in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

# (stdout file or None, argv); argv paths are relative to the work directory
RUNS = (
    (None, ["sample", "--config", "pairwise.json", "--lambda", "8", "--out", "sample.csv"]),
    ("eval.txt", ["eval", "--config", "gilbert.json", "--lambda", "50"]),
    (None, ["variance", "--config", "lines.json", "--lambda", "4,16", "--out", "variance.csv"]),
    (None, ["bound", "--config", "lines.json"]),
    (None, ["bound", "--config", "convex3.json"]),
    (None, ["bound", "--config", "gilbert.json", "--lambda", "50", "--out", "local_report.json"]),
    (None, ["experiment", "rate", "--config", "pairwise.json"]),
    (None, ["experiment", "rate", "--config", "gilbert.json"]),
    # tensor stratification, whose draws the lattice rule leaves alone
    (None, ["bound", "--config", "strata2.json", "--lambda", "50", "--out", "strata_report.json"]),
    (None, ["variance", "--config", "strata2.json", "--lambda", "25,50", "--out", "strata_variance.csv"]),
    # at level 5 an inner batch's 25 strata exceed its NESTED_INNER draws: drawn iid
    (None, ["bound", "--config", "strata5.json", "--lambda", "50", "--out", "strata5_report.json"]),
    (None, ["variance", "--config", "strata5.json", "--lambda", "25,50", "--out", "strata5_variance.csv"]),
    # a ball window, which samples and integrates through its unit-cube map:
    # on the lattice at strata 1, on tensor strata at strata 2
    (None, ["sample", "--config", "ball.json", "--lambda", "50", "--out", "ball_sample.csv"]),
    (None, ["bound", "--config", "ball.json", "--lambda", "50", "--out", "ball_report.json"]),
    (None, ["variance", "--config", "ball.json", "--lambda", "25,50", "--out", "ball_variance.csv"]),
    (None, ["bound", "--config", "ball_strata2.json", "--lambda", "50", "--out", "ball_strata_report.json"]),
    (None, ["variance", "--config", "ball_strata2.json", "--lambda", "25,50", "--out", "ball_strata_variance.csv"]),
)


def digests(work: Path) -> dict:
    """Run every golden call in ``work`` and return {output file: SHA-256}."""
    from poisson_ustats.cli import main

    configs = {path.name for path in HERE.glob("*.json") if path != DIGESTS}
    for name in configs:
        shutil.copy(HERE / name, work / name)
    before = os.getcwd()
    os.chdir(work)
    try:
        for stdout, argv in RUNS:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                code = main(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            if stdout:
                (work / stdout).write_text(text.getvalue())
    finally:
        os.chdir(before)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(work.iterdir())
        if path.name not in configs
    }


def moved(pinned: dict, got: dict) -> list:
    """The output files whose digest differs between two {file: SHA-256} maps, added or dropped ones included."""
    return sorted(name for name in set(pinned) | set(got) if pinned.get(name) != got.get(name))


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        files = digests(Path(work))
    pinned = json.loads(DIGESTS.read_text())["files"] if DIGESTS.exists() else {}
    print(f"moved against the committed digests: {', '.join(moved(pinned, files)) or 'none'}")
    DIGESTS.write_text(json.dumps({"numpy": np.__version__, "files": files}, indent=2) + "\n")
    print(f"wrote {len(files)} digests (numpy {np.__version__}) to {DIGESTS}")


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    main()
