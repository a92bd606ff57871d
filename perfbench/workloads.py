"""The three benchmark workloads, built from a workload seed.

Each workload is a list of CLI calls (argv for ``poisson_ustats.cli.main``)
plus the config documents those calls read.  Seed ``n`` gives master seed
``43 + n`` and integrator seed ``12 + n``, so seed 0 reproduces the seeds of
``demos/config.example.json``.  Why each workload exists is in NOTES.md.
"""

from __future__ import annotations

MASTER_SEED = 43
INTEGRATOR_SEED = 12
NAMES = ("rate-pairwise", "rate-gilbert", "bound-ingredients")


def _integrator(samples: int, seed: int) -> dict:
    return {"samples": samples, "seed": INTEGRATOR_SEED + seed, "strata": 1}


def build(name: str, seed: int) -> dict:
    """Spec of one workload: configs to write, CLI calls, outputs.

    ``outputs`` are the files every execution writes (relative to its run
    directory); they must be byte-identical across executions of one seed.
    """
    if seed < 0:
        raise ValueError(f"workload seed must be nonnegative, got {seed}")
    square = {"shape": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]}
    if name == "rate-pairwise":
        # the fields of demos/config.example.json at the commit that added the benchmark
        config = {
            "kernel": "pairwise-distance",
            "window": square,
            "lambdas": [2, 4, 8, 16, 32, 64],
            "replicates": 2000,
            "integrator": _integrator(1200, seed),
            "seed": MASTER_SEED + seed,
            "out": {"records": "rate_records.csv", "rates": "rate_fit.csv"},
        }
        return {
            "name": name,
            "kind": "rate",
            "configs": {"rate.json": config},
            "calls": [["experiment", "rate", "--config", "rate.json"]],
            "outputs": ["rate_records.csv", "rate_fit.csv"],
        }
    if name == "rate-gilbert":
        config = {
            "kernel": "gilbert-count",
            "window": square,
            "delta": 0.1,
            "lambdas": [25, 50, 100, 200],
            "replicates": 200,
            "integrator": _integrator(1200, seed),
            "seed": MASTER_SEED + seed,
            "out": {"rates": "rate_fit.csv"},
        }
        return {
            "name": name,
            "kind": "rate",
            "configs": {"rate.json": config},
            "calls": [["experiment", "rate", "--config", "rate.json"]],
            "outputs": ["rate_fit.csv"],
        }
    if name == "bound-ingredients":
        lines = {
            "kernel": "line-intersections",
            "window": {"shape": "line-disk", "radius": 1.0},
            "lambdas": [16],
            "replicates": 200,
            "integrator": _integrator(2500, seed),
            "seed": MASTER_SEED + seed,
        }
        convex = {
            "kernel": "convex-position-3",
            "window": square,
            "lambdas": [16],
            "replicates": 200,
            "integrator": _integrator(256, seed),
            "seed": MASTER_SEED + seed,
        }
        return {
            "name": name,
            "kind": "bound",
            "configs": {"lines.json": lines, "convex.json": convex},
            "calls": [
                ["bound", "--config", "lines.json", "--out", "lines_report.json"],
                ["bound", "--config", "convex.json", "--out", "convex_report.json"],
            ],
            "outputs": ["lines_report.json", "convex_report.json"],
        }
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")
