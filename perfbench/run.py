#!/usr/bin/env python3
"""Benchmark of the poisson-ustats CLI: wall time paired with Monte Carlo precision.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rate-pairwise --seed 0 --seconds 25 --trace 0

``--workload all`` runs the three workloads in turn.  Every step runs in a
fresh child process (``child.py``) with BLAS/OpenMP threads pinned to 1 and
the package imported from the checkout's ``src``:

* ``--trace 0``: set-up timed in 5 fresh processes (median), then timed
  executions of the workload's CLI calls, one process each, until
  ``--seconds`` is used up (at least 2), then the
  correctness checks.  Prints the end-to-end metrics.  Each execution is
  timed as wall time (``wall_s``) and as wall time at a reference core
  speed (``wall_ref_s``, see ``probe.py``); only the latter is steady
  enough on a shared machine to be declared in BENCHMARK.json.
* ``--trace 1``: one untraced and one traced execution, then the checks.
  Prints the per-layer metrics and the tracing overhead (traced minus
  untraced ``wall_ref_s``); the spans go to
  ``perfbench/traces/``.

An operation is a CLI call or a correctness check; a step whose process
ends without a result counts as one failed operation, and checks whose
inputs it did not write fail.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
also when something failed; the exit code is then 1.  It is 2, with no
result printed, when the checkout has no package to measure.  NOTES.md says
why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
MIN_REPEATS = 2  # timed executions per run, at least: their outputs are compared
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class StepError(RuntimeError):
    """A child step ended without writing its result."""


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _step(mode: str, spec: dict, work: Path, tag: str) -> tuple:
    """Run one child step; return (result, peak RSS in MB of that process)."""
    spec_path = work / f"{tag}.spec.json"
    result_path = work / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / f"{tag}.log", "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, str(spec_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, env=_child_env(Path(spec["src"])),
        )
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.send_signal(signal.SIGKILL)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.exists():
        tail = (work / f"{tag}.log").read_text()[-2000:]
        raise StepError(f"{mode} step {tag} exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _provenance(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src" / "poisson_ustats").glob("*.py"))
    )
    revision = None
    if (root / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_revision": revision,
        "workload_seed": seed,
        "src_lines": src_lines,
    }


class Tally:
    """Operations attempted and failed, with a line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")

    def step(self, mode: str, spec: dict, work: Path, tag: str):
        """``_step``, with a step that ends without a result counted as failed (None)."""
        try:
            return _step(mode, spec, work, tag)
        except StepError as exc:
            self.add(f"{mode} step {tag}", False, str(exc))
            return None


def _execute(spec: dict, work: Path, tag: str, mode: str, tally: Tally) -> tuple:
    """Run the workload's CLI calls once; return (result or None, peak RSS, run dir)."""
    run_dir = work / tag
    run_dir.mkdir()
    for fname, doc in spec["configs"].items():
        (run_dir / fname).write_text(json.dumps(doc, indent=2))
    done = tally.step(mode, dict(spec, run_dir=str(run_dir)), work, tag)
    if done is None:
        return None, None, str(run_dir)
    result, rss = done
    for argv, code in zip(spec["calls"], result["codes"]):
        tally.add(f"{tag}: {' '.join(argv)}", code == 0, f"exit code {code}")
    return result, rss, str(run_dir)


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> tuple:
    """Run one workload; return (metrics, report lines, tally)."""
    spec = workloads.build(name, seed)
    spec.update(work=str(work), src=str(root / "src"), seed=seed)
    for fname, doc in spec["configs"].items():
        (work / fname).write_text(json.dumps(doc, indent=2))
    tally = Tally()
    lines = []
    run_dirs = []
    metrics = {}
    if not trace:
        setups = []
        for i in range(SETUP_RUNS):
            done = tally.step("setup", spec, work, f"setup{i}")
            if done is not None:
                setups.append(done[0]["setup_s"])
        walls, refs, rss = [], [], []
        started = time.perf_counter()
        while True:
            t = time.perf_counter()
            result, peak, run_dir = _execute(spec, work, f"run{len(run_dirs)}", "run", tally)
            run_dirs.append(run_dir)
            if result is None:
                break
            walls.append(result["wall_s"])
            refs.append(result["wall_ref_s"])
            rss.append(peak)
            step_s = time.perf_counter() - t
            if len(walls) >= MIN_REPEATS and time.perf_counter() - started + step_s > seconds:
                break
        if setups:
            metrics["setup_s"] = statistics.median(setups)
            lines.append(f"setup_s runs: {len(setups)}, values {[round(s, 4) for s in setups]}")
        if walls:
            q1, q3 = _quartiles(walls)
            metrics["wall_s"] = statistics.median(walls)
            metrics["wall_ref_s"] = statistics.median(refs)
            metrics["peak_rss_mb"] = statistics.median(rss)
            lines.append(f"wall_s runs: {len(walls)}, median {metrics['wall_s']:.4f} s, "
                         f"quartiles {q1:.4f} .. {q3:.4f} s, values {[round(w, 4) for w in walls]}")
            lines.append(f"wall_ref_s values {[round(w, 4) for w in refs]}")
    else:
        plain, _rss, plain_dir = _execute(spec, work, "untraced", "run", tally)
        trace_dir = root / "perfbench" / "traces"
        trace_dir.mkdir(exist_ok=True)
        trace_path = trace_dir / f"{name}-seed{seed}.json"
        traced, _rss, traced_dir = _execute(dict(spec, trace_path=str(trace_path)), work, "traced", "trace", tally)
        run_dirs = [plain_dir, traced_dir]
        if traced is not None:
            metrics.update(traced["layers"])
            metrics["trace.wall_s"] = traced["wall_s"]
            lines.append(f"spans written to {trace_path.relative_to(root)}")
        if plain is not None:
            metrics["trace.untraced_wall_s"] = plain["wall_s"]
        if plain is not None and traced is not None:
            # at the reference core speed: the plain difference mostly measures the machine's drift
            metrics["trace.overhead_s"] = traced["wall_ref_s"] - plain["wall_ref_s"]
            lines.append(f"wall_ref_s traced {traced['wall_ref_s']:.4f} s, untraced {plain['wall_ref_s']:.4f} s")
    checked = tally.step("check", dict(spec, run_dirs=run_dirs), work, "check")
    if checked is not None:
        for c in checked[0]["checks"]:
            tally.add(c["name"], c["ok"], c["detail"])
            lines.append(f"check {'PASS' if c['ok'] else 'FAIL'}: {c['name']} ({c['detail']})")
        if not trace:
            metrics.update(checked[0]["metrics"])
    metrics["failed_share"] = len(tally.failures) / tally.attempted
    return metrics, lines, tally


def _units(trace: bool) -> dict:
    """Metric names and units this mode prints, as BENCHMARK.json lists them."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    root = Path.cwd()
    if not (root / "src" / "poisson_ustats" / "__init__.py").is_file():
        print(f"error: no src/poisson_ustats under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    units = _units(trace)
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    print("provenance: " + json.dumps(_provenance(root, args.seed)))
    scratch = root / "perfbench" / "work"
    scratch.mkdir(exist_ok=True)
    attempted = 0
    failures = []
    combined = {}
    for name in names:
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
        try:
            metrics, lines, tally = measure(name, args.seed, args.seconds, trace, root, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        attempted += tally.attempted
        failures.extend(f"{name}: {f}" for f in tally.failures)
        print(f"== {name} (seed {args.seed}, trace {args.trace})")
        for line in lines:
            print(line)
        # raw wall_s is printed but not declared: machine drift spreads it beyond any bound;
        # failed_share is printed in both modes but declared only as a per-layer metric
        extra = {"wall_s": "s", "failed_share": "ratio"}
        shown = {k: u for k, u in {**units, **extra}.items() if k in metrics}
        for key, unit in shown.items():
            print(f"{key} = {metrics[key]:.6g} {unit}")
        print(f"({len(tally.failures)} of {tally.attempted} operations failed)")
        missing = [k for k in units if k not in metrics]
        if missing:
            print(f"not measured, because a step failed: {', '.join(missing)}")
        prefix = f"{name}/" if len(names) > 1 else ""
        combined.update({prefix + k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics})
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": combined}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
