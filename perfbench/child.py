"""One benchmark step in a fresh process: ``child.py MODE SPEC RESULT``.

MODE is one of
  setup  time importing the package, parsing the configs and building the kernels;
  run    run the workload's CLI calls, tracing off, and time them (also at
         the reference core speed, see ``probe.py``);
  trace  the same with spans and counts installed at the import sites;
  check  correctness checks and Monte Carlo precision metrics, untimed.

SPEC is the JSON file ``run.py`` wrote; the step writes its findings as JSON
to RESULT.  The package comes from ``PYTHONPATH``, which ``run.py`` points at
the checkout's ``src``; threads are pinned to 1 through the environment.
"""

import json
import os
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

PRECISION_STREAMS = 8
STREAM_STRIDE = 100_000  # integrator seed step between precision streams

# the correctness checks of each kind of workload, by the names they report
RATE_CHECKS = (
    "bound >= d_w at every lambda",
    "evaluate == exhaustive on regenerated replicates",
    "recomputed bound == reported bound",
)
BOUND_CHECKS = (
    "line-intersections report == recomputation",
    "convex-position-3 variance terms == (9, 18, 6)",
    "convex-position-3 M_ij == C(3,i)^2 C(3,j)^2 |Pi-bar(i,i,j,j)|",
)


def _package_check(src: str) -> None:
    import poisson_ustats

    where = Path(poisson_ustats.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"poisson_ustats was imported from {where}, not from {src}")


def setup(spec: dict) -> dict:
    t0 = time.perf_counter()
    from poisson_ustats.harness import ExperimentConfig

    for name in spec["configs"]:
        with open(Path(spec["work"]) / name) as fh:
            ExperimentConfig.from_json(fh.read()).resolve_kernel()
    setup_s = time.perf_counter() - t0
    _package_check(spec["src"])
    return {"setup_s": setup_s}


def run(spec: dict, traced: bool) -> dict:
    _package_check(spec["src"])
    from poisson_ustats import cli
    from probe import SpeedProbe  # imports numpy, so not at the top: setup times that import

    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    os.chdir(spec["run_dir"])
    codes = []
    with SpeedProbe() as speed:
        t0 = time.perf_counter()
        for argv in spec["calls"]:
            try:
                codes.append(cli.main(list(argv)))
            except Exception:  # an error the CLI does not turn into an exit code
                traceback.print_exc()
                codes.append(1)
        wall_s = time.perf_counter() - t0
    result = {"wall_s": wall_s, "wall_ref_s": speed.ref_s, "codes": codes}
    if tracer is not None:
        result["layers"] = tracing.summarize(tracer, wall_s)
        with open(spec["trace_path"], "w") as fh:
            json.dump(
                {
                    "workload": spec["name"],
                    "seed": spec["seed"],
                    "wall_s": wall_s,
                    "counts": dict(tracer.counts),
                    "kernel_by_span": {str(k): v for k, v in tracer.kernel.items()},
                    "span_fields": ["id", "parent", "name", "start_s", "end_s"],
                    "spans": [[i, p, n, s - t0, e - t0] for i, p, n, s, e in tracer.spans],
                },
                fh,
            )
    return result


# ---------------------------------------------------------------------------
# checks and precision metrics


def _check(checks: list, name: str, ok: bool, detail: str) -> None:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _reproducible(spec: dict, checks: list) -> None:
    dirs = [Path(d) for d in spec["run_dirs"]]
    if len(dirs) < 2:
        return
    for out in spec["outputs"]:
        missing = [str(d / out) for d in dirs if not (d / out).is_file()]
        if missing:
            _check(checks, f"byte-identical {out}", False, f"missing {missing}")
            continue
        blobs = [(d / out).read_bytes() for d in dirs]
        same = all(b == blobs[0] for b in blobs[1:])
        _check(checks, f"byte-identical {out}", same, f"{len(dirs)} executions")


def _geometric_rel_se(report) -> float:
    """Delta-method relative SE of 2 k^3.5 sum sqrt(M_ij) / vtilde.

    Every M_ij and vtilde comes from its own random stream, so their errors
    are independent.
    """
    roots = [max(t.value, 0.0) ** 0.5 for t in report.m]
    root_var = sum((t.se / (2.0 * r)) ** 2 for t, r in zip(report.m, roots) if r > 0)
    return (root_var / sum(roots) ** 2 + (report.vtilde_se / report.vtilde) ** 2) ** 0.5


def _local_rel_se(report) -> float:
    """Delta-method relative SE of c_k sum w_i |f~_i^2| / vtilde (independent streams)."""
    num = sum(t.weight * t.norm for t in report.local_terms)
    num_var = sum((t.weight * t.norm_se) ** 2 for t in report.local_terms)
    return (num_var / num**2 + (report.vtilde_se / report.vtilde) ** 2) ** 0.5


def _precision(config, lam: float) -> tuple:
    """Bound report at ``lam`` and the three precision metrics it gives."""
    from poisson_ustats.clt_bounds import geometric_bound, local_bound
    from poisson_ustats.ustat_core import expectation

    kernel = config.resolve_kernel()
    intensity = config.intensity(lam)
    if kernel.locality is not None:
        report = local_bound(kernel, intensity, config.integrator, c_k=config.c_k)
        bound_rel_se = _local_rel_se(report)
    else:
        report = geometric_bound(kernel, intensity, config.integrator)
        bound_rel_se = _geometric_rel_se(report)
    mean = expectation(kernel, intensity, config.integrator)
    return report, {
        "variance_rel_se": report.variance_se / report.variance,
        "mean_plugin_z": mean.se / report.variance**0.5,
        "bound_rel_se": bound_rel_se,
    }


def _check_rate(spec: dict, checks: list) -> dict:
    import random

    from poisson_ustats._streams import spawn_rng
    from poisson_ustats.harness import ExperimentConfig, read_rates, read_records
    from poisson_ustats.point_process import LineWindow, sample_lines, sample_points
    from poisson_ustats.ustat_core import evaluate

    work = Path(spec["work"])
    run_dir = Path(spec["run_dirs"][0])
    config = ExperimentConfig.from_json((work / "rate.json").read_text())
    rates = read_rates(run_dir / config.rates_path)
    lambdas = [row[0] for row in rates]
    below = [(lam, dw, b) for lam, dw, _dk, b, _r in rates if not b >= dw]
    _check(checks, RATE_CHECKS[0], not below and lambdas == list(config.lambdas),
           f"violations {below}" if below else f"{len(rates)} lambdas")

    # replicate configurations regenerated from their streams
    kernel = config.resolve_kernel()
    records = {}
    if config.records_path:
        records = {(r.lam, r.index): r.value for r in read_records(run_dir / config.records_path)}
    picks = random.Random(spec["seed"]).sample(range(config.replicates), 3)
    mismatches = []
    for li, lam in enumerate(config.lambdas):
        intensity = config.intensity(lam)
        draw = sample_lines if isinstance(config.window, LineWindow) else sample_points
        for r in picks:
            sample = draw(intensity, spawn_rng(config.seed, li, r))
            fast = evaluate(kernel, sample)
            slow = evaluate(kernel, sample, exhaustive=True)
            if fast != slow or (records and records[(lam, r)] != fast):
                mismatches.append((lam, r, fast, slow, records.get((lam, r))))
    _check(checks, RATE_CHECKS[1], not mismatches,
           f"mismatches {mismatches}" if mismatches else
           f"{len(picks) * len(config.lambdas)} configurations" + (", records agree" if records else ""))

    # One integrator stream of 1,200 samples estimates a standard error only to
    # about 10%, so the precision metrics are medians over PRECISION_STREAMS
    # streams at the workload's settings; stream 0 is the run's own.
    lam = config.lambdas[-1]
    per_stream = []
    for j in range(PRECISION_STREAMS):
        integrator = replace(config.integrator, seed=config.integrator.seed + STREAM_STRIDE * j)
        report, precision = _precision(replace(config, integrator=integrator), lam)
        per_stream.append(precision)
        if j == 0:
            csv_bound = rates[-1][3]
            _check(checks, RATE_CHECKS[2], report.bound == csv_bound,
                   f"{report.bound!r} vs {csv_bound!r} at lambda={lam:g}")
    return {key: statistics.median(p[key] for p in per_stream) for key in per_stream[0]}


def _check_bound(spec: dict, checks: list) -> dict:
    import math

    from poisson_ustats.chaos_algebra import enumerate_pi_bar
    from poisson_ustats.clt_bounds import BoundReport
    from poisson_ustats.harness import ExperimentConfig
    from poisson_ustats.ustat_core import variance_terms

    work = Path(spec["work"])
    run_dir = Path(spec["run_dirs"][0])

    # line intersections: the saved report must match a fresh computation
    lines = ExperimentConfig.from_json((work / "lines.json").read_text())
    text = (run_dir / "lines_report.json").read_text()
    report, metrics = _precision(lines, lines.lambdas[0])
    _check(checks, BOUND_CHECKS[0], text == report.to_json() + "\n",
           f"bound {report.bound!r}")

    # convex-position-3: the kernel is 1 almost surely, so every ingredient is exact
    convex = ExperimentConfig.from_json((work / "convex.json").read_text())
    cp = BoundReport.from_json((run_dir / "convex_report.json").read_text())
    terms = variance_terms(convex.resolve_kernel(), convex.window, convex.integrator)
    values = [t.value for t in terms]
    exact_terms = all(math.isclose(v, e, rel_tol=1e-12) for v, e in zip(values, (9.0, 18.0, 6.0)))
    lam = convex.lambdas[0]
    assembled = math.fsum(lam ** (6 - i) * v for i, v in enumerate(values, start=1))
    _check(checks, BOUND_CHECKS[1],
           exact_terms and len(values) == 3 and math.isclose(cp.variance, assembled, rel_tol=1e-12)
           and math.isclose(cp.vtilde, 9.0, rel_tol=1e-12),
           f"terms {values}, report variance {cp.variance!r}")
    wrong = []
    for term in cp.m:
        count = len(enumerate_pi_bar((term.i, term.i, term.j, term.j)))
        expected = math.comb(3, term.i) ** 2 * math.comb(3, term.j) ** 2 * count
        if not math.isclose(term.value, expected, rel_tol=1e-12):
            wrong.append((term.i, term.j, term.value, expected))
    m33 = [t.value for t in cp.m if (t.i, t.j) == (3, 3)]
    _check(checks, BOUND_CHECKS[2],
           not wrong and len(cp.m) == 6 and m33 and math.isclose(m33[0], 41364.0, rel_tol=1e-12),
           f"wrong {wrong}" if wrong else f"M_33 = {m33[0] if m33 else None}")
    return metrics


def check(spec: dict) -> dict:
    _package_check(spec["src"])
    checks = []
    _reproducible(spec, checks)
    rate = spec["kind"] == "rate"
    try:
        metrics = _check_rate(spec, checks) if rate else _check_bound(spec, checks)
    except Exception as exc:  # a missing or unreadable output, most likely
        traceback.print_exc()
        done = {c["name"] for c in checks}
        for name in RATE_CHECKS if rate else BOUND_CHECKS:
            if name not in done:
                _check(checks, name, False, f"not run: {exc!r}")
        metrics = {}
    return {"checks": checks, "metrics": metrics}


def main(argv: list) -> int:
    mode, spec_path, result_path = argv[1:4]
    with open(spec_path) as fh:
        spec = json.load(fh)
    if mode == "setup":
        result = setup(spec)
    elif mode in ("run", "trace"):
        result = run(spec, traced=mode == "trace")
    elif mode == "check":
        result = check(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
