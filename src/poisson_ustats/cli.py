"""Command line front end.

Verbs: sample, eval, kernels, variance, bound, experiment rate, report.
Configuration comes from a single JSON document (--config); the remaining
flags override individual fields.  Exit codes: 0 on success, 2 on a
configuration or usage error (a file that cannot be read or written, or
does not parse, is one), 3 when a variance degenerates and the normalized
quantity does not exist, 4 when the work is refused by a capacity guard or a
Monte Carlo integrand turns non-finite.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ._files import _csv_numbers, _fmt, _read_text, _write_text
from .applications import kernel_summaries
from .clt_bounds import (
    BoundReport,
    geometric_bound,
    local_bound,
    wasserstein_bound,  # unused; perfbench/tracing.py SITES wraps it here
)
from .errors import (
    AssumptionViolationError,
    CapacityError,
    ConfigError,
    DegenerateFunctionalError,
    IntegrationError,
    LocalityError,
    WindowError,
)
from .harness import (
    ExperimentConfig,
    _csv_table,
    default_window,
    emit_csv,
    emit_report,
    moment_table,
    rate_experiment,
    run_replicates,  # unused; perfbench/tracing.py SITES wraps it here
)
from .point_process import LineWindow, _points_csv, sample_lines, sample_points, write_points_csv
from ._streams import spawn_rng
from .ustat_core import evaluate


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--out", help="output path (CSV or JSON by verb)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--replicates", type=int, help="override replicates per lambda")
    parser.add_argument("--lambda", dest="lam_list", help="override the lambda grid, e.g. 2,4,8")
    parser.add_argument("--kernel", help="override the kernel name")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-ustats",
        description="Poisson U-statistics: simulation, variances, normal-approximation bounds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, text in (
        ("sample", "draw one Poisson configuration and write it as CSV"),
        ("eval", "sample a configuration and evaluate the kernel sum on it"),
        ("variance", "formula mean and variance per lambda"),
        ("bound", "normal-approximation bound report at a single lambda"),
    ):
        _add_common(sub.add_parser(verb, help=text))
    sub.add_parser("kernels", help="list registered kernels")
    experiment = sub.add_parser("experiment", help="multi-lambda studies")
    exp_sub = experiment.add_subparsers(dest="experiment_kind", required=True)
    _add_common(exp_sub.add_parser("rate", help="distances, bounds and a log-log rate fit"))
    report = sub.add_parser("report", help="validate and summarize a saved bound report")
    report.add_argument("path", help="path to a bound-report JSON file")
    return parser


def _parse_lambdas(text: str) -> tuple:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad lambda list {text!r}: {exc}") from exc


def _load_config(args) -> ExperimentConfig:
    """The config file's fields (or --kernel's defaults) merged with the
    flag overrides, validated once as the fields that will run."""
    if args.config:
        fields = ExperimentConfig._json_fields(_read_text(args.config))
        if args.kernel:
            fields["kernel"] = args.kernel
    elif args.kernel:
        fields = dict(kernel=args.kernel, window=default_window(args.kernel), lambdas=(1.0,), replicates=200)
    else:
        raise ConfigError("need --config or --kernel")
    if args.seed is not None:
        fields["seed"] = args.seed
    if args.replicates is not None:
        fields["replicates"] = args.replicates
    if args.lam_list:
        fields["lambdas"] = _parse_lambdas(args.lam_list)
    return ExperimentConfig(**fields)


def _draw(config: ExperimentConfig, lam: float):
    rng = spawn_rng(config.seed, 0, 0)
    intensity = config.intensity(lam)
    if isinstance(config.window, LineWindow):
        return sample_lines(intensity, rng)
    return sample_points(intensity, rng)


def _cmd_sample(args) -> int:
    config = _load_config(args)
    sample = _draw(config, config.lambdas[0])
    if args.out:
        write_points_csv(sample, args.out)
        print(f"wrote {sample.size} points to {args.out}")
    else:
        print(_points_csv(sample), end="")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args)
    lam = config.lambdas[0]
    kernel = config.resolve_kernel()
    sample = _draw(config, lam)
    value = evaluate(kernel, sample)
    print(f"lambda={lam:g} points={sample.size} value={_fmt(value)}")
    return 0


def _cmd_kernels(_args) -> int:
    for name, text in kernel_summaries().items():
        print(f"{name}: {text}")
    return 0


def _cmd_variance(args) -> int:
    config = _load_config(args)
    rows = moment_table(config)
    text = _csv_numbers(
        ["lambda", "mean", "variance", "variance_se"],
        (float,) * 4,
        ((lam, mean, var.value, var.se) for lam, mean, var in rows),
    )
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_bound(args) -> int:
    config = _load_config(args)
    if len(config.lambdas) != 1:
        raise ConfigError(f"bound needs exactly one lambda, got {len(config.lambdas)}")
    kernel = config.resolve_kernel()
    intensity = config.intensity(config.lambdas[0])
    if kernel.locality is not None:
        report = local_bound(kernel, intensity, config.integrator, c_k=config.c_k)
    else:
        report = geometric_bound(kernel, intensity, config.integrator)
    out = args.out or config.report_path
    if out:
        emit_report(report, out)
        print(f"wrote {report.mode} report to {out}")
    else:
        print(report.to_json())
    return 0


def _cmd_rate(args) -> int:
    config = _load_config(args)
    fit = rate_experiment(config)
    out = args.out or config.rates_path
    if out:
        emit_csv(fit, out)
        print(f"wrote {len(fit.lambdas)} rows to {out}")
    else:
        print(_csv_table(fit), end="")
    if config.records_path:
        emit_csv(fit.records, config.records_path)
        print(f"wrote records to {config.records_path}")
    print(f"slope={fit.slope:.6g} se={fit.slope_se:.6g} intercept={fit.intercept:.6g}")
    return 0


def _cmd_report(args) -> int:
    report = BoundReport.from_json(_read_text(args.path))
    print(f"mode: {report.mode}")
    print(f"order k: {report.k}")
    print(f"lambda: {report.lam:g}")
    print(f"variance: {report.variance:.6g} (se {report.variance_se:.3g})")
    for term in report.m:
        print(f"M[{term.i},{term.j}]: {term.value:.6g} (se {term.se:.3g})")
    if report.vtilde is not None:
        print(f"vtilde: {report.vtilde:.6g}")
    if report.b_delta is not None:
        print(f"b(delta): {report.b_delta:.6g}")
    if report.c_k is not None:
        print(f"c_k: {report.c_k:.6g}")
    print(f"bound: {report.bound:.6g}")
    print("report is valid")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "sample": _cmd_sample,
        "eval": _cmd_eval,
        "kernels": _cmd_kernels,
        "variance": _cmd_variance,
        "bound": _cmd_bound,
        "experiment": _cmd_rate,
        "report": _cmd_report,
    }
    try:
        return handlers[args.verb](args)
    except (ConfigError, WindowError, LocalityError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateFunctionalError, AssumptionViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapacityError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
