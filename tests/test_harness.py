"""Experiment configs, replicate batches, CSV persistence, and the CLI."""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ustats import cli, clt_bounds, harness, point_process, ustat_core
from poisson_ustats import (
    BallWindow,
    BoxWindow,
    CapacityError,
    ConfigError,
    DegenerateFunctionalError,
    ExperimentConfig,
    IntegrationError,
    Integrator,
    LineWindow,
    RateFitResult,
    ReplicateRecord,
    UStatKernel,
    default_window,
    emit_csv,
    emit_report,
    geometric_bound,
    gilbert_kernel,
    local_bound,
    make_kernel,
    moment_table,
    rate_experiment,
    read_points_csv,
    read_rates,
    read_records,
    run_replicates,
    window_from_spec,
    window_to_spec,
)
from poisson_ustats._streams import spawn_rng, stream_token
from poisson_ustats.applications import kernel_summaries, line_intersection_kernel, pairwise_distance_kernel
from poisson_ustats.clt_bounds import BoundReport, Ingredients, MTerm
from poisson_ustats.cli import main
from poisson_ustats.point_process import sample_lines, sample_points
from poisson_ustats.ustat_core import Estimate, evaluate

UNIT_SQUARE = BoxWindow(((0.0, 1.0), (0.0, 1.0)))


def flat_count_kernel() -> UStatKernel:
    return UStatKernel(1, lambda t: np.ones(t.shape[0]), name="flat-count")


def count_calls(monkeypatch, module, name: str, calls: Counter) -> None:
    """Count the calls made through ``module.name`` in ``calls[name]``."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def flat_config(**overrides) -> ExperimentConfig:
    base = dict(
        kernel=flat_count_kernel(),
        window=UNIT_SQUARE,
        lambdas=(4.0,),
        replicates=300,
        integrator=Integrator(samples=256, seed=2),
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# window specs


def test_window_spec_round_trip():
    for window in (
        BoxWindow(((-1.0, 1.0),)),
        BoxWindow(((0.0, 1.0), (0.0, 2.0))),
        BallWindow(0.5, 3),
        LineWindow(1.0),
    ):
        back = window_from_spec(window_to_spec(window))
        assert type(back) is type(window)
        assert window_to_spec(back) == window_to_spec(window)


def test_window_from_spec_errors():
    for doc in (
        "box",
        {},
        {"shape": "pentagon"},
        {"shape": "box"},
        {"shape": "ball"},
        {"shape": "line-disk"},
    ):
        with pytest.raises(ConfigError):
            window_from_spec(doc)


def test_default_windows_per_kernel():
    assert default_window("counterexample") == BoxWindow(((-1.0, 1.0),))
    assert isinstance(default_window("line-intersections"), LineWindow)
    assert default_window("gilbert-count") == UNIT_SQUARE
    assert default_window("pairwise-distance") == UNIT_SQUARE


# ---------------------------------------------------------------------------
# experiment config


def test_config_validates_lambda_grid_and_counts():
    with pytest.raises(ConfigError, match="at least one lambda"):
        flat_config(lambdas=())
    with pytest.raises(ConfigError, match="positive"):
        flat_config(lambdas=(0.0, 1.0))
    with pytest.raises(ConfigError, match="increasing"):
        flat_config(lambdas=(4.0, 2.0))
    with pytest.raises(ConfigError, match="replicates"):
        flat_config(replicates=0)
    with pytest.raises(ConfigError, match="seed"):
        flat_config(seed=-1)
    for name, bad in (("c_k", -1.0), ("c_k", 0.0), ("c_k", math.inf), ("delta", 0.0), ("delta", math.nan)):
        with pytest.raises(ConfigError, match=f"{name} must be positive"):
            flat_config(**{name: bad})


def test_config_from_json_full_document():
    doc = {
        "kernel": "gilbert-count",
        "window": {"shape": "box", "bounds": [[0.0, 2.0], [0.0, 2.0]]},
        "lambdas": [2, 4, 8],
        "replicates": 50,
        "integrator": {"samples": 512, "seed": 3, "strata": 2},
        "seed": 11,
        "delta": 0.2,
        "out": {"records": "r.csv", "rates": "s.csv", "report": "b.json"},
    }
    config = ExperimentConfig.from_json(json.dumps(doc))
    assert config.kernel == "gilbert-count"
    assert config.window == BoxWindow(((0.0, 2.0), (0.0, 2.0)))
    assert config.lambdas == (2.0, 4.0, 8.0)
    assert config.replicates == 50
    assert config.integrator.samples == 512
    assert config.integrator.strata == 2
    assert config.seed == 11
    assert config.delta == 0.2
    assert (config.records_path, config.rates_path, config.report_path) == (
        "r.csv",
        "s.csv",
        "b.json",
    )
    kernel = config.resolve_kernel()
    assert kernel.name == "gilbert-count"
    assert kernel.locality == 0.2


def test_config_from_json_defaults_and_errors():
    minimal = ExperimentConfig.from_json(
        '{"kernel": "counterexample", "lambdas": [5], "replicates": 10}'
    )
    assert minimal.window == BoxWindow(((-1.0, 1.0),))
    assert minimal.integrator.samples == 4096

    with pytest.raises(ConfigError, match="valid JSON"):
        ExperimentConfig.from_json("{nope")
    with pytest.raises(ConfigError, match="must be an object"):
        ExperimentConfig.from_json("[1, 2]")
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_json('{"kernel": "counterexample", "lambdas": [1], "replicates": 1, "extra": 2}')
    with pytest.raises(ConfigError, match="required key"):
        ExperimentConfig.from_json('{"kernel": "counterexample", "lambdas": [1]}')
    with pytest.raises(ConfigError, match="registered name"):
        ExperimentConfig.from_json('{"kernel": 4, "lambdas": [1], "replicates": 1}')
    with pytest.raises(ConfigError, match="integrator"):
        ExperimentConfig.from_json(
            '{"kernel": "counterexample", "lambdas": [1], "replicates": 1, "integrator": 3}'
        )
    with pytest.raises(ConfigError, match="out"):
        ExperimentConfig.from_json(
            '{"kernel": "counterexample", "lambdas": [1], "replicates": 1, "out": 3}'
        )


BASE_DOC = {"kernel": "counterexample", "lambdas": [1], "replicates": 1}


def test_config_rejects_unknown_out_keys():
    # a misspelt key would leave its output unwritten
    with pytest.raises(ConfigError, match="unknown config keys in 'out'.*record"):
        ExperimentConfig.from_json(json.dumps({**BASE_DOC, "out": {"record": "r.csv"}}))


def test_config_rejects_unknown_integrator_keys():
    # a misspelt sample count would run the default 4,096 samples
    with pytest.raises(ConfigError, match="unknown config keys in 'integrator'.*sampels"):
        ExperimentConfig.from_json(json.dumps({**BASE_DOC, "integrator": {"sampels": 100}}))


@pytest.mark.parametrize(
    "update",
    [{"replicates": 2.7}, {"integrator": {"strata": 1.9}}, {"integrator": {"samples": 2.7}}, {"seed": 1.5}, {"k": 3.7}],
    ids=["replicates", "strata", "samples", "seed", "k"],
)
def test_config_rejects_non_integral_counts(update):
    with pytest.raises(ConfigError, match="whole number"):
        ExperimentConfig.from_json(json.dumps({**BASE_DOC, **update}))
    if "integrator" not in update:
        # the constructor checks as from_json does: k=3.7 would build convex-position-3
        with pytest.raises(ConfigError, match="whole number"):
            flat_config(**update)


UNREAD_CONSTANTS = [
    ({"kernel": "pairwise-distance", "delta": 0.1}, "takes no delta"),
    ({"kernel": "line-intersections", "delta": 0.1}, "takes no delta"),
    ({"kernel": "pairwise-distance", "k": 4}, "takes no k"),
    ({"kernel": "convex-position-3", "k": 3}, "takes no k"),
    ({"kernel": "gilbert-count", "delta": 0.1, "k": 4}, "takes no k"),
    ({"kernel": "pairwise-distance", "c_k": 3}, "c_k is the local bound's constant"),
    ({"kernel": "convex-position-k", "k": 3, "c_k": 3}, "c_k is the local bound's constant"),
    ({"kernel": "pairwise-distance", "delta": 0.1, "k": 4, "c_k": 3}, "takes no"),
]


@pytest.mark.parametrize(
    "update, message",
    UNREAD_CONSTANTS,
    ids=["delta-pairwise", "delta-lines", "k-pairwise", "k-convex-3", "k-gilbert", "c_k-pairwise", "c_k-convex-k", "all"],
)
def test_config_rejects_constants_the_kernel_does_not_read(update, message, tmp_path, capsys):
    doc = {**BASE_DOC, **update}
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig.from_json(json.dumps(doc))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["variance", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_config_accepts_the_constants_its_kernel_reads():
    local = ExperimentConfig.from_json(json.dumps({**BASE_DOC, "kernel": "gilbert-count", "delta": 0.1, "c_k": 3}))
    assert (local.resolve_kernel().locality, local.c_k) == (0.1, 3.0)
    assert ExperimentConfig.from_json(json.dumps({**BASE_DOC, "kernel": "convex-position-k", "k": 4})).resolve_kernel().order == 4
    # a kernel object carries its own constants: c_k only for a local one
    assert flat_config(kernel=gilbert_kernel(0.3), c_k=2.0).c_k == 2.0
    for bad in ({"c_k": 2.0}, {"delta": 0.3}, {"k": 3}):
        with pytest.raises(ConfigError):
            flat_config(**bad)


def test_config_stores_whole_counts_as_ints():
    whole = ExperimentConfig.from_json(json.dumps({**BASE_DOC, "replicates": 3.0, "integrator": {"samples": 64.0}}))
    assert (whole.replicates, whole.integrator.samples) == (3, 64)
    assert type(whole.replicates) is int and type(whole.integrator.samples) is int


def test_config_constructor_raises_config_errors():
    for bad in ({"replicates": "many"}, {"lambdas": 4}, {"seed": "x"}, {"delta": "x"}, {"c_k": "x"}):
        with pytest.raises(ConfigError, match="malformed config"):
            flat_config(**bad)


# ---------------------------------------------------------------------------
# formula moments and replicates


def test_moment_table_flat_count_is_exact():
    config = flat_config(lambdas=(1.0, 4.0, 9.0))
    rows = moment_table(config)
    assert [lam for lam, _, _ in rows] == [1.0, 4.0, 9.0]
    for lam, mean, var in rows:
        assert mean == lam
        assert var.value == lam
        assert var.se == 0.0


def test_replicates_standardize_the_poisson_count():
    config = flat_config()
    records = run_replicates(config)
    assert len(records) == 300
    seeds = {rec.seed for rec in records}
    assert len(seeds) == 300
    for rec in records:
        assert rec.lam == 4.0
        assert rec.value == int(rec.value) >= 0
        assert rec.standardized == (rec.value - 4.0) / 2.0
    std = np.array([rec.standardized for rec in records])
    assert abs(np.mean(std)) < 4.0 / math.sqrt(300)
    assert abs(np.var(std, ddof=1) - 1.0) < 4.0 * math.sqrt(2.0 / 300)


def test_replicates_are_deterministic():
    a = run_replicates(flat_config())
    b = run_replicates(flat_config())
    assert a == b


def test_replicates_abort_on_degenerate_variance():
    dead = UStatKernel(1, lambda t: np.zeros(t.shape[0]), name="zero")
    config = flat_config(kernel=dead, lambdas=(3.0,))
    with pytest.raises(DegenerateFunctionalError, match="lambda=3"):
        run_replicates(config)


def _order3_kernel() -> UStatKernel:
    return UStatKernel(3, lambda t: np.prod(t[..., 0], axis=1) + t.sum(axis=(1, 2)), name="order-3")


def _local_order3_kernel(delta: float) -> UStatKernel:
    """A smooth weight on triples of diameter <= delta: its sums are not
    multiples of a common step, so a reordered sum shows in the last bits."""

    def fn(t):
        gaps = np.linalg.norm(t[:, :, None, :] - t[:, None, :, :], axis=-1)
        return np.all(gaps <= delta, axis=(1, 2)) * np.exp(-t.sum(axis=(1, 2)))

    return UStatKernel(3, fn, name="local-order-3", locality=delta)


# (window, kernel, lambdas, replicates).  The small lambdas give empty and
# below-order configurations; at lam 40 the order-3 size groups need several
# kernel calls of 32,768 tuples each, and at lam 300 a configuration has more
# than 256 points and so more than one batch of pairs.  The local kernels'
# largest lambda spreads its cells over more than one grid; gilbert-count
# sums are multiples of 1/2, the local-length and local-order-3 sums are not.
SIMULATE_CASES = {
    "box-pairs": (UNIT_SQUARE, pairwise_distance_kernel(), (0.5, 3.0, 12.0), 40),
    "ball-order-1": (BallWindow(1.0, 3), UStatKernel(1, lambda t: t[:, 0, 0] ** 2, name="x2"), (0.2, 2.0), 40),
    "lines": (LineWindow(1.0), line_intersection_kernel(LineWindow(1.0)), (0.1, 1.0, 4.0), 40),
    "box-order-3": (UNIT_SQUARE, _order3_kernel(), (1.0, 40.0), 100),
    "local": (UNIT_SQUARE, gilbert_kernel(0.2), (2.0, 60.0, 200.0), 30),
    "local-length": (UNIT_SQUARE, gilbert_kernel(0.2, "euclidean"), (2.0, 60.0, 200.0), 30),
    "local-order-3": (UNIT_SQUARE, _local_order3_kernel(0.1), (2.0, 40.0, 150.0), 30),
    "large": (UNIT_SQUARE, pairwise_distance_kernel(), (300.0,), 3),
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
@given(seed=st.integers(min_value=0, max_value=2**20))
@settings(max_examples=4, deadline=None)
def test_simulate_matches_per_cell_oracle(case, seed):
    window, kernel, lambdas, replicates = SIMULATE_CASES[case]
    config = ExperimentConfig(kernel=kernel, window=window, lambdas=lambdas, replicates=replicates, seed=seed)
    terms = tuple(Estimate(0.25 * i, 0.0) for i in range(1, kernel.order + 1))
    ingredients = Ingredients(kernel, window, Estimate(0.3, 0.0), terms)
    draw = sample_lines if isinstance(window, LineWindow) else sample_points
    oracle = []
    sizes = {}
    for li, lam in enumerate(config.lambdas):
        mean, var = ingredients.moments(lam)
        for r in range(replicates):
            sample = draw(config.intensity(lam), spawn_rng(seed, li, r))
            sizes.setdefault(lam, []).append(sample.size)
            value = evaluate(kernel, sample)
            oracle.append(ReplicateRecord(lam, r, value, (value - mean) / math.sqrt(var.value), stream_token(seed, li, r)))
    assert harness._simulate(config, ingredients) == oracle
    if case == "box-order-3":
        counts = Counter(sizes[40.0])
        assert any(c > (1 << 15) // math.comb(n, 3) for n, c in counts.items())
    if case == "large":
        assert max(sizes[300.0]) > 256


@pytest.mark.parametrize(
    "bad, message",
    [([[0.5, 0.5], [0.5, 0.5]], "repeated"), ([[0.5, 1.5]], "outside"), ([[np.nan, 0.5]], "non-finite")],
)
def test_simulate_checks_every_sampled_cell(bad, message, monkeypatch):
    # one cell of the second lambda draws a configuration that PointConfiguration refuses
    config = flat_config(lambdas=(2.0, 4.0), replicates=50)
    cells = []
    draw = harness._draw_cells

    def drawn(window, mean, streams, count):
        points, sizes, tokens = draw(window, mean, streams, count)
        i = 86 - len(cells)  # cell 87 of the run, in the second lambda
        if 0 <= i < len(sizes):
            at = sum(sizes[:i])
            points = np.concatenate([points[:at], bad, points[at + sizes[i] :]])
            sizes = sizes[:i] + [len(bad)] + sizes[i + 1 :]
        cells.extend([mean] * len(sizes))
        return points, sizes, tokens

    checked = []
    check = harness._check_cells

    def counted(window, points, sizes):
        checked.append(list(sizes))
        check(window, points, sizes)

    monkeypatch.setattr(harness, "_draw_cells", drawn)
    monkeypatch.setattr(harness, "_check_cells", counted)
    with pytest.raises(ConfigError, match=message):
        harness._simulate(config, Ingredients(config.kernel, config.window, Estimate(0.3, 0.0), (Estimate(1.0, 0.0),)))
    # the cells of a lambda are checked together, once all of them are drawn
    assert cells == [2.0] * 50 + [4.0] * 50
    assert [len(sizes) for sizes in checked] == [50, 50] and checked[1][36] == len(bad)


def test_rate_run_spawns_one_stream_per_cell(monkeypatch):
    # each lambda derives the streams of all its cells in one _cell_streams
    # call, and every cell takes one of them; no stream is built per cell
    calls = Counter()
    count_calls(monkeypatch, harness, "spawn_rng", calls)
    count_calls(monkeypatch, harness, "stream_token", calls)
    runs = []
    cell_streams = harness._cell_streams

    def counted(seed, prefix, indices):
        run = [seed, prefix, list(indices), 0]
        runs.append(run)
        for item in cell_streams(seed, prefix, run[2]):
            run[3] += 1
            yield item

    monkeypatch.setattr(harness, "_cell_streams", counted)
    fit = rate_experiment(flat_config(lambdas=(1.0, 2.0, 4.0), replicates=100))
    assert len(fit.records) == 300
    assert runs == [[7, (li,), list(range(100)), 100] for li in range(3)]
    assert calls["spawn_rng"] == 0
    assert calls["stream_token"] == 0


def test_local_rate_run_enumerates_one_grid_per_group(monkeypatch):
    # each lambda's local configurations share one cell grid per group of
    # consecutive cells (at most _GROUP_RUNS partner runs, two per point in
    # the plane); no grid is built per cell
    grids = []
    enumerate_grid = ustat_core._local_subset_batches

    def counted(points, delta, k, sizes):
        grids.append(list(sizes))
        return enumerate_grid(points, delta, k, sizes)

    monkeypatch.setattr(ustat_core, "_local_subset_batches", counted)
    config = ExperimentConfig(
        kernel=gilbert_kernel(0.1), window=UNIT_SQUARE, lambdas=(5.0, 20.0, 60.0), replicates=100,
        integrator=Integrator(samples=256, seed=2), seed=7,
    )
    fit = rate_experiment(config)
    assert len(fit.records) == 300
    expected = []
    for li, lam in enumerate(config.lambdas):
        held = None
        for r in range(100):
            n = sample_points(config.intensity(lam), spawn_rng(7, li, r)).size
            if n >= 2:
                if held is None or held + 2 * n > ustat_core._GROUP_RUNS:
                    expected.append([])
                    held = 0
                expected[-1].append(n)
                held += 2 * n
    assert grids == expected
    assert [len(g) for g in grids] == [97, 100, 67, 33]  # cells with two or more points


# ---------------------------------------------------------------------------
# CSV persistence


def test_records_round_trip_and_determinism(tmp_path):
    records = run_replicates(flat_config(replicates=40))
    path = tmp_path / "records.csv"
    emit_csv(records, path)
    again = tmp_path / "records2.csv"
    emit_csv(records, again)
    assert path.read_bytes() == again.read_bytes()
    back = read_records(path)
    assert back == records
    header = path.read_text().splitlines()[0]
    assert header == "lambda,replicate,value,standardized,seed"


def test_records_are_the_rows_of_the_records_csv(tmp_path):
    # one shape from _simulate to emit_csv and back: a named tuple whose
    # fields are the CSV's columns in order, each of its column's type
    assert issubclass(ReplicateRecord, tuple)
    assert len(ReplicateRecord._fields) == len(harness.RECORDS_HEADER)
    assert [{"lam": "lambda", "index": "replicate"}.get(f, f) for f in ReplicateRecord._fields] == harness.RECORDS_HEADER
    records = run_replicates(flat_config(replicates=40))
    assert all(type(r) is ReplicateRecord for r in records)
    assert all(tuple(map(type, r)) == harness.RECORDS_TYPES for r in records)
    # the tokens use all 64 bits, and come back exactly
    assert max(r.seed for r in records) >= 2**63
    path = tmp_path / "records.csv"
    emit_csv(records, path)
    back = read_records(path)
    assert back == records and all(type(r) is ReplicateRecord for r in back)
    assert harness._csv_table(records) == harness._csv_table([tuple(r) for r in records])


def test_empty_records_emit_a_header_only_csv(tmp_path):
    path = tmp_path / "empty_records.csv"
    emit_csv([], path)
    assert path.read_text() == "lambda,replicate,value,standardized,seed\n"
    assert read_records(path) == []


def test_csv_templates_write_what_per_field_formatting_writes():
    # one printf template per table against _fmt / str per field, whose
    # float fields share _fmt's format
    from poisson_ustats._files import _csv_text, _fmt

    awkward = [-0.0, math.inf, -math.inf, math.nan, 5e-324, 1e16, 0.1, -123.456]
    records = [ReplicateRecord(v, r, awkward[-1 - r], -v, 2**64 - 1 - r) for r, v in enumerate(awkward)]
    assert harness._csv_table(records) == _csv_text(
        harness.RECORDS_HEADER,
        ([_fmt(r.lam), str(r.index), _fmt(r.value), _fmt(r.standardized), str(r.seed)] for r in records),
    )
    fit = RateFitResult(tuple(awkward), tuple(awkward[::-1]), tuple(awkward), tuple(awkward), tuple(awkward), 0.0, 0.0, 0.0, 1)
    rows = zip(fit.lambdas, fit.d_w, fit.d_k, fit.bounds, fit.ratios)
    assert harness._csv_table(fit) == _csv_text(harness.RATES_HEADER, ([_fmt(v) for v in row] for row in rows))


def test_rates_round_trip(tmp_path):
    fit = RateFitResult(
        lambdas=(1.0, 4.0, 16.0),
        d_w=(0.5, 0.26, 0.1301),
        d_k=(0.3, 0.2, 0.1),
        bounds=(2.0, 1.0, 0.5),
        ratios=(4.0, 1.0 / 0.26, 0.5 / 0.1301),
        slope=-0.487,
        slope_se=0.02,
        intercept=-0.69,
        replicates=100,
    )
    path = tmp_path / "rates.csv"
    emit_csv(fit, path)
    rows = read_rates(path)
    assert len(rows) == 3
    for row, lam, dw, dk, b, ratio in zip(
        rows, fit.lambdas, fit.d_w, fit.d_k, fit.bounds, fit.ratios
    ):
        assert row == (lam, dw, dk, b, ratio)


def test_csv_readers_reject_foreign_headers(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError, match="records CSV"):
        read_records(path)
    with pytest.raises(ConfigError, match="rate CSV"):
        read_rates(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ConfigError):
        read_records(empty)
    missing = tmp_path / "missing.csv"
    with pytest.raises(OSError):
        read_records(missing)
    with pytest.raises(OSError):
        emit_csv([], tmp_path / "nosuchdir" / "x.csv")


@pytest.mark.parametrize(
    "reader, text",
    [
        (read_records, "lambda,replicate,value,standardized,seed\n1,0,0.5,0.25,7\n1,1,0.5,0.25\n"),
        (read_records, "lambda,replicate,value,standardized,seed\n1,one,0.5,0.25,7\n"),
        (read_rates, "lambda,d_w,d_k,bound,ratio\n1,0.5,0.25,2\n"),
        (read_rates, "lambda,d_w,d_k,bound,ratio\n1,0.5,0.25,2,x\n"),
        (read_points_csv, "x1,x2\n0.1,0.2\n0.3\n"),
        (read_points_csv, "phi,p\n0.1,0.2,0.3\n"),
    ],
    ids=["records-short", "records-text", "rates-short", "rates-text", "points-short", "points-long"],
)
def test_csv_readers_name_the_bad_line(tmp_path, reader, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=r"bad\.csv, line [23]"):
        reader(path)


def test_emit_report_round_trip(tmp_path):
    report = BoundReport(
        mode="general",
        k=2,
        lam=5.0,
        variance=3.0,
        variance_se=0.1,
        m=(MTerm(1, 1, 2.0, 0.05),),
        bound=1.5,
    )
    path = tmp_path / "report.json"
    emit_report(report, path)
    text = path.read_text()
    assert text.endswith("\n")
    assert BoundReport.from_json(text) == report


# ---------------------------------------------------------------------------
# rate experiment


def test_rate_experiment_validates_inputs():
    with pytest.raises(ConfigError, match=">= 3 lambdas"):
        rate_experiment(flat_config(lambdas=(1.0, 2.0), replicates=150))
    with pytest.raises(ConfigError, match=">= 100 replicates"):
        rate_experiment(flat_config(lambdas=(1.0, 2.0, 4.0), replicates=50))
    with pytest.raises(ConfigError, match="lambda >= 1"):
        rate_experiment(flat_config(lambdas=(0.5, 2.0, 4.0), replicates=150))


def test_rate_experiment_flat_count():
    config = flat_config(lambdas=(1.0, 4.0, 16.0), replicates=200)
    fit = rate_experiment(config)
    assert fit.lambdas == (1.0, 4.0, 16.0)
    assert fit.replicates == 200
    # order-1 flat kernel: rate factor is exactly 2
    assert fit.bounds == (2.0, 1.0, 0.5)
    for dw, dk, b, ratio in zip(fit.d_w, fit.d_k, fit.bounds, fit.ratios):
        assert 0 < dw < b
        assert ratio == b / dw
        assert dk <= 2.0 * math.sqrt(dw) + 2.0 / math.sqrt(config.replicates)
    assert -0.9 < fit.slope < -0.1
    assert fit.slope_se >= 0.0


def test_rate_experiment_local_kernel_bounds_per_lambda(monkeypatch):
    config = flat_config(
        kernel=gilbert_kernel(0.3),
        lambdas=(1.0, 2.0, 4.0),
        replicates=120,
        integrator=Integrator(samples=400, seed=5),
    )
    calls = Counter()
    count_calls(monkeypatch, harness, "variance_terms", calls)
    count_calls(monkeypatch, clt_bounds, "variance_terms", calls)
    count_calls(monkeypatch, clt_bounds, "_fourth_power_norms", calls)
    fit = rate_experiment(config)
    # the lambda-free ingredients are estimated once for the whole grid
    assert calls == {"variance_terms": 1, "_fourth_power_norms": 1}
    assert len(fit.bounds) == 3
    assert all(math.isfinite(b) and b > 0 for b in fit.bounds)
    assert all(d > 0 for d in fit.d_w)
    for lam, b in zip(config.lambdas, fit.bounds):
        assert b == local_bound(config.kernel, config.intensity(lam), config.integrator, c_k=config.c_k).bound
    assert fit.records == tuple(run_replicates(config))


def test_rate_experiment_geometric_kernel_bounds_per_lambda():
    config = flat_config(
        kernel=make_kernel("pairwise-distance"),
        lambdas=(1.0, 3.0, 9.0),
        replicates=100,
        integrator=Integrator(samples=300, seed=8),
    )
    fit = rate_experiment(config)
    for lam, b in zip(config.lambdas, fit.bounds):
        rep = geometric_bound(config.kernel, config.intensity(lam), config.integrator)
        assert b == rep.rate_factor / math.sqrt(lam)
    assert fit.records == tuple(run_replicates(config))


# ---------------------------------------------------------------------------
# command line


def test_cli_lists_kernels(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    for name in ("counterexample", "pairwise-distance", "gilbert-count", "line-intersections"):
        assert name in out


def test_cli_sample_writes_readable_csv(tmp_path, capsys):
    path = tmp_path / "points.csv"
    code = main(
        ["sample", "--kernel", "pairwise-distance", "--lambda", "6", "--seed", "3", "--out", str(path)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    config = read_points_csv(path)
    assert config.dim == 2
    assert config.size >= 0


def test_cli_sample_stdout_and_determinism(capsys):
    assert main(["sample", "--kernel", "pairwise-distance", "--lambda", "6", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    assert first.splitlines()[0] == "x1,x2"
    assert main(["sample", "--kernel", "pairwise-distance", "--lambda", "6", "--seed", "3"]) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--kernel", "pairwise-distance", "--lambda", "6", "--seed", "3"],
        ["variance", "--kernel", "counterexample", "--lambda", "2,4"],
        ["experiment", "rate", "--kernel", "pairwise-distance", "--lambda", "2,4,8", "--replicates", "100"],
    ],
    ids=["sample", "variance", "rate"],
)
def test_cli_stdout_is_the_file_text(tmp_path, capsys, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    path = tmp_path / "out.csv"
    assert main(argv + ["--out", str(path)]) == 0
    # after its "wrote" line, a rate run prints the same slope line either way
    rest = capsys.readouterr().out.splitlines(keepends=True)[1:]
    assert printed == path.read_bytes().decode() + "".join(rest)


def test_cli_eval_prints_value(capsys):
    assert main(["eval", "--kernel", "pairwise-distance", "--lambda", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "lambda=4" in out and "value=" in out


def test_cli_variance_table(capsys):
    assert main(["variance", "--kernel", "counterexample", "--lambda", "2,4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "lambda,mean,variance,variance_se"
    assert len(lines) == 3


def test_cli_variance_se_is_finite_at_a_huge_lambda(capsys):
    # lam^3 T_1 is about 1e165 and its se about 1e162, whose square overflows
    assert main(["variance", "--kernel", "pairwise-distance", "--lambda", "1e55"]) == 0
    lam, mean, var, se = map(float, capsys.readouterr().out.splitlines()[1].split(","))
    assert lam == 1e55 and math.isfinite(var) and math.isfinite(se) and 0.0 < se < var


def test_cli_bound_report_cycle(tmp_path, capsys):
    config = {
        "kernel": "pairwise-distance",
        "lambdas": [4],
        "replicates": 10,
        "integrator": {"samples": 400, "seed": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    report_path = tmp_path / "report.json"
    assert main(["bound", "--config", str(cfg_path), "--out", str(report_path)]) == 0
    assert "geometric report" in capsys.readouterr().out
    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out
    assert "report is valid" in out
    assert "mode: geometric" in out
    # without --out the report goes to the config's out.report
    config["out"] = {"report": str(tmp_path / "from_config.json")}
    cfg_path.write_text(json.dumps(config))
    assert main(["bound", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "from_config.json").read_text() == report_path.read_text()
    assert main(["report", str(tmp_path / "from_config.json")]) == 0
    assert "report is valid" in capsys.readouterr().out


def test_cli_report_prints_the_local_constants(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**GILBERT_SQUARE, "lambdas": [25], "delta": 0.1, "c_k": 2.5}))
    report_path = tmp_path / "report.json"
    assert main(["bound", "--config", str(cfg_path), "--out", str(report_path)]) == 0
    assert "local report" in capsys.readouterr().out
    report = BoundReport.from_json(report_path.read_text())
    assert main(["report", str(report_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "mode: local" in out and f"b(delta): {report.b_delta:.6g}" in out and "c_k: 2.5" in out


def test_cli_kernel_flag_replaces_only_the_file_kernel(tmp_path, capsys):
    # --kernel with --config builds the flag's kernel on the file's window,
    # lambda and seed: the output of a file that names that kernel itself
    fields = {"kernel": "pairwise-distance", "window": {"shape": "box", "bounds": [[0.0, 2.0], [0.0, 3.0]]}, "lambdas": [5], "replicates": 20, "seed": 7}
    file_kernel = tmp_path / "file_kernel.json"
    file_kernel.write_text(json.dumps(fields))
    flag_kernel = tmp_path / "flag_kernel.json"
    flag_kernel.write_text(json.dumps({**fields, "kernel": "convex-position-3"}))
    outputs = []
    for argv in (["--config", str(file_kernel), "--kernel", "convex-position-3"], ["--config", str(flag_kernel)], ["--config", str(file_kernel)]):
        assert main(["eval", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]
    assert outputs[0].startswith("lambda=5 points=")


# every kernel the CLI can build: its constants, and the exit code and mode
# (or error line) of bound, the local mode where the kernel has a locality
CLI_BOUND_CASES = {
    "gilbert-count": ({"delta": 0.1}, 0, "local"),
    "gilbert-length": ({"delta": 0.1}, 0, "local"),
    "pairwise-distance": ({}, 0, "geometric"),
    "convex-position-3": ({}, 0, "geometric"),
    "convex-position-k": ({"k": 3}, 0, "geometric"),
    "convex-position-4": ({}, 4, "error: the orbit integrals of the order-4 M_ij take 1,223,600,832 draws"),
    "line-intersections": ({}, 0, "geometric"),
    "counterexample": ({}, 3, "error: first-order variance coefficient is consistent with zero"),
}


@pytest.mark.parametrize("name", sorted(CLI_BOUND_CASES))
def test_cli_bound_dispatches_every_kernel(tmp_path, capsys, name):
    assert set(kernel_summaries()) <= set(CLI_BOUND_CASES)
    constants, code, expected = CLI_BOUND_CASES[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"kernel": name, "lambdas": [4], "replicates": 20, "integrator": {"samples": 64, "seed": 1}, **constants}))
    assert main(["bound", "--config", str(cfg_path)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["mode"] == expected
    else:
        assert err.startswith(expected) and err.count("\n") == 1, err


def test_cli_bound_degenerate_exits_3(tmp_path, capsys):
    config = {
        "kernel": "counterexample",
        "lambdas": [4],
        "replicates": 10,
        "integrator": {"samples": 800, "strata": 2},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["bound", "--config", str(cfg_path)]) == 3
    assert "consistent with zero" in capsys.readouterr().err


def test_cli_refused_work_exits_4(tmp_path, capsys, monkeypatch):
    # the orbit integrals of M_ij for k = 4 need more draws than their guard
    config = {"kernel": "convex-position-4", "lambdas": [16], "replicates": 200, "integrator": {"samples": 64, "seed": 1}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["bound", "--config", str(cfg_path)]) == 4
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error: the orbit integrals")
    assert "Traceback" not in err

    def non_finite(args):
        raise IntegrationError("non-finite integrand value")

    monkeypatch.setattr(cli, "_cmd_variance", non_finite)
    assert main(["variance", "--kernel", "pairwise-distance", "--lambda", "2"]) == 4
    assert capsys.readouterr().err == "error: non-finite integrand value\n"


def test_cli_eval_refuses_a_kernel_sum_that_overflows(tmp_path, capsys):
    # the box has measure 1 but is 1e160 long: pairwise distances near 1e160
    # sum to inf, which eval refuses like the other verbs refuse their integrands
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"kernel": "pairwise-distance", "window": {"shape": "box", "bounds": [[0, 1e160], [0, 1e-160]]}, "lambdas": [8], "replicates": 200}))
    with np.errstate(over="ignore"):
        assert main(["eval", "--config", str(cfg_path)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1, err
    assert err.startswith("error: non-finite kernel sum on configuration 0 (") and "Traceback" not in err


def test_cli_refuses_an_over_budget_ingredient_plan_before_any_draw(tmp_path, capsys, monkeypatch):
    # at 2 * 10^9 samples the T_1 pilot would allocate its 30 GiB of outer
    # draws; the record's row guard refuses the plan first, with exit 4, one
    # error line, no traceback and no draw, well inside a second
    def no_draw(*args, **kwargs):
        raise AssertionError("drew")

    # every draw source of the integrator: lattice, strata and the pilots' iid variates
    monkeypatch.setattr(ustat_core, "_unit_variates", no_draw)
    monkeypatch.setattr(ustat_core, "lattice_chunks", no_draw)
    config = {"kernel": "pairwise-distance", "lambdas": [4], "replicates": 10, "integrator": {"samples": 2_000_000_000, "seed": 1}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    start = time.perf_counter()
    assert main(["variance", "--config", str(cfg_path), "--lambda", "4"]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "error: the order-2 variance terms and norms take up to 290,000,000,000 kernel rows, above the guard of 100,000,000\n"


def test_cli_usage_errors_exit_2(tmp_path, capsys):
    cases = [
        ["bound", "--kernel", "no-such-kernel"],
        ["variance", "--kernel", "counterexample", "--lambda", "4,2"],
        ["variance", "--kernel", "counterexample", "--lambda", "4,eels"],
        ["eval"],
        ["variance", "--config", str(tmp_path / "nope.json")],
        ["bound", "--kernel", "pairwise-distance", "--lambda", "2,4"],
        ["report", str(tmp_path / "nope.json")],
    ]
    # files that exist but do not parse: invalid JSON, an M term without "j",
    # and configs with a non-integer count, a non-list grid and non-numeric bounds
    malformed = {
        "report": [
            "{not json",
            json.dumps({
                "mode": "general", "k": 1, "lambda": 4.0, "variance": 1.0, "variance_se": 0.0,
                "m": [{"i": 1, "value": 1.0, "se": 0.0}], "bound": 1.0, "vtilde": None, "b_delta": None, "c_k": None,
            }),
        ],
        "variance": [
            json.dumps({"kernel": "counterexample", "lambdas": [4], "replicates": "many"}),
            json.dumps({"kernel": "counterexample", "lambdas": 4, "replicates": 1}),
            json.dumps({"kernel": "counterexample", "lambdas": [4], "replicates": 1,
                        "window": {"shape": "box", "bounds": [["a", 1]]}}),
        ],
        # runnable rate configs whose output paths are a file descriptor and a list
        "experiment rate": [
            json.dumps({"kernel": "pairwise-distance", "lambdas": [2, 4, 8], "replicates": 100,
                        "integrator": {"samples": 256}, "out": {"records": path}})
            for path in (2, ["r.csv"])
        ],
    }
    for verb, texts in malformed.items():
        for n, text in enumerate(texts):
            path = tmp_path / f"{verb.split()[0]}-{n}.json"
            path.write_text(text)
            cases.append([verb, str(path)] if verb == "report" else [*verb.split(), "--config", str(path)])
    for argv in cases:
        assert main(argv) == 2, argv
        assert "error:" in capsys.readouterr().err


def test_cli_report_rejects_incomplete_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"mode": "general", "k": 2}')
    assert main(["report", str(path)]) == 2
    assert "misses fields" in capsys.readouterr().err


def test_cli_rate_writes_requested_outputs(tmp_path, capsys, monkeypatch):
    config = {
        "kernel": "pairwise-distance",
        "lambdas": [1, 2, 4],
        "replicates": 100,
        "integrator": {"samples": 500, "seed": 4},
        "out": {"records": str(tmp_path / "records.csv")},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rates_path = tmp_path / "rates.csv"
    calls = Counter()
    draw = harness._draw_cells

    def drawn(window, mean, streams, count):
        points, sizes, tokens = draw(window, mean, streams, count)
        calls["cells"] += len(sizes)
        return points, sizes, tokens

    monkeypatch.setattr(harness, "_draw_cells", drawn)
    assert main(["experiment", "rate", "--config", str(cfg_path), "--out", str(rates_path)]) == 0
    # every (lambda, replicate) cell is sampled once, for the fit and the records alike
    assert calls["cells"] == 300
    out = capsys.readouterr().out
    assert "slope=" in out
    rows = read_rates(rates_path)
    assert [row[0] for row in rows] == [1.0, 2.0, 4.0]
    # quadrupling lambda halves the bound column
    assert rows[2][3] == rows[0][3] / 2.0
    records = read_records(tmp_path / "records.csv")
    assert len(records) == 300
    again = tmp_path / "again.csv"
    emit_csv(run_replicates(ExperimentConfig.from_json(cfg_path.read_text())), again)
    assert (tmp_path / "records.csv").read_bytes() == again.read_bytes()


def test_cli_rate_rejects_a_bad_constant_before_any_estimation(tmp_path, capsys, monkeypatch):
    config = {"kernel": "gilbert-count", "delta": 0.1, "lambdas": [25, 50], "replicates": 20, "c_k": -1}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    calls = Counter()
    count_calls(monkeypatch, harness, "estimate_ingredients", calls)
    count_calls(monkeypatch, harness, "_draw_cells", calls)
    assert main(["experiment", "rate", "--config", str(cfg_path), "--out", str(tmp_path / "rates.csv")]) == 2
    assert "c_k must be positive" in capsys.readouterr().err
    assert calls == Counter()
    assert not (tmp_path / "rates.csv").exists()


@pytest.mark.parametrize("verb", [["variance"], ["bound"], ["experiment", "rate"]])
def test_cli_refuses_a_negative_integrator_seed_before_any_draw(tmp_path, capsys, monkeypatch, verb):
    config = {"kernel": "pairwise-distance", "lambdas": [4], "replicates": 20, "integrator": {"samples": 100, "seed": -5}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    calls = Counter()
    count_calls(monkeypatch, harness, "estimate_ingredients", calls)
    count_calls(monkeypatch, harness, "_draw_cells", calls)
    assert main([*verb, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: integrator seed must be nonnegative, got -5\n"
    assert calls == Counter()
    with pytest.raises(ConfigError, match="nonnegative"):
        Integrator(seed=-1)


@pytest.mark.parametrize("lambdas", ["48", [True, 4], 4])
def test_cli_refuses_a_lambda_grid_that_is_not_a_list_of_numbers(tmp_path, capsys, monkeypatch, lambdas):
    # a string grid was read character by character ("48" ran as (4, 8)),
    # and a boolean as the lambda 1.0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"kernel": "pairwise-distance", "lambdas": lambdas, "replicates": 20}))
    calls = Counter()
    count_calls(monkeypatch, harness, "estimate_ingredients", calls)
    assert main(["variance", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: config 'lambdas' must be a list of numbers, got {lambdas!r}\n"
    assert calls == Counter()


@pytest.mark.parametrize(
    "fields, err",
    [
        ({"integrator": {"samples": True}}, "integrator samples must be a whole number, got True"),
        ({"integrator": {"seed": False}}, "integrator seed must be a whole number, got False"),
        ({"replicates": True}, "replicates must be a whole number, got True"),
        ({"seed": True}, "seed must be a whole number, got True"),
        ({"kernel": "gilbert-count", "delta": True}, "delta must be a number, got True"),
    ],
)
def test_cli_refuses_a_boolean_where_a_number_is_expected(tmp_path, capsys, monkeypatch, fields, err):
    # "samples": true ran as one sample, and its variance_se read inf with exit 0
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"kernel": "pairwise-distance", "lambdas": [4], "replicates": 20, **fields}))
    calls = Counter()
    count_calls(monkeypatch, harness, "estimate_ingredients", calls)
    assert main(["variance", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    assert calls == Counter()


HUGE_DISK = {"kernel": "line-intersections", "lambdas": [4], "replicates": 20, "integrator": {"samples": 64, "seed": 4}}


@pytest.mark.parametrize("radius", [1e100, 1e200])
@pytest.mark.parametrize("verb, power, variables", [("bound", 10, 5), ("variance", 6, 3)])
def test_cli_refuses_a_window_whose_measure_overflows_the_integrals(tmp_path, capsys, monkeypatch, radius, verb, power, variables):
    # the window measure scales an integral over n variables by theta^n, and
    # its standard error squares that: at radius 1e200 bound ended in an
    # OverflowError traceback, and at 1e100 variance printed an inf se
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**HUGE_DISK, "window": {"shape": "line-disk", "radius": radius}}))
    calls = Counter()
    count_calls(monkeypatch, clt_bounds, "_m_orbit_integrals", calls)
    count_calls(monkeypatch, clt_bounds, "variance_terms", calls)
    assert main([verb, "--config", str(cfg_path)]) == 2
    theta = 2.0 * math.pi * radius
    assert capsys.readouterr().err == (
        f"error: window LineWindow(radius={radius!r}) is too large: its measure {theta:g} to the power {power} "
        f"overflows, the square of an order-2 integral over {variables} of its variables\n"
    )
    assert calls == Counter()


def test_cli_samples_and_evaluates_on_a_window_too_large_to_integrate(tmp_path, capsys):
    # the window samples; the kernel's crossing test would square offsets
    # near 1e200, so eval refuses it instead of counting by NaN comparisons
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**HUGE_DISK, "window": {"shape": "line-disk", "radius": 1e200}, "lambdas": [1e-200]}))
    assert main(["sample", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out.startswith("phi,p\n")
    assert main(["eval", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: line intersections need window and region radii in [1.49e-154, 6.7e+153], where the squares "
        "of the crossing test are normal floats; got 1e+200 and 1e+200\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["variance", "--kernel", "pairwise-distance", "--lambda", "4,8,1e300"],
        ["variance", "--kernel", "pairwise-distance", "--lambda", "4,inf"],
        ["variance", "--kernel", "pairwise-distance", "--lambda", "nan"],
        ["bound", "--kernel", "pairwise-distance", "--lambda", "2e77"],
        ["experiment", "rate", "--kernel", "pairwise-distance", "--lambda", "4,8,1e300"],
    ],
)
def test_cli_refuses_lambdas_whose_powers_overflow_before_any_draw(capsys, monkeypatch, argv):
    calls = Counter()
    count_calls(monkeypatch, harness, "estimate_ingredients", calls)
    count_calls(monkeypatch, harness, "_draw_cells", calls)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("overflows" in err or "finite" in err), err
    assert "Traceback" not in err
    assert calls == Counter()


@pytest.mark.parametrize("verb", ["sample", "eval"])
@pytest.mark.parametrize("lam", ["1e17", "1e19"])
def test_cli_refuses_a_draw_above_the_point_budget(capsys, monkeypatch, verb, lam):
    # 1e17 points would need an EiB buffer, and 1e19 lies past numpy's
    # Poisson limit: exit 4 with one error line, before a point buffer is
    # allocated (the only np.empty of a draw) or a count drawn
    class NoBuffer:
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, *args, **kwargs):
            raise AssertionError("a point buffer was allocated")

    monkeypatch.setattr(point_process, "np", NoBuffer())
    assert main([verb, "--kernel", "pairwise-distance", "--lambda", lam]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "budget" in err, err


def test_replicates_above_the_point_budget_are_refused_before_any_stream(tmp_path, capsys, monkeypatch):
    # 10^8 replicates at lambda 8 need a buffer of 8e8 points, which
    # _draw_cells refuses: the rate experiment and run_replicates refuse them
    # first, with exit 4 and one error line in under a second, before a cell
    # stream is derived (a 3.2 GB seed array) or an ingredient estimated
    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(harness, "_cell_streams", refused)
    monkeypatch.setattr(harness, "estimate_ingredients", refused)
    config = {"kernel": "pairwise-distance", "lambdas": [2, 4, 8], "replicates": 100_000_000, "integrator": {"samples": 256}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    start = time.perf_counter()
    assert main(["experiment", "rate", "--config", str(cfg_path)]) == 4
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err == "error: 100000000 cell(s) of mean count 8 need about 8.003e+08 points, above the budget of 8,388,608\n"
    with pytest.raises(CapacityError, match="mean count 8 "):
        run_replicates(flat_config(lambdas=(2.0, 8.0), replicates=100_000_000))


def test_replicates_above_the_stream_budget_are_refused_before_any_stream(tmp_path, capsys, monkeypatch):
    # 8M replicates at lambda 1.02 need 8,188,566 points, within the point
    # budget, but 8M streams: refused in under a second before any derivation
    def refused(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(harness, "_cell_streams", refused)
    monkeypatch.setattr(harness, "estimate_ingredients", refused)
    config = {"kernel": "pairwise-distance", "lambdas": [1.0, 1.01, 1.02], "replicates": 8_000_000, "integrator": {"samples": 256}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    start = time.perf_counter()
    assert main(["experiment", "rate", "--config", str(cfg_path)]) == 4
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: 8000000 cell(s) need as many random streams, above the budget of 1,048,576\n"


def test_cli_refuses_a_ball_without_a_finite_measure(tmp_path, capsys):
    # radius^2 of a 2-D ball of radius 1e160 is past the floats: exit 2 with one error line
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"kernel": "pairwise-distance", "window": {"shape": "ball", "radius": 1e160}, "lambdas": [4], "replicates": 20}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "points.csv")]) == 2
    assert capsys.readouterr().err == "error: ball of radius 1e+160 in dimension 2 has no finite measure\n"
    # a 1-D ball of radius 1e200 has one: its draws lie inside it
    cfg_path.write_text(json.dumps({"kernel": "pairwise-distance", "window": {"shape": "ball", "radius": 1e200, "dimension": 1}, "lambdas": [1e-200], "replicates": 20}))
    assert main(["sample", "--config", str(cfg_path), "--out", str(tmp_path / "points.csv")]) == 0


GILBERT_SQUARE = {"kernel": "gilbert-count", "window": {"shape": "box", "bounds": [[0.0, 1.0], [0.0, 1.0]]}, "lambdas": [25, 50, 100], "replicates": 20, "integrator": {"samples": 64, "seed": 4}}


@pytest.mark.parametrize("verb", [["bound", "--lambda", "25"], ["variance"], ["experiment", "rate"]])
def test_cli_refuses_a_delta_whose_local_bound_overflows(tmp_path, capsys, monkeypatch, verb):
    # b(delta) = lam * vol(B(0, 4 delta)) of the local bound has no float at
    # delta 1e300: exit 2 with an error line, before any draw
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({**GILBERT_SQUARE, "delta": 1e300}))
    calls = Counter()
    count_calls(monkeypatch, harness, "estimate_ingredients", calls)
    count_calls(monkeypatch, harness, "_draw_cells", calls)
    assert main([*verb, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta 1e+300 overflows b(delta)") and "Traceback" not in err, err
    assert calls == Counter()


def test_cli_validates_the_file_grid_with_the_lambda_override(tmp_path, capsys):
    # --lambda replaces the file's grid before the config is validated: a
    # file lambda that overflows, or whose b(delta) overflows, is not run
    over = tmp_path / "over.json"
    over.write_text(json.dumps({"kernel": "pairwise-distance", "lambdas": [4, 1e300], "replicates": 20, "integrator": {"samples": 64, "seed": 4}}))
    assert main(["variance", "--config", str(over), "--lambda", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("4,")
    near = tmp_path / "near.json"
    near.write_text(json.dumps({**GILBERT_SQUARE, "lambdas": [25, 50], "delta": 3e152}))
    assert main(["bound", "--config", str(near), "--lambda", "25"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda"] == 25.0
    # at delta 4e152, b(delta) overflows at the override's own lambda
    near.write_text(json.dumps({**GILBERT_SQUARE, "lambdas": [25, 50], "delta": 4e152}))
    assert main(["bound", "--config", str(near), "--lambda", "25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: delta 4e+152 overflows b(delta)") and "at lambda 25 " in err and "Traceback" not in err, err


def test_cli_keeps_a_finite_delta_larger_than_the_window(tmp_path, capsys):
    # delta 5.0 and 1.5 both cover every pair of the unit square, and their
    # balls are larger than it, so both draw theta-uniform points: the same
    # variance rows, and a local bound with b(delta) at delta 5
    out = {}
    for delta in (5.0, 1.5):
        cfg_path = tmp_path / f"config-{delta}.json"
        cfg_path.write_text(json.dumps({**GILBERT_SQUARE, "delta": delta}))
        assert main(["variance", "--config", str(cfg_path)]) == 0
        out[delta] = capsys.readouterr().out
    assert out[5.0] == out[1.5]
    assert main(["bound", "--config", str(tmp_path / "config-5.0.json"), "--lambda", "25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "local" and report["b_delta"] == 25.0 * math.pi * 20.0**2


def test_lambda_overflow_bound_is_lambda_to_the_2k():
    # pairwise distance has order 2: lam^4 must be a finite float
    ok = ExperimentConfig(kernel="pairwise-distance", window=UNIT_SQUARE, lambdas=(1e77,), replicates=1)
    assert ok.lambdas == (1e77,)
    with pytest.raises(ConfigError, match="overflows lambda\\^4"):
        ExperimentConfig(kernel="pairwise-distance", window=UNIT_SQUARE, lambdas=(1.0, 2e77), replicates=1)
    # order 1: lam^2 is finite at 1e150
    ExperimentConfig(kernel=UStatKernel(1, lambda t: t[:, 0, 0]), window=UNIT_SQUARE, lambdas=(1e150,), replicates=1)
    with pytest.raises(ConfigError, match="finite"):
        ExperimentConfig(kernel="pairwise-distance", window=UNIT_SQUARE, lambdas=(1.0, math.inf), replicates=1)


def test_cli_flag_overrides_apply(capsys):
    assert main(["variance", "--kernel", "counterexample", "--lambda", "1,2,3,5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("1,")
    assert lines[4].startswith("5,")
