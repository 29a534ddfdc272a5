"""Config schema, experiment harness, sweeps, and the command-line surface."""

import concurrent.futures
import contextlib
import copy
import csv
import io
import json
import math
import os
import pickle
import shutil
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    ConfigError,
    MetricsTrace,
    NumericalAbort,
    Simulation,
    build_simulation,
    emit_metrics,
    equivalence_check,
    parse_config,
    resolved_dict,
    run_experiment,
    run_sweep,
)
from slowmo_sim import cli, harness
from slowmo_sim.cli import main
from slowmo_sim.comm_protocols import PROTOCOLS
from slowmo_sim.config import (
    MAX_DIMENSION,
    MAX_QUADRATIC_DIMENSION,
    MAX_STEPS,
    MAX_WORKERS,
    initial_point,
    load_config,
)
from slowmo_sim.harness import assemble_bound_inputs, bound_report, expand_grid

BASE_RAW = {
    "problem": {
        "kind": "quadratic", "m": 2, "dimension": 3,
        "noise": {"kind": "additive-gaussian", "sigma2": 0.2},
        "l_min": 0.5, "l_max": 2.0, "heterogeneity": 0.5,
    },
    "base": {"kind": "plain-sgd"},
    "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": 3},
    "gamma": {"value": 0.05},
    "protocol": "allreduce",
    "T": 4,
    "seed": 7,
}


def _raw(**overrides):
    raw = json.loads(json.dumps(BASE_RAW))
    raw.update(overrides)
    return raw


# --------------------------------------------------------------------------- #
# config schema
# --------------------------------------------------------------------------- #

def test_parse_minimal_config():
    cfg = parse_config(_raw())
    assert cfg.problem.m == 2
    assert cfg.slowmo.tau == 3
    assert cfg.protocol == "allreduce"
    assert cfg.seed == 7


UNKNOWN_KEY_SECTIONS = [
    (), ("problem",), ("problem", "noise"), ("base",), ("slowmo",), ("gamma",),
    ("topology",), ("osgp",), ("osgp", "delay"), ("init",),
]


def test_unknown_keys_are_reported_with_their_path():
    for section in UNKNOWN_KEY_SECTIONS:
        raw = copy.deepcopy(_FULL_RAW)
        node = raw
        for key in section:
            node = node[key]
        node["momentum"] = 0.9
        with pytest.raises(ConfigError) as exc:
            parse_config(raw)
        where = f" in {'.'.join(section)}:" if section else "field(s):"
        assert where in str(exc.value) and "momentum" in str(exc.value)
    raw = copy.deepcopy(_FULL_RAW)
    raw["problem"]["sample_spread"] = 1.0  # a removed field is an unknown one
    with pytest.raises(ConfigError, match=r"in problem: \['sample_spread'\]"):
        parse_config(raw)
    raw = copy.deepcopy(_FULL_RAW)
    raw["topology"]["rounds"] = []
    with pytest.raises(ConfigError, match=r"in topology: \['rounds'\]"):
        parse_config(raw)
    for kind in ("custom", "complete"):  # so is a removed kind
        raw["topology"] = {"kind": kind}
        with pytest.raises(ConfigError, match=f"unknown topology kind {kind!r}"):
            parse_config(raw)


def test_cross_field_rules():
    raw = _raw(T=None, total_steps=None)
    del raw["T"], raw["total_steps"]
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _raw(total_steps=10)
    with pytest.raises(ConfigError):
        parse_config(raw)  # both T and total_steps
    for problem in ({"samples_per_worker": 4}, {"noise": {"kind": "minibatch", "batch_size": 2}}):
        with pytest.raises(ConfigError, match="a quadratic has no data shard"):
            parse_config(_raw(**_workers(2, **problem)))


def test_resolved_dict_round_trips():
    raw = _raw(protocol="osgp")
    raw["topology"] = {"kind": "exponential-directed"}
    raw["osgp"] = {"staleness": 3, "delay": {"kind": "geometric", "p": 0.5, "cap": 4}}
    # the valid raws add step milestones
    for case in [raw, *_VALID_RAWS]:
        cfg = parse_config(case)
        clone = parse_config(resolved_dict(cfg))
        assert clone == cfg


def test_build_simulation_and_run():
    cfg = parse_config(_raw())
    sim = build_simulation(cfg)
    assert sim.cfg is cfg and type(sim.protocol) is PROTOCOLS["allreduce"]
    trace = sim.run()
    assert len(trace.records) == 12


def test_config_to_trace_is_a_pure_function():
    cfg = parse_config(_raw(protocol="sgp"))
    h1 = build_simulation(cfg).run().trace_hash()
    h2 = build_simulation(cfg).run().trace_hash()
    assert h1 == h2
    h3 = build_simulation(replace(cfg, seed=8)).run().trace_hash()
    assert h1 != h3


def test_initial_point_kinds():
    cfg = parse_config(_raw(init={"kind": "zeros"}))
    assert np.array_equal(initial_point(cfg, 3), np.zeros(3))
    cfg = parse_config(_raw(init={"kind": "gaussian", "scale": 2.0}))
    a, b = initial_point(cfg, 3), initial_point(cfg, 3)
    assert np.array_equal(a, b) and np.linalg.norm(a) > 0


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(_raw()))
    assert load_config(str(path)) == parse_config(_raw())


# --------------------------------------------------------------------------- #
# emitters and equivalence
# --------------------------------------------------------------------------- #

def test_emit_metrics_writes_both_formats(tmp_path):
    cfg = parse_config(_raw())
    trace = build_simulation(cfg).run()
    paths = emit_metrics(trace, str(tmp_path), fmt="both")
    lines = open(paths["jsonl"]).read().splitlines()
    assert len(lines) == len(trace.records)
    assert json.loads(lines[0])["round"] == 0
    assert paths["x_bar"] == str(tmp_path / "xbar.npy")
    with open(paths["csv"]) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["final_loss"]) == pytest.approx(trace.summary["final_loss"])


def test_equivalence_check_reports_max_diff():
    cfg = parse_config(_raw())
    a = build_simulation(cfg).run()
    b = build_simulation(cfg).run()
    verdict = equivalence_check(a, b)
    assert verdict["passed"] and verdict["max_abs_diff"] == 0.0
    # perturb one coordinate of one record
    bad = MetricsTrace(records=b.records, summary=b.summary, x_bar=b.x_bar.copy())
    bad.x_bar[3, 0] += 1e-6
    verdict = equivalence_check(a, bad)
    assert not verdict["passed"]
    assert verdict["max_abs_diff"] == pytest.approx(1e-6, rel=1e-6)
    assert equivalence_check(a, b, tol=0.0)["passed"]  # identical traces at tolerance 0
    for tol in (math.nan, math.inf, -1e-12):
        with pytest.raises(ConfigError, match="tolerance"):
            equivalence_check(a, b, tol=tol)


def test_equivalence_check_counts_column_records_without_building_dicts():
    cfg = parse_config(_raw())
    a, b = build_simulation(cfg).run(), build_simulation(cfg).run()
    assert equivalence_check(a, b)["steps_compared"] == len(a) > 0
    assert "records" not in vars(a) and "records" not in vars(b)


def test_equivalence_check_verdict_when_nothing_can_be_compared():
    a = build_simulation(parse_config(_raw())).run()
    shorter = MetricsTrace(records=a.records[:-1], summary=a.summary, x_bar=a.x_bar[:-1])
    narrower = MetricsTrace(records=a.records, summary=a.summary, x_bar=a.x_bar[:, :-1])
    n = len(a.records)
    for other, reason in ((shorter, f"trace lengths differ: {n} vs {n - 1}"),
                          (narrower, "iterate dimensions differ")):
        assert equivalence_check(a, other) == {
            "passed": False, "max_abs_diff": math.inf, "steps_compared": 0,
            "tol": 1e-10, "reason": reason}
    # a trace read from its JSONL alone has no x_bar rows to compare
    with pytest.raises(ConfigError, match="has 0 rows of x_bar"):
        equivalence_check(a, MetricsTrace.from_jsonl(a.to_jsonl()))


def test_emitted_trace_reads_back_bit_for_bit(tmp_path):
    trace = build_simulation(parse_config(_raw())).run()
    x_bar = trace.x_bar.copy()
    x_bar[0] = [0.0, -0.0, 5e-324]  # sign bits and a subnormal
    trace = MetricsTrace(records=trace.records, summary=trace.summary, x_bar=x_bar)
    paths = emit_metrics(trace, str(tmp_path), fmt="jsonl")
    back = cli._load_trace_and_x_bar(paths["jsonl"])
    assert back.records == trace.records
    assert back.x_bar.dtype == np.float64 and back.x_bar.shape == x_bar.shape
    assert back.x_bar.tobytes() == x_bar.tobytes()
    assert back.trace_hash() == trace.trace_hash()


@pytest.mark.parametrize("runner", ["run_experiment", "run_sweep"])
def test_unknown_format_is_refused_before_anything_is_built(runner, tmp_path, monkeypatch):
    rounds = []
    monkeypatch.setattr(Simulation, "inner_round", lambda self, *args: rounds.append(args))
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match="unknown output format 'bogus'"):
        getattr(harness, runner)(parse_config(_raw(grid={"seed": [1, 2]})), str(out), fmt="bogus")
    assert not out.exists() and not (out / "sweep_index.json").exists()
    assert rounds == []


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = parse_config(_raw())
    out = tmp_path / "exp"
    trace = run_experiment(cfg, str(out), fmt="both")
    assert (out / "resolved.json").exists()
    assert (out / "trace.jsonl").exists()
    assert (out / "summary.csv").exists()
    assert (out / "trace.jsonl").read_text() == trace.to_jsonl() + "\n"
    resolved = json.loads((out / "resolved.json").read_text())
    assert parse_config(resolved) == cfg
    assert trace.summary["aborted"] is False


def test_run_experiments_needs_one_directory_per_config(tmp_path):
    # one directory per seed of the config, and at least one seed
    cfg, seeds = parse_config(_raw()), [1, 2]
    dirs = [str(tmp_path / name) for name in ("a", "b")]
    for n_seeds, n_dirs in ((2, 1), (1, 2)):
        with pytest.raises(ConfigError, match="as many output directories"):
            harness.run_experiments(cfg, seeds[:n_seeds], dirs[:n_dirs])
    with pytest.raises(ConfigError, match="empty list of seeds"):
        harness.run_experiments(cfg, [], [])
    assert not any(tmp_path.iterdir())


# --------------------------------------------------------------------------- #
# sweeps
# --------------------------------------------------------------------------- #

def test_expand_grid_cartesian_product():
    raw = _raw(grid={"slowmo.beta": [0.0, 0.5], "seed": [1, 2, 3]})
    cfg = parse_config(raw)
    combos = expand_grid(cfg)
    assert len(combos) == 6
    betas = sorted({c.slowmo.beta for _, c in combos})
    seeds = sorted({c.seed for _, c in combos})
    assert betas == [0.0, 0.5] and seeds == [1, 2, 3]
    # the expanded configs carry no grid of their own
    assert all(not c.grid for _, c in combos)


@pytest.mark.parametrize("jobs, points, cpus, pool", [
    (100_000, 2, 2, 2),
    (100_000, 3, 8, 3),
    (2, 3, 8, 2),
    (5, 3, 1, None),  # one CPU: no pool
    (1, 3, 8, None),
])
def test_sweep_pool_is_bounded_by_grid_points_and_cpus(jobs, points, cpus, pool, tmp_path,
                                                       monkeypatch):
    # the pool runs stacked chunks: each beta's two seeds are one chunk, so
    # ``points`` betas make ``points`` chunks
    sizes = []

    class RecordingPool:
        """Records the pool size it is asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    cfg = parse_config(_raw(T=1, grid={"slowmo.beta": [0.1 * b for b in range(points)],
                                       "seed": [1, 2]}))
    index = run_sweep(cfg, str(tmp_path / "sweep"), fmt="jsonl", jobs=jobs)
    assert [entry["status"] for entry in index] == ["ok"] * 2 * points
    assert sizes == ([] if pool is None else [pool])


def test_sweep_parses_and_resolves_each_point_once(tmp_path, monkeypatch):
    cfg = parse_config(_raw(T=1, grid={"seed": [1, 2, 3, 4]}))
    points = [point for _, point in expand_grid(cfg)]
    calls = dict.fromkeys(["parse_config", "resolved_dict"], 0)
    for name in calls:
        def counting(*args, _name=name, _real=getattr(harness, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(harness, name, counting)
    run_sweep(cfg, str(tmp_path / "sweep"), fmt="jsonl", jobs=1)
    # expand_grid parses each point and dumps the base config once; each
    # run dumps its own resolved.json
    assert calls == {"parse_config": 4, "resolved_dict": 5}
    for idx, point in enumerate(points):
        written = (tmp_path / "sweep" / f"run_{idx:03d}" / "resolved.json").read_text()
        assert written == json.dumps(resolved_dict(point), indent=2) + "\n"


def test_sweep_through_a_process_pool_writes_the_serial_bytes(tmp_path, monkeypatch):
    # the parsed sub-configs reach the pool's workers by pickle
    sizes = []

    class SizedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SizedPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    # two chunks, one per beta, of two seeds each
    cfg = parse_config(_raw(T=2, protocol="osgp", grid={"slowmo.beta": [0.3, 0.5], "seed": [1, 2]},
                            gamma={"kind": "step", "value": 0.05, "milestones": [1]}))
    serial = run_sweep(cfg, str(tmp_path / "serial"), fmt="jsonl", jobs=1)
    pooled = run_sweep(cfg, str(tmp_path / "pooled"), fmt="jsonl", jobs=2)
    assert sizes == [2]
    assert [e["status"] for e in pooled] == ["ok"] * 4
    assert [e["final_loss"] for e in pooled] == [e["final_loss"] for e in serial]
    for run in ("run_000", "run_001", "run_002", "run_003"):
        for name in ("trace.jsonl", "xbar.npy", "resolved.json"):
            got = (tmp_path / "pooled" / run / name).read_bytes()
            assert got == (tmp_path / "serial" / run / name).read_bytes(), (run, name)


def test_sweep_with_an_invalid_point_runs_nothing(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _raw(grid={"T": [2, 0]}))
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")]) == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("jobs", [0, -3])
def test_sweep_jobs_below_one_are_config_errors(jobs, tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _raw(grid={"seed": [1, 2]}))
    code = main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw"),
                 "--jobs", str(jobs)])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "sw").exists()


EXAMPLE_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json"))


def test_example_configs_exist():
    assert len(EXAMPLE_CONFIGS) >= 4


@pytest.mark.parametrize("path", EXAMPLE_CONFIGS, ids=lambda p: p.name)
def test_example_config_builds_and_runs_one_block(path):
    cfg = load_config(str(path))
    for _, point in expand_grid(cfg):
        build_simulation(point)
    for _, point in expand_grid(replace(cfg, T=1, total_steps=None)):
        summary = build_simulation(point).run().summary
        assert summary["blocks"] == 1 and not summary["aborted"]


# estimate-v's output at 2000 samples on each example config: each worker's
# g_i + eta_i is added in rank order, the order the last digits depend on
ESTIMATE_V_2000 = {
    "beta_sweep": '{"V": 0.032979360811654, "std_error": 0.00033328499094753723, '
                  '"samples": 2000}',
    "logistic_sgp": '{"V": 0.12330874072525905, "std_error": 0.0012129902336430404, '
                    '"samples": 2000}',
    "osgp_delayed": '{"V": 0.03715522179542243, "std_error": 0.0004791721493764182, '
                    '"samples": 2000, "plain_sgd_theory": 0.0375}',
    "quadratic_allreduce": '{"V": 0.12428876840742577, "std_error": 0.0012640042839318997, '
                           '"samples": 2000, "plain_sgd_theory": 0.125}',
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_V_2000))
def test_estimate_v_prints_its_pinned_bytes(name, capsys):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.json"
    assert main(["estimate-v", "--config", str(path), "--samples", "2000"]) == 0
    assert capsys.readouterr().out == ESTIMATE_V_2000[name] + "\n"


# two grids for the stacked sweep: the shape of configs/beta_sweep.json (seed
# x slowmo.beta) with T shortened, and a seed grid of osgp runs whose gamma
# makes each seed diverge at a different round (416-420), with messages in
# flight
_BETA_GRID = {**json.loads((Path(__file__).resolve().parents[1] / "configs"
                            / "beta_sweep.json").read_text()), "T": 3}
_DIVERGING_GRID = _raw(
    problem={"kind": "quadratic", "m": 4, "dimension": 3, "l_min": 0.5, "l_max": 2.0,
             "heterogeneity": 0.5, "noise": {"kind": "additive-gaussian", "sigma2": 0.2}},
    protocol="osgp", osgp={"staleness": 2, "delay": {"kind": "geometric", "p": 0.5, "cap": 3}},
    init={"kind": "gaussian", "scale": 1.0}, gamma={"value": 3.0}, T=150,
    grid={"seed": [1, 2, 3, 4, 5]},
)


def _solo_sweep(cfg, out_dir, fmt):
    """What a sweep of solo runs writes: every grid point through run_experiment."""
    index = []
    for idx, (overrides, point) in enumerate(expand_grid(cfg)):
        entry = {"run": idx, "dir": os.path.join(out_dir, f"run_{idx:03d}"),
                 "overrides": overrides}
        try:
            trace = run_experiment(point, entry["dir"], fmt)
            entry.update(status="ok", final_loss=trace.summary["final_loss"])
        except NumericalAbort as abort:
            entry.update(status="aborted", detail=str(abort))
        index.append(entry)
    with open(os.path.join(out_dir, "sweep_index.json"), "w") as fh:
        json.dump(index, fh, indent=2)
        fh.write("\n")


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
@pytest.mark.parametrize("seeds_per_chunk", [None, 1, 2])
@pytest.mark.parametrize("grid", ["beta", "diverging"])
def test_stacked_sweep_writes_the_bytes_of_solo_runs(grid, seeds_per_chunk, tmp_path,
                                                     monkeypatch):
    # every file of every run directory and sweep_index.json, aborted runs
    # and their partial traces included; a byte budget that holds one or two
    # seeds' problems splits each group of seeds into chunks of that size
    cfg = parse_config(_BETA_GRID if grid == "beta" else _DIVERGING_GRID)
    points = [point for _, point in expand_grid(cfg)]
    if seeds_per_chunk is not None:
        monkeypatch.setattr(harness, "STACK_BYTES",
                            seeds_per_chunk * harness._problem_bytes(cfg.problem))
    per_group = {None: [5], 1: [1] * 5, 2: [2, 2, 1]}[seeds_per_chunk]
    chunks = harness._stack_chunks(points)
    assert [len(chunk) for chunk in chunks] == per_group * (len(points) // 5)
    out = tmp_path / "sweep"
    _solo_sweep(cfg, str(out), "both")
    want = _tree_bytes(out)
    shutil.rmtree(out)
    index = run_sweep(cfg, str(out), fmt="both")
    assert _tree_bytes(out) == want
    assert {f"run_{i:03d}/xbar.npy" for i in range(len(points))} <= set(want)
    statuses = [entry["status"] for entry in index]
    if grid == "diverging":
        assert statuses == ["aborted"] * 5
        rounds = [json.loads((out / f"run_{i:03d}" / "trace.jsonl").read_text()
                             .splitlines()[-1])["round"] for i in range(5)]
        assert len(set(rounds)) == 5
    else:
        assert statuses == ["ok"] * len(points)


def test_run_sweep_writes_index_and_runs(tmp_path):
    raw = _raw(grid={"slowmo.beta": [0.0, 0.5]})
    cfg = parse_config(raw)
    results = run_sweep(cfg, str(tmp_path / "sweep"), fmt="jsonl", jobs=1)
    assert len(results) == 2
    index = json.loads((tmp_path / "sweep" / "sweep_index.json").read_text())
    assert len(index) == 2
    for entry in index:
        assert (tmp_path / "sweep" / entry["dir"] / "trace.jsonl").exists()


# --------------------------------------------------------------------------- #
# bound assembly
# --------------------------------------------------------------------------- #

def _bound_traces(cfg_raw, seeds):
    traces = []
    for s in seeds:
        cfg = parse_config(dict(cfg_raw, seed=s))
        traces.append(build_simulation(cfg).run())
    return traces


def test_assemble_bound_inputs_surrogate_and_value(tmp_path):
    tau, T, m = 2, 18, 2
    gamma = (1 - 0.0) / 1.0 * math.sqrt(m / (tau * T))
    raw = _raw(T=T, gamma={"value": gamma})
    raw["slowmo"] = {"alpha": 1.0, "beta": 0.0, "tau": tau}
    constants = {
        "delta": 1.0, "m": m, "tau": tau, "T": T, "L": 2.0, "V": 0.1,
        "alpha": 1.0, "beta": 0.0, "gamma": gamma,
        "bias": {"mode": "value", "value": 0.02},
    }
    traces = _bound_traces(raw, range(3))
    records = [t.records for t in traces]
    inputs, extra = assemble_bound_inputs(constants, records)
    assert inputs.bias_term == 0.02 and extra == []
    report = bound_report(constants, traces)
    assert report["holds"] is None  # 3 seeds is not enough for a verdict
    assert any("seeds" in r for r in report["reasons"])

    constants["bias"] = {"mode": "surrogate", "sigma2": 100.0, "zeta2": 0.0}
    constants["gamma"] = 10.0  # gamma*L*tau way outside the surrogate range
    inputs2, extra2 = assemble_bound_inputs(constants, records)
    assert inputs2.bias_term == 0.0
    assert extra2 and "surrogate" in extra2[0]
    report2 = bound_report(constants, traces)
    assert report2["condition_met"] is False


# --------------------------------------------------------------------------- #
# command-line interface
# --------------------------------------------------------------------------- #

def _write_cfg(tmp_path, raw, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(raw))
    return str(p)


def test_cli_run_and_equivalence(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _raw())
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out_a]) == 0
    assert main(["run", "--config", cfg_path, "--out", out_b]) == 0
    code = main(["check-equivalence", "--trace-a", out_a + "/trace.jsonl",
                 "--trace-b", out_b + "/trace.jsonl"])
    assert code == 0
    capsys.readouterr()


def test_cli_equivalence_detects_mismatch(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _raw())
    other = _write_cfg(tmp_path, _raw(seed=99), name="other.json")
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", "--config", cfg_path, "--out", out_a]) == 0
    assert main(["run", "--config", other, "--out", out_b]) == 0
    code = main(["check-equivalence", "--trace-a", out_a + "/trace.jsonl",
                 "--trace-b", out_b + "/trace.jsonl"])
    assert code == 3
    capsys.readouterr()


def test_cli_rejects_bad_configs(tmp_path, capsys):
    raw = _raw()
    raw["slowmo"]["typo"] = 1
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert main(["run", "--no-such-flag"]) == 1
    capsys.readouterr()


BAD_INTEGER_FIELDS = {
    "T-as-string": lambda raw: raw.update(T="10"),
    "m-as-float": lambda raw: raw["problem"].update(m=2.5),
    "negative-seed": lambda raw: raw.update(seed=-1),
    "seed-as-bool": lambda raw: raw.update(seed=True),
    "cadence-as-float": lambda raw: raw.update(metric_cadence=2.5),
    "tau-as-float": lambda raw: raw["slowmo"].update(tau=2.5),
    "T-zero": lambda raw: raw.update(T=0),
    "T-negative": lambda raw: raw.update(T=-3),
    "total-steps-zero": lambda raw: (raw.pop("T"), raw.update(total_steps=0)),
}


@pytest.mark.parametrize("case", sorted(BAD_INTEGER_FIELDS))
def test_bad_integer_fields_are_config_errors(case, tmp_path, capsys):
    raw = _raw()
    BAD_INTEGER_FIELDS[case](raw)
    with pytest.raises(ConfigError):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # no resolved.json for a run that cannot start


BAD_FLOAT_FIELDS = {
    "gamma-nan": lambda raw: raw["gamma"].update(value=math.nan),
    "gamma-inf": lambda raw: raw["gamma"].update(value=math.inf),
    "gamma-as-string": lambda raw: raw["gamma"].update(value="0.1"),
    "gamma-as-bool": lambda raw: raw["gamma"].update(value=True),
    "gamma-huge-int": lambda raw: raw["gamma"].update(value=10**400),
    "sigma2-nan": lambda raw: raw["problem"]["noise"].update(sigma2=math.nan),
}


@pytest.mark.parametrize("case", sorted(BAD_FLOAT_FIELDS))
def test_bad_float_fields_are_config_errors(case, tmp_path, capsys):
    raw = _raw()
    BAD_FLOAT_FIELDS[case](raw)
    with pytest.raises(ConfigError):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


OVER_CEILING = {
    "T-10**30": lambda raw: raw.update(T=10**30),
    "T-2**63": lambda raw: raw.update(T=2**63),
    "T-times-tau": lambda raw: raw.update(T=MAX_STEPS // 3 + 1),  # tau = 3
    "total-steps": lambda raw: (raw.pop("T"), raw.update(total_steps=MAX_STEPS + 1)),
    "m": lambda raw: raw["problem"].update(m=MAX_WORKERS + 1),
    "m-10**30": lambda raw: raw["problem"].update(m=10**30),
    "dimension": lambda raw: raw["problem"].update(dimension=MAX_QUADRATIC_DIMENSION + 1),
    "logistic-dimension": lambda raw: raw.update(problem={
        "kind": "logistic", "m": 2, "dimension": MAX_DIMENSION + 1, "samples_per_worker": 4}),
    "samples": lambda raw: raw["problem"].update(samples_per_worker=2**63),
    "delay-cap": lambda raw: raw.update(osgp={"delay": {"kind": "geometric", "cap": 10**30}}),
}


@pytest.mark.parametrize("case", sorted(OVER_CEILING))
def test_sizes_over_their_ceiling_are_config_errors(case, tmp_path, capsys):
    raw = _raw()
    OVER_CEILING[case](raw)
    with pytest.raises(ConfigError, match="must be <="):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


def test_sizes_at_their_ceiling_parse():
    parse_config(_raw(T=MAX_STEPS // 3))
    raw = _raw()
    raw.pop("T")
    parse_config({**raw, "total_steps": MAX_STEPS})
    parse_config(_raw(problem={"kind": "quadratic", "m": MAX_WORKERS,
                               "dimension": MAX_QUADRATIC_DIMENSION}))


BAD_MILESTONES = {  # each a gamma section, kind "step" unless it says otherwise
    "string-entry": {"milestones": ["a"]},
    "scalar": {"milestones": 5},
    "string": {"milestones": "ab"},
    "float-entry": {"milestones": [1.5]},
    "bool-entry": {"milestones": [True]},
    "negative-entry": {"milestones": [-1]},
    # at() reads no kind, so these would decay a constant gamma
    "constant-kind": {"kind": "constant", "milestones": [2], "decay": 0.5},
}


@pytest.mark.parametrize("case", sorted(BAD_MILESTONES))
def test_bad_milestones_are_config_errors(case, tmp_path, capsys):
    raw = _raw(gamma={"kind": "step", "value": 0.05, **BAD_MILESTONES[case]})
    with pytest.raises(ConfigError, match="milestones"):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_execution_accepts_only_sequential(tmp_path, capsys):
    assert parse_config(_raw(execution="sequential")).execution == "sequential"
    with pytest.raises(ConfigError, match="removed"):
        parse_config(_raw(execution="parallel"))
    with pytest.raises(ConfigError):
        parse_config(_raw(execution="threads"))
    cfg_path = _write_cfg(tmp_path, _raw(execution="parallel"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "removed" in capsys.readouterr().err


def test_double_average_is_refused_with_its_replacement(tmp_path, capsys):
    replacement = "use protocol 'local' with base.buffer_strategy 'average'"
    raw = _raw(protocol="double-average", base={"kind": "sgd-nesterov"})
    with pytest.raises(ConfigError, match=replacement):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert replacement in capsys.readouterr().err
    assert not (tmp_path / "x").exists()
    raw.update(protocol="local", base={"kind": "sgd-nesterov", "buffer_strategy": "average"})
    assert parse_config(raw).protocol == "local"


DECAYED_GAMMAS = {  # value and decay: one milestone takes gamma out of the floats
    "underflows-to-zero": 1e-200,
    "overflows-to-inf": 1e200,
}


@pytest.mark.parametrize("case", sorted(DECAYED_GAMMAS))
def test_a_gamma_that_decays_out_of_range_is_a_config_error(case, tmp_path, capsys):
    factor = DECAYED_GAMMAS[case]
    raw = _raw(gamma={"kind": "step", "value": factor, "milestones": [1], "decay": factor})
    with pytest.raises(ConfigError, match="gamma must stay positive and finite"):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x" / "resolved.json").exists()


def test_float_fields_accept_integers():
    raw = _raw(gamma={"value": 1})
    raw["slowmo"]["alpha"] = 1
    assert parse_config(raw).gamma.value == 1


def _workers(m, **problem):
    return {"problem": {**BASE_RAW["problem"], "m": m, **problem}}


# overrides of _raw() that parse_config or build_simulation must refuse; the
# custom and complete topologies are gone, so their configs are refused by kind
# or by the leftover topology.rounds field
UNBUILDABLE = {
    "dpsgd-ring-m3": {"protocol": "dpsgd", "topology": {"kind": "ring-directed"}, **_workers(3)},
    "dpsgd-exponential-m6": {"protocol": "dpsgd", **_workers(6)},
    "dpsgd-custom-third-round-unpairable": {
        "protocol": "dpsgd", **_workers(4),
        "topology": {"kind": "custom",
                     "rounds": [[[0, 1], [2, 3]], [[1, 2], [3, 0]], [[0, 1], [1, 2]]]}},
    "osgp-complete": {"protocol": "osgp", "topology": {"kind": "complete"}},
    "osgp-custom": {"protocol": "osgp", "topology": {"kind": "custom", "rounds": [[[0, 1]]]}},
    "edge-out-of-range": {"protocol": "sgp",
                          "topology": {"kind": "custom", "rounds": [[[0, 2], [1, 0]]]}},
    "edge-twice": {"protocol": "sgp",
                   "topology": {"kind": "custom", "rounds": [[[0, 1], [1, 0], [0, 1]]]}},
    "not-strongly-connected": {"protocol": "sgp",
                               "topology": {"kind": "custom", "rounds": [[[0, 1]]]}},
    "rounds-on-a-generated-kind": {"topology": {"kind": "ring-directed", "rounds": [[[0, 1]]]}},
    "batch-size-over-shard": _workers(2, kind="logistic", samples_per_worker=4,
                                      noise={"kind": "minibatch", "batch_size": 5}),
    # a quadratic is A and its centers, with no data shard
    "quadratic-with-samples": _workers(2, samples_per_worker=4),
    "quadratic-minibatch": _workers(2, noise={"kind": "minibatch", "batch_size": 2}),
    "sample-spread": _workers(2, sample_spread=1.0),
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE))
def test_run_that_cannot_be_built_writes_nothing(case, tmp_path, capsys):
    raw = _raw(**UNBUILDABLE[case])
    with pytest.raises(ConfigError):
        run_experiment(parse_config(raw), str(tmp_path / "direct"))
    assert not (tmp_path / "direct" / "resolved.json").exists()
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_batch_size_over_the_shard_is_refused_when_parsed():
    raw = _raw(**UNBUILDABLE["batch-size-over-shard"])
    with pytest.raises(ConfigError, match="batch_size 5 exceeds problem.samples_per_worker 4"):
        parse_config(raw)
    raw["problem"]["noise"]["batch_size"] = 4  # the whole shard is a valid batch
    build_simulation(parse_config(raw)).run()


def test_sweep_over_a_batch_size_too_large_runs_nothing(tmp_path, capsys):
    raw = _raw(**_workers(2, kind="logistic", samples_per_worker=4,
                          noise={"kind": "minibatch", "batch_size": 3}),
               grid={"problem.noise.batch_size": [3, 5]})
    with pytest.raises(ConfigError, match="exceeds"):
        run_sweep(parse_config(raw), str(tmp_path / "direct"))
    assert not (tmp_path / "direct").exists()
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")]) == 1
    assert capsys.readouterr().err.startswith("config error")
    assert not (tmp_path / "sw").exists()


def test_cli_rejects_negative_seed_override(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _raw())
    assert main(["run", "--config", cfg_path, "--seed", "-1",
                 "--out", str(tmp_path / "x")]) == 1
    capsys.readouterr()


def test_bool_fields_take_only_booleans():
    with pytest.raises(ConfigError):
        parse_config(_raw(log_bias="yes"))
    raw = _raw()
    raw["slowmo"]["noaverage"] = 0
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_cli_abort_exit_code(tmp_path, capsys):
    raw = _raw(gamma={"value": 1e6}, T=30)
    cfg_path = _write_cfg(tmp_path, raw)
    code = main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")])
    assert code == 2
    # even aborted runs leave their resolved config and a partial trace behind
    assert (tmp_path / "x" / "resolved.json").exists()
    assert (tmp_path / "x" / "trace.jsonl").exists()
    capsys.readouterr()


def test_cli_sweep(tmp_path, capsys):
    raw = _raw(grid={"seed": [1, 2]})
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["sweep", "--config", cfg_path, "--out", str(tmp_path / "sw")]) == 0
    assert (tmp_path / "sw" / "sweep_index.json").exists()
    capsys.readouterr()


def test_cli_estimate_v(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, _raw())
    assert main(["estimate-v", "--config", cfg_path, "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["samples"] == 2000
    assert abs(payload["V"] - payload["plain_sgd_theory"]) < 5 * payload["std_error"]


def test_cli_check_bound(tmp_path, capsys):
    tau, T, m = 1, 36, 2
    gamma = math.sqrt(m / (tau * T))
    raw = _raw(T=T, gamma={"value": gamma}, metric_cadence=1)
    raw["slowmo"] = {"alpha": 1.0, "beta": 0.0, "tau": tau}
    cfg_path = _write_cfg(tmp_path, raw)
    trace_paths = []
    for s in range(3):
        out = tmp_path / f"r{s}"
        assert main(["run", "--config", cfg_path, "--seed", str(s),
                     "--out", str(out)]) == 0
        trace_paths.append(str(out / "trace.jsonl"))
        os.remove(out / "xbar.npy")  # check-bound reads the JSONL alone
    constants = {
        "delta": 1.0, "m": m, "tau": tau, "T": T, "L": 2.0, "V": 0.1,
        "alpha": 1.0, "beta": 0.0, "gamma": gamma,
        "bias": {"mode": "value", "value": 0.0},
    }
    const_path = tmp_path / "constants.json"
    const_path.write_text(json.dumps(constants))
    report_path = tmp_path / "report.json"
    code = main(["check-bound", "--constants", str(const_path),
                 "--out", str(report_path), "--traces", *trace_paths])
    assert code == 0  # premises unmet (3 seeds): report only, no failure
    report = json.loads(report_path.read_text())
    assert report["holds"] is None
    capsys.readouterr()


BOUND_CONSTANTS = {  # matches a run of _raw(): m = 2, tau = 3, T = 4
    "delta": 1.0, "m": 2, "tau": 3, "T": 4, "L": 2.0, "V": 0.1,
    "alpha": 1.0, "beta": 0.5, "gamma": 0.05, "bias": {"mode": "value", "value": 0.0},
}
_CHECK_BOUND = ["check-bound", "--constants", "{constants}", "--traces", "{trace}"]
_CHECK_EQUIVALENCE = ["check-equivalence", "--trace-a", "{trace}", "--trace-b", "{trace}"]


def _records(edit):
    """An edit of a trace's records, its x_bar left as it is."""
    return lambda records, x_bar: (edit(records), _npy(x_bar))


def _without(key):
    return _records(lambda records: [{k: v for k, v in r.items() if k != key} for r in records])


def _npy(array, **kw) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, **kw)
    return buf.getvalue()


def _npz(array) -> bytes:
    buf = io.BytesIO()
    np.savez(buf, x_bar=array)
    return buf.getvalue()


def _huge_header(x_bar) -> bytes:
    # a valid header whose shape no memory holds, and no data
    buf = io.BytesIO()
    np.lib.format.write_array_header_2_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": (10**9, 10**9)})
    return buf.getvalue()


def _xbar_file(edit):
    """An edit of what the trace's xbar.npy holds, from its x_bar: the bytes
    of the file, or None for no file."""
    return lambda records, x_bar: (records, edit(x_bar))


# name: (command line, edit of the bound constants, edit of the trace's
# (records, xbar.npy bytes))
MALFORMED_CHECKER_INPUTS = {
    "delta-not-a-number": (_CHECK_BOUND, lambda c: {**c, "delta": "x"}, None),
    "m-not-an-integer": (_CHECK_BOUND, lambda c: {**c, "m": 2.7}, None),
    "tau-not-an-integer": (_CHECK_BOUND, lambda c: {**c, "tau": 3.0}, None),
    "T-not-an-integer": (_CHECK_BOUND, lambda c: {**c, "T": "4"}, None),
    "constants-not-an-object": (_CHECK_BOUND, lambda c: [c], None),
    "surrogate-without-sigma2": (
        _CHECK_BOUND, lambda c: {**c, "bias": {"mode": "surrogate", "zeta2": 0.0}}, None),
    "bias-value-not-a-number": (
        _CHECK_BOUND, lambda c: {**c, "bias": {"mode": "value", "value": "x"}}, None),
    "bias-value-stray-key": (
        _CHECK_BOUND, lambda c: {**c, "bias": {"mode": "value", "value": 0, "typo": 1}}, None),
    "bias-surrogate-stray-zeta": (
        _CHECK_BOUND,
        lambda c: {**c, "bias": {"mode": "surrogate", "sigma2": 0.1, "zeta2": 0.0, "zeta": 1.0}},
        None),
    "bias-mode-not-a-string": (_CHECK_BOUND, lambda c: {**c, "bias": {"mode": ["value"]}}, None),
    "huge-L": (_CHECK_BOUND, lambda c: {**c, "L": 1e300}, None),
    "record-without-grad-norm-sq": (_CHECK_BOUND, None, _without("grad_norm_sq")),
    "grad-norm-sq-nan": (_CHECK_BOUND, None, _records(
        lambda records: [{**records[0], "grad_norm_sq": math.nan}] + records[1:])),
    "record-without-x-bar": (_CHECK_EQUIVALENCE, None, _xbar_file(lambda x: None)),
    "x-bar-not-finite": (  # a NaN gap compares as no gap
        _CHECK_EQUIVALENCE, None, _xbar_file(lambda x: _npy(np.full_like(x, math.nan)))),
    "x-bar-empty": (_CHECK_EQUIVALENCE, None, _xbar_file(lambda x: _npy(x[:, :0]))),
    # xbar.npy truncated, pickled, of another dtype, shape or row count
    **{f"x-bar-{name}": (_CHECK_EQUIVALENCE, None, _xbar_file(edit)) for name, edit in {
        "empty-file": lambda x: b"",
        "truncated-data": lambda x: _npy(x)[:-8],
        "truncated-header": lambda x: _npy(x)[:40],
        "huge-header": _huge_header,
        "pickle": pickle.dumps,
        "object-array": lambda x: _npy(x.astype(object), allow_pickle=True),
        "npz-archive": _npz,
        "float32": lambda x: _npy(x.astype(np.float32)),
        "one-dimensional": lambda x: _npy(x.ravel()),
        "three-dimensional": lambda x: _npy(x[None]),
        "fewer-rows": lambda x: _npy(x[:-1]),
        "more-rows": lambda x: _npy(np.vstack([x, x[:1]])),
    }.items()},
    "bare-number-line": (_CHECK_BOUND, None, _records(lambda records: [3] + records[1:])),
    "bare-number-line-equivalence": (
        _CHECK_EQUIVALENCE, None, _records(lambda records: records + [3])),
    "empty-traces-equivalence": (_CHECK_EQUIVALENCE, None, _records(lambda records: [])),
    "estimate-v-samples-over-ceiling": (
        ["estimate-v", "--config", "{config}", "--samples", str(10**11)], None, None),
    # files that are missing or not UTF-8, in every role a file plays
    **{f"config-{kind}-{command}": ([command, "--config", "{%s}" % kind, "--out", "{out}"],
                                    None, None)
       for kind in ("missing", "not_utf8") for command in ("run", "sweep")},
    **{f"config-{kind}-estimate-v": (["estimate-v", "--config", "{%s}" % kind], None, None)
       for kind in ("missing", "not_utf8")},
    "trace-missing-equivalence": (
        ["check-equivalence", "--trace-a", "{trace}", "--trace-b", "{missing}"], None, None),
    "trace-not-utf8-equivalence": (
        ["check-equivalence", "--trace-a", "{not_utf8}", "--trace-b", "{trace}"], None, None),
    "trace-not-utf8-bound": (
        ["check-bound", "--constants", "{constants}", "--traces", "{not_utf8}"], None, None),
    "constants-missing": (
        ["check-bound", "--constants", "{missing}", "--traces", "{trace}"], None, None),
    "constants-not-utf8": (
        ["check-bound", "--constants", "{not_utf8}", "--traces", "{trace}"], None, None),
    # a tolerance that is negative or not finite decides nothing
    **{f"tol-{name}": (_CHECK_EQUIVALENCE + ["--tol", tol], None, None)
       for name, tol in (("nan", "nan"), ("negative", "-1"), ("inf", "inf"), ("minus-inf", "-inf"))},
}


def _checker_inputs(tmp_path, edit_constants=None, edit_trace=None) -> dict:
    """Write a config, bound constants and a trace (trace.jsonl and
    xbar.npy) under ``tmp_path``, each edited if an edit is given; the paths
    by name."""
    trace = build_simulation(parse_config(_raw())).run()
    constants, records, xbar_file = BOUND_CONSTANTS, trace.records, _npy(trace.x_bar)
    if edit_constants:
        constants = edit_constants(copy.deepcopy(constants))
    if edit_trace:
        records, xbar_file = edit_trace(copy.deepcopy(records), trace.x_bar.copy())
    paths = {"config": _write_cfg(tmp_path, _raw()), "constants": str(tmp_path / "constants.json"),
             "trace": str(tmp_path / "trace.jsonl"), "missing": str(tmp_path / "missing.json"),
             "not_utf8": str(tmp_path / "latin1.json"), "out": str(tmp_path / "out")}
    Path(paths["constants"]).write_text(json.dumps(constants))
    Path(paths["trace"]).write_text("".join(json.dumps(r) + "\n" for r in records))
    if xbar_file is not None:
        (tmp_path / "xbar.npy").write_bytes(xbar_file)
    Path(paths["not_utf8"]).write_bytes('{"seed": "\u00e9"}\n'.encode("latin-1"))
    return paths


def test_checker_inputs_pass_before_their_edit(tmp_path, capsys):
    paths = _checker_inputs(tmp_path)
    for argv in (_CHECK_BOUND, _CHECK_EQUIVALENCE):
        assert main([arg.format(**paths) for arg in argv]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKER_INPUTS))
def test_malformed_checker_input_is_a_config_error(case, tmp_path, capsys):
    argv, edit_constants, edit_trace = MALFORMED_CHECKER_INPUTS[case]
    paths = _checker_inputs(tmp_path, edit_constants, edit_trace)
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error") and "Traceback" not in err
    assert not os.path.exists(paths["out"])


# name: (command line, the path the error must name)
UNWRITABLE_OUTPUTS = {
    "run-out-is-a-file": (["run", "--config", "{config}", "--out", "{file}"], "{file}"),
    "sweep-out-is-a-file": (["sweep", "--config", "{config}", "--out", "{file}"], "{file}"),
    "run-out-under-a-file": (
        ["run", "--config", "{config}", "--out", "{file}/sub"], "{file}/sub"),
    "check-bound-out-in-a-missing-dir": (
        _CHECK_BOUND + ["--out", "{missing}/r.json"], "{missing}/r.json"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_path_is_a_config_error(case, tmp_path, capsys, monkeypatch):
    argv, target = UNWRITABLE_OUTPUTS[case]
    records = build_simulation(parse_config(_raw())).run().records
    paths = {"config": _write_cfg(tmp_path, _raw()), "constants": str(tmp_path / "constants.json"),
             "trace": str(tmp_path / "trace.jsonl"), "file": str(tmp_path / "file"),
             "missing": str(tmp_path / "missing")}
    Path(paths["constants"]).write_text(json.dumps(BOUND_CONSTANTS))
    Path(paths["trace"]).write_text("".join(json.dumps(r) + "\n" for r in records))
    Path(paths["file"]).write_text("not a directory\n")
    rounds = []
    monkeypatch.setattr(Simulation, "inner_round", lambda self, *args: rounds.append(args))
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert target.format(**paths) in err
    assert rounds == []


# name: (command line, the output file made a directory); the error names it
UNWRITABLE_FILES = {
    "resolved-json": (["run", "--config", "{config}", "--out", "{out}"], "resolved.json"),
    "trace-jsonl": (["run", "--config", "{config}", "--out", "{out}"], "trace.jsonl"),
    "summary-csv": (["run", "--config", "{config}", "--out", "{out}"], "summary.csv"),
    "sweep-index-json": (["sweep", "--config", "{config}", "--out", "{out}"], "sweep_index.json"),
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_FILES))
def test_unwritable_output_file_is_a_config_error(case, tmp_path, capsys):
    argv, name = UNWRITABLE_FILES[case]
    paths = {"config": _write_cfg(tmp_path, _raw()), "out": str(tmp_path / "out")}
    target = os.path.join(paths["out"], name)
    os.makedirs(target)
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert target in err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_deeply_nested_grid_is_a_config_error(command, tmp_path, capsys):
    # under the decoder's recursion limit, so it parses, but too deep to
    # copy into resolved.json
    path = tmp_path / "cfg.json"
    path.write_text('{"problem": {"m": 2, "dimension": 3}, "T": 2, "grid": {"seed": '
                    + "[" * 900 + "1" + "]" * 900 + "}}\n")
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: grid nests too deep") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--config", "{nested}", "--out", "{out}"],
    ["check-equivalence", "--trace-a", "{nested}", "--trace-b", "{nested}"],
    ["check-bound", "--constants", "{nested}", "--traces", "{nested}"],
], ids=lambda argv: argv[0])
def test_deeply_nested_json_is_a_config_error(argv, tmp_path, capsys):
    # nested past the decoder's recursion limit, where it raises RecursionError
    paths = {"nested": str(tmp_path / "nested.json"), "out": str(tmp_path / "out")}
    Path(paths["nested"]).write_text("[" * 200_000 + "]" * 200_000 + "\n")
    assert main([arg.format(**paths) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert paths["nested"] in err and not os.path.exists(paths["out"])


# --------------------------------------------------------------------------- #
# hostile configs: one leaf replaced, the rest valid
# --------------------------------------------------------------------------- #

_FULL_RAW = {
    "problem": {
        "kind": "quadratic", "m": 4, "dimension": 3, "heterogeneity": 0.5,
        "noise": {"kind": "additive-gaussian", "sigma2": 0.2, "batch_size": 0},
        "l_min": 0.5, "l_max": 2.0, "samples_per_worker": 0,
        "input_dim": 4, "hidden": 8,
    },
    "base": {"kind": "adam", "buffer_strategy": "average", "beta_local": 0.9,
             "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
    "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": 3, "noaverage": False},
    "gamma": {"kind": "step", "value": 0.05, "milestones": [1], "decay": 0.5},
    "protocol": "osgp",
    "topology": {"kind": "exponential-directed"},
    "osgp": {"staleness": 2, "delay": {"kind": "geometric", "rounds": 1, "p": 0.5, "cap": 3}},
    "init": {"kind": "gaussian", "scale": 1.0},
    "T": 1, "seed": 3, "metric_cadence": 1, "log_bias": True,
    "execution": "sequential", "grid": {},
}
_VALID_RAWS = [
    _FULL_RAW,
    {**_FULL_RAW, "protocol": "sgp", "base": {"kind": "sgd-nesterov"},
     "topology": {"kind": "ring-directed"}},
    {**_FULL_RAW, "protocol": "dpsgd", "slowmo": {"tau": 2, "noaverage": True},
     "problem": {"kind": "logistic", "m": 2, "dimension": 3, "samples_per_worker": 6,
                 "noise": {"kind": "minibatch", "batch_size": 2}}},
    {**_FULL_RAW, "protocol": "local",
     "base": {"kind": "sgd-nesterov", "buffer_strategy": "average"},
     "problem": {"kind": "mlp", "m": 2, "input_dim": 2, "hidden": 3, "samples_per_worker": 5,
                 "noise": {"kind": "minibatch", "batch_size": 2}}},
]
_HOSTILE = (
    st.sampled_from(["x", True, None, [], [[]], {"k": 1}, {"kind": {"k": []}}, math.nan])
    | st.integers(-3, -1)
    | st.sampled_from([10**30, 2**63])
    | st.floats(-5.0, -1e-3)
)


def _leaves(tree, path=()):
    if isinstance(tree, (dict, list)) and tree:
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from _leaves(value, path + (key,))
    else:
        yield path


_LEAVES = [(i, path) for i, raw in enumerate(_VALID_RAWS) for path in _leaves(raw)]


@given(st.sampled_from(_LEAVES), _HOSTILE)
@settings(max_examples=200, deadline=None)
def test_one_hostile_leaf_runs_or_is_a_config_error(leaf, value):
    index, path = leaf
    raw = copy.deepcopy(_VALID_RAWS[index])
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        build_simulation(parse_config(raw)).run()  # T = 1
        return
    except ConfigError:
        pass
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
        cfg_path = Path(tmp) / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        code = main(["run", "--config", str(cfg_path), "--out", str(Path(tmp) / "out")])
    assert code == 1
    assert err.getvalue().startswith("config error") and "Traceback" not in err.getvalue()


def test_every_valid_raw_runs():
    for raw in _VALID_RAWS:
        build_simulation(parse_config(raw)).run()
