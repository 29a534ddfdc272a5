"""Config schema, experiment harness, sweeps, and the command-line surface."""

import contextlib
import copy
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    ConfigError,
    MetricsTrace,
    build_simulation,
    emit_metrics,
    equivalence_check,
    parse_config,
    resolved_dict,
    run_experiment,
    run_sweep,
)
from slowmo_sim.cli import main
from slowmo_sim.config import initial_point, load_config, replace_seed
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


def test_unknown_keys_are_reported_with_their_path():
    raw = _raw()
    raw["slowmo"]["momentum"] = 0.9
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "slowmo" in str(exc.value) and "momentum" in str(exc.value)


def test_cross_field_rules():
    raw = _raw(protocol="double-average")
    with pytest.raises(ConfigError):
        parse_config(raw)  # needs the nesterov base
    raw = _raw(T=None, total_steps=None)
    del raw["T"], raw["total_steps"]
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _raw(total_steps=10)
    with pytest.raises(ConfigError):
        parse_config(raw)  # both T and total_steps


def test_resolved_dict_round_trips():
    raw = _raw(protocol="osgp")
    raw["topology"] = {"kind": "exponential-directed"}
    raw["osgp"] = {"staleness": 3, "delay": {"kind": "geometric", "p": 0.5, "cap": 4}}
    cfg = parse_config(raw)
    clone = parse_config(resolved_dict(cfg))
    assert clone == cfg


def test_build_simulation_and_run():
    cfg = parse_config(_raw())
    sim = build_simulation(cfg)
    trace = sim.run()
    assert len(trace.records) == 12
    assert trace.meta["protocol"] == "allreduce"


def test_config_to_trace_is_a_pure_function():
    cfg = parse_config(_raw(protocol="sgp"))
    h1 = build_simulation(cfg).run().trace_hash()
    h2 = build_simulation(cfg).run().trace_hash()
    assert h1 == h2
    h3 = build_simulation(replace_seed(cfg, 8)).run().trace_hash()
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
    bad = MetricsTrace(meta=b.meta, records=[dict(r) for r in b.records],
                       summary=b.summary)
    bumped = list(bad.records[3]["x_bar"])
    bumped[0] += 1e-6
    bad.records[3]["x_bar"] = bumped
    verdict = equivalence_check(a, bad)
    assert not verdict["passed"]
    assert verdict["max_abs_diff"] == pytest.approx(1e-6, rel=1e-6)


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = parse_config(_raw())
    out = tmp_path / "exp"
    trace = run_experiment(cfg, str(out), fmt="both")
    assert (out / "resolved.json").exists()
    assert (out / "trace.jsonl").exists()
    assert (out / "summary.csv").exists()
    resolved = json.loads((out / "resolved.json").read_text())
    assert parse_config(resolved) == cfg
    assert trace.summary["aborted"] is False


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
    inputs, extra = assemble_bound_inputs(constants, traces)
    assert inputs.bias_term == 0.02 and extra == []
    report = bound_report(constants, traces)
    assert report["holds"] is None  # 3 seeds is not enough for a verdict
    assert any("seeds" in r for r in report["reasons"])

    constants["bias"] = {"mode": "surrogate", "sigma2": 100.0, "zeta2": 0.0}
    constants["gamma"] = 10.0  # gamma*L*tau way outside the surrogate range
    inputs2, extra2 = assemble_bound_inputs(constants, traces)
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


BAD_MILESTONES = {
    "string-entry": ["a"],
    "scalar": 5,
    "string": "ab",
    "float-entry": [1.5],
    "bool-entry": [True],
    "negative-entry": [-1],
}


@pytest.mark.parametrize("case", sorted(BAD_MILESTONES))
def test_bad_milestones_are_config_errors(case, tmp_path, capsys):
    raw = _raw(gamma={"kind": "step", "value": 0.05, "milestones": BAD_MILESTONES[case]})
    with pytest.raises(ConfigError, match="milestones"):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


def test_execution_accepts_only_sequential(tmp_path, capsys):
    assert parse_config(_raw(execution="sequential")).execution == "sequential"
    with pytest.raises(ConfigError, match="removed"):
        parse_config(_raw(execution="parallel"))
    with pytest.raises(ConfigError):
        parse_config(_raw(execution="threads"))
    cfg_path = _write_cfg(tmp_path, _raw(execution="parallel"))
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "removed" in capsys.readouterr().err


def test_float_fields_accept_integers():
    raw = _raw(gamma={"value": 1})
    raw["slowmo"]["alpha"] = 1
    assert parse_config(raw).gamma.value == 1


BAD_CUSTOM_EDGES = {
    "string-endpoint": [[["a", 1]]],
    "float-endpoint": [[[1.5, 0]]],
    "bool-endpoint": [[[True, 0]]],
    "negative-endpoint": [[[-1, 0]]],
    "three-element-edge": [[[0, 1, 1]]],
    "scalar-edge": [[1]],
    "round-not-a-list": [{"0": 1}],
    "rounds-not-a-list": "0-1",
}


@pytest.mark.parametrize("case", sorted(BAD_CUSTOM_EDGES))
def test_bad_custom_edges_are_config_errors(case, tmp_path, capsys):
    raw = _raw(protocol="sgp", topology={"kind": "custom", "rounds": BAD_CUSTOM_EDGES[case]})
    with pytest.raises(ConfigError):
        parse_config(raw)
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


def test_duplicate_custom_edge_is_a_config_error(tmp_path, capsys):
    raw = _raw(protocol="sgp",
               topology={"kind": "custom", "rounds": [[[0, 1], [1, 0]], [[1, 0], [0, 1], [1, 0]]]})
    with pytest.raises(ConfigError, match=r"round 1 lists edge \(1,0\) twice"):
        build_simulation(parse_config(raw))
    cfg_path = _write_cfg(tmp_path, raw)
    assert main(["run", "--config", cfg_path, "--out", str(tmp_path / "x")]) == 1
    assert "config error" in capsys.readouterr().err


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
    # even aborted runs leave a partial trace behind
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


# --------------------------------------------------------------------------- #
# hostile configs: one leaf replaced, the rest valid
# --------------------------------------------------------------------------- #

_FULL_RAW = {
    "problem": {
        "kind": "quadratic", "m": 4, "dimension": 3, "heterogeneity": 0.5,
        "noise": {"kind": "additive-gaussian", "sigma2": 0.2, "batch_size": 0},
        "l_min": 0.5, "l_max": 2.0, "samples_per_worker": 0, "sample_spread": 1.0,
        "input_dim": 4, "hidden": 8,
    },
    "base": {"kind": "adam", "buffer_strategy": "average", "beta_local": 0.9,
             "beta1": 0.9, "beta2": 0.999, "eps": 1e-8},
    "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": 3, "noaverage": False},
    "gamma": {"kind": "step", "value": 0.05, "milestones": [1], "decay": 0.5},
    "protocol": "osgp",
    "topology": {"kind": "exponential-directed", "rounds": []},
    "osgp": {"staleness": 2, "delay": {"kind": "geometric", "rounds": 1, "p": 0.5, "cap": 3}},
    "init": {"kind": "gaussian", "scale": 1.0},
    "T": 1, "seed": 3, "metric_cadence": 1, "log_bias": True,
    "execution": "sequential", "grid": {},
}
_VALID_RAWS = [
    _FULL_RAW,
    {**_FULL_RAW, "protocol": "sgp", "base": {"kind": "sgd-nesterov"},
     "topology": {"kind": "custom", "rounds": [[[0, 1], [1, 2], [2, 3], [3, 0]]]}},
    {**_FULL_RAW, "protocol": "dpsgd", "slowmo": {"tau": 2, "noaverage": True},
     "problem": {"kind": "logistic", "m": 2, "dimension": 3, "samples_per_worker": 6,
                 "noise": {"kind": "minibatch", "batch_size": 2}}},
    {**_FULL_RAW, "protocol": "double-average", "base": {"kind": "sgd-nesterov"},
     "problem": {"kind": "mlp", "m": 2, "input_dim": 2, "hidden": 3, "samples_per_worker": 5,
                 "noise": {"kind": "minibatch", "batch_size": 2}}},
]
_HOSTILE = (
    st.sampled_from(["x", True, None, [], [[]], {"k": 1}, {"kind": {"k": []}}, math.nan])
    | st.integers(-3, -1)
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
