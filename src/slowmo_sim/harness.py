"""Run orchestration, metric export, and offline trace checks."""

from __future__ import annotations

import copy
import csv
import itertools
import json
import math
import os
from dataclasses import replace

from .config import (
    ExperimentConfig,
    _check_float,
    _check_int,
    build_simulation,
    parse_config,
    resolved_dict,
)
from .errors import ConfigError, NumericalAbort
from .simkernel import SUMMARY_FIELDS, MetricsTrace
from .theory_checker import (
    BoundInputs,
    check_bound,
    gamma_eff,
    local_sgd_bias_surrogate,
    measured_bias_term,
)

FORMATS = ("jsonl", "csv", "both")


def emit_metrics(trace: MetricsTrace, out_dir: str, fmt: str = "both") -> dict:
    """Write trace.jsonl and/or summary.csv with stable field ordering."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    if fmt in ("jsonl", "both"):
        path = os.path.join(out_dir, "trace.jsonl")
        # line by line: the bytes of to_jsonl() plus a final newline, with
        # no copy of the whole text in memory (4 MB a run at d = 20000)
        with open(path, "w") as fh:
            for rec in trace.records:
                fh.write(json.dumps(rec))
                fh.write("\n")
        paths["jsonl"] = path
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, "summary.csv")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(SUMMARY_FIELDS))
            writer.writeheader()
            if trace.summary:
                writer.writerow({k: trace.summary.get(k) for k in SUMMARY_FIELDS})
        paths["csv"] = path
    return paths


def equivalence_check(
    trace_a: MetricsTrace, trace_b: MetricsTrace, tol: float = 1e-10
) -> dict:
    """Compare the average-iterate sequences of two traces coordinatewise.
    Two traces with no records, or a tolerance that is negative or not
    finite, are a ConfigError, not a verdict."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tolerance must be a finite number >= 0, got {tol!r}")
    ra, rb = trace_a.records, trace_b.records
    if not ra and not rb:
        raise ConfigError("both traces hold no records, so there is nothing to compare")
    if len(ra) != len(rb):
        return {
            "passed": False,
            "max_abs_diff": math.inf,
            "steps_compared": 0,
            "tol": tol,
            "reason": f"trace lengths differ: {len(ra)} vs {len(rb)}",
        }
    worst = 0.0
    for rec_a, rec_b in zip(ra, rb):
        xa, xb = _x_bar(rec_a), _x_bar(rec_b)
        if len(xa) != len(xb):
            return {
                "passed": False,
                "max_abs_diff": math.inf,
                "steps_compared": 0,
                "tol": tol,
                "reason": "iterate dimensions differ",
            }
        gap = max(abs(a - b) for a, b in zip(xa, xb))
        worst = max(worst, gap)
    return {
        "passed": worst <= tol,
        "max_abs_diff": worst,
        "steps_compared": len(ra),
        "tol": tol,
        "reason": None if worst <= tol else f"max |x_bar gap| {worst:.3e} > tol",
    }


def _x_bar(record: dict) -> list:
    # max() would take a NaN gap for no gap and pass the check, and fails on []
    xb = record.get("x_bar")
    if not isinstance(xb, list) or not xb or not all(
        type(v) in (int, float) and math.isfinite(v) for v in xb
    ):
        raise ConfigError(f"trace record at round {record.get('round')!r} "
                          "has no nonempty x_bar list of finite numbers")
    return xb


def run_experiment(cfg: ExperimentConfig, out_dir: str, fmt: str = "both") -> MetricsTrace:
    """Build, run, and persist one experiment under ``out_dir``.

    A run that cannot be built writes nothing. Otherwise resolved.json is
    written before the run starts, so even aborted runs are reproducible;
    on a numerical abort the partial trace is flushed before the exception
    propagates.
    """
    (outcome,) = run_experiments([cfg], [out_dir], fmt)
    if isinstance(outcome, NumericalAbort):
        raise outcome
    return outcome


def run_experiments(cfgs: list, out_dirs: list, fmt: str = "both") -> list:
    """``run_experiment`` for configs that differ only in seed, as one
    stacked simulation: one outcome per config, its MetricsTrace or the
    NumericalAbort that ended it, each written to its directory as a run of
    that config alone would write it."""
    sim = build_simulation(cfgs)
    for cfg, out_dir in zip(cfgs, out_dirs):
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "resolved.json"), "w") as fh:
            json.dump(resolved_dict(cfg), fh, indent=2)
            fh.write("\n")
    outcomes = sim.run_groups()
    for outcome, out_dir in zip(outcomes, out_dirs):
        trace = outcome.trace if isinstance(outcome, NumericalAbort) else outcome
        if trace is not None:
            emit_metrics(trace, out_dir, fmt)
    return outcomes


def _set_path(tree: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = tree
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"grid path {dotted!r} does not exist in the config")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"grid path {dotted!r} does not exist in the config")
    node[parts[-1]] = value


def expand_grid(cfg: ExperimentConfig) -> list[tuple[dict, ExperimentConfig]]:
    """Cartesian product of the config's grid; returns (overrides, config) pairs."""
    if not cfg.grid:
        return [({}, cfg)]
    base = resolved_dict(cfg)
    base["grid"] = {}
    keys = sorted(cfg.grid)
    for key in keys:
        values = cfg.grid[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid entry {key!r} must be a nonempty list")
    expanded = []
    for combo in itertools.product(*(cfg.grid[k] for k in keys)):
        tree = copy.deepcopy(base)
        overrides = dict(zip(keys, combo))
        for key, value in overrides.items():
            _set_path(tree, key, value)
        expanded.append((overrides, parse_config(tree)))
    return expanded


# Problem bytes one stacked sweep simulation may hold: a chunk stacks as many
# seeds as fit (at least one), so a d = 2000 quadratic (30.5 MiB of A) runs
# alone while small problems stack every seed.
STACK_BYTES = 32 * 2**20


def _problem_bytes(p) -> int:
    """Bytes of the float64 arrays a problem built from ``p`` holds."""
    if p.kind == "quadratic":
        return 8 * p.dimension * (p.dimension + p.m * (1 + p.samples_per_worker))
    width = p.dimension if p.kind == "logistic" else p.input_dim
    return 8 * p.m * p.samples_per_worker * (width + 1)


def _stack_chunks(points: list) -> list[list[int]]:
    """Indices of the grid points, in chunks that run as one simulation each:
    points whose configs differ only in seed, in grid order, as many per
    chunk as STACK_BYTES holds."""
    groups: list[tuple[ExperimentConfig, list[int]]] = []
    for idx, point in enumerate(points):
        key = replace(point, seed=0)
        for other, members in groups:
            if other == key:
                members.append(idx)
                break
        else:
            groups.append((key, [idx]))
    chunks = []
    for key, members in groups:
        size = max(1, STACK_BYTES // _problem_bytes(key.problem))
        chunks += [members[i:i + size] for i in range(0, len(members), size)]
    return chunks


def _sweep_chunk(args) -> list[dict]:
    cfgs, out_dirs, fmt = args
    return [
        {"status": "aborted", "detail": str(outcome)} if isinstance(outcome, NumericalAbort)
        else {"status": "ok", "final_loss": outcome.summary["final_loss"]}
        for outcome in run_experiments(cfgs, out_dirs, fmt)
    ]


def run_sweep(cfg: ExperimentConfig, out_dir: str, fmt: str = "both", jobs: int = 1) -> list[dict]:
    """Expand the grid and run every point. Points that differ only in seed
    run as one stacked simulation (in chunks under STACK_BYTES), each
    writing what its own run would; chunks may go in parallel, in at most
    min(jobs, chunks, CPUs) processes."""
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    combos = expand_grid(cfg)
    os.makedirs(out_dir, exist_ok=True)
    index = [{"run": idx, "dir": os.path.join(out_dir, f"run_{idx:03d}"), "overrides": overrides}
             for idx, (overrides, _) in enumerate(combos)]
    chunks = _stack_chunks([point for _, point in combos])
    tasks = [([combos[i][1] for i in chunk], [index[i]["dir"] for i in chunk], fmt)
             for chunk in chunks]
    # the default fork start method forks every worker at the first submit
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_chunk, tasks))
    else:
        results = [_sweep_chunk(task) for task in tasks]
    for chunk, chunk_results in zip(chunks, results):
        for i, result in zip(chunk, chunk_results):
            index[i].update(result)
    with open(os.path.join(out_dir, "sweep_index.json"), "w") as fh:
        json.dump(index, fh, indent=2)
        fh.write("\n")
    return index


_CONSTANT_FIELDS = {
    "delta": None, "m": None, "tau": None, "T": None, "L": None, "V": None,
    "alpha": 1.0, "beta": 0.0, "gamma": None, "bias": {},
}
# the bias spec's keys besides "mode", by mode
_BIAS_KEYS = {"measured": (), "surrogate": ("sigma2", "zeta2"), "value": ("value",)}


def assemble_bound_inputs(
    constants: dict, traces: list[list[dict]]
) -> tuple[BoundInputs, list[str]]:
    """Build BoundInputs from a constants dict plus the traces' record lists
    (for measured bias).

    bias modes: {"mode": "measured"} averages the logged per-step gaps;
    {"mode": "surrogate", "sigma2": s, "zeta2": z} uses the plain-SGD
    local-step surrogate; {"mode": "value", "value": v} passes v through.
    A bias key the mode does not read is refused. Returns extra
    condition-not-met reasons (e.g. surrogate validity).
    """
    if not isinstance(constants, dict):
        raise ConfigError("constants must be a JSON object")
    vals = dict(_CONSTANT_FIELDS)
    for key in constants:
        if key not in vals:
            raise ConfigError(f"unknown constants field {key!r}")
    vals.update(constants)
    for key, v in vals.items():
        if v is None:
            raise ConfigError(f"constants file is missing {key!r}")
        if key in ("m", "tau", "T"):
            _check_int(v, key, minimum=1)
        elif key != "bias":
            _check_float(v, key)

    bias_spec = vals["bias"]
    if not isinstance(bias_spec, dict):
        raise ConfigError(f"bias must be an object, got {bias_spec!r}")
    mode = bias_spec.get("mode", "value")
    if not isinstance(mode, str) or mode not in _BIAS_KEYS:
        raise ConfigError(f"unknown bias mode {mode!r}")
    stray = sorted(set(bias_spec) - {"mode", *_BIAS_KEYS[mode]})
    if stray:
        raise ConfigError(f'bias mode "{mode}" does not read {stray}')
    reasons = []
    if mode == "measured":
        bias_term = measured_bias_term(traces)
    elif mode == "surrogate":
        sigma2, zeta2 = _bias_number(bias_spec, "sigma2"), _bias_number(bias_spec, "zeta2")
        try:
            bias_term = local_sgd_bias_surrogate(
                gamma=vals["gamma"], L=vals["L"], sigma2=sigma2, zeta2=zeta2, tau=vals["tau"],
            )
        except ConfigError as exc:
            reasons.append(str(exc))
            bias_term = 0.0
    else:
        bias_term = _bias_number(bias_spec, "value")

    inputs = BoundInputs(
        delta=float(vals["delta"]), m=int(vals["m"]), tau=int(vals["tau"]),
        T=int(vals["T"]), L=float(vals["L"]), V=float(vals["V"]),
        alpha=float(vals["alpha"]), beta=float(vals["beta"]),
        bias_term=bias_term,
        gamma_eff=gamma_eff(float(vals["alpha"]), float(vals["gamma"]), float(vals["beta"])),
    )
    return inputs, reasons


def _bias_number(bias_spec: dict, key: str) -> float:
    if key not in bias_spec:
        raise ConfigError(f'bias mode "{bias_spec.get("mode", "value")}" needs a "{key}" entry')
    _check_float(bias_spec[key], f"bias.{key}")
    return float(bias_spec[key])


def bound_report(constants: dict, traces: list[MetricsTrace]) -> dict:
    records = [t.records for t in traces]
    try:
        inputs, extra_reasons = assemble_bound_inputs(constants, records)
        report = check_bound(records, inputs)
    except OverflowError as exc:  # e.g. L**2 of a finite but huge L, or a huge m
        raise ConfigError(f"bound constants overflow a float: {exc}") from exc
    if extra_reasons:
        report["reasons"] = extra_reasons + report["reasons"]
        report["condition_met"] = False
        report["holds"] = None
    return report
