"""Run orchestration, metric export, and offline trace checks."""

from __future__ import annotations

import contextlib
import copy
import csv
import itertools
import json
import math
import os

import numpy as np

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
# the file beside trace.jsonl that holds the trace's x_bar block
XBAR_FILE = "xbar.npy"


def _check_format(fmt: str) -> None:
    if fmt not in FORMATS:
        raise ConfigError(f"unknown output format {fmt!r}")


def _make_dir(path: str) -> None:
    """``os.makedirs``; a path that cannot be a directory is a ConfigError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def open_output(path: str, mode: str = "w", newline: str | None = None):
    """``open(path, mode)`` for an output file; a file that cannot be opened
    or written is a ConfigError naming its path."""
    try:
        with open(path, mode, newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path: str, value) -> None:
    with open_output(path) as fh:
        json.dump(value, fh, indent=2)
        fh.write("\n")


def emit_metrics(trace: MetricsTrace, out_dir: str, fmt: str = "both") -> dict:
    """Write trace.jsonl with the x_bar block beside it as xbar.npy, and/or
    summary.csv, with stable field ordering."""
    _check_format(fmt)
    _make_dir(out_dir)
    paths = {}
    if fmt in ("jsonl", "both"):
        path = os.path.join(out_dir, "trace.jsonl")
        text = trace.to_jsonl()
        with open_output(path) as fh:
            fh.write(text + "\n" if text else "")
        paths["jsonl"] = path
        path = os.path.join(out_dir, XBAR_FILE)
        with open_output(path, "wb") as fh:
            np.save(fh, trace.x_bar, allow_pickle=False)
        paths["x_bar"] = path
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, "summary.csv")
        with open_output(path, newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(SUMMARY_FIELDS))
            writer.writeheader()
            if trace.summary:
                writer.writerow({k: trace.summary.get(k) for k in SUMMARY_FIELDS})
        paths["csv"] = path
    return paths


def read_x_bar(trace_path: str) -> np.ndarray:
    """The x_bar block of the trace at ``trace_path``, from the xbar.npy
    beside it. A file that is missing, unreadable, truncated, pickled or an
    object array, or that holds anything but a 2-D float64 array, is a
    ConfigError."""
    path = os.path.join(os.path.dirname(trace_path), XBAR_FILE)
    try:
        with open(path, "rb") as fh:
            x_bar = np.load(fh, allow_pickle=False)
    # MemoryError: a header whose shape no memory holds
    except (OSError, ValueError, EOFError, MemoryError) as exc:
        raise ConfigError(f"cannot read x_bar file {path}: {exc}") from exc
    if not isinstance(x_bar, np.ndarray) or x_bar.dtype != np.float64 or x_bar.ndim != 2:
        raise ConfigError(f"x_bar file {path} must hold a 2-D float64 array")
    return x_bar


def equivalence_check(
    trace_a: MetricsTrace, trace_b: MetricsTrace, tol: float = 1e-10
) -> dict:
    """Compare the average-iterate sequences of two traces coordinatewise.
    Two traces with no records, a trace whose x_bar rows do not match its
    records or are empty or not finite, or a tolerance that is negative or
    not finite, are a ConfigError, not a verdict."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ConfigError(f"tolerance must be a finite number >= 0, got {tol!r}")
    if not len(trace_a) and not len(trace_b):
        raise ConfigError("both traces hold no records, so there is nothing to compare")
    xa, xb = _x_bar(trace_a), _x_bar(trace_b)
    worst, steps, reason = math.inf, 0, None
    if len(xa) != len(xb):
        reason = f"trace lengths differ: {len(xa)} vs {len(xb)}"
    elif xa.shape != xb.shape:
        reason = "iterate dimensions differ"
    else:
        worst, steps = float(np.max(np.abs(xa - xb))), len(xa)
        if worst > tol:
            reason = f"max |x_bar gap| {worst:.3e} > tol"
    return {"passed": reason is None, "max_abs_diff": worst, "steps_compared": steps,
            "tol": tol, "reason": reason}


def _x_bar(trace: MetricsTrace) -> np.ndarray:
    # a NaN gap would compare as no gap and pass the check
    xb = trace.x_bar
    if len(xb) != len(trace):
        raise ConfigError(f"a trace of {len(trace)} records has {len(xb)} rows of x_bar")
    if len(xb) and (xb.shape[1] == 0 or not np.isfinite(xb).all()):
        raise ConfigError("a trace's x_bar rows must be nonempty and finite")
    return xb


def run_experiment(cfg: ExperimentConfig, out_dir: str, fmt: str = "both") -> MetricsTrace:
    """Build, run, and persist one experiment under ``out_dir``.

    A run that cannot be built, or that names an unknown ``fmt``, writes
    nothing, and one whose ``out_dir`` cannot be a directory runs no round.
    Otherwise resolved.json is written before the run starts, so even
    aborted runs are reproducible; on a numerical abort the partial trace
    is flushed before the exception propagates.
    """
    (outcome,) = run_experiments(cfg, [cfg.seed], [out_dir], fmt)
    if isinstance(outcome, NumericalAbort):
        raise outcome
    return outcome


def run_experiments(cfg: ExperimentConfig, seeds: list, out_dirs: list, fmt: str = "both") -> list:
    """``run_experiment`` for each seed of one config, as one stacked
    simulation: one outcome per seed, its MetricsTrace or the NumericalAbort
    that ended it, each written to its directory as the run of the config
    with that seed alone would write it. The seed is all that differs, so
    the config is dumped once and each seed put in its copy of the dump."""
    _check_format(fmt)
    if len(seeds) != len(out_dirs):
        raise ConfigError(f"{len(seeds)} seeds need as many output directories, "
                          f"got {len(out_dirs)}")
    sim = build_simulation(cfg, seeds)
    tree = resolved_dict(cfg)
    for seed, out_dir in zip(seeds, out_dirs):
        _make_dir(out_dir)
        _write_json(os.path.join(out_dir, "resolved.json"), {**tree, "seed": seed})
    outcomes = sim.run_groups()
    for outcome, out_dir in zip(outcomes, out_dirs):
        emit_metrics(outcome.trace if isinstance(outcome, NumericalAbort) else outcome,
                     out_dir, fmt)
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
        return 8 * p.dimension * (p.dimension + p.m)
    width = p.dimension if p.kind == "logistic" else p.input_dim
    return 8 * p.m * p.samples_per_worker * (width + 1)


def _stack_chunks(combos: list) -> list[list[int]]:
    """Indices of the grid's (overrides, config) pairs, in chunks that run as
    one simulation each: points whose overrides differ only in seed, in grid
    order, as many per chunk as STACK_BYTES holds. Overrides compare as JSON:
    1 and 1.0 do not stack, as each run writes the value it was given."""
    groups: dict[str, list[int]] = {}
    for idx, (overrides, _) in enumerate(combos):
        key = json.dumps({k: v for k, v in overrides.items() if k != "seed"}, sort_keys=True)
        groups.setdefault(key, []).append(idx)
    chunks = []
    for members in groups.values():
        size = max(1, STACK_BYTES // _problem_bytes(combos[members[0]][1].problem))
        chunks += [members[i:i + size] for i in range(0, len(members), size)]
    return chunks


def _sweep_chunk(args) -> list[dict]:
    cfg, seeds, out_dirs, fmt = args
    return [
        {"status": "aborted", "detail": str(outcome)} if isinstance(outcome, NumericalAbort)
        else {"status": "ok", "final_loss": outcome.summary["final_loss"]}
        for outcome in run_experiments(cfg, seeds, out_dirs, fmt)
    ]


def run_sweep(cfg: ExperimentConfig, out_dir: str, fmt: str = "both", jobs: int = 1) -> list[dict]:
    """Expand the grid and run every point. Points whose overrides differ only
    in seed run as one stacked simulation (in chunks under STACK_BYTES), each
    writing what its own run would; chunks may go in parallel, in at most
    min(jobs, chunks, CPUs) processes."""
    _check_format(fmt)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    combos = expand_grid(cfg)
    _make_dir(out_dir)
    index = [{"run": idx, "dir": os.path.join(out_dir, f"run_{idx:03d}"), "overrides": overrides}
             for idx, (overrides, _) in enumerate(combos)]
    chunks = _stack_chunks(combos)
    tasks = [(combos[chunk[0]][1], [combos[i][1].seed for i in chunk],
              [index[i]["dir"] for i in chunk], fmt) for chunk in chunks]
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
    _write_json(os.path.join(out_dir, "sweep_index.json"), index)
    return index


_CONSTANT_FIELDS = {
    "delta": None, "m": None, "tau": None, "T": None, "L": None, "V": None,
    "alpha": 1.0, "beta": 0.0, "gamma": None, "bias": {},
}
# the bias spec's keys besides "mode", by mode
_BIAS_KEYS = {"measured": (), "surrogate": ("sigma2", "zeta2"), "value": ("value",)}


def assemble_bound_inputs(
    constants: dict, traces: list
) -> tuple[BoundInputs, list[str]]:
    """Build BoundInputs from a constants dict plus the traces, MetricsTraces or
    lists of record dicts (for measured bias).

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
    try:
        inputs, extra_reasons = assemble_bound_inputs(constants, traces)
        report = check_bound(traces, inputs)
    except OverflowError as exc:  # e.g. L**2 of a finite but huge L, or a huge m
        raise ConfigError(f"bound constants overflow a float: {exc}") from exc
    if extra_reasons:
        report["reasons"] = extra_reasons + report["reasons"]
        report["condition_met"] = False
        report["holds"] = None
    return report
