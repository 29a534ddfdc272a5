"""The benchmark's workloads and the pass that runs one of them.

A pass runs every simulation of a workload once, in one process, each
simulation starting when the previous one has ended (a closed loop with a
single client). The workload seed only chooses the inputs: it becomes the
``seed`` of the generated configs, and slowmo-sim never sees anything else.

Every config pins ``execution: "sequential"``; the thread-parallel mode
would start up to m = 256 threads on a small machine.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from time import perf_counter_ns

from slowmo_sim import config, harness, simkernel, theory_checker

TAU = 12
SEED_SWEEP_T = 100
SEED_SWEEP_RUNS = 4
GOSSIP_T = 5
WIDE_D_T = 5
LOGISTIC_T = 10


def _quadratic(m, d, l_min, l_max, heterogeneity):
    return {
        "kind": "quadratic", "m": m, "dimension": d, "l_min": l_min, "l_max": l_max,
        "heterogeneity": heterogeneity,
        "noise": {"kind": "additive-gaussian", "sigma2": 1.0},
    }


def _config(problem, base, protocol, T, cadence, seed, gamma, **extra):
    return {
        "problem": problem,
        "base": base,
        "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": TAU},
        "gamma": {"kind": "constant", "value": gamma},
        "protocol": protocol,
        "T": T,
        "metric_cadence": cadence,
        "seed": seed,
        "execution": "sequential",
        **extra,
    }


def seed_sweep_configs(seed):
    # acceptance criterion 5's m=16 case in config form, as a seed grid
    gamma = theory_checker.prescribed_gamma(16, TAU, SEED_SWEEP_T, 1.0, 0.5)
    seeds = [seed * 1000 + i for i in range(SEED_SWEEP_RUNS)]
    return [_config(_quadratic(16, 4, 1.0, 1.0, 0.0), {"kind": "plain-sgd"}, "local",
                    SEED_SWEEP_T, 1, seeds[0], gamma,
                    init={"kind": "gaussian", "scale": 1.0}, grid={"seed": seeds})]


def gossip_wide_configs(seed):
    return [
        _config(_quadratic(256, 10, 0.5, 2.0, 1.0), {"kind": "plain-sgd"}, protocol,
                GOSSIP_T, TAU, seed, 0.05,
                topology={"kind": "exponential-directed"},
                osgp={"staleness": 4, "delay": {"kind": "geometric", "p": 0.5, "cap": 3}})
        for protocol in ("sgp", "dpsgd", "osgp")
    ]


def wide_d_configs(seed):
    base = {"kind": "sgd-nesterov", "beta_local": 0.9, "buffer_strategy": "maintain"}
    return [_config(_quadratic(16, 2000, 0.5, 2.0, 1.0), base, "sgp", WIDE_D_T, 1, seed, 0.02,
                    topology={"kind": "exponential-directed"})]


def logistic_adam_configs(seed):
    problem = {
        "kind": "logistic", "m": 8, "dimension": 20000, "samples_per_worker": 64,
        "heterogeneity": 0.6, "noise": {"kind": "minibatch", "batch_size": 8},
    }
    return [_config(problem, {"kind": "adam", "buffer_strategy": "average"}, "allreduce",
                    LOGISTIC_T, TAU, seed, 0.001)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_configs: object  # seed -> list of raw config dicts
    sweep: bool = False  # run through harness.run_sweep and read every trace back


WORKLOADS = {
    w.name: w for w in (
        Workload("seed-sweep",
                 "m=16, d=4 local plain-SGD seed grid via run_sweep, traces read back for the "
                 "bound's LHS: per-call overhead in kernel, oracle and metrics; comm does ~nothing",
                 seed_sweep_configs, sweep=True),
        Workload("gossip-wide",
                 "m=256, d=10 sgp, dpsgd and osgp on the exponential graph: O(m^2) mixing loops, "
                 "OSGP queues and topology do the work; metrics and output do almost none",
                 gossip_wide_configs),
        Workload("wide-d",
                 "m=16, d=2000 dense quadratic, sgp + Nesterov, metrics every round: the metrics "
                 "path dominates and set-up (d x d QR) is large",
                 wide_d_configs),
        Workload("logistic-adam",
                 "m=8, d=20000 logistic, minibatch oracle, Adam with averaged buffers, allreduce: "
                 "the only workload where the optimizer and allreduce do real work",
                 logistic_adam_configs),
    )
}


def expected_runs(workload: Workload, seed: int) -> list[dict]:
    """(m, steps) of every simulation in one pass, in run order."""
    runs = []
    for raw in workload.make_configs(seed):
        count = 1
        for values in raw.get("grid", {}).values():
            count *= len(values)
        runs += [{"m": raw["problem"]["m"], "steps": raw["T"] * raw["slowmo"]["tau"],
                  "tau": raw["slowmo"]["tau"], "T": raw["T"]}] * count
    return runs


def digest(records, final_loss, final_grad_norm_sq) -> str:
    """SHA-256 over the (round, loss, grad_norm_sq) records plus the final values.

    Independent of ``x_bar`` and of MetricsTrace.trace_hash, so it survives
    changes to how the iterate is stored.
    """
    body = json.dumps({
        "records": [[r["round"], r["loss"], r["grad_norm_sq"]] for r in records],
        "final": [final_loss, final_grad_norm_sq],
    })
    return hashlib.sha256(body.encode()).hexdigest()


def _check(records, summary, run) -> str | None:
    """Why a finished simulation's output is wrong, or None."""
    if summary.get("aborted"):
        return "aborted"
    if int(summary["steps"]) != run["steps"]:
        return f"ran {summary['steps']} steps, expected {run['steps']}"
    values = [summary["final_loss"], summary["final_grad_norm_sq"]]
    values += [r["loss"] for r in records] + [r["grad_norm_sq"] for r in records]
    if not all(math.isfinite(v) for v in values):
        return "non-finite loss or gradient norm"
    if "lhs" in summary and not (math.isfinite(summary["lhs"]) and summary["lhs"] > 0):
        return f"bound LHS {summary['lhs']} is not a positive number"
    return None


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for root, _, files in os.walk(path) for f in files)


@dataclass
class PassResult:
    wall_ns: int
    setup_ns: int
    worker_steps: int
    output_bytes: int
    digests: list  # one per simulation; None where the simulation failed
    errors: list  # (simulation index, reason)

    @property
    def measured_ns(self) -> int:
        return self.wall_ns - self.setup_ns


def _run_direct(raws, out_dir):
    """parse_config + build_simulation, Simulation.run, emit_metrics; outputs per run."""
    outputs = []
    for idx, raw in enumerate(raws):
        try:
            sim = config.build_simulation(config.parse_config(raw))
            trace = sim.run()
            harness.emit_metrics(trace, os.path.join(out_dir, f"run_{idx:03d}"))
        except Exception as exc:  # counted as a failed simulation; the pass goes on
            outputs.append(exc)
            continue
        outputs.append((trace.records, trace.summary))
    return outputs


def _run_sweep(raws, out_dir, runs):
    """run_sweep over the grid, then from_jsonl + lhs_from_records on every trace."""
    (raw,) = raws
    index = harness.run_sweep(config.parse_config(raw), out_dir, fmt="both", jobs=1)
    if len(index) != len(runs):
        raise RuntimeError(f"sweep ran {len(index)} simulations, expected {len(runs)}")
    outputs = []
    for entry, run in zip(index, runs):
        if entry["status"] != "ok":
            outputs.append(RuntimeError(entry.get("detail", entry["status"])))
            continue
        with open(os.path.join(entry["dir"], "trace.jsonl")) as fh:
            trace = simkernel.MetricsTrace.from_jsonl(fh.read())
        summary = _sweep_summary(entry["dir"])
        summary["lhs"] = theory_checker.lhs_from_records(trace.records, run["tau"], run["T"])
        outputs.append((trace.records, summary))
    return outputs


def _sweep_summary(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "summary.csv"), newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    return {
        "final_loss": float(row["final_loss"]),
        "final_grad_norm_sq": float(row["final_grad_norm_sq"]),
        "steps": int(row["steps"]),
        "aborted": row["aborted"] == "True",
    }


def run_pass(workload: Workload, seed: int, out_dir: str, tracer) -> PassResult:
    """Run the workload once under ``tracer`` (which must at least time set-up).

    Timed: everything from config dicts to outputs on disk (and, for the
    sweep, read back). Untimed: digests, output size, clean-up.
    """
    raws = workload.make_configs(seed)
    runs = expected_runs(workload, seed)
    setup_before = tracer.setup_ns()
    start = perf_counter_ns()
    with tracer:
        if workload.sweep:
            try:
                outputs = _run_sweep(raws, out_dir, runs)
            except Exception as exc:  # the whole grid is lost
                outputs = [exc] * len(runs)
        else:
            outputs = _run_direct(raws, out_dir)
    wall = perf_counter_ns() - start
    setup = tracer.setup_ns() - setup_before

    digests, errors = [], []
    for idx, (out, run) in enumerate(zip(outputs, runs)):
        if isinstance(out, Exception):
            reason = f"{type(out).__name__}: {out}"
        else:
            records, summary = out
            reason = _check(records, summary, run)
        if reason is None:
            digests.append(digest(records, summary["final_loss"], summary["final_grad_norm_sq"]))
        else:
            digests.append(None)
            errors.append((idx, reason))
    output_bytes = _dir_bytes(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return PassResult(
        wall_ns=wall, setup_ns=setup,
        worker_steps=sum(r["m"] * r["steps"] for r in runs),
        output_bytes=output_bytes, digests=digests, errors=errors,
    )
