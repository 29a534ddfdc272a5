"""Measure one workload for a fixed time and report its metrics.

Untraced mode (``--trace 0``) gives the end-to-end metrics. Only set-up is
timed inside a pass (two wrapped calls per simulation), so that it can be
subtracted from the measured phase. Traced mode (``--trace 1``) spends the
first half of its time on untraced passes and the second half on passes
with every boundary of ``bench_trace.BOUNDARIES`` wrapped, and gives the
per-layer metrics, each averaged per pass, plus the tracing overhead.

Correctness: every simulation must finish without raising or aborting, with
finite losses, the expected number of steps and (seed-sweep) a positive
bound LHS. Its digest must equal the same simulation's digest in every other
pass of the run, traced or not, and for the default seed the digest pinned
in ``digests.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from bench_trace import BOUNDARIES, LAYERS, SETUP_BOUNDARIES, Tracer
from bench_workloads import WORKLOADS, run_pass

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED_FILE = BENCH_DIR / "digests.json"
MIN_UNTRACED_PASSES = 3

END_TO_END_UNITS = {
    "worker_steps_per_s": "worker-steps/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "output_bytes": "bytes",
}


def per_layer_units() -> dict:
    units = {}
    for b in BOUNDARIES:
        units[f"{b.name}.calls"] = "count"
        units[f"{b.name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({
        "unattributed_s": "s",
        "trace.pass_s": "s",
        "comm_protocols.messages": "count",
        "comm_protocols.payload_bytes": "bytes",
        "comm_protocols.osgp.stall_share": "share",
        "harness.bytes_written": "bytes",
        "tracing.worker_steps_per_s": "worker-steps/s",
        "tracing.overhead": "ratio",
    })
    return units


# --------------------------------------------------------------------------- #
# environment record
# --------------------------------------------------------------------------- #

def _openblas_runtime() -> dict:
    """Thread count and kernel set OpenBLAS reports at run time, where it says."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    out = {"blas_threads": None, "blas_core": None}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                core = getattr(lib, f"{prefix}get_corename{suffix}", None)
                if threads is None or core is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                core.argtypes, core.restype = [], ctypes.c_char_p
                return {"blas_threads": threads(), "blas_core": core().decode()}
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read from .git, no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Identifies the program version when no git metadata is present."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "slowmo_sim").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        **_openblas_runtime(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


# --------------------------------------------------------------------------- #
# measuring
# --------------------------------------------------------------------------- #

def run_passes(workload, seed, seconds, out_dir, tracer, min_passes):
    """Closed loop: pass after pass until ``seconds`` have gone and min_passes ran."""
    passes = []
    deadline = perf_counter() + seconds
    while len(passes) < min_passes or perf_counter() < deadline:
        passes.append(run_pass(workload, seed, out_dir, tracer))
    return passes


def _rate(p) -> float:
    return p.worker_steps / (p.measured_ns / 1e9)


def judge(passes, pinned):
    """(attempted, failed, reasons): a simulation fails on an error or a digest mismatch."""
    reference = pinned if pinned is not None else passes[0].digests
    against = "the pinned one" if pinned is not None else "the first pass's"
    attempted, failed, reasons = 0, 0, []
    for n, p in enumerate(passes):
        for idx, dig in enumerate(p.digests):
            attempted += 1
            error = dict(p.errors).get(idx)
            if error is None and (idx >= len(reference) or dig != reference[idx]):
                error = f"digest differs from {against}"
            if error is not None:
                failed += 1
                reasons.append(f"pass {n} simulation {idx}: {error}")
    return attempted, failed, reasons


def end_to_end_metrics(passes) -> dict:
    values = {
        "worker_steps_per_s": statistics.median(_rate(p) for p in passes),
        "setup_s": statistics.median(p.setup_ns / 1e9 for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "output_bytes": statistics.median(p.output_bytes for p in passes),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(tracer, traced, untraced) -> dict:
    n = len(traced)
    values = {}
    for b in tracer.boundaries:
        values[f"{b.name}.calls"] = tracer.calls[b.name] / n
        values[f"{b.name}.self_s"] = tracer.self_ns[b.name] / n / 1e9
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = sum(
            tracer.self_ns[b.name] for b in tracer.boundaries if b.layer == layer) / n / 1e9
    wall_ns = sum(p.wall_ns for p in traced)
    counts = tracer.counts
    traced_rate = statistics.median(_rate(p) for p in traced)
    values.update({
        "unattributed_s": (wall_ns - sum(tracer.self_ns.values())) / n / 1e9,
        "trace.pass_s": wall_ns / n / 1e9,
        "comm_protocols.messages": counts["messages"] / n,
        "comm_protocols.payload_bytes": counts["payload_bytes"] / n,
        "comm_protocols.osgp.stall_share": (
            1.0 - counts["osgp_senders"] / counts["osgp_worker_rounds"]
            if counts["osgp_worker_rounds"] else 0.0),
        "harness.bytes_written": statistics.median(p.output_bytes for p in traced),
        "tracing.worker_steps_per_s": traced_rate,
        "tracing.overhead": statistics.median(_rate(p) for p in untraced) / traced_rate,
    })
    units = per_layer_units()
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def dominant_layer(tracer) -> str:
    """The layer with the most self time outside set-up."""
    totals = {layer: 0 for layer in LAYERS if layer != "setup"}
    for b in tracer.boundaries:
        if b.layer in totals:
            totals[b.layer] += tracer.self_ns[b.name]
    return max(totals, key=totals.get)


def load_pinned(workload_name, seed):
    """(digests pinned for this workload, or None when seed is not the default; default seed)."""
    spec = json.loads(PINNED_FILE.read_text())
    if seed != spec["default_seed"]:
        return None, spec["default_seed"]
    return spec["digests"].get(workload_name, []), spec["default_seed"]


def measure(workload, seed, seconds, trace, out_dir, pinned):
    """Returns (record, result): the run's description and the contract's result line."""
    if not trace:
        passes = run_passes(workload, seed, seconds, out_dir,
                            Tracer(SETUP_BOUNDARIES), MIN_UNTRACED_PASSES)
        metrics = end_to_end_metrics(passes)
        all_passes = passes
        record = {}
    else:
        untraced = run_passes(workload, seed, seconds / 2, out_dir, Tracer(SETUP_BOUNDARIES), 1)
        tracer = Tracer()
        passes = run_passes(workload, seed, seconds / 2, out_dir, tracer, 1)
        metrics = per_layer_metrics(tracer, passes, untraced)
        all_passes = untraced + passes
        record = {"dominant_layer": dominant_layer(tracer)}
    attempted, failed, reasons = judge(all_passes, pinned)
    record.update({
        "passes": len(passes),
        "pass_measured_s": [p.measured_ns / 1e9 for p in passes],
        "pass_setup_s": [p.setup_ns / 1e9 for p in passes],
        "digests": all_passes[0].digests,
        "digests_checked_against": "pinned" if pinned is not None else "first pass",
        "failures": reasons[:20],
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return record, result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    out_dir = ROOT / ".perfbench_out" / f"{os.getpid():08d}"
    # relative, so output sizes do not depend on where the checkout lives
    rel_out = os.path.relpath(out_dir)
    pinned, default_seed = load_pinned(args.workload, args.seed)
    try:
        record, result = measure(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                                 rel_out, pinned)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(out_dir.parent)
        except OSError:  # another run is still using it
            pass
    record = {"workload": args.workload, "seed": args.seed, "default_seed": default_seed,
              "trace": bool(args.trace), "env": environment(), **record}
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
