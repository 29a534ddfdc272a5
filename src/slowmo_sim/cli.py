"""Command-line interface.

Subcommands: run, sweep, check-bound, check-equivalence, estimate-v.
Exit codes: 0 success, 1 configuration error, 2 numerical abort,
3 check failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .config import build_problem, load_config, read_json
from .errors import ConfigError, NumericalAbort
from .harness import (
    FORMATS,
    bound_report,
    equivalence_check,
    open_output,
    read_x_bar,
    run_experiment,
    run_sweep,
)
from .simkernel import MetricsTrace
from .theory_checker import estimate_V, plain_sgd_V


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; that code means NaN here
        raise ConfigError(message)


def _load_trace(path: str) -> MetricsTrace:
    return read_json(path, "trace", MetricsTrace.from_jsonl)


def _load_trace_and_x_bar(path: str) -> MetricsTrace:
    """The trace at ``path`` with the x_bar block of the xbar.npy beside it."""
    trace = _load_trace(path)
    trace.x_bar = read_x_bar(path)
    return trace


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slowmo-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default="run_out")
    p_run.add_argument("--format", choices=FORMATS, default="both")

    p_sweep = sub.add_parser("sweep", help="expand the config's grid and run each point")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.add_argument("--format", choices=FORMATS, default="both")
    p_sweep.add_argument("--jobs", type=int, default=1)

    p_bound = sub.add_parser("check-bound", help="compare trace LHS against the bound RHS")
    p_bound.add_argument("--traces", nargs="+", required=True)
    p_bound.add_argument("--constants", required=True)
    p_bound.add_argument("--out", default=None, help="optional report JSON path")

    p_eq = sub.add_parser("check-equivalence", help="compare two traces' average iterates")
    p_eq.add_argument("--trace-a", required=True)
    p_eq.add_argument("--trace-b", required=True)
    p_eq.add_argument("--tol", type=float, default=1e-10)

    p_v = sub.add_parser("estimate-v", help="Monte-Carlo estimate of the direction variance")
    p_v.add_argument("--config", required=True)
    p_v.add_argument("--samples", type=int, default=100_000)
    p_v.add_argument("--seed", type=int, default=None)

    return parser


def _load(args):
    """The config file ``args.config``, with ``--seed`` in place of its seed if given."""
    cfg = load_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _cmd_run(args) -> int:
    trace = run_experiment(_load(args), args.out, fmt=args.format)
    print(json.dumps({"out": args.out, **trace.summary}))
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    index = run_sweep(cfg, args.out, fmt=args.format, jobs=args.jobs)
    print(json.dumps(index, indent=2))
    if any(entry.get("status") == "aborted" for entry in index):
        return 2
    return 0


def _cmd_check_bound(args) -> int:
    constants = read_json(args.constants, "constants file")
    traces = [_load_trace(p) for p in args.traces]
    report = bound_report(constants, traces)
    text = json.dumps(report, indent=2)
    if args.out:
        with open_output(args.out) as fh:
            fh.write(text + "\n")
    print(text)
    if report["condition_met"] and not report["holds"]:
        return 3
    return 0


def _cmd_check_equivalence(args) -> int:
    report = equivalence_check(_load_trace_and_x_bar(args.trace_a),
                               _load_trace_and_x_bar(args.trace_b), args.tol)
    print(json.dumps(report, indent=2))
    return 0 if report["passed"] else 3


def _cmd_estimate_v(args) -> int:
    cfg = _load(args)
    problem = build_problem(cfg)
    est = estimate_V(problem, cfg.base, samples=args.samples, seed=cfg.seed)
    out = {"V": est.value, "std_error": est.std_error, "samples": est.samples}
    if cfg.base.kind == "plain-sgd" and problem.noise.kind == "additive-gaussian":
        out["plain_sgd_theory"] = plain_sgd_V(problem.noise.sigma2, problem.num_workers)
    print(json.dumps(out))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "check-bound": _cmd_check_bound,
    "check-equivalence": _cmd_check_equivalence,
    "estimate-v": _cmd_estimate_v,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalAbort as exc:
        print(f"numerical abort: {exc} {exc.diagnostic}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
