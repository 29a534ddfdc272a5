"""Pinned trajectories: the hash of the trace of a fixed matrix of short runs.

Repeatability tests compare two runs of the same code, so a refactor that
changes every trajectory would still pass them. These hashes were produced
once and checked in; a change that moves any of them changes the numbers
the simulator produces and has to say so. Each is the SHA-256 of the trace
as ``references.legacy_jsonl`` writes it (every record's x_bar as a JSON
list, the trace format the hashes were taken in), so the file outlives a
change to how traces are stored or hashed.

Pin the cases the file lacks with

    PYTHONPATH=src python tests/test_golden_hashes.py --write

If a pinned hash has moved, it writes nothing and exits 1 naming those
cases: an intended trajectory change is re-pinned by deleting its entries
first. Without ``--write`` the script prints the current hashes and leaves
the file alone.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from references import legacy_jsonl
from slowmo_sim import build_simulation, parse_config
from slowmo_sim.base_optimizers import BUFFER_STRATEGIES, OPTIMIZER_KINDS
from slowmo_sim.comm_protocols import DELAY_KINDS, MIXING_PROTOCOLS, PROTOCOL_NAMES
from slowmo_sim.config import PROBLEM_KINDS
from slowmo_sim.numerics import NOISE_KINDS
from slowmo_sim.topology import TOPOLOGY_KINDS

GOLDEN_PATH = Path(__file__).with_name("golden_hashes.json")

# quadratic with a rotated, non-identity A (eigenvalues spread over [0.5, 2])
_QUAD = {
    "kind": "quadratic", "dimension": 6, "l_min": 0.5, "l_max": 2.0,
    "heterogeneity": 1.0, "noise": {"kind": "additive-gaussian", "sigma2": 0.5},
}
_LOGISTIC = {
    "kind": "logistic", "dimension": 5, "samples_per_worker": 12, "heterogeneity": 0.5,
    "noise": {"kind": "minibatch", "batch_size": 4},
}
_MLP = {
    "kind": "mlp", "input_dim": 3, "hidden": 4, "samples_per_worker": 10,
    "heterogeneity": 0.5, "noise": {"kind": "minibatch", "batch_size": 3},
}
_NESTEROV = {"kind": "sgd-nesterov", "beta_local": 0.9, "buffer_strategy": "maintain"}
_GEOMETRIC = {"kind": "geometric", "p": 0.5, "cap": 3}


def _case(m, protocol, topology="exponential-directed", base=None, problem=None, **extra):
    return {
        "problem": {**(problem or _QUAD), "m": m},
        "base": base or {"kind": "plain-sgd"},
        "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": 4},
        "gamma": {"kind": "constant", "value": 0.05},
        "protocol": protocol,
        "topology": {"kind": topology},
        "T": 3,
        "seed": 11,
        "init": {"kind": "gaussian", "scale": 1.0},
        **extra,
    }


CASES = {
    "sgp-exponential-m5": _case(5, "sgp"),
    # a group of one worker: its mixing round is the identity
    "sgp-exponential-m1": _case(1, "sgp"),
    "sgp-exponential-m8-nesterov": _case(8, "sgp", base=_NESTEROV),
    "sgp-ring-m5": _case(5, "sgp", topology="ring-directed"),
    "sgp-exponential-m6-noaverage": _case(
        6, "sgp", slowmo={"alpha": 1.0, "beta": 0.5, "tau": 4, "noaverage": True},
    ),
    "dpsgd-exponential-m8": _case(8, "dpsgd"),
    "dpsgd-ring-m6-nesterov": _case(6, "dpsgd", topology="ring-directed", base=_NESTEROV),
    "osgp-geometric-m6": _case(6, "osgp", osgp={"staleness": 2, "delay": _GEOMETRIC}),
    "osgp-geometric-m16-adam": _case(
        16, "osgp", base={"kind": "adam"}, osgp={"staleness": 1, "delay": _GEOMETRIC},
    ),
    "osgp-constant-m4": _case(
        4, "osgp", osgp={"staleness": 1, "delay": {"kind": "constant", "rounds": 2}},
    ),
    "osgp-geometric-m5-noaverage": _case(
        5, "osgp", slowmo={"alpha": 1.0, "beta": 0.5, "tau": 4, "noaverage": True},
        osgp={"staleness": 3, "delay": _GEOMETRIC},
    ),
    # a period of 1, so every round mixes by one table row; it stalls, and
    # noaverage skips the drain, so messages are in flight at block starts
    "osgp-ring-m5-noaverage": _case(
        5, "osgp", topology="ring-directed",
        slowmo={"alpha": 1.0, "beta": 0.5, "tau": 4, "noaverage": True},
        osgp={"staleness": 1, "delay": _GEOMETRIC},
    ),
    "allreduce-m4-nesterov": _case(4, "allreduce", base=_NESTEROV),
    "local-m3": _case(3, "local"),
    # double averaging: local steps, momentum buffers averaged at each block start
    "local-m4-nesterov-average": _case(
        4, "local", base={**_NESTEROV, "buffer_strategy": "average"},
    ),
    "logistic-minibatch-sgp-m4": _case(4, "sgp", problem=_LOGISTIC),
    "logistic-fullbatch-allreduce-m3": _case(
        3, "allreduce", base={"kind": "adam", "buffer_strategy": "average"},
        problem={**_LOGISTIC, "noise": {"kind": "additive-gaussian", "sigma2": 0.5}},
    ),
    # minibatch draws for a strict subset of workers: 2 of its 12 rounds stall a worker
    "logistic-minibatch-osgp-m6": _case(
        6, "osgp", problem=_LOGISTIC, osgp={"staleness": 1, "delay": _GEOMETRIC},
    ),
    "mlp-minibatch-dpsgd-m4": _case(4, "dpsgd", problem=_MLP),
    "sgp-exponential-m5-log-bias": _case(5, "sgp", base=_NESTEROV, log_bias=True),
    # null bias_sq rows (an object column) and a snapshot of Nesterov's h
    "osgp-geometric-m6-log-bias-nesterov": _case(
        6, "osgp", base=_NESTEROV, log_bias=True, osgp={"staleness": 1, "delay": _GEOMETRIC},
    ),
    # shard rows: its records are reduced in smaller batches than a quadratic's
    "logistic-minibatch-sgp-m4-log-bias": _case(4, "sgp", problem=_LOGISTIC, log_bias=True),
    "osgp-geometric-m6-cadence3": _case(
        6, "osgp", metric_cadence=3, osgp={"staleness": 2, "delay": _GEOMETRIC},
    ),
}


# each case also runs as the middle group of a stack of three seeds
STACK_SEEDS = (5, 11, 23)


def pinned_hash(trace) -> str:
    return hashlib.sha256(legacy_jsonl(trace).encode()).hexdigest()


def trace_hash(name: str) -> str:
    return pinned_hash(build_simulation(parse_config(CASES[name])).run())


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def _stalled_rounds(cfg) -> int:
    """Rounds of ``cfg``'s run in which some worker does not step."""
    sim = build_simulation(cfg)
    active_workers, stalled = sim.protocol.active_workers, set()

    def counted():
        active = active_workers()
        if len(active) < sim.protocol.rows:
            stalled.add(sim.clock.round)
        return active

    sim.protocol.active_workers = counted
    sim.run()
    return len(stalled)


def test_every_kind_is_pinned_by_some_case():
    """Each protocol, base optimizer, buffer strategy, topology, problem,
    noise and delay kind the config accepts runs in at least one case, and
    every noise and topology kind under osgp, so removing or renaming a case
    cannot leave its path unpinned. Some osgp minibatch case stalls a worker
    in some round, so the minibatch oracle runs on a strict subset of
    workers, and so does some noaverage osgp case, whose stalls carry
    messages over a block start without a drain."""
    configs = [parse_config(raw) for raw in CASES.values()]
    osgp = [c for c in configs if c.protocol == "osgp"]
    pinned = [
        (PROTOCOL_NAMES, {c.protocol for c in configs}),
        (OPTIMIZER_KINDS, {c.base.kind for c in configs}),
        (BUFFER_STRATEGIES, {c.base.buffer_strategy for c in configs}),
        (TOPOLOGY_KINDS, {c.topology.kind for c in configs if c.protocol in MIXING_PROTOCOLS}),
        (PROBLEM_KINDS, {c.problem.kind for c in configs}),
        (NOISE_KINDS, {c.problem.noise.kind for c in configs}),
        (DELAY_KINDS, {c.osgp.delay.kind for c in osgp}),
        (NOISE_KINDS, {c.problem.noise.kind for c in osgp}),
        (TOPOLOGY_KINDS, {c.topology.kind for c in osgp}),
    ]
    for kinds, used in pinned:
        assert set(kinds) <= used, sorted(set(kinds) - used)
    assert any(_stalled_rounds(c) for c in osgp if c.problem.noise.kind == "minibatch")
    assert any(_stalled_rounds(c) for c in osgp if c.slowmo.noaverage)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_hash_is_pinned(name):
    """The pinned hash, from the case's seed run alone and as one group of
    a stacked run of three seeds, whose other two groups equal their own
    runs alone (records and summary)."""
    assert trace_hash(name) == _golden()[name]
    cfg = parse_config(CASES[name])
    stacked = build_simulation(cfg, STACK_SEEDS).run_groups()
    assert pinned_hash(stacked[1]) == _golden()[name]
    for seed, trace in zip(STACK_SEEDS, stacked):
        alone = build_simulation(replace(cfg, seed=seed)).run()
        assert (trace.trace_hash(), trace.summary) == (alone.trace_hash(), alone.summary)


def pin_missing(golden: dict, hashes: dict) -> dict:
    """``golden`` with the cases it lacks added from ``hashes``. If any pinned
    case's hash moved, a SystemExit naming them (the script exits 1)."""
    moved = sorted(name for name in golden if name in hashes and hashes[name] != golden[name])
    if moved:
        raise SystemExit(f"pinned hashes moved, nothing written: {', '.join(moved)}")
    return {**golden, **hashes}


def test_write_pins_only_missing_cases_and_refuses_moved_ones():
    assert pin_missing({"a": "1"}, {"a": "1", "b": "2"}) == {"a": "1", "b": "2"}
    with pytest.raises(SystemExit, match="moved, nothing written: a, c$"):
        pin_missing({"a": "1", "b": "2", "c": "3"}, {"a": "0", "b": "2", "c": "4", "d": "5"})


if __name__ == "__main__":
    hashes = {name: trace_hash(name) for name in sorted(CASES)}
    if "--write" in sys.argv[1:]:
        golden = _golden()
        pinned = pin_missing(golden, hashes)
        GOLDEN_PATH.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
        print(f"pinned {len(pinned) - len(golden)} new case(s) in {GOLDEN_PATH}")
    else:
        sys.stdout.write(json.dumps(hashes, indent=2) + "\n")
