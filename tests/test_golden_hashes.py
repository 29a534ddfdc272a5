"""Pinned trajectories: the trace hash of a fixed matrix of short runs.

Repeatability tests compare two runs of the same code, so a refactor that
changes every trajectory would still pass them. These hashes were produced
once and checked in; a change that moves any of them changes the numbers
the simulator produces and has to say so.

Regenerate (only when a trajectory change is intended) with

    PYTHONPATH=src python tests/test_golden_hashes.py --write

Without ``--write`` the script prints the current hashes and leaves the
file alone.
"""

import json
import sys
from pathlib import Path

import pytest

from slowmo_sim import build_simulation, parse_config

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
_QUAD_CLOUD = {
    **_QUAD, "samples_per_worker": 7, "sample_spread": 0.5,
    "noise": {"kind": "minibatch", "batch_size": 3},
}
_NESTEROV = {"kind": "sgd-nesterov", "beta_local": 0.9, "buffer_strategy": "maintain"}
_GEOMETRIC = {"kind": "geometric", "p": 0.5, "cap": 3}


def _case(m, protocol, topology="exponential-directed", base=None, rounds=(), problem=None,
          **extra):
    return {
        "problem": {**(problem or _QUAD), "m": m},
        "base": base or {"kind": "plain-sgd"},
        "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": 4},
        "gamma": {"kind": "constant", "value": 0.05},
        "protocol": protocol,
        "topology": {"kind": topology, "rounds": [list(map(list, r)) for r in rounds]},
        "T": 3,
        "seed": 11,
        "init": {"kind": "gaussian", "scale": 1.0},
        **extra,
    }


CASES = {
    "sgp-exponential-m5": _case(5, "sgp"),
    "sgp-exponential-m8-nesterov": _case(8, "sgp", base=_NESTEROV),
    "sgp-ring-m5": _case(5, "sgp", topology="ring-directed"),
    "sgp-complete-m4": _case(4, "sgp", topology="complete"),
    "sgp-custom-ragged-m4": _case(
        4, "sgp", topology="custom",
        rounds=[[(0, 1), (0, 2), (3, 1)], [(1, 3), (2, 0)], [(2, 3), (3, 0), (1, 0)]],
    ),
    "sgp-exponential-m6-noaverage": _case(
        6, "sgp", slowmo={"alpha": 1.0, "beta": 0.5, "tau": 4, "noaverage": True},
    ),
    "dpsgd-exponential-m8": _case(8, "dpsgd"),
    "dpsgd-ring-m6-nesterov": _case(6, "dpsgd", topology="ring-directed", base=_NESTEROV),
    "dpsgd-complete-m3": _case(3, "dpsgd", topology="complete"),
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
    "allreduce-m4-nesterov": _case(4, "allreduce", base=_NESTEROV),
    "local-m3": _case(3, "local"),
    "double-average-m4": _case(4, "double-average", base=_NESTEROV),
    "logistic-minibatch-sgp-m4": _case(4, "sgp", problem=_LOGISTIC),
    "logistic-fullbatch-allreduce-m3": _case(
        3, "allreduce", base={"kind": "adam", "buffer_strategy": "average"},
        problem={**_LOGISTIC, "noise": {"kind": "additive-gaussian", "sigma2": 0.5}},
    ),
    "mlp-minibatch-dpsgd-m4": _case(4, "dpsgd", problem=_MLP),
    "quadratic-cloud-minibatch-osgp-m4": _case(
        4, "osgp", problem=_QUAD_CLOUD, osgp={"staleness": 2, "delay": _GEOMETRIC},
    ),
    "sgp-exponential-m5-log-bias": _case(5, "sgp", base=_NESTEROV, log_bias=True),
    "osgp-geometric-m6-cadence3": _case(
        6, "osgp", metric_cadence=3, osgp={"staleness": 2, "delay": _GEOMETRIC},
    ),
}


# each case also runs as the middle group of a stack of three seeds
STACK_SEEDS = (5, 11, 23)


def trace_hash(name: str) -> str:
    return build_simulation(parse_config(CASES[name])).run().trace_hash()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_trace_hash_is_pinned(name):
    """The pinned hash, from the case's seed run alone and as one group of
    a stacked run of three seeds, whose other two groups equal their own
    runs alone (records and summary)."""
    assert trace_hash(name) == _golden()[name]
    cfgs = [parse_config({**CASES[name], "seed": seed}) for seed in STACK_SEEDS]
    stacked = build_simulation(cfgs).run_groups()
    assert stacked[1].trace_hash() == _golden()[name]
    for cfg, trace in zip(cfgs, stacked):
        alone = build_simulation(cfg).run()
        assert (trace.trace_hash(), trace.summary) == (alone.trace_hash(), alone.summary)


if __name__ == "__main__":
    hashes = {name: trace_hash(name) for name in sorted(CASES)}
    text = json.dumps(hashes, indent=2) + "\n"
    if "--write" in sys.argv[1:]:
        GOLDEN_PATH.write_text(text)
        print(f"wrote {len(hashes)} hashes to {GOLDEN_PATH}")
    else:
        sys.stdout.write(text)
