"""The benchmark's tracer (perfbench/bench_trace.py) must keep working.

``perfbench --trace 1`` wraps named functions and methods of the package
and reads protocol arguments in count hooks. A refactor that renames a
wrapped site or changes what ``apply_round`` receives breaks it; these
tests load the tracer module as it is and fail on either, and run the
benchmark's workloads, shrunk, under it to find any boundary left silent.
"""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from slowmo_sim import build_simulation, parse_config

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


bench_trace = _load_perfbench("bench_trace")
bench_workloads = _load_perfbench("bench_workloads")

M, D, TAU, T = 4, 3, 4, 2  # dpsgd needs an even m


def _sim(protocol):
    return build_simulation(parse_config({
        "problem": {"kind": "quadratic", "m": M, "dimension": D, "l_min": 0.5,
                    "l_max": 2.0, "heterogeneity": 1.0,
                    "noise": {"kind": "additive-gaussian", "sigma2": 0.5}},
        "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": TAU},
        "gamma": {"value": 0.05},
        "protocol": protocol,
        "osgp": {"staleness": 1, "delay": {"kind": "geometric", "p": 0.5, "cap": 3}},
        "T": T,
        "seed": 3,
    }))


@pytest.mark.parametrize(
    "site", [site for b in bench_trace.BOUNDARIES for site in b.sites],
    ids=lambda site: f"{site[0]}.{site[1]}",
)
def test_every_traced_site_resolves(site):
    bench_trace.resolve_site(site)


@pytest.mark.parametrize("protocol", ["sgp", "dpsgd", "osgp"])
def test_count_hooks_read_the_arguments_inner_round_passes(protocol, monkeypatch):
    sim = _sim(protocol)
    cls = type(sim.protocol)
    real = cls.apply_round
    hook = bench_trace._osgp_counts if protocol == "osgp" else bench_trace._gossip_counts
    rounds = []

    def recording(self, states, half_x, round_index):
        counts = dict.fromkeys(bench_trace.COUNT_KEYS, 0)
        hook(counts, (self, states, half_x, round_index))
        assert counts["messages"] == len(half_x)
        assert counts["payload_bytes"] == len(half_x) * D * 8
        if protocol == "osgp":
            assert counts["osgp_senders"] == len(half_x)
            assert counts["osgp_worker_rounds"] == M
        rounds.append(round_index)
        return real(self, states, half_x, round_index)

    monkeypatch.setattr(cls, "apply_round", recording)
    sim.run()
    assert rounds == list(range(TAU * T))


def test_traced_run_matches_untraced_and_counts_messages():
    plain = _sim("osgp").run().trace_hash()
    with bench_trace.Tracer() as tracer:
        traced = _sim("osgp").run().trace_hash()
    assert traced == plain
    calls = tracer.calls["comm_protocols.osgp.apply_round"]
    assert calls == TAU * T
    assert tracer.counts["osgp_worker_rounds"] == M * calls
    assert tracer.counts["messages"] == tracer.counts["osgp_senders"]
    assert tracer.counts["payload_bytes"] == tracer.counts["messages"] * D * 8


@pytest.mark.parametrize("protocol, reached", [
    ("osgp", ("topology.out_neighbor",)),
    ("dpsgd", ("topology.mixing_matrix",)),
])
def test_topology_boundaries_are_reached(protocol, reached):
    # a site the package imports but no longer calls would read 0 calls,
    # silently; sgp's and dpsgd's rounds keep mixing_matrix reached
    with bench_trace.Tracer() as tracer:
        _sim(protocol).run()
    for name in reached:
        assert tracer.calls[name] > 0, name
    if protocol == "osgp":  # it builds only the table of receivers its rounds read
        assert tracer.calls["topology.mixing_matrix"] == 0


def _shrink(raw):
    """A workload config at m <= 4, d <= 3 and T = 2, as the benchmark's own tests shrink it."""
    problem = raw["problem"]
    return {**raw, "T": 2, "problem": {**problem, "m": min(problem["m"], 4),
                                       "dimension": min(problem["dimension"], 3)}}


def test_only_the_unused_metrics_sites_are_silent_on_the_workloads(tmp_path):
    # simkernel imports global_gradient and global_loss only so that the
    # tracer can wrap them there, and never calls them; every other boundary,
    # the stochastic oracle included, must be reached by some workload
    tracer = bench_trace.Tracer()
    for workload in bench_workloads.WORKLOADS.values():
        tiny = replace(workload, make_configs=lambda seed, w=workload: list(
            map(_shrink, w.make_configs(seed))))
        assert bench_workloads.run_pass(tiny, 1, str(tmp_path / "out"), tracer).errors == []
    silent = [name for name, calls in tracer.calls.items() if calls == 0]
    assert silent == ["numerics.global_gradient", "numerics.global_loss"]
