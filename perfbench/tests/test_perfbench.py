"""Tests for the benchmark's own code (not part of the simulator's suite).

    python3 -m pytest perfbench/tests -q

Shapes are shrunk so the whole file runs in a few seconds.
"""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from slowmo_sim import config  # noqa: E402

import bench_measure  # noqa: E402
from bench_trace import BOUNDARIES, SETUP_BOUNDARIES, Tracer, resolve_site  # noqa: E402
from bench_workloads import WORKLOADS, Workload, expected_runs, run_pass  # noqa: E402


def _shrink(raw):
    raw = copy.deepcopy(raw)
    problem = raw["problem"]
    problem["m"] = min(problem["m"], 4)
    problem["dimension"] = min(problem["dimension"], 3)
    raw["T"] = 2
    return raw


def _tiny(workload):
    return Workload(workload.name, workload.why,
                    lambda seed: [_shrink(r) for r in workload.make_configs(seed)],
                    workload.sweep)


TINY = [_tiny(w) for w in WORKLOADS.values()]


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "out")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 7])
def test_every_workload_config_parses(name, seed):
    for raw in WORKLOADS[name].make_configs(seed):
        cfg = config.parse_config(raw)
        assert cfg.execution == "sequential"
        assert cfg.seed == raw["seed"]


def test_every_boundary_resolves_to_an_existing_attribute():
    for boundary in BOUNDARIES:
        for site in boundary.sites:
            owner, attr = resolve_site(site)
            # the tracer patches the attribute where it is defined, not inherited
            assert attr in vars(owner), f"{boundary.name}: {site} is inherited or missing"


def test_tracer_restores_every_attribute():
    sites = [s for b in BOUNDARIES for s in b.sites]
    before = [vars(owner)[attr] for owner, attr in map(resolve_site, sites)]
    with Tracer():
        patched = [vars(owner)[attr] for owner, attr in map(resolve_site, sites)]
        assert all(p is not b for p, b in zip(patched, before))
    after = [vars(owner)[attr] for owner, attr in map(resolve_site, sites)]
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_digest_stable_across_passes(workload, out_dir):
    first = run_pass(workload, 1, out_dir, Tracer(SETUP_BOUNDARIES))
    second = run_pass(workload, 1, out_dir, Tracer(SETUP_BOUNDARIES))
    assert first.errors == [] and second.errors == []
    assert None not in first.digests
    assert first.digests == second.digests
    assert run_pass(workload, 2, out_dir, Tracer(SETUP_BOUNDARIES)).digests != first.digests


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_tracing_leaves_trajectories_unchanged(workload, out_dir):
    plain = run_pass(workload, 1, out_dir, Tracer(SETUP_BOUNDARIES))
    traced = run_pass(workload, 1, out_dir, Tracer())
    assert traced.digests == plain.digests
    assert traced.output_bytes == plain.output_bytes


@pytest.mark.parametrize("workload", TINY, ids=lambda w: w.name)
def test_self_times_and_unattributed_add_up_to_the_pass(workload, out_dir):
    tracer = Tracer()
    p = run_pass(workload, 1, out_dir, tracer)
    total_self = sum(tracer.self_ns.values())
    # self times partition the root spans exactly
    assert total_self == tracer.root_ns
    assert 0 < total_self <= p.wall_ns
    metrics = bench_measure.per_layer_metrics(tracer, [p], [p])
    phase = metrics["trace.pass_s"]["value"]
    selfs = sum(v["value"] for k, v in metrics.items()
                if k.endswith(".self_s") and not k.startswith("layer."))
    assert selfs + metrics["unattributed_s"]["value"] == pytest.approx(phase, rel=1e-9)
    layers = sum(v["value"] for k, v in metrics.items() if k.startswith("layer."))
    assert layers == pytest.approx(selfs, rel=1e-9)


def test_every_boundary_is_reached_by_some_workload(out_dir):
    tracer = Tracer()
    for workload in TINY:
        run_pass(workload, 1, out_dir, tracer)
    silent = [name for name, n in tracer.calls.items() if n == 0]
    assert silent == []


def test_measure_reports_every_declared_metric(out_dir):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workload = TINY[0]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        record, result = bench_measure.measure(workload, 1, 0.0, trace, out_dir, None)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_benchmark_json_names_the_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_pinned_digests_cover_every_workload():
    spec = json.loads(bench_measure.PINNED_FILE.read_text())
    for name, w in WORKLOADS.items():
        assert len(spec["digests"][name]) == len(expected_runs(w, spec["default_seed"]))
