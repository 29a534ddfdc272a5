"""Kernel behavior: metrics, traces, determinism, aborts."""

import math

import numpy as np
import pytest

from slowmo_sim import (
    BaseOptimizerConfig,
    ConfigError,
    DelayModel,
    ExperimentConfig,
    GammaSchedule,
    MetricsTrace,
    NoiseModel,
    NumericalAbort,
    ProblemConfig,
    ProtocolError,
    QuadraticProblem,
    Simulation,
    SlowMoConfig,
    build_logistic,
    build_quadratic,
    build_simulation,
    global_loss,
    parse_config,
)
from slowmo_sim import WorkerStreams, config, simkernel
from slowmo_sim.config import MAX_STEPS, OsgpConfig
from slowmo_sim.simkernel import RECORD_FIELDS
from test_golden_hashes import CASES


def _problem(m=3, sigma2=0.4, seed=17):
    return build_quadratic(ProblemConfig(m=m, dimension=3, l_min=0.5, l_max=2.0, heterogeneity=1.0,
                                         noise=NoiseModel("additive-gaussian", sigma2=sigma2)),
                           seed=seed)


def _stacked(prob, groups):
    """``prob``'s workers once per group: one shared A over groups * m centers."""
    return QuadraticProblem(prob.a, np.tile(prob.centers, (groups, 1)), prob.noise)


def _sim(prob=None, protocol="allreduce", seed=0, x0=None, **kw):
    prob = prob or _problem()
    kw.setdefault("T", 4)
    cfg = ExperimentConfig(base=BaseOptimizerConfig(kind="plain-sgd"),
                           slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=3),
                           protocol=protocol, gamma=GammaSchedule(value=0.05), seed=seed, **kw)
    return Simulation(prob, cfg, x0)


# --------------------------------------------------------------------------- #
# records and summaries
# --------------------------------------------------------------------------- #

def test_records_are_taken_before_the_step():
    prob = _problem()
    x0 = np.array([1.0, -1.0, 0.5])
    sim = _sim(prob, x0=x0)
    trace = sim.run()
    first = trace.records[0]
    assert first["round"] == 0 and first["t"] == 0 and first["k"] == 0
    assert first["loss"] == pytest.approx(global_loss(prob, x0), abs=1e-15)
    assert len(trace.records) == 12  # tau * T at cadence 1
    assert tuple(first.keys()) == RECORD_FIELDS


def test_one_worker_noiseless_loss_sequence():
    # x halves each step: pre-step losses 0.5, 0.125, 0.03125
    prob = QuadraticProblem(np.array([[1.0]]), [np.zeros(1)],
                            NoiseModel("additive-gaussian", sigma2=0.0))
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.0, tau=1),
        protocol="local", gamma=GammaSchedule(value=0.5), total_steps=3),
        np.array([1.0]))
    trace = sim.run()
    losses = [r["loss"] for r in trace.records]
    assert losses == pytest.approx([0.5, 0.125, 0.03125], abs=1e-15)
    # the summary's loss fields describe the post-step final state
    assert trace.summary["final_loss"] == pytest.approx(0.5 * 0.125 ** 2, abs=1e-15)
    assert trace.summary["min_loss"] == pytest.approx(0.5 * 0.125 ** 2, abs=1e-15)


def test_summary_counts_partial_final_block():
    sim = _sim(T=None, total_steps=8)  # tau=3 -> blocks of 3, 3, 2
    trace = sim.run()
    assert trace.summary["steps"] == 8
    assert trace.summary["blocks"] == 3
    assert trace.summary["partial_final_block"] is True
    assert trace.summary["aborted"] is False
    assert [sim.block_length(t) for t in range(3)] == [3, 3, 2]


_SUMMARY_RAW = {
    "problem": {"kind": "quadratic", "m": 4, "dimension": 5, "l_min": 0.5, "l_max": 2.0,
                "heterogeneity": 1.0, "noise": {"kind": "additive-gaussian", "sigma2": 0.3}},
    "slowmo": {"alpha": 1.0, "beta": 0.5, "tau": 3},
    "gamma": {"value": 0.05},
    "seed": 3,
    "init": {"kind": "gaussian", "scale": 1.0},
}


# noaverage is left out: its finish drains payloads that a record counts as in flight
@pytest.mark.parametrize("protocol, extra", [
    ("allreduce", {"base": {"kind": "adam", "buffer_strategy": "average"}}),
    ("local", {}),
    ("sgp", {"problem": {"kind": "logistic", "m": 4, "dimension": 5, "samples_per_worker": 12,
                         "heterogeneity": 0.5, "noise": {"kind": "minibatch", "batch_size": 4}}}),
    ("dpsgd", {}),
    pytest.param("local", {"base": {"kind": "sgd-nesterov", "beta_local": 0.9,
                                    "buffer_strategy": "average"}}, id="local-nesterov-average"),
    ("osgp", {"osgp": {"staleness": 1, "delay": {"kind": "geometric", "p": 0.5, "cap": 3}}}),
], ids=lambda v: v if isinstance(v, str) else "")
def test_the_summary_is_the_record_the_next_block_starts_from(protocol, extra):
    raw = {**_SUMMARY_RAW, "protocol": protocol, **extra}
    summary = build_simulation(parse_config({**raw, "T": 2})).run().summary
    record = build_simulation(parse_config({**raw, "T": 3})).run().records[2 * 3]
    assert (record["t"], record["k"]) == (2, 0)
    keys = ("loss", "grad_norm_sq", "consensus_sq")
    assert [summary[f"final_{key}"] for key in keys] == [record[key] for key in keys]


def test_block_lengths_are_computed_not_listed():
    # runs at the step ceiling build at once: a list of their block lengths
    # would hold 10**9 / 3 entries
    T = MAX_STEPS // 3
    sim = _sim(T=T)
    assert sim.T == T and sim.partial_final_block is False
    assert sim.block_length(0) == sim.block_length(T - 1) == 3
    sim = _sim(T=None, total_steps=MAX_STEPS)  # 10**9 = 3 * T + 1
    assert sim.T == T + 1 and sim.partial_final_block is True
    assert sim.block_length(T - 1) == 3 and sim.block_length(T) == 1


def test_metric_cadence_thins_records():
    sim = _sim(metric_cadence=5, T=7)  # 21 rounds -> records at 0,5,10,15,20
    trace = sim.run()
    assert [r["round"] for r in trace.records] == [0, 5, 10, 15, 20]


def test_config_guards():
    prob = _problem()
    with pytest.raises(ConfigError):
        _sim(prob, T=2, total_steps=5)
    with pytest.raises(ConfigError):
        _sim(prob, T=None, total_steps=None)
    with pytest.raises(ConfigError):
        _sim(prob, x0=np.zeros(7))
    with pytest.raises(ConfigError):
        _sim(prob, metric_cadence=0)


# --------------------------------------------------------------------------- #
# traces
# --------------------------------------------------------------------------- #

def test_trace_jsonl_roundtrip():
    trace = _sim(seed=5).run()
    assert set(trace.records[0]) == set(RECORD_FIELDS)
    assert trace.x_bar.shape == (len(trace.records), 3) and trace.x_bar.dtype == np.float64
    clone = MetricsTrace.from_jsonl(trace.to_jsonl())
    assert len(clone.records) == len(trace.records)
    for a, b in zip(trace.records, clone.records):
        assert a == b
    assert clone.x_bar.size == 0  # the JSONL holds no x_bar
    clone.x_bar = trace.x_bar
    assert clone.trace_hash() == trace.trace_hash()


def test_trace_hash_reacts_to_any_change():
    a = _sim(seed=5).run()
    b = _sim(seed=6).run()
    assert a.trace_hash() != b.trace_hash()


def test_trace_hash_covers_every_bit_of_x_bar():
    trace = _sim(seed=5).run()
    x_bar = trace.x_bar.copy()
    x_bar[0, 0] = 0.0
    hashes = {MetricsTrace(trace.records, trace.summary, x_bar).trace_hash()}
    for row, col, value in ((0, 0, -0.0), (2, 1, np.nextafter(x_bar[2, 1], np.inf))):
        edited = x_bar.copy()
        edited[row, col] = value
        hashes.add(MetricsTrace(trace.records, trace.summary, edited).trace_hash())
    assert len(hashes) == 3


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("protocol", ["allreduce", "local", "dpsgd", "sgp", "osgp"])
def test_bitwise_repeatability(protocol):
    prob = _problem(m=4)
    kw = {"osgp": OsgpConfig(delay=DelayModel(kind="geometric", p=0.5, cap=3))} \
        if protocol == "osgp" else {}
    h1 = _sim(prob, protocol=protocol, seed=13, **kw).run().trace_hash()
    h2 = _sim(prob, protocol=protocol, seed=13, **kw).run().trace_hash()
    assert h1 == h2


@pytest.mark.parametrize("protocol", ["allreduce", "sgp", "osgp"])
def test_metric_cadence_does_not_move_the_trajectory(protocol):
    # recording reads the state only: thinning the records keeps every
    # shared record and the final summary bit for bit
    prob = _problem(m=4)
    kw = {"osgp": OsgpConfig(delay=DelayModel(kind="geometric", p=0.5, cap=3))} \
        if protocol == "osgp" else {}
    runs = {c: _sim(prob, protocol=protocol, seed=8, T=7, metric_cadence=c, **kw).run()
            for c in (1, 3, 7)}
    full = {r["round"]: r for r in runs[1].records}
    for cadence, trace in runs.items():
        assert [r["round"] for r in trace.records] == list(range(0, 21, cadence))
        assert all(r == full[r["round"]] for r in trace.records)
        # min_loss is a minimum over the records taken, so it follows the cadence
        summary = {k: v for k, v in trace.summary.items() if k != "min_loss"}
        assert summary == {k: v for k, v in runs[1].summary.items() if k != "min_loss"}
        assert trace.summary["min_loss"] >= runs[1].summary["min_loss"]


# --------------------------------------------------------------------------- #
# the stochastic oracle
# --------------------------------------------------------------------------- #

_ORACLE_RUNS = {
    "quadratic-additive-sgp": {
        "problem": {"kind": "quadratic", "m": 4, "dimension": 3,
                    "noise": {"kind": "additive-gaussian", "sigma2": 0.5}},
        "protocol": "sgp", "slowmo": {"tau": 3}, "T": 3, "seed": 2,
    },
    "logistic-minibatch-local": {
        "problem": {"kind": "logistic", "m": 3, "dimension": 4, "samples_per_worker": 8,
                    "noise": {"kind": "minibatch", "batch_size": 3}},
        "protocol": "local", "slowmo": {"tau": 3}, "T": 3, "seed": 2,
    },
    # stalls a worker in 2 of its 12 rounds
    "logistic-minibatch-osgp-m6": CASES["logistic-minibatch-osgp-m6"],
}


@pytest.mark.parametrize("name", sorted(_ORACLE_RUNS))
def test_the_oracle_is_called_once_per_round_on_the_active_workers(name, monkeypatch):
    # the kernel draws every gradient through simkernel.worker_stochastic_gradient,
    # the name the benchmark's tracer wraps: one call per round in which some
    # worker steps, on exactly the workers that step
    sim = build_simulation(parse_config(_ORACLE_RUNS[name]))
    active_workers, oracle = sim.protocol.active_workers, simkernel.worker_stochastic_gradient
    active, calls = {}, []

    def recording_active_workers():
        workers = active_workers()
        active[sim.clock.round] = workers.tolist()
        return workers

    def recording_oracle(problem, points, workers, streams):
        assert problem is sim.problem and streams is sim.worker_streams
        assert points.shape == (len(workers), sim.d)
        calls.append((sim.clock.round, workers.tolist()))
        return oracle(problem, points, workers, streams)

    sim.protocol.active_workers = recording_active_workers
    monkeypatch.setattr(simkernel, "worker_stochastic_gradient", recording_oracle)
    sim.run()
    assert sorted(active) == list(range(sim.clock.round))
    assert calls == [(r, workers) for r, workers in sorted(active.items()) if workers]
    stalled = sum(len(workers) < sim.protocol.rows for workers in active.values())
    assert stalled == (2 if name == "logistic-minibatch-osgp-m6" else 0)


# --------------------------------------------------------------------------- #
# push-sum bookkeeping through the kernel
# --------------------------------------------------------------------------- #

def test_weight_mass_includes_in_flight_messages():
    prob = _problem(m=4)
    sim = _sim(prob, protocol="osgp", seed=3, T=8,
               osgp=OsgpConfig(staleness=6, delay=DelayModel(kind="geometric", p=0.4, cap=4)))
    trace = sim.run()
    for r in trace.records:
        assert abs(r["weight_mass"] - 4.0) < 1e-9


@pytest.mark.parametrize("protocol, noaverage", [
    ("local", False), ("allreduce", False), ("dpsgd", False),
    ("local", True), ("dpsgd", True),
])
def test_protocols_without_push_sum_leave_w_exactly_one(protocol, noaverage):
    # their mass is recorded as m without adding w up: w stays exactly 1.0
    # through every round, every slow update and group 1's retirement
    prob = _stacked(_problem(m=4), 3)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="sgd-nesterov"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=3, noaverage=noaverage),
        protocol=protocol, gamma=GammaSchedule(value=0.05), T=4), seeds=[0, 1, 2])
    apply_round, inner_round, ones = sim.protocol.apply_round, sim.inner_round, []

    def poisoning(states, half, round_index):
        apply_round(states, half, round_index)
        if round_index == 4:
            states.x[4 + 1, 2] = math.inf

    def checked_round(gamma):
        ones.append(np.array_equal(sim.states.w, np.ones(12)))
        inner_round(gamma)
        ones.append(np.array_equal(sim.states.w, np.ones(12)))

    sim.protocol.apply_round, sim.inner_round = poisoning, checked_round
    first, bad, last = sim.run_groups()
    assert ones == [True] * 24 and np.array_equal(sim.states.w, np.ones(12))
    assert isinstance(bad, NumericalAbort) and len(bad.trace.records) == 5
    for trace in (first, bad.trace, last):
        assert trace.columns["weight_mass"].tolist() == [4.0] * len(trace)


@pytest.mark.parametrize("protocol", ["local", "osgp"])
def test_trace_hashes_do_not_depend_on_the_noise_block(protocol, monkeypatch):
    # 12 steps of 3 groups of 4 workers, d = 3; osgp stalls workers, so their
    # noise cursors part. The budget gives at least tau rounds, at most the run
    prob = _stacked(_problem(m=4), 3)
    cfg = _sim(prob, protocol=protocol,
               osgp=OsgpConfig(staleness=1, delay=DelayModel(kind="geometric", p=0.3, cap=4))).cfg
    round_values, blocks, outcomes = 12 * 3, [], set()

    def streams(seeds, m, d, block):
        blocks.append(block)
        return WorkerStreams(seeds, m, d, forced or block)

    monkeypatch.setattr(simkernel, "WorkerStreams", streams)
    for budget, forced in ((round_values, None), (3 * round_values, None),
                           (12 * round_values, None), (10**9, None), (0, 1), (0, 5)):
        monkeypatch.setattr(simkernel, "NOISE_BLOCK_VALUES", budget)
        traces = Simulation(prob, cfg, seeds=[0, 1, 2]).run_groups()
        outcomes.add(tuple((t.trace_hash(), str(t.summary)) for t in traces))
    assert blocks == [3, 3, 12, 12, 3, 3] and len(outcomes) == 1


@pytest.mark.parametrize("noaverage, bad_round", [(False, 4), (True, 8)])
def test_mass_drift_is_a_protocol_error(noaverage, bad_round):
    # round 8 is the last one: the drift is caught by the final summary
    sim = Simulation(_problem(m=4), ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=3, noaverage=noaverage),
        protocol="sgp", gamma=GammaSchedule(value=0.05), seed=0, T=3))
    real = sim.protocol.apply_round

    def corrupting(states, half_x, round_index):
        real(states, half_x, round_index)
        if round_index == bad_round:
            states.w[2] += 1e-6

    sim.protocol.apply_round = corrupting
    with pytest.raises(ProtocolError, match=f"at round {bad_round + 1}"):
        sim.run()
    assert [clock[2] for clock in sim._clocks] == list(range(bad_round + 1))


def test_consensus_metric_is_zero_under_allreduce_at_block_starts():
    trace = _sim(seed=2).run()
    for r in trace.records:
        if r["k"] == 0:  # freshly broadcast
            assert r["consensus_sq"] < 1e-28


# --------------------------------------------------------------------------- #
# bias logging
# --------------------------------------------------------------------------- #

def test_bias_is_zero_when_workers_agree_and_gradients_are_exact():
    # plain SGD, allreduce, tau=1: every record sees all workers at x_bar,
    # where mean_i E[d_i] equals the global gradient exactly
    prob = _problem(sigma2=1.0)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=1),
        protocol="allreduce", gamma=GammaSchedule(value=0.05), T=6, seed=0, log_bias=True))
    trace = sim.run()
    for r in trace.records:
        assert r["bias_sq"] == pytest.approx(0.0, abs=1e-24)


def test_bias_is_positive_once_workers_drift():
    # a quadratic's shared curvature would make the averaged direction exact
    # by linearity, so the workers have logistic objectives
    prob = build_logistic(ProblemConfig(kind="logistic", m=2, dimension=3, samples_per_worker=10,
                                        heterogeneity=1.0,
                                        noise=NoiseModel("additive-gaussian", sigma2=0.0)),
                          seed=1)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.0, tau=4),
        protocol="local", gamma=GammaSchedule(value=0.5), T=2, seed=0, log_bias=True))
    trace = sim.run()
    for r in trace.records:
        if r["k"] == 0:
            assert r["bias_sq"] == pytest.approx(0.0, abs=1e-24)
        else:
            assert r["bias_sq"] > 1e-12


def test_bias_is_unavailable_for_adam():
    sim = Simulation(_problem(), ExperimentConfig(
        base=BaseOptimizerConfig(kind="adam"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=2),
        protocol="allreduce", gamma=GammaSchedule(value=0.01), T=2, seed=0, log_bias=True))
    trace = sim.run()
    assert all(r["bias_sq"] is None for r in trace.records)


# --------------------------------------------------------------------------- #
# numerical aborts
# --------------------------------------------------------------------------- #

@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_partial_trace():
    prob = _problem(sigma2=0.0)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.0, tau=2),
        protocol="allreduce", gamma=GammaSchedule(value=1e6), T=50, seed=0),
        np.ones(3))
    with pytest.raises(NumericalAbort) as exc:
        sim.run()
    err = exc.value
    assert err.trace is not None and len(err.trace.records) > 0
    assert err.trace.x_bar.shape == (len(err.trace.records), 3)
    assert err.trace.summary["aborted"] is True
    assert "worker" in err.diagnostic or "overflow" in err.diagnostic.lower() \
        or not math.isfinite(err.trace.records[-1]["loss"])


@pytest.mark.parametrize("bad", [
    {2: ("x", math.nan), 3: ("w", math.inf)},
    {1: ("w", math.nan), 2: ("x", -math.inf)},
    {3: ("x", math.inf)},
])
def test_finite_check_reports_the_first_bad_worker(bad):
    sim = _sim(_problem(m=4))
    for i, (field, value) in bad.items():
        if field == "x":
            sim.states[i].x[1] = value
        else:
            sim.states.w[i] = value
    with pytest.raises(NumericalAbort) as exc:
        sim._check_finite()
    assert exc.value.diagnostic["worker"] == min(bad)
    sim.states = _sim(_problem(m=4)).states
    sim._check_finite()  # all finite: no abort


# --------------------------------------------------------------------------- #
# stacked groups
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("protocol", ["allreduce", "sgp", "osgp"])
def test_a_non_finite_group_ends_alone(protocol):
    # group 1's third worker goes bad before the first step: its trace ends
    # there with no records, and groups 0 and 2 are their runs alone
    prob = _problem(m=4)
    cfg = _sim(prob, protocol=protocol).cfg
    sim = Simulation(_stacked(prob, 3), cfg, seeds=[0, 1, 2])
    sim.states.x[4 + 2, 1] = math.nan
    sim._check_finite()  # two groups are left: nothing is raised
    assert sim.alive.tolist() == [True, False, True]
    first, bad, last = sim.run_groups()
    assert isinstance(bad, NumericalAbort)
    assert bad.diagnostic == {"t": 0, "k": 0, "round": 0, "worker": 2}
    assert bad.trace.records == [] and bad.trace.summary["aborted"] is True
    assert bad.trace.x_bar.shape == (0, 3)
    for seed, trace in ((0, first), (2, last)):
        alone = _sim(prob, protocol=protocol, seed=seed).run()
        assert (trace.trace_hash(), trace.summary) == (alone.trace_hash(), alone.summary)


def test_groups_need_one_config_and_run_groups(monkeypatch):
    prob = _problem(m=4)
    with pytest.raises(ConfigError, match="do not split into 3 groups"):
        Simulation(prob, _sim(prob).cfg, seeds=[0, 1, 2])
    sim = Simulation(_stacked(prob, 2), _sim(prob).cfg, seeds=[0, 1])
    with pytest.raises(ConfigError, match="run_groups"):
        sim.run()
    # an empty seed list is refused before anything is built
    builds = []
    monkeypatch.setattr(config, "build_quadratic", lambda *args: builds.append(args))
    cfg = parse_config({"problem": {"m": 2, "dimension": 3}, "T": 2})
    for build in (lambda: build_simulation(cfg, []), lambda: Simulation(prob, cfg, seeds=[])):
        with pytest.raises(ConfigError, match="empty list of seeds"):
            build()
    assert builds == []
