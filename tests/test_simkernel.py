"""Kernel behavior: metrics, traces, determinism, aborts."""

import math

import numpy as np
import pytest

from slowmo_sim import (
    BaseOptimizerConfig,
    ConfigError,
    DelayModel,
    MetricsTrace,
    NoiseModel,
    NumericalAbort,
    ProtocolError,
    QuadraticProblem,
    Simulation,
    SlowMoConfig,
    build_quadratic,
    global_loss,
)
from slowmo_sim.simkernel import RECORD_FIELDS


def _problem(m=3, sigma2=0.4, seed=17):
    return build_quadratic(m=m, dimension=3, seed=seed, l_min=0.5, l_max=2.0,
                           heterogeneity=1.0,
                           noise=NoiseModel("additive-gaussian", sigma2=sigma2))


def _sim(prob=None, protocol="allreduce", seed=0, **kw):
    prob = prob or _problem()
    kw.setdefault("T", 4)
    return Simulation(prob, BaseOptimizerConfig(kind="plain-sgd"),
                      SlowMoConfig(alpha=1.0, beta=0.5, tau=3),
                      protocol=protocol, gamma=0.05, seed=seed, **kw)


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
    sim = Simulation(prob, BaseOptimizerConfig(kind="plain-sgd"),
                     SlowMoConfig(alpha=1.0, beta=0.0, tau=1),
                     protocol="local", gamma=0.5, total_steps=3,
                     x0=np.array([1.0]))
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
    clone = MetricsTrace.from_jsonl(trace.to_jsonl())
    assert len(clone.records) == len(trace.records)
    for a, b in zip(trace.records, clone.records):
        assert a == b
    assert clone.trace_hash() == trace.trace_hash()


def test_trace_hash_reacts_to_any_change():
    a = _sim(seed=5).run()
    b = _sim(seed=6).run()
    assert a.trace_hash() != b.trace_hash()


# --------------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("protocol", ["allreduce", "local", "dpsgd", "sgp", "osgp"])
def test_bitwise_repeatability(protocol):
    prob = _problem(m=4)
    kw = {"delay": DelayModel(kind="geometric", p=0.5, cap=3)} if protocol == "osgp" else {}
    h1 = _sim(prob, protocol=protocol, seed=13, **kw).run().trace_hash()
    h2 = _sim(prob, protocol=protocol, seed=13, **kw).run().trace_hash()
    assert h1 == h2


@pytest.mark.parametrize("protocol", ["allreduce", "sgp", "osgp"])
def test_metric_cadence_does_not_move_the_trajectory(protocol):
    # recording reads the state only: thinning the records keeps every
    # shared record and the final summary bit for bit
    prob = _problem(m=4)
    kw = {"delay": DelayModel(kind="geometric", p=0.5, cap=3)} if protocol == "osgp" else {}
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
# push-sum bookkeeping through the kernel
# --------------------------------------------------------------------------- #

def test_weight_mass_includes_in_flight_messages():
    prob = _problem(m=4)
    sim = _sim(prob, protocol="osgp", seed=3, T=8,
               delay=DelayModel(kind="geometric", p=0.4, cap=4), staleness=6)
    trace = sim.run()
    for r in trace.records:
        assert abs(r["weight_mass"] - 4.0) < 1e-9


@pytest.mark.parametrize("noaverage, bad_round", [(False, 4), (True, 8)])
def test_mass_drift_is_a_protocol_error(noaverage, bad_round):
    # round 8 is the last one: the drift is caught by the final summary
    sim = Simulation(_problem(m=4), BaseOptimizerConfig(kind="plain-sgd"),
                     SlowMoConfig(alpha=1.0, beta=0.5, tau=3, noaverage=noaverage),
                     protocol="sgp", gamma=0.05, seed=0, T=3)
    real = sim.protocol.apply_round

    def corrupting(states, half_x, round_index):
        real(states, half_x, round_index)
        if round_index == bad_round:
            states.w[2] += 1e-6

    sim.protocol.apply_round = corrupting
    with pytest.raises(ProtocolError, match=f"at round {bad_round + 1}"):
        sim.run()
    assert [r["round"] for r in sim._records] == list(range(bad_round + 1))


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
    sim = Simulation(prob, BaseOptimizerConfig(kind="plain-sgd"),
                     SlowMoConfig(alpha=1.0, beta=0.5, tau=1),
                     protocol="allreduce", gamma=0.05, T=6, seed=0, log_bias=True)
    trace = sim.run()
    for r in trace.records:
        assert r["bias_sq"] == pytest.approx(0.0, abs=1e-24)


def test_bias_is_positive_once_workers_drift():
    # shared curvature would make the averaged direction exact by linearity,
    # so give the workers different Hessians
    prob = QuadraticProblem([np.array([[1.0]]), np.array([[3.0]])],
                            [np.array([2.0]), np.array([-2.0])],
                            NoiseModel("additive-gaussian", sigma2=0.0))
    sim = Simulation(prob, BaseOptimizerConfig(kind="plain-sgd"),
                     SlowMoConfig(alpha=1.0, beta=0.0, tau=4),
                     protocol="local", gamma=0.05, T=2, seed=0, log_bias=True,
                     x0=np.array([1.0]))
    trace = sim.run()
    for r in trace.records:
        if r["k"] == 0:
            assert r["bias_sq"] == pytest.approx(0.0, abs=1e-24)
        else:
            assert r["bias_sq"] > 1e-12


def test_bias_is_unavailable_for_adam():
    sim = Simulation(_problem(), BaseOptimizerConfig(kind="adam"),
                     SlowMoConfig(alpha=1.0, beta=0.5, tau=2),
                     protocol="allreduce", gamma=0.01, T=2, seed=0, log_bias=True)
    trace = sim.run()
    assert all(r["bias_sq"] is None for r in trace.records)


# --------------------------------------------------------------------------- #
# numerical aborts
# --------------------------------------------------------------------------- #

@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_divergence_aborts_with_partial_trace():
    prob = _problem(sigma2=0.0)
    sim = Simulation(prob, BaseOptimizerConfig(kind="plain-sgd"),
                     SlowMoConfig(alpha=1.0, beta=0.0, tau=2),
                     protocol="allreduce", gamma=1e6, T=50, seed=0,
                     x0=np.ones(3))
    with pytest.raises(NumericalAbort) as exc:
        sim.run()
    err = exc.value
    assert err.trace is not None and len(err.trace.records) > 0
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
