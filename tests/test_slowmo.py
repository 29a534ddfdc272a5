"""Outer-loop algebra: the slow update, learning-rate schedule, and the
exact reductions to classical methods."""

import numpy as np
import pytest

from slowmo_sim import (
    BaseOptimizerConfig,
    ConfigError,
    ExperimentConfig,
    GammaSchedule,
    NoiseModel,
    ProblemConfig,
    Simulation,
    SlowMoConfig,
    apply_buffer_strategy,
    build_quadratic,
    local_direction,
    slow_update,
)
from slowmo_sim import simkernel, slowmo
from slowmo_sim.numerics import group_sums
from references import (
    block_momentum_reference,
    heavy_ball_reference,
    local_sgd_reference,
    lookahead_reference,
)


def test_slow_update_oracle():
    # u' = 0.5*[2,0] + ([0.1,0])/0.1 = [2,0]; x' = [1,1] - 0.1*[2,0] = [0.8,1]
    u = np.array([2.0, 0.0])
    x_t0 = np.array([1.0, 1.0])
    x_ttau = np.array([0.9, 1.0])
    u_next, x_next = slow_update(x_t0, x_ttau, u, gamma=0.1, alpha=1.0, beta=0.5)
    assert np.allclose(u_next, [2.0, 0.0], atol=1e-12)
    assert np.allclose(x_next, [0.8, 1.0], atol=1e-12)


def test_slow_update_rejects_nonpositive_gamma():
    z = np.zeros(2)
    with pytest.raises(ConfigError):
        slow_update(z, z, z, gamma=0.0, alpha=1.0, beta=0.5)


def test_slowmo_config_validation():
    with pytest.raises(ConfigError):
        SlowMoConfig(beta=1.0)
    with pytest.raises(ConfigError):
        SlowMoConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        SlowMoConfig(tau=0)


def test_gamma_schedule_constant_and_step():
    const = GammaSchedule(value=0.2)
    assert const.at(0) == const.at(99) == 0.2
    sched = GammaSchedule(value=1.0, kind="step", milestones=(2, 4), decay=0.1)
    assert sched.at(0) == 1.0
    assert sched.at(1) == 1.0
    assert sched.at(2) == pytest.approx(0.1)
    assert sched.at(3) == pytest.approx(0.1)
    assert sched.at(4) == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        GammaSchedule(value=-0.1)
    with pytest.raises(ConfigError):
        GammaSchedule(value=1.0, kind="step", milestones=(4, 2), decay=0.5)


# --------------------------------------------------------------------------- #
# exact reductions against independent references
# --------------------------------------------------------------------------- #

def _noisy_quadratic(m, d=3, seed=17):
    return build_quadratic(ProblemConfig(m=m, dimension=d, l_min=0.5, l_max=2.0, heterogeneity=1.0,
                                         noise=NoiseModel("additive-gaussian", sigma2=0.4)),
                           seed=seed)


def _max_diff(sim_hist, ref_hist):
    assert len(sim_hist) == len(ref_hist)
    return max(np.max(np.abs(a - b)) for a, b in zip(sim_hist, ref_hist))


def test_reduces_to_heavy_ball():
    # tau=1, alpha=1, exact averaging: u becomes a plain momentum buffer
    prob = _noisy_quadratic(m=2)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.3, tau=1), protocol="allreduce",
        gamma=GammaSchedule(value=0.05), T=40, seed=11))
    ref = heavy_ball_reference(prob, gamma=0.05, beta=0.3, steps=40, seed=11)
    assert _max_diff(sim.run().x_bar, ref) <= 1e-10


def test_reduces_to_local_sgd():
    prob = _noisy_quadratic(m=3)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.0, tau=5), protocol="local",
        gamma=GammaSchedule(value=0.08), T=8, seed=5))
    ref = local_sgd_reference(prob, gamma=0.08, tau=5, T=8, seed=5)
    assert _max_diff(sim.run().x_bar, ref) <= 1e-10


def test_reduces_to_lookahead():
    prob = _noisy_quadratic(m=1)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=0.3, beta=0.0, tau=4), protocol="local",
        gamma=GammaSchedule(value=0.1), T=6, seed=9))
    ref = lookahead_reference(prob, gamma=0.1, alpha=0.3, tau=4, T=6, seed=9)
    assert _max_diff(sim.run().x_bar, ref) <= 1e-10


def test_reduces_to_block_momentum_filtering():
    # local protocol + plain SGD + slow momentum == the classic block update
    # recursion with block momentum beta and block learning rate alpha
    prob = _noisy_quadratic(m=4)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=0.9, beta=0.4, tau=6), protocol="local",
        gamma=GammaSchedule(value=0.05), T=7, seed=21))
    ref = block_momentum_reference(prob, gamma=0.05, tau=6, T=7,
                                   block_momentum=0.4, block_lr=0.9, seed=21)
    assert _max_diff(sim.run().x_bar, ref) <= 1e-10


# --------------------------------------------------------------------------- #
# momentum-buffer identities
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("protocol", ["allreduce", "local"])
def test_u_accumulates_averaged_directions(protocol, monkeypatch):
    # with a constant gamma, (x_{t,0} - xbar_{t,tau})/gamma telescopes into
    # the sum of averaged directions, so u satisfies a pure EMA recursion
    prob = _noisy_quadratic(m=3)
    beta, tau = 0.6, 4
    dbars = []

    def recording_direction(*args, **kwargs):
        d = local_direction(*args, **kwargs)
        dbars.append(group_sums(d, 1, 0.0)[0] / prob.num_workers)  # before d is overwritten
        return d

    monkeypatch.setattr(simkernel, "local_direction", recording_direction)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="sgd-nesterov"),
        slowmo=SlowMoConfig(alpha=0.7, beta=beta, tau=tau), protocol=protocol,
        gamma=GammaSchedule(value=0.03), T=6, seed=2))
    sim.run()
    assert len(dbars) == tau * 6
    u_rec = np.zeros(prob.dimension)
    for t in range(6):
        dbar_sum = np.zeros(prob.dimension)
        for dbar in dbars[t * tau:(t + 1) * tau]:
            dbar_sum += dbar
        u_rec = beta * u_rec + dbar_sum
    scale = max(np.linalg.norm(sim.slow.u), 1e-12)
    assert np.linalg.norm(u_rec - sim.slow.u) / scale < 1e-9


def test_u_after_one_block_is_gamma_invariant():
    # at tau=1 with no gradient noise, u_1 = dbar(x_0) whatever gamma is
    prob = build_quadratic(ProblemConfig(m=2, dimension=3, l_min=1.0, l_max=2.0, heterogeneity=1.0,
                                         noise=NoiseModel("additive-gaussian", sigma2=0.0)),
                           seed=4)
    us = []
    for gamma in (0.01, 0.1, 1.0):
        sim = Simulation(prob, ExperimentConfig(
            base=BaseOptimizerConfig(kind="plain-sgd"),
            slowmo=SlowMoConfig(alpha=1.0, beta=0.9, tau=1), protocol="allreduce",
            gamma=GammaSchedule(value=gamma), T=1, seed=0))
        sim.run()
        us.append(sim.slow.u.copy())
    for u in us[1:]:
        assert np.allclose(u, us[0], atol=1e-9)


def test_noaverage_never_calls_the_exact_average():
    prob = _noisy_quadratic(m=3)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=4, noaverage=True), protocol="local",
        gamma=GammaSchedule(value=0.05), T=5, seed=3))
    sim.run()
    assert sim.slow_average_calls == 0
    # without any synchronization the workers genuinely drift apart
    assert np.linalg.norm(sim.states[0].x - sim.states[1].x) > 1e-6


def test_double_average_runs_and_synchronizes_buffers(monkeypatch):
    # double averaging is the local protocol with averaged buffers: every
    # block starts from one x and one momentum buffer shared by the workers
    prob = _noisy_quadratic(m=3)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="sgd-nesterov", buffer_strategy="average"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=3), protocol="local",
        gamma=GammaSchedule(value=0.05), T=4, seed=1))
    starts = []

    def averaging(config, buffers, groups=1):
        apply_buffer_strategy(config, buffers, groups)
        starts.append((sim.states.x.copy(), buffers.h.copy()))

    monkeypatch.setattr(slowmo, "apply_buffer_strategy", averaging)
    sim.run()
    assert len(starts) == 4 and np.any(starts[-1][1] != 0.0)
    for x, h in starts:
        assert (x == x[0]).all() and (h == h[0]).all()
