"""Every batched form of the stacked kernel against the per-worker loop it replaces.

The references below are the per-worker expressions the kernel used before
its state was stacked. Equality is exact: ``np.array_equal`` plus equal sign
bits, so a -0.0 that turns into +0.0 fails too.
"""

import numpy as np
import pytest

from slowmo_sim import (
    BaseOptimizerConfig,
    NoiseModel,
    OptimizerBuffers,
    QuadraticProblem,
    Simulation,
    SlowMoConfig,
    WorkerStreams,
    build_quadratic,
    global_gradient,
    global_loss,
    global_loss_and_gradient,
    local_direction,
    make_worker_rngs,
    worker_stochastic_gradient,
)
from slowmo_sim.numerics import rank_sum

SHAPES = [(m, d) for m in (1, 3, 16) for d in (1, 2, 4, 10, 37)]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _signed_rows(rng, shape):
    rows = rng.standard_normal(shape)
    rows[rng.random(shape) < 0.1] = 0.0
    rows[rng.random(shape) < 0.1] = -0.0
    return rows


def _quadratic(m, d, sigma2=0.7):
    return build_quadratic(m=m, dimension=d, seed=5, l_min=0.5, l_max=2.0, heterogeneity=1.0,
                           noise=NoiseModel("additive-gaussian", sigma2=sigma2))


# --------------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("m, d", SHAPES + [(1000, 1), (9, 3), (256, 10)])
def test_rank_sum_is_the_rank_ordered_loop(m, d):
    rows = _signed_rows(np.random.default_rng(m * 100 + d), (m, d))
    rows[:, 0] = -0.0  # an all -0.0 column keeps its sign
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    assert _same_bits(rank_sum(rows), total)
    from_zeros = np.zeros(d)
    for row in rows:
        from_zeros += row
    assert _same_bits(rank_sum(rows, start=0.0), from_zeros)


# --------------------------------------------------------------------------- #
# the oracle
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("m, d", SHAPES)
def test_stacked_quadratic_oracle_matches_per_worker_calls(m, d):
    prob = _quadratic(m, d)
    rng = np.random.default_rng(d)
    streams = WorkerStreams(3, m, d, block=4)
    rngs = make_worker_rngs(3, m)
    for step in range(9):  # crosses two block refills
        workers = np.flatnonzero(rng.random(m) < 0.7) if step % 2 else np.arange(m)
        points = _signed_rows(rng, (len(workers), d))
        got = prob.stochastic_gradients(points, workers, streams)
        want = [worker_stochastic_gradient(prob, i, x, rngs[i])
                for i, x in zip(workers.tolist(), points)]
        assert _same_bits(got, np.reshape(want, (len(workers), d)))


def test_noiseless_stacked_oracle_draws_nothing():
    prob = _quadratic(3, 4, sigma2=0.0)
    streams = WorkerStreams(3, 3, 4, block=4)
    prob.stochastic_gradients(np.zeros((3, 4)), np.arange(3), streams)
    fresh = make_worker_rngs(3, 3)
    assert [g.random() for g in streams.generators] == [g.random() for g in fresh]


def test_default_oracle_loops_over_the_per_worker_call():
    # per-worker curvature keeps the default loop
    mats = [np.array([[1.0, 0.2], [0.2, 2.0]]), np.array([[3.0, 0.0], [0.0, 0.5]])]
    prob = QuadraticProblem(mats, [np.ones(2), -np.ones(2)],
                            NoiseModel("additive-gaussian", sigma2=0.3))
    points = np.array([[0.5, -1.0], [2.0, 0.25]])
    got = prob.stochastic_gradients(points, np.arange(2), WorkerStreams(1, 2, 2, block=3))
    rngs = make_worker_rngs(1, 2)
    want = [worker_stochastic_gradient(prob, i, points[i], rngs[i]) for i in range(2)]
    assert _same_bits(got, want)


@pytest.mark.parametrize("block", [1, 3, 12])
def test_block_noise_with_stall_cursors_uses_streams_like_single_draws(block):
    m, d = 5, 3
    rng = np.random.default_rng(block)
    streams = WorkerStreams(9, m, d, block=block)
    singles = make_worker_rngs(9, m)
    for _ in range(40):
        workers = np.flatnonzero(rng.random(m) < 0.6)  # the rest are stalled
        got = streams.normal_rows(workers)
        want = [singles[i].standard_normal(d) for i in workers.tolist()]
        assert _same_bits(got, np.reshape(want, (len(workers), d)))


# --------------------------------------------------------------------------- #
# directions
# --------------------------------------------------------------------------- #

def _reference_direction(config, h, v, step, g):
    """The per-worker rule on one worker's (h, v, l): returns (d, h, v, l)."""
    h, v = h.copy(), None if v is None else v.copy()
    if config.kind == "plain-sgd":
        return g, h, v, step
    if config.kind == "sgd-nesterov":
        bl = config.beta_local
        h *= bl
        h += g
        return bl * h + g, h, v, step + 1
    step += 1
    b1, b2 = config.beta1, config.beta2
    h *= b1
    h += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g**2
    h_hat = h / (1.0 - b1**step)
    v_hat = v / (1.0 - b2**step)
    return h_hat / (np.sqrt(v_hat) + config.eps), h, v, step


@pytest.mark.parametrize("kind", ["plain-sgd", "sgd-nesterov", "adam"])
@pytest.mark.parametrize("m, d", [(1, 1), (3, 4), (16, 37), (5, 12000)])  # adam: 2-row blocks
def test_stacked_directions_match_per_worker_rule(kind, m, d):
    config = BaseOptimizerConfig(kind=kind)
    rng = np.random.default_rng(m + d)
    bufs = OptimizerBuffers.fresh(config, m, d)
    bufs.h[:] = _signed_rows(rng, (m, d))
    if bufs.v is not None:
        bufs.v[:] = rng.random((m, d))
    bufs.step[:] = rng.integers(0, 40, size=m)  # adam rows at different l
    for step in range(6):
        rows = np.flatnonzero(rng.random(m) < 0.6) if step % 2 else slice(None)
        picked = np.arange(m)[rows]
        g = _signed_rows(rng, (len(picked), d))
        want = [_reference_direction(config, bufs.h[i], None if bufs.v is None else bufs.v[i],
                                     int(bufs.step[i]), g[r])
                for r, i in enumerate(picked.tolist())]
        before = bufs.copy()
        got = local_direction(config, bufs, g, rows)
        assert _same_bits(got, np.reshape([w[0] for w in want], g.shape))
        for (_, h, v, l), i in zip(want, picked.tolist()):
            assert _same_bits(bufs.h[i], h) and int(bufs.step[i]) == l
            if v is not None:
                assert _same_bits(bufs.v[i], v)
        idle = np.setdiff1d(np.arange(m), picked)
        assert _same_bits(bufs.h[idle], before.h[idle])
        assert np.array_equal(bufs.step[idle], before.step[idle])


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("m, d", SHAPES)
def test_stacked_loss_and_gradient_match_per_worker_sums(m, d):
    prob = _quadratic(m, d)
    x = _signed_rows(np.random.default_rng(d), (d,))
    loss, grad = global_loss_and_gradient(prob, x)
    assert loss == global_loss(prob, x)
    assert _same_bits(grad, global_gradient(prob, x))


@pytest.mark.parametrize("protocol", ["local", "sgp", "osgp"])
def test_stacked_consensus_matches_per_worker_loop(protocol):
    prob = _quadratic(5, 4)
    sim = Simulation(prob, BaseOptimizerConfig(), SlowMoConfig(tau=3), protocol=protocol,
                     gamma=0.05, T=2, seed=4, metric_cadence=100)
    for _ in range(4):
        sim.inner_round(0.05)
    xbar = sim.mean_x(sim.protocol.inflight_sums(4)[0])
    acc = 0.0
    for i in range(5):
        s = sim.states[i]
        diff = (s.z if sim.protocol.debias else s.x) - xbar
        acc += float(diff @ diff)
    assert sim.consensus_sq(xbar) == acc / 5
