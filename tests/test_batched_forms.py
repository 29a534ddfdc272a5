"""Every batched form of the stacked kernel against the per-worker loop it replaces.

The references are per-worker expressions coded apart from the package:
the oracle formulas and rank-ordered loops in ``references.py`` and the
direction rule below. Equality is exact: ``np.array_equal`` plus equal
sign bits, so a -0.0 that turns into +0.0 fails too.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from slowmo_sim import (
    BaseOptimizerConfig,
    DelayModel,
    ExperimentConfig,
    GammaSchedule,
    MetricsTrace,
    NoiseModel,
    NumericalAbort,
    OptimizerBuffers,
    ProblemConfig,
    QuadraticProblem,
    Simulation,
    SlowMoConfig,
    WorkerStreams,
    build_logistic,
    build_mlp,
    build_quadratic,
    global_gradient,
    global_loss,
    local_direction,
    make_worker_rngs,
    worker_stochastic_gradient,
)
from slowmo_sim import simkernel
from slowmo_sim.config import OsgpConfig, read_json
from slowmo_sim.errors import ConfigError
from slowmo_sim.numerics import group_losses_and_gradients, group_sums, row_dots
from slowmo_sim.simkernel import RECORD_FIELDS
from references import (
    global_loss_and_gradient_reference,
    reference_gradient,
    stochastic_gradients_reference,
    worker_losses_and_gradients,
)

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
    return build_quadratic(ProblemConfig(m=m, dimension=d, l_min=0.5, l_max=2.0, heterogeneity=1.0,
                                         noise=NoiseModel("additive-gaussian", sigma2=sigma2)),
                           seed=5)


# --------------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------------- #

def _rank_loop(rows, start):
    """``start`` plus the rows, added one at a time in ascending row order:
    from -0.0 this is ``total = rows[0].copy(); total += row; ...``."""
    total = np.full(rows.shape[1], start)
    for row in rows:
        total += row
    return total


@pytest.mark.parametrize("m, d", SHAPES + [(1000, 1), (9, 3), (256, 10)])
def test_rank_sum_is_the_rank_ordered_loop(m, d):
    # the one-group reduction
    rows = _signed_rows(np.random.default_rng(m * 100 + d), (m, d))
    rows[:, 0] = -0.0  # an all -0.0 column keeps its sign
    for start in (-0.0, 0.0):
        assert _same_bits(group_sums(rows, 1, start), [_rank_loop(rows, start)])


@pytest.mark.parametrize("m, d", SHAPES + [(9, 3), (256, 10)])
@pytest.mark.parametrize("groups", [1, 2, 5])
def test_group_sums_are_each_groups_rank_sum(groups, m, d):
    rows = _signed_rows(np.random.default_rng(m * 100 + d + groups), (groups * m, d))
    rows[:m, 0] = -0.0
    for start in (-0.0, 0.0):
        want = [_rank_loop(rows[g * m:(g + 1) * m], start) for g in range(groups)]
        assert _same_bits(group_sums(rows, groups, start), want)
    # a column of scalars from 0.0: each group's Python floats added left to right
    sums = group_sums(rows[:, :1], groups, 0.0)[:, 0].tolist()
    assert sums == [sum(rows[g * m:(g + 1) * m, 0].tolist()) for g in range(groups)]


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
        want = [reference_gradient(prob, i, x) for i, x in zip(workers.tolist(), points)]
        assert _same_bits(prob.gradients(points, workers), np.reshape(want, points.shape))
        got = worker_stochastic_gradient(prob, points, workers, streams)
        assert _same_bits(got, stochastic_gradients_reference(prob, points, workers, rngs))


def test_noiseless_stacked_oracle_draws_nothing():
    prob = _quadratic(3, 4, sigma2=0.0)
    streams = WorkerStreams(3, 3, 4, block=4)
    worker_stochastic_gradient(prob, np.zeros((3, 4)), np.arange(3), streams)
    fresh = make_worker_rngs(3, 3)
    assert [g.random() for g in streams.generators] == [g.random() for g in fresh]


def _oracle_cases():
    m, d = 5, 4
    gauss = NoiseModel("additive-gaussian", sigma2=0.3)
    minibatch = NoiseModel("minibatch", batch_size=3)
    logistic = ProblemConfig(kind="logistic", m=m, dimension=d, samples_per_worker=9,
                             noise=gauss, heterogeneity=0.5)
    mlp = ProblemConfig(kind="mlp", m=m, input_dim=3, hidden=2, samples_per_worker=9,
                        noise=gauss, heterogeneity=0.5)
    return {
        "quadratic": _quadratic(m, d),
        "logistic": build_logistic(logistic, seed=2),
        "logistic-minibatch": build_logistic(replace(logistic, noise=minibatch), seed=2),
        "mlp": build_mlp(mlp, seed=2),
        "mlp-minibatch": build_mlp(replace(mlp, noise=minibatch), seed=2),
        # one hidden unit: the bias gradient sums a single column
        "mlp-one-unit-minibatch": build_mlp(replace(mlp, hidden=1, samples_per_worker=20,
                                                    noise=NoiseModel("minibatch", batch_size=12)),
                                            seed=2),
    }


def _check_stacked_oracle(prob, subsets, rng, name):
    """Exact and stochastic stacked oracles against the per-worker references,
    bit for bit, on each subset of workers in turn."""
    m = prob.num_workers
    streams = WorkerStreams(1, m, prob.dimension, block=3)
    rngs = make_worker_rngs(1, m)
    for workers in subsets:
        points = _signed_rows(rng, (len(workers), prob.dimension))
        want = [reference_gradient(prob, i, x) for i, x in zip(workers.tolist(), points)]
        assert _same_bits(prob.gradients(points, workers), np.reshape(want, points.shape)), name
        got = worker_stochastic_gradient(prob, points, workers, streams)
        assert _same_bits(got, stochastic_gradients_reference(prob, points, workers, rngs)), name


def test_default_oracle_loops_over_the_per_worker_call():
    # every problem kind: the stacked exact oracle is the per-worker reference
    # loop, bit for bit; additive noise comes from the block draws of each
    # worker's stream and minibatch rows from its generator; on every worker,
    # stalled subsets, no worker (giving (0, d)) and one row
    rng = np.random.default_rng(8)
    for name, prob in _oracle_cases().items():
        m = prob.num_workers
        # stalled workers fall behind, so refills come apart
        subsets = [np.sort(rng.choice(m, size=rng.integers(1, m), replace=False)) if step % 2
                   else np.arange(m) for step in range(9)]
        subsets += [np.flatnonzero(np.zeros(m, bool)), np.array([m - 1]), np.array([1])]
        _check_stacked_oracle(prob, subsets, rng, name)


def test_stacked_logistic_oracle_at_the_benchmark_shape():
    # m = 8 workers, minibatches of 8 rows, d = 20000
    prob = build_logistic(ProblemConfig(kind="logistic", m=8, dimension=20000,
                                        samples_per_worker=16, heterogeneity=0.6,
                                        noise=NoiseModel("minibatch", batch_size=8)), seed=1)
    rng = np.random.default_rng(3)
    subsets = [np.arange(8), np.array([0, 3, 4, 7]), np.array([5])]
    _check_stacked_oracle(prob, subsets, rng, "logistic-d20000")


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
        before_h, before_step = bufs.h.copy(), bufs.step.copy()
        got = local_direction(config, bufs, g, rows)
        assert _same_bits(got, np.reshape([w[0] for w in want], g.shape))
        for (_, h, v, l), i in zip(want, picked.tolist()):
            assert _same_bits(bufs.h[i], h) and int(bufs.step[i]) == l
            if v is not None:
                assert _same_bits(bufs.v[i], v)
        idle = np.setdiff1d(np.arange(m), picked)
        assert _same_bits(bufs.h[idle], before_h[idle])
        assert np.array_equal(bufs.step[idle], before_step[idle])


# --------------------------------------------------------------------------- #
# metrics
# --------------------------------------------------------------------------- #

@pytest.mark.parametrize("m, d", SHAPES)
def test_stacked_loss_and_gradient_match_per_worker_sums(m, d):
    prob = _quadratic(m, d)
    x = _signed_rows(np.random.default_rng(d), (d,))
    losses, grads = prob.losses_and_gradients(x[None], np.arange(m))
    want_losses, want_grads = worker_losses_and_gradients(prob, x)
    assert losses.tolist() == want_losses
    assert _same_bits(grads, want_grads)
    want_loss, want_grad = global_loss_and_gradient_reference(prob, x)
    assert global_loss(prob, x) == want_loss
    assert _same_bits(global_gradient(prob, x), want_grad)


@pytest.mark.parametrize("protocol", ["local", "sgp", "osgp"])
def test_stacked_consensus_matches_per_worker_loop(protocol):
    prob = _quadratic(5, 4)
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(), slowmo=SlowMoConfig(tau=3), protocol=protocol,
        gamma=GammaSchedule(value=0.05), T=2, seed=4, metric_cadence=100))
    for _ in range(4):
        sim.inner_round(0.05)
    ((xbar,),) = sim.mean_x(sim.states.x[None], sim.protocol.inflight_sums(4)[0][None])
    rows = sim.states.z if sim.protocol.debias else sim.states.x
    acc = 0.0
    for i in range(5):
        diff = rows[i] - xbar
        acc += float(diff @ diff)
    assert sim.consensus_sq(rows[None], xbar[None, None]).tolist() == [[acc / 5]]


def test_logistic_log_bias_is_the_per_worker_gradient_loop():
    # ||grad f(x_bar) - (1/m) sum_i E[d_i]||^2 with E[d_i] = bl^2 h_i + (1 + bl) grad f_i(z_i)
    prob = build_logistic(ProblemConfig(kind="logistic", m=5, dimension=4, samples_per_worker=9,
                                        heterogeneity=0.5,
                                        noise=NoiseModel("additive-gaussian", sigma2=0.3)), seed=2)
    bl = 0.8
    sim = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="sgd-nesterov", beta_local=bl), slowmo=SlowMoConfig(tau=3),
        protocol="sgp", gamma=GammaSchedule(value=0.05), T=3, seed=4, log_bias=True))
    want = []
    record = sim.record_metrics

    def record_with_reference(gamma):
        record(gamma)
        total = np.zeros(prob.dimension)
        for i, (z, h) in enumerate(zip(sim.points(), sim.states.buffers.h)):
            total += bl * bl * h + (1.0 + bl) * reference_gradient(prob, i, z)
        inflight_x = sim.protocol.inflight_sums(prob.dimension)[0]
        xbar = sim.mean_x(sim.states.x[None], inflight_x[None])[0, 0]  # the point just recorded
        diff = global_loss_and_gradient_reference(prob, xbar)[1] - total / prob.num_workers
        want.append(float(diff @ diff))

    sim.record_metrics = record_with_reference
    got = [rec["bias_sq"] for rec in sim.run().records]
    assert len(got) == 9 and got == want


# --------------------------------------------------------------------------- #
# the row-blocked stacked gemv of a shared curvature
# --------------------------------------------------------------------------- #

# one block (d < 64), block edges, a remainder block of 32-63 rows, wide d
BLOCKED_DIMS = (31, 32, 33, 63, 64, 65, 95, 96, 97, 257, 1001, 2003)
# From d = 97 on, OpenBLAS may split a d x d gemv across its threads, and
# then the per-row reference A @ r itself can depend on the thread count:
# those cases run in a subprocess with one BLAS thread.
THREADED_FROM = 97
_ROOT = Path(__file__).resolve().parent.parent


def _shared_quadratic(m, d, rng, sigma2=0.0):
    """A shared symmetric A built without BLAS, so it has the same bits at
    any BLAS thread count (build_quadratic's QR and product do not)."""
    g = rng.standard_normal((d, d))
    a = (g + g.T) * (0.25 / np.sqrt(d))
    a[np.diag_indices(d)] += 2.0
    centers = _signed_rows(rng, (m, d))
    return QuadraticProblem(a, list(centers), NoiseModel("additive-gaussian", sigma2=sigma2))


def check_blocked_gemv(d):
    """The blocked gemv, the oracle and the metric evaluation against per-row A @ r."""
    rng = np.random.default_rng(d)
    for m in (1, 3, 16):
        prob = _shared_quadratic(m, d, rng)
        a, centers = prob.a, prob.centers
        rows = _signed_rows(rng, (m, d))
        assert _same_bits(prob._stacked_matvec(rows, np.arange(m)), [a @ r for r in rows]), (m, d)
        if m == 3 and d < THREADED_FROM:  # two or three row blocks from d = 64
            check_stacked_curvatures([prob] + [_shared_quadratic(m, d, rng) for _ in range(2)],
                                     rng)
        streams = WorkerStreams(3, m, d, block=4)
        for workers in (np.arange(m), np.arange(0, m, 2), np.array([m - 1])):
            points = _signed_rows(rng, (len(workers), d))
            got = worker_stochastic_gradient(prob, points, workers, streams)
            want = [a @ (x - centers[i]) for i, x in zip(workers.tolist(), points)]
            assert _same_bits(got, want), (m, d, workers)
        x = _signed_rows(rng, (d,))
        losses, grads = prob.losses_and_gradients(x[None], np.arange(m))
        want_losses, want_grads = worker_losses_and_gradients(prob, x)
        assert losses.tolist() == want_losses, (m, d)
        assert _same_bits(grads, want_grads), (m, d)
        assert _same_bits(grads, [a @ (x - c) for c in centers]), (m, d)


def _stack(problems):
    """Quadratics of one shape as one problem of a group each, one A per group."""
    return QuadraticProblem(np.stack([p.a for p in problems]),
                            np.concatenate([p.centers for p in problems]), problems[0].noise)


def check_stacked_curvatures(problems, rng):
    """Three quadratics with their own A, stacked: every product and loss of
    a row is its own problem's, for every row and for a subset (one A per
    group then)."""
    m, d = problems[0].num_workers, problems[0].dimension
    stacked = _stack(problems)
    assert stacked.a.shape == (3, d, d)
    everyone = np.arange(3 * m)
    points = _signed_rows(rng, (3 * m, d))
    for workers in (everyone, everyone[::2], everyone[m:]):
        pts = points[workers]
        want = [problems[i // m].a @ (x - stacked.centers[i]) for i, x in zip(workers, pts)]
        assert _same_bits(stacked.gradients(pts, workers), want), (m, d, workers)
        losses, grads = stacked.losses_and_gradients(pts, workers)
        assert _same_bits(grads, want), (m, d, workers)
        for g, prob in enumerate(problems):
            mine = workers // m == g
            alone = prob.losses_and_gradients(pts[mine], workers[mine] - g * m)
            assert losses[mine].tolist() == alone[0].tolist(), (m, d, workers)


def _run_python(code, blas_threads):
    """Run ``code`` in a fresh interpreter with OpenBLAS pinned; return its stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join([str(_ROOT / "src"), str(_ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("d", [d for d in BLOCKED_DIMS if d < THREADED_FROM])
def test_blocked_gemv_is_the_per_row_gemv(d):
    check_blocked_gemv(d)


def test_blocked_gemv_is_the_per_row_gemv_at_one_blas_thread():
    dims = [d for d in BLOCKED_DIMS if d >= THREADED_FROM]
    _run_python(f"import test_batched_forms as t\nfor d in {dims}: t.check_blocked_gemv(d)", 1)


_THREAD_RUN = """
import numpy as np
import test_batched_forms as t
from slowmo_sim import (BaseOptimizerConfig, ExperimentConfig, GammaSchedule, Simulation,
                        SlowMoConfig)
cfg = ExperimentConfig(
    base=BaseOptimizerConfig(kind="sgd-nesterov"), slowmo=SlowMoConfig(tau=3, beta=0.5),
    protocol="sgp", gamma=GammaSchedule(value=0.05), T=1, seed=2)
prob = t._shared_quadratic(4, 1500, np.random.default_rng(11), sigma2=0.5)
print(Simulation(prob, cfg).run().trace_hash())
"""


def test_shared_curvature_trajectory_does_not_depend_on_blas_threads():
    # at d = 1500 a whole-matrix gemv gives different bits at 1 and 2 threads
    hashes = {_run_python(_THREAD_RUN, threads) for threads in (1, 2)}
    assert len(hashes) == 1, hashes


# --------------------------------------------------------------------------- #
# the batched metric evaluation and the columnar trace
# --------------------------------------------------------------------------- #

METRIC_KINDS = ("quadratic", "shared-a", "logistic", "mlp")


def _metric_problem(kind, groups, first=4):
    """A problem of ``groups`` groups of three workers, built from seeds
    ``first``, ``first + 1``, ...: one A per group (one A when there is one
    group), one A for every group, logistic, MLP."""
    seeds = list(range(first, first + groups))
    gauss = NoiseModel("additive-gaussian", sigma2=0.3)
    if kind == "shared-a":
        return _quadratic(3 * groups, 5)
    p = {
        "quadratic": ProblemConfig(m=3, dimension=5, l_min=0.5, l_max=2.0, heterogeneity=1.0,
                                   noise=gauss),
        "logistic": ProblemConfig(kind="logistic", m=3, dimension=5, samples_per_worker=6,
                                  heterogeneity=0.5, noise=gauss),
        "mlp": ProblemConfig(kind="mlp", m=3, input_dim=3, hidden=2, samples_per_worker=6,
                             heterogeneity=0.5, noise=gauss),
    }[kind]
    build = {"logistic": build_logistic, "mlp": build_mlp}.get(kind, build_quadratic)
    return build(p, seeds)


@pytest.mark.parametrize("kind", METRIC_KINDS)
@pytest.mark.parametrize("groups", [1, 3])
@pytest.mark.parametrize("records", [1, 2, 7])
def test_batched_metric_evaluation_is_one_call_per_record(kind, groups, records):
    # and gradients over a leading axis, with every worker: the record axis
    # log_bias reads (no idx) and estimate_V's sample axis (an (R, n, b) idx)
    prob = _metric_problem(kind, groups)
    if kind == "quadratic":
        assert prob.a.ndim == (2 if groups == 1 else 3)
    rng = np.random.default_rng(records)
    points = _signed_rows(rng, (records, groups, prob.dimension))
    losses, grads = group_losses_and_gradients(prob, points)
    assert losses.shape == (records, groups) and grads.shape == points.shape
    workers = np.arange(prob.num_workers)
    rows = points.repeat(prob.num_workers // groups, axis=1)
    row_losses, row_grads = prob.losses_and_gradients(rows, workers)
    idx = rng.integers(0, max(prob.shard_size, 1), (records, prob.num_workers, 2))
    axis_grads = prob.gradients(rows, workers)
    idx_grads = prob.gradients(rows, workers, idx) if prob.shard_size else None
    for r in range(records):
        want_losses, want_grads = group_losses_and_gradients(prob, points[r])
        assert _same_bits(losses[r], want_losses) and _same_bits(grads[r], want_grads), r
        want_losses, want_grads = prob.losses_and_gradients(rows[r], workers)
        assert _same_bits(row_losses[r], want_losses) and _same_bits(row_grads[r], want_grads)
        assert _same_bits(axis_grads[r], prob.gradients(rows[r], workers))
        if prob.shard_size:
            assert _same_bits(idx_grads[r], prob.gradients(rows[r], workers, idx[r]))


def _metric_sim(prob, seeds, **kw):
    """Ten records a group (blocks of 4, 4 and 2) with log_bias, one group
    per seed; ``kw`` overrides the config."""
    cfg = dict(base=BaseOptimizerConfig(kind="sgd-nesterov"), slowmo=SlowMoConfig(tau=4),
               protocol="sgp", gamma=GammaSchedule(value=0.05), total_steps=10,
               log_bias=True)
    return Simulation(prob, ExperimentConfig(**{**cfg, **kw}), seeds=seeds)


def _batch_of(records, prob):
    """The RECORD_BATCH_VALUES that makes batches of ``records`` records."""
    return records * prob.num_workers * prob.dimension * max(prob.shard_size, 1)


@pytest.mark.parametrize("kind", METRIC_KINDS)
@pytest.mark.parametrize("groups", [1, 3])
def test_record_batches_are_per_record_evaluations(kind, groups, monkeypatch):
    # batches of one record are the evaluation of each round alone; batches
    # of three do not divide the 10 records (11 points with the summary's)
    prob = _metric_problem(kind, groups)
    outcomes = []
    for batch in (1, 3, None):
        if batch:
            monkeypatch.setattr(simkernel, "RECORD_BATCH_VALUES", _batch_of(batch, prob))
        else:
            monkeypatch.undo()
        outcomes.append(_metric_sim(prob, list(range(groups))).run_groups())
    for traces in zip(*outcomes):
        assert len(traces[0].records) == 10
        assert len({(t.trace_hash(), json.dumps(t.summary)) for t in traces}) == 1


def _evaluated_at_the_round(sim):
    """Each group's (loss, grad_norm_sq, bias_sq) evaluated at the round, as
    a record once evaluated its own: bias_sq is ||grad f(x_bar) - (1/m) sum_i
    E[d_i]||^2, None where a worker of the group stalls or the base is Adam."""
    xbar = sim.mean_x(sim.states.x[None], sim.protocol.inflight_sums(sim.d)[0][None])[0]
    losses, gbar = group_losses_and_gradients(sim.problem, xbar)
    full = np.bincount(sim.protocol.active_workers() // sim.m, minlength=sim.groups) == sim.m
    expected = sim.problem.gradients(sim.points(), np.arange(len(sim.states)))
    if sim.cfg.base.kind == "sgd-nesterov":
        bl = sim.cfg.base.beta_local
        expected = bl * bl * sim.states.buffers.h + (1.0 + bl) * expected
    diff = gbar - group_sums(expected, sim.groups, 0.0) / sim.m
    gaps = [gap if ok and sim.cfg.base.kind != "adam" else None
            for gap, ok in zip(row_dots(diff, diff).tolist(), full)]
    return list(zip(losses.tolist(), row_dots(gbar, gbar).tolist(), gaps))


@pytest.mark.parametrize("base", ["plain-sgd", "sgd-nesterov", "adam"])
@pytest.mark.parametrize("protocol", ["sgp", "osgp"])
@pytest.mark.parametrize("groups", [1, 3])
def test_records_are_evaluated_as_at_their_round(base, protocol, groups, monkeypatch):
    prob = _metric_problem("logistic", groups)
    monkeypatch.setattr(simkernel, "RECORD_BATCH_VALUES", _batch_of(3, prob))
    osgp = OsgpConfig(staleness=1, delay=DelayModel(kind="geometric", p=0.3, cap=4))
    sim = _metric_sim(prob, list(range(groups)), base=BaseOptimizerConfig(kind=base),
                      protocol=protocol, osgp=osgp)
    want, record = [], sim.record_metrics

    def record_with_reference(gamma):
        record(gamma)
        want.append(_evaluated_at_the_round(sim))

    sim.record_metrics = record_with_reference
    fields = ("loss", "grad_norm_sq", "bias_sq")
    traces = sim.run_groups()
    got = [[tuple(r[f] for f in fields) for r in trace.records] for trace in traces]
    assert got == [list(col) for col in zip(*want)]
    # the summary: the same evaluation after the last round
    finals = _evaluated_at_the_round(sim)
    assert [t.summary["final_loss"] for t in traces] == [f[0] for f in finals]
    assert [t.summary["final_grad_norm_sq"] for t in traces] == [f[1] for f in finals]
    values = {type(v[2]) for trace in got for v in trace}
    assert values == ({type(None)} if base == "adam" else
                      {float, type(None)} if protocol == "osgp" else {float})
    # a column without None is float64, so the bound checkers read it as it is
    assert {t.columns["bias_sq"].dtype for t in traces} == {np.dtype(
        float if values == {float} else object)}


def _observed_at_the_round(sim):
    """Each group's (x_bar, weight mass, consensus) from this round's state
    alone, as per-group loops: x_bar its workers' x added in rank order plus
    its in-flight payload sum, over m; the mass its weights plus its weight
    in flight; the consensus its points' squared distances from x_bar."""
    m, (inflight_x, inflight_w) = sim.m, sim.protocol.inflight_sums(sim.d)
    points = sim.states.z if sim.protocol.debias else sim.states.x
    observed = []
    for g in range(sim.groups):
        rows = slice(g * m, (g + 1) * m)
        xbar = _rank_loop(sim.states.x[rows], -0.0)
        xbar += inflight_x[g]
        xbar = xbar / m
        mass = sum(sim.states.w[rows].tolist()) + float(inflight_w[g])
        consensus = 0.0
        for z in points[rows]:
            consensus += float((z - xbar) @ (z - xbar))
        observed.append((xbar, mass, consensus / m))
    return observed


OBSERVED_RUNS = {  # protocol, and the base / slowmo / osgp settings it runs with
    "local": ("local", {}),
    "allreduce": ("allreduce", {}),
    "dpsgd": ("dpsgd", {}),
    "sgp": ("sgp", {}),
    "osgp": ("osgp", {"osgp": OsgpConfig(staleness=1, delay=DelayModel(kind="geometric", p=0.3,
                                                                         cap=4))}),
    # double averaging: local steps, momentum buffers averaged at each block start
    "double-average": ("local", {"base": BaseOptimizerConfig(kind="sgd-nesterov",
                                                             buffer_strategy="average")}),
    "noaverage": ("osgp", {"slowmo": SlowMoConfig(tau=4, noaverage=True),
                           "osgp": OsgpConfig(staleness=3, delay=DelayModel(kind="geometric",
                                                                            p=0.5, cap=3))}),
}


@pytest.mark.parametrize("run", OBSERVED_RUNS)
@pytest.mark.parametrize("groups", [1, 3])
@pytest.mark.parametrize("cadence", [1, 7])
def test_batched_observation_is_the_per_round_one(run, groups, cadence, monkeypatch):
    # eight workers a group (dpsgd pairs them); 23 steps in blocks of 4, and
    # batches of 5 records split blocks and leave the summary's observation
    # in a short last batch
    prob = build_quadratic(ProblemConfig(m=8, dimension=5, l_min=0.5, l_max=2.0,
                                         heterogeneity=1.0, noise=NoiseModel(
                                             "additive-gaussian", sigma2=0.3)),
                           list(range(groups)))
    monkeypatch.setattr(simkernel, "RECORD_BATCH_VALUES", 5 * prob.num_workers * prob.dimension)
    protocol, kw = OBSERVED_RUNS[run]
    sim = _metric_sim(prob, list(range(groups)), protocol=protocol, total_steps=23,
                      metric_cadence=cadence, **kw)
    want, record = [], sim.record_metrics

    def record_with_reference(gamma):
        if sim.clock.round % cadence == 0:
            want.append(_observed_at_the_round(sim))
        record(gamma)

    sim.record_metrics = record_with_reference
    traces = sim.run_groups()
    finals = _observed_at_the_round(sim)  # after the run's last round (and noaverage drain)
    losses, grads = group_losses_and_gradients(prob, np.stack([f[0] for f in finals]))
    assert len(want) == len(range(0, 23, cadence))
    for g, trace in enumerate(traces):
        xbar, mass, consensus = zip(*(observed[g] for observed in want))
        assert _same_bits(trace.x_bar, np.stack(xbar))
        assert trace.columns["weight_mass"].tolist() == list(mass)
        assert trace.columns["consensus_sq"].tolist() == list(consensus)
        assert trace.summary["final_consensus_sq"] == finals[g][2]
        assert trace.summary["final_loss"] == losses[g]
        assert trace.summary["final_grad_norm_sq"] == float(grads[g] @ grads[g])


def _columns(records):
    return {name: np.array([r[name] for r in records],
                           dtype=object if name == "bias_sq" else None)
            for name in RECORD_FIELDS}


def test_columnar_jsonl_spells_values_as_json_dumps():
    odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e22, 0.1, 2.0]
    records = [dict(zip(RECORD_FIELDS, (i // 3, i % 3, i * 7 + 2**40, odd[i], odd[-1 - i],
                                        odd[(i + 3) % 8], odd[(i + 5) % 8], 4.0,
                                        None if i % 3 == 0 else odd[(i + 1) % 8])))
               for i in range(len(odd))]
    trace = MetricsTrace(columns=_columns(records))
    text = trace.to_jsonl()
    assert text == "\n".join(json.dumps(r) for r in records)
    assert text == "\n".join(json.dumps(r) for r in trace.records)
    assert [type(r["t"]) for r in trace.records] == [int] * len(odd)
    assert MetricsTrace(columns=_columns([])).to_jsonl() == ""
    assert MetricsTrace.from_jsonl(text + "\n").to_jsonl() == text
    with pytest.raises(TypeError, match="not both"):
        MetricsTrace(records=trace.records, columns=trace.columns)


@pytest.mark.parametrize("values", [
    [0.05] * 4, [5e-324] * 4, [0.0] * 4, [-0.0] * 4, [-0.0, 0.0, -0.0, -0.0],
    [0.0, 0.0, 0.0, -0.0], [math.nan] * 4, [math.nan, -math.nan, math.nan, math.nan],
    [math.inf] * 4, [-math.inf] * 4, [math.inf, -math.inf, math.inf, math.inf],
])
@pytest.mark.parametrize("n", [1, 4])
def test_a_column_of_one_bit_pattern_is_spelled_as_json_dumps(values, n):
    # such a float column is written as one json.dumps of its first value
    records = [dict(zip(RECORD_FIELDS, (0, i, i, values[i], values[-1 - i], 1.0, values[i], 16.0,
                                        values[i]))) for i in range(n)]
    trace = MetricsTrace(columns=_columns(records))
    assert trace.to_jsonl() == "\n".join(json.dumps(r) for r in records)


@pytest.mark.parametrize("text", [
    "{}, {}",
    "{}\n{}, {}",
    # a line of two values and a value over two lines: as many values as lines
    '{}, {"a": [{}\n{}]}',
    '{}, {"a": 1\n"b": 2}',
    '{"a": "}"\n"b": "{"}\n{}, {}',
    " {} {}",
])
def test_trace_lines_that_are_not_one_json_value_are_refused(text, tmp_path):
    with pytest.raises(json.JSONDecodeError):
        MetricsTrace.from_jsonl(text)
    path = tmp_path / "trace.jsonl"
    path.write_text(text)
    with pytest.raises(ConfigError, match="invalid JSON in trace"):
        read_json(str(path), "trace", MetricsTrace.from_jsonl)


def _poisoned(sim, group, at_round):
    """Make worker 1 of ``group`` non-finite after round ``at_round``."""
    apply_round = sim.protocol.apply_round

    def poisoning(states, half, round_index):
        apply_round(states, half, round_index)
        if round_index == at_round:
            states.x[group * sim.m + 1, 2] = math.inf

    sim.protocol.apply_round = poisoning
    return sim


def _assert_solo_traces(kind, outcomes, aborted):
    """Each group's outcome is its seed's run alone (trace hash, summary,
    x_bar); the groups in ``aborted`` abort after round 5 with 6 records."""
    assert [isinstance(o, NumericalAbort) for o in outcomes] == [
        g in aborted for g in range(len(outcomes))]
    for g, outcome in enumerate(outcomes):
        solo = _metric_sim(_metric_problem(kind, 1, first=4 + g), [g])
        if g in aborted:
            assert outcome.diagnostic == {"t": 1, "k": 2, "round": 6, "worker": 1}
            with pytest.raises(NumericalAbort) as exc:
                _poisoned(solo, 0, 5).run()
            alone, trace = exc.value.trace, outcome.trace
            assert len(trace) == 6
        else:
            alone, trace = solo.run(), outcome
        assert trace.trace_hash() == alone.trace_hash()
        assert json.dumps(trace.summary) == json.dumps(alone.summary)
        assert _same_bits(trace.x_bar, alone.x_bar)


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_a_group_that_aborts_mid_block_has_its_solo_trace(kind, monkeypatch):
    # round 5 is inside the second block of 4; snapshot batches are 4 records
    # for both kinds (the logistic budget counts its 6 shard rows), so the
    # abort reduces the 2 snapshots of a batch not full, and the end of the
    # run the rest from there
    stacked = _metric_problem(kind, 3)
    monkeypatch.setattr(simkernel, "RECORD_BATCH_VALUES", _batch_of(4, stacked))
    sim = _poisoned(_metric_sim(stacked, [0, 1, 2]), 1, 5)
    reduce, reduced = sim._reduce, []

    def logged_reduce():
        reduced.append((sim.clock.round, len(sim._snapshots)))
        reduce()

    sim._reduce = logged_reduce
    outcomes = sim.run_groups()
    assert sim._batch == 4
    assert [n for r, n in reduced if r == 6][0] == 2
    _assert_solo_traces(kind, outcomes, {1})


@pytest.mark.parametrize("kind", ["quadratic", "logistic"])
def test_two_groups_that_abort_in_one_round_have_their_solo_traces(kind, monkeypatch):
    # groups 0 and 2 turn non-finite in round 5, mid-block: the round builds
    # the traces once for both, and the run's end once more for group 1
    stacked = _metric_problem(kind, 3)
    monkeypatch.setattr(simkernel, "RECORD_BATCH_VALUES", _batch_of(4, stacked))
    sim = _poisoned(_poisoned(_metric_sim(stacked, [0, 1, 2]), 0, 5), 2, 5)
    traces, built = sim._traces, []

    def logged_traces():
        built.append(sim.clock.round)
        return traces()

    sim._traces = logged_traces
    outcomes = sim.run_groups()
    assert built == [6, 10]
    _assert_solo_traces(kind, outcomes, {0, 2})
