"""RNG streams, noise models, and problem oracles."""

import copy
import hashlib
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    ConfigError,
    LogisticProblem,
    MlpProblem,
    NoiseModel,
    ProblemConfig,
    QuadraticProblem,
    WorkerStreams,
    build_logistic,
    build_mlp,
    build_quadratic,
    global_gradient,
    global_loss,
    make_worker_rngs,
    rng_stream,
    worker_stochastic_gradient,
)
from slowmo_sim.numerics import STREAM_DATA, STREAM_NOISE, philox_keys, rng_streams
from references import (
    global_loss_and_gradient_reference,
    reference_loss_and_gradient,
    worker_losses_and_gradients,
)


def _gradient(prob, i, x):
    """Worker i's exact gradient at x: the stacked oracle on one row."""
    return prob.gradients(x[None], np.array([i]))[0]


def _draw(prob, i, x, streams):
    """Worker i's next stochastic gradient at x from the kernel's oracle."""
    return worker_stochastic_gradient(prob, x[None], np.array([i]), streams)[0]


def _streams(seed, prob):
    return WorkerStreams(seed, prob.num_workers, prob.dimension, block=256)


# --------------------------------------------------------------------------- #
# RNG streams
# --------------------------------------------------------------------------- #

def test_rng_stream_reproducible_and_namespaced():
    a = rng_stream(123, STREAM_NOISE, 4).standard_normal(8)
    b = rng_stream(123, STREAM_NOISE, 4).standard_normal(8)
    assert np.array_equal(a, b)
    c = rng_stream(123, STREAM_DATA, 4).standard_normal(8)
    d = rng_stream(124, STREAM_NOISE, 4).standard_normal(8)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_worker_rngs_are_distinct_streams():
    rngs = make_worker_rngs(0, 6)
    draws = [r.standard_normal(4) for r in rngs]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(draws[i], draws[j])
    # and the whole family is reproducible
    again = [r.standard_normal(4) for r in make_worker_rngs(0, 6)]
    assert all(np.array_equal(a, b) for a, b in zip(draws, again))


def _seed_sequence_generator(seed, namespace, index):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(namespace, index))))


@given(st.integers(0, 2**256), st.one_of(st.integers(0, 3), st.just(2**40 + 7)),
       st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=6))
@example(0, 0, [0, 2**32 - 1])  # one seed word
@example(2**32, 1, [5])  # two words
@example(2**128 - 1, 2, [2**31])  # four words: the pool, unpadded
@example(2**128, 3, [0, 1])  # five: the pool mixes in the fifth
@example(2**256, 2**40 + 7, [7])  # nine seed words and a two-word namespace
@settings(max_examples=200, deadline=None)
def test_philox_keys_are_the_seed_sequence_keys(seed, namespace, indices):
    want = [np.random.SeedSequence(seed, spawn_key=(namespace, i)).generate_state(2, np.uint64)
            for i in indices]
    got = philox_keys(seed, namespace, indices)
    assert got.dtype == np.uint64 and got.shape == (len(indices), 2)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed, namespace, indices", [
    (1, 0, [2**32]), (1, 0, [0, 2**64]), (1, 0, [-1]), (-1, 0, [0]), (1, -2, [0]),
])
def test_philox_keys_refuse_what_seed_sequence_would_hash_otherwise(seed, namespace, indices):
    with pytest.raises(ValueError, match="an index one word"):
        philox_keys(seed, namespace, indices)


def test_streams_draw_what_seed_sequence_streams_draw_interleaved():
    rngs = make_worker_rngs([5, 2**70], 3) + list(rng_streams(11, STREAM_DATA, [0, 1000]))
    refs = ([_seed_sequence_generator(s, STREAM_NOISE, i) for s in (5, 2**70) for i in range(3)]
            + [_seed_sequence_generator(11, STREAM_DATA, i) for i in (0, 1000)])
    draws = (lambda g, k: g.standard_normal(k % 5 + 1), lambda g, k: g.random(2),
             lambda g, k: g.choice(50, size=4, replace=False),  # minibatch rows
             lambda g, k: g.geometric(0.5, size=3))  # OSGP delays
    order = np.random.default_rng(0).integers(0, len(rngs), size=60)
    for k, r in enumerate(order.tolist()):
        draw = draws[k % 4]
        assert np.array_equal(draw(rngs[r], k), draw(refs[r], k))


def test_streams_survive_deepcopy_and_pickle():
    rng = rng_stream(9, STREAM_NOISE, 3)
    rng.standard_normal(3)
    ref = _seed_sequence_generator(9, STREAM_NOISE, 3)
    ref.standard_normal(3)
    for twin in (copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))):
        assert np.array_equal(twin.standard_normal(5), copy.deepcopy(ref).standard_normal(5))
    assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))


# Made with np.random.SeedSequence streams. A numpy whose SeedSequence or
# Philox draws other values fails here by name, before every golden hash moves.
STREAM_GRID_SHA256 = "ab41b96cf9e3189ff9d1b3734ea91034a148fe980cdb45af19fba4b02aff3906"


def test_first_draws_of_a_stream_grid_are_pinned():
    digest = hashlib.sha256()
    for seed in (0, 1, 2**32 + 5, 2**130 + 3):
        for namespace in (STREAM_DATA, STREAM_NOISE, 2, 3):
            for index in (0, 1, 1000, 2**32 - 1):
                rng = rng_stream(seed, namespace, index)
                digest.update(rng.standard_normal(2).tobytes() + rng.random(2).tobytes())
        for rng in make_worker_rngs(seed, 5):
            digest.update(rng.standard_normal(3).tobytes())
    assert digest.hexdigest() == STREAM_GRID_SHA256


# --------------------------------------------------------------------------- #
# noise models
# --------------------------------------------------------------------------- #

def test_noise_model_validation():
    with pytest.raises(ConfigError):
        NoiseModel("white")
    with pytest.raises(ConfigError):
        NoiseModel("additive-gaussian", sigma2=-1.0)
    with pytest.raises(ConfigError):
        NoiseModel("minibatch", batch_size=0)


def test_additive_noise_power(identity_quadratic):
    # E ||g - grad||^2 = sigma^2 regardless of dimension
    prob = identity_quadratic
    x = np.array([0.3, -0.2, 0.1, 0.5])
    exact = _gradient(prob, 0, x)
    streams = _streams(0, prob)
    draws = 20_000
    sq = np.empty(draws)
    for s in range(draws):
        g = _draw(prob, 0, x, streams)
        sq[s] = np.sum((g - exact) ** 2)
    assert abs(sq.mean() - 1.0) < 0.05


def test_additive_noise_unbiased(identity_quadratic):
    prob = identity_quadratic
    x = np.array([0.3, -0.2, 0.1, 0.5])
    exact = _gradient(prob, 1, x)
    streams = _streams(1, prob)
    draws = 50_000
    acc = np.zeros(4)
    for _ in range(draws):
        acc += _draw(prob, 1, x, streams)
    mean = acc / draws
    se = math.sqrt(1.0 / 4 / draws)  # per-coordinate variance sigma^2 / d
    assert np.all(np.abs(mean - exact) < 4 * se)


def test_minibatch_full_batch_is_exact(small_logistic):
    prob = build_logistic(ProblemConfig(kind="logistic", m=2, dimension=3, samples_per_worker=12,
                                        noise=NoiseModel("minibatch", batch_size=12),
                                        heterogeneity=0.4), seed=3)
    x = np.array([0.1, -0.4, 0.2])
    g = _draw(prob, 0, x, _streams(0, prob))
    assert np.array_equal(g, _gradient(prob, 0, x))


def test_minibatch_unbiased(small_logistic):
    prob = small_logistic
    x = np.array([0.1, -0.4, 0.2])
    exact = _gradient(prob, 1, x)
    streams = _streams(2, prob)
    draws = 40_000
    acc = np.zeros(3)
    samples = np.empty((draws, 3))
    for s in range(draws):
        samples[s] = _draw(prob, 1, x, streams)
        acc += samples[s]
    mean = acc / draws
    se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(mean - exact) < 4 * se + 1e-12)


def test_minibatch_batch_too_large(small_logistic):
    # a config is refused when it is built; a problem built by hand, at the draw
    with pytest.raises(ConfigError, match="batch_size 9 exceeds"):
        ProblemConfig(kind="logistic", m=2, dimension=3, samples_per_worker=4,
                      noise=NoiseModel("minibatch", batch_size=9))
    prob = LogisticProblem(small_logistic.features, small_logistic.labels,
                           NoiseModel("minibatch", batch_size=13))  # 12-row shards
    with pytest.raises(ConfigError, match="exceeds shard size"):
        _draw(prob, 0, np.zeros(3), _streams(0, prob))


# --------------------------------------------------------------------------- #
# problem oracles
# --------------------------------------------------------------------------- #

def _fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("builder", ["quadratic", "logistic", "mlp"])
def test_gradients_match_finite_differences(builder):
    if builder == "quadratic":
        prob = build_quadratic(ProblemConfig(m=3, dimension=4, l_min=0.5, l_max=3.0,
                                             heterogeneity=1.0,
                                             noise=NoiseModel("additive-gaussian", sigma2=0.0)),
                               seed=11)
    elif builder == "logistic":
        prob = build_logistic(ProblemConfig(kind="logistic", m=3, dimension=4,
                                            samples_per_worker=10, heterogeneity=0.5,
                                            noise=NoiseModel("minibatch", batch_size=5)), seed=11)
    else:
        prob = build_mlp(ProblemConfig(kind="mlp", m=2, input_dim=3, hidden=4,
                                       samples_per_worker=8,
                                       noise=NoiseModel("additive-gaussian", sigma2=0.0)), seed=11)
    rng = rng_stream(99, STREAM_DATA, 0)
    for i in range(prob.num_workers):
        for _ in range(4):
            x = 0.5 * rng.standard_normal(prob.dimension)
            g = _gradient(prob, i, x)
            fd = _fd_gradient(lambda p: prob.losses_and_gradients(p[None], np.array([i]))[0][0], x)
            denom = max(np.linalg.norm(g), 1e-8)
            assert np.linalg.norm(g - fd) / denom < 1e-5


def test_logistic_loss_at_zero_is_log2(small_logistic):
    assert abs(global_loss(small_logistic, np.zeros(3)) - math.log(2.0)) < 1e-12


def test_quadratic_global_loss_oracle(identity_quadratic):
    # workers sit at +/- e1, so from the origin each contributes 1/2
    assert global_loss(identity_quadratic, np.zeros(4)) == pytest.approx(0.5, abs=1e-15)
    g = global_gradient(identity_quadratic, np.zeros(4))
    assert np.allclose(g, 0.0, atol=1e-15)


@pytest.mark.parametrize("d", [2, 5, 64, 333])
def test_built_curvature_starts_on_a_cache_line(d):
    # the blocked gemv's speed follows A's alignment, which malloc leaves to chance
    prob = build_quadratic(ProblemConfig(m=2, dimension=d, l_min=0.5, l_max=2.0,
                                         noise=NoiseModel("additive-gaussian", sigma2=0.0)),
                           seed=d)
    a = prob.a
    assert a.ctypes.data % 64 == 0 and a.flags.c_contiguous
    assert np.array_equal(a, a.T)


_QUADRATIC = ProblemConfig(m=3, dimension=3, l_min=0.5, l_max=2.0, heterogeneity=0.8)
# name: (builder, problem config, the stacked arrays besides a quadratic's A)
STACKED_BUILDS = {
    "quadratic-d1": (build_quadratic, replace(_QUADRATIC, dimension=1), ("centers",)),
    "quadratic": (build_quadratic, _QUADRATIC, ("centers",)),
    "logistic": (build_logistic, ProblemConfig(kind="logistic", m=3, dimension=4,
                                               samples_per_worker=5, heterogeneity=0.6),
                 ("features", "labels")),
    "mlp": (build_mlp, ProblemConfig(kind="mlp", m=3, input_dim=3, hidden=4,
                                     samples_per_worker=5, heterogeneity=0.6),
            ("features", "targets")),
}


@pytest.mark.parametrize("case", sorted(STACKED_BUILDS))
def test_stacked_builders_equal_the_per_seed_builds(case):
    # S = 3 seeds build one problem whose group g is seed g's build alone,
    # bit for bit; d = 1 shares its one A, d > 1 holds one A per group
    builder, p, names = STACKED_BUILDS[case]
    seeds = [5, 0, 11]
    stacked, alone = builder(p, seeds), [builder(p, seed) for seed in seeds]
    assert type(stacked) is type(alone[0]) and stacked.num_workers == 3 * p.m
    for name in names:
        got, want = getattr(stacked, name), np.concatenate([getattr(q, name) for q in alone])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    if builder is build_quadratic:
        curvatures = [stacked.a] * 3 if p.dimension == 1 else list(stacked.a)
        assert stacked.a.ndim == (2 if p.dimension == 1 else 3)
        for a, q in zip(curvatures, alone):
            assert a.tobytes() == q.a.tobytes()


@pytest.mark.parametrize("a, symmetric", [
    (np.array([[1.0, 0.5], [0.5, 1.0]]), True),
    (np.array([[1.0, 0.5 + 1e-13], [0.5, 1.0]]), True),  # np.allclose(atol=1e-12)
    (np.array([[1.0, 0.5 + 1e-4], [0.5, 1.0]]), False),  # outside rtol 1e-5
    (np.array([[math.nan, 0.5], [0.5, 1.0]]), False),  # NaN equals nothing, itself included
    (np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1e-13], [0.0, 2.0]]]), True),  # one A a group
    (np.array([[[1.0, 0.0], [0.0, 1.0]], [[2.0, 1e-6], [0.0, 2.0]]]), False),
], ids=["exact", "within-tolerance", "asymmetric", "nan", "stack", "stack-asymmetric"])
def test_quadratic_curvature_must_be_symmetric(a, symmetric):
    noise = NoiseModel("additive-gaussian", sigma2=0.0)
    centers = [np.zeros(2)] * len(a) if a.ndim == 3 else [np.zeros(2)]
    if symmetric:
        QuadraticProblem(a, centers, noise)
    else:
        with pytest.raises(ConfigError, match="symmetric"):
            QuadraticProblem(a, centers, noise)


def test_quadratic_validation():
    noise = NoiseModel("additive-gaussian", sigma2=0.0)
    with pytest.raises(ConfigError, match="symmetric"):
        QuadraticProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), [np.zeros(2)], noise)
    with pytest.raises(ConfigError, match="shape"):
        QuadraticProblem(np.eye(3), [np.zeros(2)] * 2, noise)
    with pytest.raises(ConfigError, match="no data shard"):  # no shard to draw minibatches from
        QuadraticProblem(np.eye(2), [np.zeros(2)] * 2, NoiseModel("minibatch", batch_size=2))
    with pytest.raises(ConfigError, match="do not stack"):  # ragged centers
        QuadraticProblem(np.eye(2), [np.zeros(2), np.zeros(3)], noise)


def test_logistic_validation():
    noise = NoiseModel("additive-gaussian", sigma2=0.0)
    feats, labels = np.ones((2, 3, 4)), np.ones((2, 3))
    with pytest.raises(ConfigError, match="do not stack"):  # shards of different sizes
        LogisticProblem([np.ones((3, 4)), np.ones((5, 4))], [np.ones(3), np.ones(5)], noise)
    with pytest.raises(ConfigError, match="do not stack"):  # features of different widths
        LogisticProblem([np.ones((3, 4)), np.ones((3, 5))], labels, noise)
    with pytest.raises(ConfigError, match="do not stack"):  # ragged labels
        LogisticProblem(feats, [np.ones(3), np.ones(2)], noise)
    with pytest.raises(ConfigError, match="do not match"):  # labels for other shards
        LogisticProblem(feats, np.ones((2, 4)), noise)
    with pytest.raises(ConfigError, match="nonempty"):  # 2-D features
        LogisticProblem(np.ones((3, 4)), labels, noise)
    with pytest.raises(ConfigError, match="nonempty"):  # empty shards
        LogisticProblem(np.ones((2, 0, 4)), np.ones((2, 0)), noise)
    with pytest.raises(ConfigError, match="labels must be"):
        LogisticProblem(feats, np.zeros((2, 3)), noise)


def test_mlp_validation():
    noise = NoiseModel("additive-gaussian", sigma2=0.0)
    feats, targets = np.ones((2, 3, 4)), np.ones((2, 3))
    with pytest.raises(ConfigError, match="do not stack"):  # shards of different sizes
        MlpProblem([np.ones((3, 4)), np.ones((5, 4))], [np.ones(3), np.ones(5)], 2, noise)
    with pytest.raises(ConfigError, match="do not stack"):  # ragged targets
        MlpProblem(feats, [np.ones(3), np.ones(2)], 2, noise)
    with pytest.raises(ConfigError, match="do not match"):  # targets for other shards
        MlpProblem(feats, np.ones((3, 3)), 2, noise)
    with pytest.raises(ConfigError, match="nonempty"):  # one target per row, not a column
        MlpProblem(feats, np.ones((2, 3, 1)), 2, noise)
    assert MlpProblem(feats, targets, 2, noise).dimension == 2 * 4 + 2 + 2 + 1


def test_shared_curvature_is_checked_once(monkeypatch):
    # once for all workers; an exactly symmetric A needs no tolerance test
    calls = []
    for name in ("array_equal", "allclose"):
        real = getattr(np, name)
        monkeypatch.setattr(np, name, lambda *a, _name=name, _real=real, **kw:
                            calls.append(_name) or _real(*a, **kw))
    QuadraticProblem(np.eye(3), [np.zeros(3)] * 8, NoiseModel("additive-gaussian"))
    assert calls == ["array_equal"]


def _fused_cases():
    gauss = NoiseModel("additive-gaussian", sigma2=0.3)
    quadratic = ProblemConfig(m=3, dimension=4, noise=gauss, l_min=0.5, l_max=2.0,
                              heterogeneity=1.0)
    return {
        "quadratic-shared": build_quadratic(quadratic, seed=2),
        "logistic": build_logistic(ProblemConfig(kind="logistic", m=3, dimension=4,
                                                 samples_per_worker=9, noise=gauss,
                                                 heterogeneity=0.5), seed=2),
        "mlp": build_mlp(ProblemConfig(kind="mlp", m=3, input_dim=3, hidden=4,
                                       samples_per_worker=9, noise=gauss, heterogeneity=0.5),
                         seed=2),
        "mlp-one-unit": build_mlp(ProblemConfig(kind="mlp", m=3, input_dim=1, hidden=1,
                                                samples_per_worker=20, noise=gauss,
                                                heterogeneity=0.5), seed=2),
    }


@pytest.mark.parametrize("kind", sorted(_fused_cases()))
def test_loss_and_gradient_equal_the_separate_oracles_bit_for_bit(kind):
    # one gradient, bit for bit: the stacked oracle over every shard row,
    # over the whole objective and from the loss-and-gradient call, for every
    # worker, a subset and one row, each equal to the per-worker reference,
    # whose losses the loss-and-gradient call also gives
    prob = _fused_cases()[kind]
    m = prob.num_workers
    rng = np.random.default_rng(9)
    for _ in range(3):
        x = rng.standard_normal(prob.dimension)
        want_losses, want_grads = worker_losses_and_gradients(prob, x)
        for workers in (np.arange(m), np.array([0, m - 1]), np.array([1])):
            losses, grads = prob.losses_and_gradients(x[None], workers)
            assert losses.tolist() == [want_losses[i] for i in workers.tolist()]
            assert np.array_equal(grads, [want_grads[i] for i in workers.tolist()])
            assert np.array_equal(prob.gradients(x[None], workers), grads)
            if prob.shard_size:
                every_row = np.tile(np.arange(prob.shard_size), (len(workers), 1))
                assert np.array_equal(prob.gradients(x[None], workers, every_row), grads)
        want_loss, want_grad = global_loss_and_gradient_reference(prob, x)
        assert global_loss(prob, x) == want_loss
        assert np.array_equal(global_gradient(prob, x), want_grad)
        # shard rows picked out of order: the reference on the same rows
        idx = rng.permutation(prob.shard_size)[:2] if prob.shard_size > 1 else None
        if idx is not None:
            got = prob.gradients(np.tile(x, (m, 1)), np.arange(m), np.tile(idx, (m, 1)))
            want = [reference_loss_and_gradient(prob, i, x, idx)[1] for i in range(m)]
            assert np.array_equal(got, want)


def test_check_point_shape_guard(identity_quadratic):
    with pytest.raises(ConfigError):
        global_loss(identity_quadratic, np.zeros(3))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_global_gradient_is_mean_of_workers(seed):
    prob = build_quadratic(ProblemConfig(m=4, dimension=3, l_min=1.0, l_max=2.0, heterogeneity=0.7,
                                         noise=NoiseModel("additive-gaussian", sigma2=0.0)),
                           seed=5)
    x = rng_stream(seed, STREAM_DATA, 0).standard_normal(3)
    manual = _gradient(prob, 0, x).copy()
    for i in range(1, 4):
        manual += _gradient(prob, i, x)
    manual /= 4
    assert np.allclose(global_gradient(prob, x), manual, atol=1e-14)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_quadratic_gradient_is_affine(seed):
    prob = build_quadratic(ProblemConfig(m=2, dimension=3, l_min=0.5, l_max=4.0, heterogeneity=1.0,
                                         noise=NoiseModel("additive-gaussian", sigma2=0.0)),
                           seed=21)
    rng = rng_stream(seed, STREAM_DATA, 1)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    lhs = _gradient(prob, 0, x) - _gradient(prob, 0, y)
    assert np.allclose(lhs, prob.a @ (x - y), atol=1e-12)

