"""RNG streams, noise models, problem oracles, and constants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    ConfigError,
    NoiseModel,
    QuadraticProblem,
    build_logistic,
    build_mlp,
    build_quadratic,
    global_gradient,
    global_loss,
    global_loss_and_gradient,
    make_worker_rngs,
    problem_constants,
    rng_stream,
    worker_full_gradient,
    worker_stochastic_gradient,
)
from slowmo_sim.numerics import STREAM_DATA, STREAM_NOISE, power_iteration


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
    exact = worker_full_gradient(prob, 0, x)
    rng = rng_stream(0, STREAM_NOISE, 0)
    draws = 20_000
    sq = np.empty(draws)
    for s in range(draws):
        g = worker_stochastic_gradient(prob, 0, x, rng)
        sq[s] = np.sum((g - exact) ** 2)
    assert abs(sq.mean() - 1.0) < 0.05


def test_additive_noise_unbiased(identity_quadratic):
    prob = identity_quadratic
    x = np.array([0.3, -0.2, 0.1, 0.5])
    exact = worker_full_gradient(prob, 1, x)
    rng = rng_stream(1, STREAM_NOISE, 0)
    draws = 50_000
    acc = np.zeros(4)
    for _ in range(draws):
        acc += worker_stochastic_gradient(prob, 1, x, rng)
    mean = acc / draws
    se = math.sqrt(1.0 / 4 / draws)  # per-coordinate variance sigma^2 / d
    assert np.all(np.abs(mean - exact) < 4 * se)


def test_minibatch_full_batch_is_exact(small_logistic):
    prob = build_logistic(
        m=2, dimension=3, samples_per_worker=12,
        noise=NoiseModel("minibatch", batch_size=12), seed=3, heterogeneity=0.4,
    )
    x = np.array([0.1, -0.4, 0.2])
    rng = rng_stream(0, STREAM_NOISE, 0)
    g = worker_stochastic_gradient(prob, 0, x, rng)
    assert np.array_equal(g, worker_full_gradient(prob, 0, x))


def test_minibatch_unbiased(small_logistic):
    prob = small_logistic
    x = np.array([0.1, -0.4, 0.2])
    exact = worker_full_gradient(prob, 1, x)
    rng = rng_stream(2, STREAM_NOISE, 0)
    draws = 40_000
    acc = np.zeros(3)
    samples = np.empty((draws, 3))
    for s in range(draws):
        samples[s] = worker_stochastic_gradient(prob, 1, x, rng)
        acc += samples[s]
    mean = acc / draws
    se = samples.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(mean - exact) < 4 * se + 1e-12)


def test_minibatch_batch_too_large(small_logistic):
    prob = build_logistic(
        m=2, dimension=3, samples_per_worker=4,
        noise=NoiseModel("minibatch", batch_size=9), seed=3,
    )
    with pytest.raises(ConfigError):
        worker_stochastic_gradient(prob, 0, np.zeros(3), rng_stream(0, 1, 0))


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
        prob = build_quadratic(m=3, dimension=4, seed=11, l_min=0.5, l_max=3.0,
                               heterogeneity=1.0,
                               noise=NoiseModel("additive-gaussian", sigma2=0.0))
    elif builder == "logistic":
        prob = build_logistic(m=3, dimension=4, samples_per_worker=10, seed=11,
                              heterogeneity=0.5,
                              noise=NoiseModel("minibatch", batch_size=5))
    else:
        prob = build_mlp(m=2, input_dim=3, hidden=4, samples_per_worker=8, seed=11,
                         noise=NoiseModel("additive-gaussian", sigma2=0.0))
    rng = rng_stream(99, STREAM_DATA, 0)
    for i in range(prob.num_workers):
        for _ in range(4):
            x = 0.5 * rng.standard_normal(prob.dimension)
            g = worker_full_gradient(prob, i, x)
            fd = _fd_gradient(lambda p: prob.worker_loss(i, p), x)
            denom = max(np.linalg.norm(g), 1e-8)
            assert np.linalg.norm(g - fd) / denom < 1e-5


def test_logistic_loss_at_zero_is_log2(small_logistic):
    assert abs(global_loss(small_logistic, np.zeros(3)) - math.log(2.0)) < 1e-12


def test_quadratic_global_loss_oracle(identity_quadratic):
    # workers sit at +/- e1, so from the origin each contributes 1/2
    assert global_loss(identity_quadratic, np.zeros(4)) == pytest.approx(0.5, abs=1e-15)
    g = global_gradient(identity_quadratic, np.zeros(4))
    assert np.allclose(g, 0.0, atol=1e-15)


def test_quadratic_minimizer_is_stationary(random_quadratic):
    x_star = random_quadratic.minimizer()
    assert np.linalg.norm(global_gradient(random_quadratic, x_star)) < 1e-10


def test_quadratic_validation():
    noise = NoiseModel("additive-gaussian", sigma2=0.0)
    with pytest.raises(ConfigError):
        QuadraticProblem(np.array([[1.0, 0.5], [0.0, 1.0]]), [np.zeros(2)], noise)
    asym = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ConfigError, match="symmetric"):  # checked at every distinct matrix
        QuadraticProblem([np.eye(2), np.eye(2), asym], [np.zeros(2)] * 3, noise)
    with pytest.raises(ConfigError, match="shape"):
        QuadraticProblem([np.eye(2), np.eye(3)], [np.zeros(2)] * 2, noise)
    with pytest.raises(ConfigError):  # minibatch needs a sample cloud
        QuadraticProblem(np.eye(2), [np.zeros(2)], NoiseModel("minibatch", batch_size=1))


def test_shared_curvature_is_checked_once(monkeypatch):
    calls = []
    real = np.allclose
    monkeypatch.setattr(np, "allclose", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    QuadraticProblem(np.eye(3), [np.zeros(3)] * 8, NoiseModel("additive-gaussian"))
    assert len(calls) == 1


def _fused_cases():
    gauss = NoiseModel("additive-gaussian", sigma2=0.3)
    rng = np.random.default_rng(4)
    mats = []
    for _ in range(3):
        a = rng.standard_normal((4, 4))
        mats.append(a @ a.T + np.eye(4))
    return {
        "quadratic-shared": build_quadratic(m=3, dimension=4, noise=gauss, seed=2,
                                            l_min=0.5, l_max=2.0, heterogeneity=1.0),
        "quadratic-per-worker": QuadraticProblem(
            mats, [rng.standard_normal(4) for _ in range(3)], gauss),
        "quadratic-cloud": build_quadratic(
            m=3, dimension=4, noise=NoiseModel("minibatch", batch_size=2), seed=2,
            l_min=0.5, l_max=2.0, heterogeneity=1.0, samples_per_worker=5),
        "logistic": build_logistic(m=3, dimension=4, samples_per_worker=9, noise=gauss,
                                   seed=2, heterogeneity=0.5),
        "mlp": build_mlp(m=3, input_dim=3, hidden=4, samples_per_worker=9, noise=gauss,
                         seed=2, heterogeneity=0.5),
    }


@pytest.mark.parametrize("kind", sorted(_fused_cases()))
def test_loss_and_gradient_equal_the_separate_oracles_bit_for_bit(kind):
    prob = _fused_cases()[kind]
    rng = np.random.default_rng(9)
    for _ in range(3):
        x = rng.standard_normal(prob.dimension)
        for i in range(prob.num_workers):
            loss, grad = prob.worker_loss_and_gradient(i, x)
            assert loss == prob.worker_loss(i, x)
            assert np.array_equal(grad, prob.worker_gradient(i, x))
        loss, grad = global_loss_and_gradient(prob, x)
        assert loss == global_loss(prob, x)
        assert np.array_equal(grad, global_gradient(prob, x))


def test_check_point_shape_guard(identity_quadratic):
    with pytest.raises(ConfigError):
        global_loss(identity_quadratic, np.zeros(3))


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_global_gradient_is_mean_of_workers(seed):
    prob = build_quadratic(m=4, dimension=3, seed=5, l_min=1.0, l_max=2.0,
                           heterogeneity=0.7,
                           noise=NoiseModel("additive-gaussian", sigma2=0.0))
    x = rng_stream(seed, STREAM_DATA, 0).standard_normal(3)
    manual = worker_full_gradient(prob, 0, x).copy()
    for i in range(1, 4):
        manual += worker_full_gradient(prob, i, x)
    manual /= 4
    assert np.allclose(global_gradient(prob, x), manual, atol=1e-14)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_quadratic_gradient_is_affine(seed):
    prob = build_quadratic(m=2, dimension=3, seed=21, l_min=0.5, l_max=4.0,
                           heterogeneity=1.0,
                           noise=NoiseModel("additive-gaussian", sigma2=0.0))
    rng = rng_stream(seed, STREAM_DATA, 1)
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    lhs = worker_full_gradient(prob, 0, x) - worker_full_gradient(prob, 0, y)
    assert np.allclose(lhs, prob.a_mats[0] @ (x - y), atol=1e-12)


# --------------------------------------------------------------------------- #
# constants
# --------------------------------------------------------------------------- #

def test_power_iteration_on_known_spectrum():
    mat = np.diag([1.0, 2.0, 5.0])
    assert power_iteration(mat) == pytest.approx(5.0, rel=1e-9)


def test_problem_constants_identity_quadratic(identity_quadratic):
    c = problem_constants(identity_quadratic)
    assert c.L == pytest.approx(1.0, rel=1e-9) and c.L_exact
    assert c.sigma2 == 1.0 and c.sigma2_exact
    # grad_i(x) - grad(x) = -/+ e1 everywhere, so zeta^2 = 1 exactly
    assert c.zeta2 == pytest.approx(1.0, abs=1e-12) and c.zeta2_exact
    # optimum sits at the midpoint of the two centers
    assert c.f_inf == pytest.approx(0.5, abs=1e-12) and c.f_inf_exact


def test_problem_constants_single_worker_zeta_zero():
    prob = build_quadratic(m=1, dimension=3, seed=2, l_min=1.0, l_max=2.0,
                           noise=NoiseModel("additive-gaussian", sigma2=0.3))
    c = problem_constants(prob)
    assert c.zeta2 == 0.0 and c.zeta2_exact


def test_problem_constants_estimates_are_flagged(small_logistic):
    c = problem_constants(small_logistic)
    assert not c.L_exact and not c.sigma2_exact and not c.zeta2_exact
    assert c.L > 0 and c.sigma2 > 0 and c.zeta2 > 0
    # lower bound 0 for a nonnegative loss
    assert c.f_inf == 0.0


def test_lipschitz_constant_bounds_gradient_differences(small_logistic):
    c = problem_constants(small_logistic)
    rng = rng_stream(13, STREAM_DATA, 0)
    worst = 0.0
    for _ in range(1000):
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        num = np.linalg.norm(global_gradient(small_logistic, x)
                             - global_gradient(small_logistic, y))
        worst = max(worst, num / max(np.linalg.norm(x - y), 1e-12))
    assert worst <= c.L * (1 + 1e-9)
