"""Update directions for the three inner optimizers and buffer strategies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    BaseOptimizerConfig,
    ConfigError,
    OptimizerBuffers,
    apply_buffer_strategy,
    local_direction,
)

finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _bufs(config, d=2, m=1):
    return OptimizerBuffers.fresh(config, m, d)


def test_plain_sgd_direction_is_the_gradient():
    cfg = BaseOptimizerConfig(kind="plain-sgd")
    g = np.array([[0.3, -1.2]])
    bufs = _bufs(cfg)
    d = local_direction(cfg, bufs, g)
    assert np.array_equal(d, g)
    assert np.array_equal(bufs.h, np.zeros((1, 2)))


def test_nesterov_first_step_oracle():
    # h=0, g=1: h <- 0.9*0 + 1 = 1, d = 0.9*1 + 1 = 1.9
    cfg = BaseOptimizerConfig(kind="sgd-nesterov", beta_local=0.9)
    bufs = _bufs(cfg, 1)
    d = local_direction(cfg, bufs, np.array([[1.0]]))
    assert d[0, 0] == pytest.approx(1.9, abs=1e-15)
    assert bufs.h[0, 0] == pytest.approx(1.0, abs=1e-15)


@given(st.lists(finite, min_size=1, max_size=4), finite)
@settings(max_examples=50, deadline=None)
def test_nesterov_identity(h0, gval):
    # one step satisfies d = beta^2 h0 + (1 + beta) g for any starting buffer
    cfg = BaseOptimizerConfig(kind="sgd-nesterov", beta_local=0.8)
    h = np.array([h0])
    g = np.full((1, len(h0)), gval)
    bufs = OptimizerBuffers(h=h.copy(), v=None, step=np.zeros(1, dtype=np.int64))
    d = local_direction(cfg, bufs, g)
    expect = 0.8 ** 2 * h + 1.8 * g
    assert np.allclose(d, expect, atol=1e-12)


def test_adam_first_step_oracle():
    # bias correction makes the first direction g/|g| regardless of scale
    cfg = BaseOptimizerConfig(kind="adam")
    bufs = _bufs(cfg, 1)
    d = local_direction(cfg, bufs, np.array([[3.0]]))
    assert abs(d[0, 0] - 1.0) < 1e-8
    assert bufs.step.tolist() == [1]


def test_adam_three_steps_match_manual_recursion():
    cfg = BaseOptimizerConfig(kind="adam", beta1=0.9, beta2=0.999, eps=1e-8)
    bufs = _bufs(cfg, 2)
    rng = np.random.default_rng(0)
    h = np.zeros(2)
    v = np.zeros(2)
    for step in range(1, 4):
        g = rng.standard_normal(2)
        d = local_direction(cfg, bufs, g[None, :])[0]
        h = 0.9 * h + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        h_hat = h / (1 - 0.9 ** step)
        v_hat = v / (1 - 0.999 ** step)
        assert np.allclose(d, h_hat / (np.sqrt(v_hat) + 1e-8), atol=1e-14)
        assert bufs.step.tolist() == [step]


def test_adam_guards_uninitialized_step_index():
    cfg = BaseOptimizerConfig(kind="adam")
    bufs = OptimizerBuffers(h=np.zeros((1, 1)), v=np.zeros((1, 1)), step=np.array([-5]))
    with pytest.raises(RuntimeError):
        local_direction(cfg, bufs, np.array([[1.0]]))


def test_config_validation():
    with pytest.raises(ConfigError):
        BaseOptimizerConfig(kind="rmsprop")
    with pytest.raises(ConfigError):
        BaseOptimizerConfig(buffer_strategy="zeroing")
    with pytest.raises(ConfigError):
        BaseOptimizerConfig(kind="sgd-nesterov", beta_local=1.0)
    with pytest.raises(ConfigError):
        BaseOptimizerConfig(kind="adam", beta2=-0.1)
    with pytest.raises(ConfigError):
        BaseOptimizerConfig(kind="adam", eps=0.0)


# --------------------------------------------------------------------------- #
# buffer strategies
# --------------------------------------------------------------------------- #

def _loaded_buffers(m=3, d=2):
    rank = np.arange(1.0, m + 1)[:, None]
    return OptimizerBuffers(h=np.tile(rank, (1, d)), v=np.tile(10 * rank, (1, d)),
                            step=7 + np.arange(m))


def test_reset_zeroes_everything():
    cfg = BaseOptimizerConfig(kind="adam", buffer_strategy="reset")
    bufs = _loaded_buffers()
    apply_buffer_strategy(cfg, bufs)
    assert np.all(bufs.h == 0.0) and np.all(bufs.v == 0.0)
    assert np.all(bufs.step == 0)


def test_maintain_is_a_no_op():
    cfg = BaseOptimizerConfig(kind="adam", buffer_strategy="maintain")
    bufs = _loaded_buffers()
    before = bufs.copy()
    apply_buffer_strategy(cfg, bufs)
    assert np.array_equal(bufs.h, before.h) and np.array_equal(bufs.v, before.v)
    assert np.array_equal(bufs.step, before.step)


def test_average_means_buffers_but_not_step_indices():
    cfg = BaseOptimizerConfig(kind="adam", buffer_strategy="average")
    bufs = _loaded_buffers()
    apply_buffer_strategy(cfg, bufs)
    assert np.allclose(bufs.h, 2.0)    # mean of 1, 2, 3
    assert np.allclose(bufs.v, 20.0)   # mean of 10, 20, 30
    assert bufs.step.tolist() == [7, 8, 9]  # untouched


def test_buffers_copy_is_deep():
    cfg = BaseOptimizerConfig(kind="sgd-nesterov")
    a = _bufs(cfg)
    b = a.copy()
    b.h[0] = 42.0
    b.step[0] = 3
    assert np.all(a.h == 0.0) and a.step[0] == 0
