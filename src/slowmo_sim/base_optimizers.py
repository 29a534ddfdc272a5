"""Pluggable base optimizers: the inner update direction d and its buffers.

Inner iterations take the form x <- x - gamma * d where d is produced from
the sampled gradient g by one of three rules:

    plain-sgd      d = g
    sgd-nesterov   h <- beta_local * h + g;  d = beta_local * h + g
    adam           h <- beta1 h + (1-beta1) g;  v <- beta2 v + (1-beta2) g^2
                   d = (h / (1 - beta1^l)) / (sqrt(v / (1 - beta2^l)) + eps)

The Adam step index l counts updates applied to the buffer and starts at 1 on
the first update after a reset, so the bias corrections never divide by zero.
At the start of each outer iteration the buffers follow one of three
strategies: ``reset`` (zeros, l back to 0), ``maintain`` (untouched, so l
keeps counting across outer iterations), or ``average`` (exact cross-worker
mean of every buffer).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .numerics import rank_sum

OPTIMIZER_KINDS = ("plain-sgd", "sgd-nesterov", "adam")
BUFFER_STRATEGIES = ("reset", "maintain", "average")


@dataclass(frozen=True)
class BaseOptimizerConfig:
    kind: str = "plain-sgd"
    buffer_strategy: str = "reset"
    beta_local: float = 0.9  # sgd-nesterov momentum
    beta1: float = 0.9  # adam first-moment decay
    beta2: float = 0.999  # adam second-moment decay
    eps: float = 1e-8

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ConfigError(f"unknown base optimizer {self.kind!r}")
        if self.buffer_strategy not in BUFFER_STRATEGIES:
            raise ConfigError(f"unknown buffer strategy {self.buffer_strategy!r}")
        if not (0.0 <= self.beta_local < 1.0):
            raise ConfigError("beta_local must lie in [0, 1)")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("adam decay rates must lie in [0, 1)")
        if self.eps <= 0.0:
            raise ConfigError("adam eps must be positive")


@dataclass
class OptimizerBuffers:
    """Every worker's optimizer state, stacked with the worker index first.

    ``h`` is (m, d); ``v`` is (m, d) for adam and None otherwise; ``step``
    is (m,), adam's l per worker (OSGP stalls let the counters drift apart).
    """

    h: np.ndarray
    v: np.ndarray | None
    step: np.ndarray

    @staticmethod
    def fresh(config: BaseOptimizerConfig, m: int, dimension: int) -> "OptimizerBuffers":
        v = np.zeros((m, dimension)) if config.kind == "adam" else None
        return OptimizerBuffers(h=np.zeros((m, dimension)), v=v, step=np.zeros(m, dtype=np.int64))


def _bias_corrections(base: float, steps: np.ndarray):
    """1 - base**l for each row's l, as Python powers (numpy's differ in the
    last bit): a scalar when every row has the same l, else an (n, 1) column."""
    ls = steps.tolist()
    table = {l: 1.0 - base ** l for l in set(ls)}
    if len(table) == 1:
        return table[ls[0]]
    return np.array([table[l] for l in ls]).reshape(-1, 1)


def local_direction(
    config: BaseOptimizerConfig,
    buffers: OptimizerBuffers,
    gradients: np.ndarray,
    rows=slice(None),
) -> np.ndarray:
    """Directions (n, d) from one stochastic gradient per stepping worker.

    ``rows`` selects the stepping workers' buffers: ``slice(None)`` (all of
    them) or an ascending index array; row r of ``gradients`` belongs to
    the r-th selected worker. Those buffers are updated in place; the
    others are untouched.
    """
    if gradients.shape[1:] != buffers.h.shape[1:]:
        raise ConfigError("gradient/buffer dimension mismatch")
    if config.kind == "plain-sgd":
        return gradients
    whole = isinstance(rows, slice)
    buffers.step[rows] += 1
    if config.kind == "sgd-nesterov":
        bl = config.beta_local
        h = buffers.h[rows]  # a view for the whole stack, a copy for a subset
        h *= bl
        h += gradients
        if not whole:
            buffers.h[rows] = h
        return bl * h + gradients
    steps = buffers.step[rows]
    if (steps < 1).any():
        raise RuntimeError("adam step index must be >= 1 (bias correction)")
    # Adam passes a dozen times over its arrays: row blocks of about 32k
    # values (256 KiB an array) stay in cache, where whole (8, 20000)
    # arrays ran at half the speed
    out = np.empty_like(gradients)
    block = max(1, 32768 // gradients.shape[1])
    for lo in range(0, len(gradients), block):
        part = slice(lo, lo + block)
        sel = part if whole else rows[part]
        h, v = buffers.h[sel], buffers.v[sel]
        _adam_step(config, h, v, steps[part], gradients[part], out[part])
        if not whole:
            buffers.h[sel], buffers.v[sel] = h, v
    return out


def _adam_step(config: BaseOptimizerConfig, h, v, steps, g, out) -> None:
    """Update rows h and v in place from g; write h_hat / (sqrt(v_hat) + eps) to out."""
    b1, b2 = config.beta1, config.beta2
    tmp = np.multiply(g, 1.0 - b1)
    h *= b1
    h += tmp
    np.square(g, out=tmp)
    tmp *= 1.0 - b2
    v *= b2
    v += tmp
    np.divide(v, _bias_corrections(b2, steps), out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += config.eps
    np.divide(h, _bias_corrections(b1, steps), out=out)
    out /= tmp


def apply_buffer_strategy(config: BaseOptimizerConfig, buffers: OptimizerBuffers) -> OptimizerBuffers:
    """Apply the configured strategy at the start of an outer iteration.

    ``average`` replaces every worker's buffer with the exact cross-worker
    mean, accumulated in ascending worker order; step indices are left
    untouched (they agree across workers in lockstep schedules anyway).
    """
    strat = config.buffer_strategy
    if strat == "reset":
        buffers.h[:] = 0.0
        if buffers.v is not None:
            buffers.v[:] = 0.0
        buffers.step[:] = 0
    elif strat == "average":
        m = len(buffers.h)
        buffers.h[:] = rank_sum(buffers.h) / m
        if buffers.v is not None:
            buffers.v[:] = rank_sum(buffers.v) / m
    return buffers
