"""The slow momentum outer loop.

One outer iteration consists of: apply the buffer strategy, run tau inner
rounds of base-optimizer steps plus protocol communication, exact-average the
(de-biased) iterates, then update the slow buffer and outer iterate

    u_{t+1}   = beta * u_t + (x_{t,0} - x_{t,tau}) / gamma_t
    x_{t+1,0} = x_{t,0} - alpha * gamma_t * u_{t+1}

and broadcast x_{t+1,0} to every worker. With ``noaverage`` the exact average
is skipped entirely: each worker keeps a private slow iterate and buffer and
applies the same update in de-biased z-space, then rescales x = w * z so
push-sum mass is preserved. Workers then drift apart and only gossip keeps
them loosely coupled.

The inner learning rate gamma_t is constant within an outer iteration, so
the buffer update is invariant to the scale of gamma for deterministic
directions: (x_{t,0} - x_{t,tau}) / gamma_t is exactly the accumulated sum
of averaged update directions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base_optimizers import apply_buffer_strategy
from .comm_protocols import exact_average
from .errors import ConfigError
from .numerics import repeat_groups


@dataclass(frozen=True)
class SlowMoConfig:
    """Outer-loop hyperparameters: x <- x - alpha*gamma*u after tau inner steps."""

    alpha: float = 1.0
    beta: float = 0.7
    tau: int = 12
    noaverage: bool = False

    def __post_init__(self):
        if not (0.0 <= self.beta < 1.0):
            raise ConfigError("slow momentum beta must lie in [0, 1)")
        if self.alpha <= 0.0:
            raise ConfigError("slow learning rate alpha must be positive")
        if self.tau < 1:
            raise ConfigError("tau must be >= 1")


@dataclass(frozen=True)
class GammaSchedule:
    """Inner learning rate as a function of the outer iteration index t.

    constant: gamma_t = value. step: value multiplied by ``decay`` at each
    milestone (milestones are outer-iteration indices, strictly increasing).
    """

    value: float = 0.1
    kind: str = "constant"
    milestones: tuple[int, ...] = ()
    decay: float = 0.1

    def __post_init__(self):
        if self.kind not in ("constant", "step"):
            raise ConfigError(f"unknown gamma schedule kind {self.kind!r}")
        if self.value <= 0.0:
            raise ConfigError("gamma must be positive")
        if self.decay <= 0.0:
            raise ConfigError("gamma decay factor must be positive")
        if list(self.milestones) != sorted(set(self.milestones)):
            raise ConfigError("gamma milestones must be strictly increasing")

    def at(self, t: int) -> float:
        g = self.value
        for ms in self.milestones:
            if t >= ms:
                g *= self.decay
        return g


@dataclass
class SlowMoState:
    """Outer iterate and slow momentum buffer (the kernel's clock counts t):
    (S, d) stacks with one row per group, or (S*m, d) stacks of private
    per-worker rows under noaverage."""

    x_outer: np.ndarray
    u: np.ndarray


def slow_update(
    x_t0: np.ndarray,
    x_ttau: np.ndarray,
    u: np.ndarray,
    gamma: float,
    alpha: float,
    beta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One slow momentum update; returns (u_next, x_next). Stacked (n, d)
    arguments update every row independently: one update per group, or one
    private update per worker."""
    if gamma <= 0.0:
        raise ConfigError("slow update needs gamma > 0")
    u_next = beta * u + (x_t0 - x_ttau) / gamma
    x_next = x_t0 - alpha * gamma * u_next
    return u_next, x_next


def run_outer_iteration(sim) -> None:
    """Advance the simulation by one outer iteration (possibly partial).

    ``sim`` is a simkernel.Simulation; this function owns the algorithmic
    skeleton while the kernel provides rounds, metrics, clocks, and queues.
    """
    cfg = sim.cfg.slowmo
    t = sim.clock.t
    gamma = sim.cfg.gamma.at(t)
    block_len = sim.block_length(t)

    apply_buffer_strategy(sim.cfg.base, sim.states.buffers, sim.groups)

    for _ in range(block_len):
        sim.record_metrics(gamma)
        sim.inner_round(gamma)

    states, slow = sim.states, sim.slow
    if cfg.noaverage:
        # private slow updates in z-space, one row per worker; x is rescaled
        # so w is untouched
        slow.u, slow.x_outer = slow_update(
            slow.x_outer, states.z, slow.u, gamma, cfg.alpha, cfg.beta
        )
        states.x = states.w[:, None] * slow.x_outer
    else:
        sim.protocol.end_block(states)
        x_avg = exact_average(states, sim.groups)
        sim.slow_average_calls += 1
        slow.u, slow.x_outer = slow_update(
            slow.x_outer, x_avg, slow.u, gamma, cfg.alpha, cfg.beta
        )
        states.x[:] = repeat_groups(slow.x_outer, sim.m)
        states.w[:] = 1.0

    sim.clock.t += 1
    sim.clock.k = 0
