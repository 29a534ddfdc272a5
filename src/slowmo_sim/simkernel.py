"""Deterministic multi-worker simulation kernel.

The kernel owns the clocks, per-worker RNG streams, message queues, metric
recording, and NaN policing; the algorithmic content lives in slowmo (outer
loop), base_optimizers (inner directions), and comm_protocols (rounds).

A run is described once, by a ``config.ExperimentConfig`` that checked its
own values when it was built. ``Simulation(problem, cfg, x0)`` takes that
config as it is and reads its sections (``cfg.base``, ``cfg.slowmo``,
``cfg.gamma``, ``cfg.protocol``, ...) where they are used; ``problem`` and
``x0`` (zeros when None) are the objective and start point, which
``config.build_simulation`` builds from ``cfg.problem`` and ``cfg.init``.

Stacked-state contract: worker state is held as arrays with the worker
index first (``WorkerStates``: x (m, d), w (m,), optimizer buffers (m, d)
and adam step indices (m,)). A round makes one batched call per layer: the
problem's ``stochastic_gradients`` for the stepping workers, one
``local_direction``, one protocol ``apply_round`` on the (n, d) half-steps
and, when a record is due, one loss-and-gradient evaluation plus row-wise
dots. Every batched form adds in ascending worker rank and is bit for bit
the per-worker loop it replaces, so for a fixed problem and seed the trace
is bitwise reproducible and independent of how the state is laid out.

Metrics are recorded at the start of every inner round (subject to
``metric_cadence``), so with cadence 1 a run of T outer iterations of length
tau yields exactly tau*T records; record r describes the state the r-th step
was taken from, and costs one loss-and-gradient evaluation per worker at
x_bar. Recording never touches the trajectory. The average iterate x_bar
counts in-flight push-sum payloads so no mass ever escapes the metrics;
every record (and the final summary) refuses a push-sum mass that has
drifted from m.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .base_optimizers import OptimizerBuffers, local_direction
from .comm_protocols import MIXING_PROTOCOLS, WorkerStates, make_protocol
from .errors import ConfigError, NumericalAbort, ProtocolError
from .numerics import (
    Problem,
    WorkerStreams,
    float_sum,
    # unused here, but the benchmark's tracer wraps these three at this site
    global_gradient,
    global_loss,
    global_loss_and_gradient,
    rank_sum,
    row_dots,
    worker_stochastic_gradient,
)
from .slowmo import SlowMoState, run_outer_iteration
from .topology import TopologySchedule, validate_strong_connectivity

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig

RECORD_FIELDS = (
    "t", "k", "round", "gamma", "loss", "grad_norm_sq",
    "consensus_sq", "weight_mass", "bias_sq", "x_bar",
)
SUMMARY_FIELDS = (
    "final_loss", "final_grad_norm_sq", "final_consensus_sq",
    "min_loss", "steps", "blocks", "partial_final_block", "aborted",
)


@dataclass
class SimClock:
    """Outer iteration t, inner step k within the block, global round count."""

    t: int = 0
    k: int = 0
    round: int = 0


@dataclass
class MetricsTrace:
    """Recorded metrics plus a run summary."""

    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(rec) for rec in self.records)

    @staticmethod
    def from_jsonl(text: str) -> "MetricsTrace":
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        for rec in records:
            if not isinstance(rec, dict):
                raise ConfigError(f"trace records must be JSON objects, got {type(rec).__name__}")
        return MetricsTrace(records=records)

    def trace_hash(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()


class Simulation:
    """One experiment: a problem, a protocol, a base optimizer, a slow loop."""

    def __init__(self, problem: Problem, cfg: ExperimentConfig, x0: np.ndarray | None = None):
        self.problem = problem
        self.cfg = cfg
        self.m = problem.num_workers
        self.d = problem.dimension
        tau = cfg.slowmo.tau
        self.total_steps = tau * cfg.T if cfg.total_steps is None else cfg.total_steps
        self.T = -(-self.total_steps // tau)
        self.partial_final_block = self.total_steps % tau != 0

        schedule = None
        if cfg.protocol in MIXING_PROTOCOLS:
            schedule = TopologySchedule(cfg.topology.kind, self.m, cfg.topology.rounds)
            validate_strong_connectivity(schedule)
        self.protocol = make_protocol(cfg, self.m, schedule)

        x0 = problem.check_point(np.zeros(self.d) if x0 is None else x0)
        self.states = WorkerStates(
            np.tile(x0, (self.m, 1)), OptimizerBuffers.fresh(cfg.base, self.m, self.d)
        )
        # any block size gives the same rows; at most 64 keeps the (m, block, d)
        # buffer from growing with tau
        self.worker_streams = WorkerStreams(cfg.seed, self.m, self.d, min(tau, 64))
        self.clock = SimClock()
        # noaverage: one private slow iterate and buffer per worker, as rows
        shape = (self.m, self.d) if cfg.slowmo.noaverage else (self.d,)
        self.slow = SlowMoState(x_outer=np.broadcast_to(x0, shape).copy(), u=np.zeros(shape))

        self.slow_average_calls = 0  # line-6 exact averages actually performed
        self._records: list[dict] = []
        self._trace: MetricsTrace | None = None

    # ------------------------------------------------------------------ #
    # kernel services used by slowmo.run_outer_iteration
    # ------------------------------------------------------------------ #

    def points(self) -> np.ndarray:
        """Where the workers evaluate gradients: z when the protocol de-biases, else x
        (without de-biasing w is exactly 1.0, where x / w is x bit for bit)."""
        return self.states.z if self.protocol.debias else self.states.x

    def mean_x(self, inflight_x: np.ndarray) -> np.ndarray:
        """Average of worker parameters plus the in-flight payload sum ``inflight_x``."""
        total = rank_sum(self.states.x)
        total += inflight_x
        return total / self.m

    def weight_mass(self, inflight_w: float) -> float:
        """Sum of push-sum weights plus in-flight weight ``inflight_w``.

        Raises ProtocolError when it has drifted from m by more than 1e-9 m.
        """
        mass = float(sum(self.states.w.tolist()) + inflight_w)
        if abs(mass - self.m) > 1e-9 * self.m:
            raise ProtocolError(
                f"push-sum mass {mass!r} != m={self.m} at round {self.clock.round}"
            )
        return mass

    def _metric_point(self) -> tuple[np.ndarray, float]:
        """(x_bar, weight mass) from one scan of the in-flight messages."""
        inflight_x, inflight_w = self.protocol.inflight_sums(self.d)
        return self.mean_x(inflight_x), self.weight_mass(inflight_w)

    def consensus_sq(self, xbar: np.ndarray) -> float:
        diff = self.points() - xbar
        return float_sum(row_dots(diff, diff).tolist()) / self.m

    def _expected_direction_gap_sq(self, xbar, gbar) -> float | None:
        """||grad f(x_bar) - (1/m) sum_i E[d_i]||^2, when available in closed form."""
        kind = self.cfg.base.kind
        if kind == "adam":
            return None
        active = self.protocol.active_workers()
        if len(active) != self.m:
            return None
        expected = self.problem.gradients(self.points(), active)
        if kind == "sgd-nesterov":  # E[d] = bl^2 h + (1 + bl) grad
            bl = self.cfg.base.beta_local
            expected = bl * bl * self.states.buffers.h + (1.0 + bl) * expected
        diff = gbar - rank_sum(expected, start=0.0) / self.m
        return float(diff @ diff)

    def record_metrics(self, gamma: float) -> None:
        if self.clock.round % self.cfg.metric_cadence != 0:
            return
        xbar, mass = self._metric_point()
        loss, gbar = global_loss_and_gradient(self.problem, xbar)
        bias_sq = self._expected_direction_gap_sq(xbar, gbar) if self.cfg.log_bias else None
        rec = {
            "t": self.clock.t,
            "k": self.clock.k,
            "round": self.clock.round,
            "gamma": float(gamma),
            "loss": float(loss),
            "grad_norm_sq": float(gbar @ gbar),
            "consensus_sq": self.consensus_sq(xbar),
            "weight_mass": mass,
            "bias_sq": bias_sq,
            "x_bar": xbar.tolist(),
        }
        self._records.append(rec)

    def inner_round(self, gamma: float) -> None:
        """One inner step for every non-stalled worker plus one protocol round:
        a stochastic gradient and a local direction per stepping worker, the
        half-steps x - gamma d, then the protocol's mixing of them."""
        active = self.protocol.active_workers()
        rows = slice(None) if len(active) == self.m else active  # views of the whole stack
        if len(active):
            grads = self.problem.stochastic_gradients(self.points()[rows], active, self.worker_streams)
            d = local_direction(self.cfg.base, self.states.buffers, grads, rows)
            # x - gamma * d, written over d (a fresh array, no longer needed)
            half = np.subtract(self.states.x[rows], np.multiply(d, gamma, out=d), out=d)
        else:
            half = np.empty((0, self.d))
        self.protocol.apply_round(self.states, half, self.clock.round)
        self.clock.round += 1
        self.clock.k += 1
        self._check_finite()

    def _check_finite(self) -> None:
        if np.isfinite(self.states.x).all() and np.isfinite(self.states.w).all():
            return
        finite = np.isfinite(self.states.x).all(axis=1) & np.isfinite(self.states.w)
        i = int(np.argmin(finite))  # the first worker with a non-finite value
        diag = {
            "t": self.clock.t, "k": self.clock.k,
            "round": self.clock.round, "worker": i,
        }
        trace = MetricsTrace(records=list(self._records), summary={"aborted": True, **diag})
        raise NumericalAbort(
            f"non-finite state on worker {i} at t={self.clock.t} k={self.clock.k}",
            diagnostic=diag,
            trace=trace,
        )

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #

    def block_length(self, t: int) -> int:
        """Inner steps of outer iteration t: tau, or what is left of total_steps."""
        tau = self.cfg.slowmo.tau
        return min(tau, self.total_steps - t * tau)

    def run(self) -> MetricsTrace:
        while self.clock.t < self.T:
            run_outer_iteration(self)
        return self.finish()

    def finish(self) -> MetricsTrace:
        if self._trace is not None:
            return self._trace
        if self.cfg.slowmo.noaverage:
            # one final drain so the summary sees all in-flight mass
            self.protocol.end_block(self.states)
        xbar, _ = self._metric_point()
        final_loss, gbar = global_loss_and_gradient(self.problem, xbar)
        final_loss = float(final_loss)
        losses = [r["loss"] for r in self._records] + [final_loss]
        summary = {
            "final_loss": final_loss,
            "final_grad_norm_sq": float(gbar @ gbar),
            "final_consensus_sq": self.consensus_sq(xbar),
            "min_loss": min(losses),
            "steps": self.clock.round,
            "blocks": self.clock.t,
            "partial_final_block": self.partial_final_block,
            "aborted": False,
        }
        self._trace = MetricsTrace(records=self._records, summary=summary)
        return self._trace
