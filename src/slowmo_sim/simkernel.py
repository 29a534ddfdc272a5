"""Deterministic multi-worker simulation kernel.

The kernel owns the clocks, per-worker RNG streams, message queues, metric
recording, and NaN policing; the algorithmic content lives in slowmo (outer
loop), base_optimizers (inner directions), and comm_protocols (rounds).

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

import numpy as np

from .base_optimizers import BaseOptimizerConfig, OptimizerBuffers, local_direction
from .comm_protocols import DelayModel, WorkerStates, make_protocol
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
    worker_full_gradient,
    worker_stochastic_gradient,
)
from .slowmo import GammaSchedule, SlowMoConfig, SlowMoState, run_outer_iteration
from .topology import TopologySchedule, custom_schedule, validate_strong_connectivity

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
    """Recorded metrics plus a run summary and descriptive metadata."""

    meta: dict = field(default_factory=dict)
    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(rec) for rec in self.records)

    @staticmethod
    def from_jsonl(text: str) -> "MetricsTrace":
        records = [json.loads(line) for line in text.splitlines() if line.strip()]
        return MetricsTrace(records=records)

    def trace_hash(self) -> str:
        return hashlib.sha256(self.to_jsonl().encode()).hexdigest()


class Simulation:
    """One experiment: a problem, a protocol, a base optimizer, a slow loop."""

    def __init__(
        self,
        problem: Problem,
        base_config: BaseOptimizerConfig | None = None,
        slowmo_config: SlowMoConfig | None = None,
        protocol: str = "allreduce",
        gamma: float | GammaSchedule = 0.1,
        T: int | None = None,
        total_steps: int | None = None,
        topology: str = "exponential-directed",
        custom_rounds=None,
        staleness: int = 4,
        delay: DelayModel | None = None,
        seed: int = 0,
        x0: np.ndarray | None = None,
        metric_cadence: int = 1,
        log_bias: bool = False,
    ):
        self.problem = problem
        self.base_config = base_config or BaseOptimizerConfig()
        self.slowmo_config = slowmo_config or SlowMoConfig()
        self.m = problem.num_workers
        self.d = problem.dimension
        self.seed = seed
        self.metric_cadence = int(metric_cadence)
        if self.metric_cadence < 1:
            raise ConfigError("metric_cadence must be >= 1")
        self.log_bias = log_bias

        if isinstance(gamma, GammaSchedule):
            self.gamma_schedule = gamma
        else:
            self.gamma_schedule = GammaSchedule(value=float(gamma))

        if (T is None) == (total_steps is None):
            raise ConfigError("specify exactly one of T or total_steps")
        tau = self.slowmo_config.tau
        if T is not None:
            if T < 1:
                raise ConfigError("T must be >= 1")
            self.block_lengths = [tau] * T
        else:
            if total_steps < 1:
                raise ConfigError("total_steps must be >= 1")
            full, rem = divmod(total_steps, tau)
            self.block_lengths = [tau] * full + ([rem] if rem else [])
        self.T = len(self.block_lengths)
        self.partial_final_block = self.block_lengths[-1] != tau

        if protocol == "double-average":
            if self.base_config.kind != "sgd-nesterov":
                raise ConfigError(
                    "double-average averages momentum buffers and is defined "
                    "for the sgd-nesterov base only"
                )
            if self.slowmo_config.noaverage:
                raise ConfigError("double-average requires block-end averaging; "
                                  "it cannot run with noaverage")

        schedule = None
        if protocol in ("dpsgd", "sgp", "osgp"):
            if topology == "custom":
                if custom_rounds is None:
                    raise ConfigError("custom topology needs explicit rounds")
                schedule = custom_schedule(self.m, custom_rounds)
            else:
                schedule = TopologySchedule(kind=topology, m=self.m)
            validate_strong_connectivity(schedule)
        self.protocol = make_protocol(
            protocol, self.m, schedule=schedule, staleness=staleness,
            delay=delay, seed=seed,
        )

        if x0 is None:
            x0 = np.zeros(self.d)
        x0 = problem.check_point(x0)
        self.states = WorkerStates(
            np.tile(x0, (self.m, 1)), OptimizerBuffers.fresh(self.base_config, self.m, self.d)
        )
        self.worker_streams = WorkerStreams(seed, self.m, self.d, tau)
        self.clock = SimClock()
        self.slow = SlowMoState(x_outer=x0.copy(), u=np.zeros(self.d), t=0)
        self.x_outer_local = np.tile(x0, (self.m, 1))
        self.u_local = np.zeros((self.m, self.d))

        self.slow_average_calls = 0  # line-6 exact averages actually performed
        self.block_dbar_sums: list[np.ndarray] = []
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
        kind = self.base_config.kind
        if kind == "adam":
            return None
        if len(self.protocol.active_workers()) != self.m:
            return None
        pts = self.points()
        expected = np.stack([worker_full_gradient(self.problem, i, pts[i]) for i in range(self.m)])
        if kind == "sgd-nesterov":  # E[d] = bl^2 h + (1 + bl) grad
            bl = self.base_config.beta_local
            expected = bl * bl * self.states.buffers.h + (1.0 + bl) * expected
        diff = gbar - rank_sum(expected, start=0.0) / self.m
        return float(diff @ diff)

    def record_metrics(self, gamma: float) -> None:
        if self.clock.round % self.metric_cadence != 0:
            return
        xbar, mass = self._metric_point()
        loss, gbar = global_loss_and_gradient(self.problem, xbar)
        bias_sq = self._expected_direction_gap_sq(xbar, gbar) if self.log_bias else None
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

    def inner_round(self, gamma: float) -> np.ndarray:
        """One inner step for every non-stalled worker plus one protocol round.

        Returns the round's averaged direction (1/m) sum_i d_i (stalled
        workers contribute nothing), used for the slow-buffer identity.
        """
        active = self.protocol.active_workers()
        rows = slice(None) if len(active) == self.m else active  # views of the whole stack
        if len(active):
            grads = self.problem.stochastic_gradients(self.points()[rows], active, self.worker_streams)
            d = local_direction(self.base_config, self.states.buffers, grads, rows)
            dsum = rank_sum(d, start=0.0)
            # x - gamma * d, written over d (a fresh array, no longer needed)
            half = np.subtract(self.states.x[rows], np.multiply(d, gamma, out=d), out=d)
        else:
            half = np.empty((0, self.d))
            dsum = np.zeros(self.d)
        self.protocol.apply_round(self.states, half, self.clock.round)
        dsum /= self.m
        self.clock.round += 1
        self.clock.k += 1
        self._check_finite()
        return dsum

    def _check_finite(self) -> None:
        if np.isfinite(self.states.x).all() and np.isfinite(self.states.w).all():
            return
        finite = np.isfinite(self.states.x).all(axis=1) & np.isfinite(self.states.w)
        i = int(np.argmin(finite))  # the first worker with a non-finite value
        diag = {
            "t": self.clock.t, "k": self.clock.k,
            "round": self.clock.round, "worker": i,
        }
        trace = MetricsTrace(
            meta=self._meta(),
            records=list(self._records),
            summary={"aborted": True, **diag},
        )
        raise NumericalAbort(
            f"non-finite state on worker {i} at t={self.clock.t} k={self.clock.k}",
            diagnostic=diag,
            trace=trace,
        )

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #

    def run(self) -> MetricsTrace:
        while self.clock.t < self.T:
            run_outer_iteration(self)
        return self.finish()

    def _meta(self) -> dict:
        return {
            "m": self.m,
            "dimension": self.d,
            "problem": self.problem.kind,
            "protocol": self.protocol.name,
            "base": self.base_config.kind,
            "tau": self.slowmo_config.tau,
            "alpha": self.slowmo_config.alpha,
            "beta": self.slowmo_config.beta,
            "noaverage": self.slowmo_config.noaverage,
            "T": self.T,
            "seed": self.seed,
            "metric_cadence": self.metric_cadence,
        }

    def finish(self) -> MetricsTrace:
        if self._trace is not None:
            return self._trace
        if self.slowmo_config.noaverage:
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
        self._trace = MetricsTrace(meta=self._meta(), records=self._records, summary=summary)
        return self._trace
