"""Deterministic multi-worker simulation kernel.

The kernel owns the clocks, per-worker RNG streams, message queues, metric
recording, and NaN policing; the algorithmic content lives in slowmo (outer
loop), base_optimizers (inner directions), and comm_protocols (rounds).

A run is described once, by a ``config.ExperimentConfig`` that checked its
own values when it was built. ``Simulation(problem, cfg, x0, seeds)`` takes
that config as it is and reads its sections (``cfg.base``, ``cfg.slowmo``,
``cfg.gamma``, ``cfg.protocol``, ...) where they are used; ``problem`` and
``x0`` (zeros when None) are the objective and start point, which
``config.build_simulation`` builds from ``cfg.problem`` and ``cfg.init``.

Stacked-state contract: one simulation runs S groups, one per seed in
``seeds`` (default: ``cfg.seed`` alone), of m workers each, as S*m rows;
the rows of group g are g*m ... (g+1)*m - 1. Worker state is held as arrays
with the row index first (``WorkerStates``: x (S*m, d), w (S*m,), optimizer
buffers (S*m, d) and adam step indices (S*m,)). Each group has its own
seed (its rows' noise streams and its OSGP delay stream), shards (its rows
of the one problem the builders draw for S seeds), x0 (a row of an (S, d)
``x0``), slow state (x_outer and u are (S, d), or (S*m, d) under
noaverage) and trace. Groups never mix: averages reduce per group and
gossip is block-diagonal. S = 1 is the ordinary run.

A round makes one batched call per layer over every row: the problem's
``stochastic_gradients`` for the stepping workers, one
``local_direction``, one protocol ``apply_round`` on the (n, d) half-steps
and, when a record is due, one loss-and-gradient evaluation plus row-wise
dots. Every batched form adds in ascending worker rank within a group and
is bit for bit the per-worker loop it replaces, so each group's trace is
bit for bit the trace of its seed run alone, independent of how the state
is laid out and of which groups run beside it.

Metrics are recorded at the start of every inner round (subject to
``metric_cadence``), so with cadence 1 a run of T outer iterations of length
tau yields exactly tau*T records per group; record r describes the state
the r-th step was taken from, and costs one loss-and-gradient evaluation
per worker at the group's x_bar. A record and the final summary read the
same ``evaluate``. Recording never touches the trajectory.
The average iterate x_bar counts in-flight push-sum payloads so no mass
ever escapes the metrics; every record (and the final summary) refuses a
push-sum mass that has drifted from m.

A group whose state turns non-finite ends its own trace there with a
``NumericalAbort`` (records so far, summary ``aborted``), as a run of that
seed alone would; its rows are zeroed from then on and the other groups
go on. The run ends when every group has ended.
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
    # unused here, but the benchmark's tracer wraps these three at this site
    global_gradient,
    global_loss,
    group_losses_and_gradients,
    group_sums,
    repeat_groups,
    row_dots,
    seed_list,
    worker_stochastic_gradient,
)
from .slowmo import SlowMoState, run_outer_iteration
from .topology import TopologySchedule, validate_strong_connectivity

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig

RECORD_FIELDS = (
    "t", "k", "round", "gamma", "loss", "grad_norm_sq",
    "consensus_sq", "weight_mass", "bias_sq",
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
    """Recorded metrics plus a run summary: one dict of scalars per record
    (``RECORD_FIELDS``), and the records' average iterates as the rows of
    one (n_records, d) float64 array, ``x_bar``. A trace read from its JSONL
    alone holds no rows of ``x_bar``."""

    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    x_bar: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))

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
        """SHA-256 of the JSONL text followed by the bytes of ``x_bar``."""
        digest = hashlib.sha256(self.to_jsonl().encode())
        digest.update(self.x_bar.tobytes())
        return digest.hexdigest()


class Simulation:
    """One experiment, or S of them that differ only in seed: a problem, a
    protocol, a base optimizer, a slow loop."""

    def __init__(self, problem: Problem, cfg: ExperimentConfig, x0: np.ndarray | None = None,
                 seeds=None):
        self.problem = problem
        self.cfg = cfg
        self.seeds = tuple(seed_list(cfg.seed if seeds is None else seeds))
        self.groups = S = len(self.seeds)
        if problem.num_workers % S:
            raise ConfigError(f"{problem.num_workers} workers do not split into {S} groups")
        self.m = m = problem.num_workers // S
        self.d = d = problem.dimension
        tau = cfg.slowmo.tau
        self.total_steps = tau * cfg.T if cfg.total_steps is None else cfg.total_steps
        self.T = -(-self.total_steps // tau)
        self.partial_final_block = self.total_steps % tau != 0

        schedule = None
        if cfg.protocol in MIXING_PROTOCOLS:
            schedule = TopologySchedule(cfg.topology.kind, m, cfg.topology.rounds)
            validate_strong_connectivity(schedule)
        self.protocol = make_protocol(cfg, m, schedule, self.seeds)

        # one start point per group, or one for every group
        x0 = np.zeros((S, d)) if x0 is None else np.array(x0, dtype=np.float64)
        if x0.shape != (S, d):
            x0 = np.tile(problem.check_point(x0), (S, 1))
        self.states = WorkerStates(np.repeat(x0, m, axis=0),
                                   OptimizerBuffers.fresh(cfg.base, S * m, d))
        # any block size gives the same rows; at most 64 keeps the
        # (S*m, block, d) buffer from growing with tau
        self.worker_streams = WorkerStreams(self.seeds, m, d, min(tau, 64))
        self.clock = SimClock()
        # noaverage: one private slow iterate and buffer per worker, as rows
        x_outer = np.repeat(x0, m, axis=0) if cfg.slowmo.noaverage else x0
        self.slow = SlowMoState(x_outer=x_outer, u=np.zeros(x_outer.shape))

        self.slow_average_calls = 0  # line-6 exact averages actually performed
        self._records: list[list[dict]] = [[] for _ in range(S)]
        self._x_bars: list[np.ndarray] = []  # each record's (S, d) x_bar, in order
        self.alive = np.ones(S, dtype=bool)
        self._dead_rows = None  # the rows of the groups that have ended, once one has
        self._outcomes: list = [None] * S

    # ------------------------------------------------------------------ #
    # kernel services used by slowmo.run_outer_iteration
    # ------------------------------------------------------------------ #

    def points(self) -> np.ndarray:
        """Where the workers evaluate gradients: z when the protocol de-biases, else x
        (without de-biasing w is exactly 1.0, where x / w is x bit for bit)."""
        return self.states.z if self.protocol.debias else self.states.x

    def mean_x(self, inflight_x: np.ndarray) -> np.ndarray:
        """(S, d): each group's average of worker parameters plus its in-flight
        payload sum, a row of ``inflight_x``."""
        total = group_sums(self.states.x, self.groups)
        total += inflight_x
        return total / self.m

    def weight_mass(self, inflight_w: np.ndarray) -> np.ndarray:
        """(S,): each group's sum of push-sum weights plus its in-flight weight.

        Raises ProtocolError when a live group's has drifted from m by more
        than 1e-9 m.
        """
        mass = group_sums(self.states.w[:, None], self.groups, 0.0)[:, 0] + inflight_w
        drift = self.alive & (np.abs(mass - self.m) > 1e-9 * self.m)
        if drift.any():
            raise ProtocolError(f"push-sum mass {float(mass[drift][0])!r} != m={self.m} "
                                f"at round {self.clock.round}")
        return mass

    def consensus_sq(self, xbar: np.ndarray) -> np.ndarray:
        """(S,): each group's mean squared distance of its points from its x_bar."""
        diff = self.points() - repeat_groups(xbar, self.m)
        return group_sums(row_dots(diff, diff)[:, None], self.groups, 0.0)[:, 0] / self.m

    def _expected_direction_gap_sq(self, xbar, gbar) -> list:
        """||grad f(x_bar) - (1/m) sum_i E[d_i]||^2 of each group, when
        available in closed form (None otherwise)."""
        kind = self.cfg.base.kind
        if kind == "adam":
            return [None] * self.groups
        # only a group whose every worker steps has the closed form
        active = self.protocol.active_workers()
        full = np.bincount(active // self.m, minlength=self.groups) == self.m
        if not full.any():
            return [None] * self.groups
        expected = self.problem.gradients(self.points(), np.arange(len(self.states)))
        if kind == "sgd-nesterov":  # E[d] = bl^2 h + (1 + bl) grad
            bl = self.cfg.base.beta_local
            expected = bl * bl * self.states.buffers.h + (1.0 + bl) * expected
        diff = gbar - group_sums(expected, self.groups, 0.0) / self.m
        return [gap if ok else None for gap, ok in zip(row_dots(diff, diff).tolist(), full)]

    def evaluate(self) -> tuple:
        """(x_bar, weight mass, loss, gradient, squared gradient norm,
        consensus) of each group, what a record and the summary report: one
        scan of the in-flight messages and one loss-and-gradient evaluation
        of every worker at its group's x_bar."""
        inflight_x, inflight_w = self.protocol.inflight_sums(self.d)
        xbar = self.mean_x(inflight_x)
        masses = self.weight_mass(inflight_w)
        losses, gbar = group_losses_and_gradients(self.problem, xbar)
        return xbar, masses, losses, gbar, row_dots(gbar, gbar), self.consensus_sq(xbar)

    def record_metrics(self, gamma: float) -> None:
        if self.clock.round % self.cfg.metric_cadence != 0:
            return
        xbar, masses, losses, gbar, grad_sq, consensus = self.evaluate()
        biases = ([None] * self.groups if not self.cfg.log_bias
                  else self._expected_direction_gap_sq(xbar, gbar))
        clock = (self.clock.t, self.clock.k, self.clock.round, float(gamma))
        self._x_bars.append(xbar)
        columns = zip(self._records, self.alive, losses.tolist(), grad_sq.tolist(),
                      consensus.tolist(), masses.tolist(), biases)
        for records, alive, *values in columns:
            if alive:
                records.append(dict(zip(RECORD_FIELDS, (*clock, *values))))

    def inner_round(self, gamma: float) -> None:
        """One inner step for every non-stalled worker plus one protocol round:
        a stochastic gradient and a local direction per stepping worker, the
        half-steps x - gamma d, then the protocol's mixing of them."""
        active = self.protocol.active_workers()
        rows = slice(None) if len(active) == len(self.states) else active  # views of the stack
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
        """End the trace of every group whose state has turned non-finite;
        raise the NumericalAbort of the last one once no group is left."""
        x, w = self.states.x, self.states.w
        if self._dead_rows is not None:
            x[self._dead_rows] = 0.0
        if np.isfinite(x).all() and np.isfinite(w).all():
            return
        finite = (np.isfinite(x).all(axis=1) & np.isfinite(w)).reshape(self.groups, self.m)
        for g in np.flatnonzero(~finite.all(axis=1)).tolist():
            i = int(np.argmin(finite[g]))  # the group's first worker with a non-finite value
            diag = {
                "t": self.clock.t, "k": self.clock.k,
                "round": self.clock.round, "worker": i,
            }
            trace = MetricsTrace(records=self._records[g], summary={"aborted": True, **diag},
                                 x_bar=self._x_bar_block()[g])
            self._outcomes[g] = NumericalAbort(
                f"non-finite state on worker {i} at t={self.clock.t} k={self.clock.k}",
                diagnostic=diag,
                trace=trace,
            )
            self._retire(g)
        if not self.alive.any():
            raise self._outcomes[g]

    def _retire(self, g: int) -> None:
        """Take group g out of the run: zero every value of its rows (x is
        zeroed again after each round), so they stay finite and cost
        nothing but arithmetic; the other groups never read them."""
        self.alive[g] = False
        self._dead_rows = np.repeat(~self.alive, self.m)
        rows = slice(g * self.m, (g + 1) * self.m)
        states, slow = self.states, self.slow
        states.x[rows] = 0.0
        states.w[rows] = 1.0
        for buf in (states.buffers.h, states.buffers.v):
            if buf is not None:
                buf[rows] = 0.0
        slow_rows = rows if self.cfg.slowmo.noaverage else g
        slow.x_outer[slow_rows] = 0.0
        slow.u[slow_rows] = 0.0
        self.protocol.clear_payloads(g)

    # ------------------------------------------------------------------ #
    # driving
    # ------------------------------------------------------------------ #

    def block_length(self, t: int) -> int:
        """Inner steps of outer iteration t: tau, or what is left of total_steps."""
        tau = self.cfg.slowmo.tau
        return min(tau, self.total_steps - t * tau)

    def run(self) -> MetricsTrace:
        """Run a one-group simulation to its trace; a NumericalAbort propagates."""
        if self.groups != 1:
            raise ConfigError(f"a run of {self.groups} groups has one outcome per group: "
                              "use run_groups()")
        (outcome,) = self.run_groups()
        if isinstance(outcome, NumericalAbort):
            raise outcome
        return outcome

    def run_groups(self) -> list:
        """Run every group; one outcome per group, in order: its MetricsTrace,
        or the NumericalAbort that ended it (partial trace attached)."""
        try:
            while self.clock.t < self.T:
                run_outer_iteration(self)
        except NumericalAbort:  # every group has ended
            pass
        return self.finish()

    def finish(self) -> list:
        if None not in self._outcomes:
            return self._outcomes
        if self.cfg.slowmo.noaverage:
            # one final drain so the summary sees all in-flight mass
            self.protocol.end_block(self.states)
        _, _, losses, _, grad_sq, consensus = self.evaluate()
        run = (self.clock.round, self.clock.t, self.partial_final_block, False)
        block = self._x_bar_block()
        finals = zip(losses.tolist(), grad_sq.tolist(), consensus.tolist())
        for g, (loss, *final) in enumerate(finals):
            if self.alive[g]:
                min_loss = min([r["loss"] for r in self._records[g]] + [loss])
                summary = dict(zip(SUMMARY_FIELDS, (loss, *final, min_loss, *run)))
                self._outcomes[g] = MetricsTrace(records=self._records[g], summary=summary,
                                                 x_bar=block[g])
        return self._outcomes

    def _x_bar_block(self) -> np.ndarray:
        """(S, records so far, d): each group's x_bar rows, as many as its
        records while it runs."""
        if not self._x_bars:
            return np.empty((self.groups, 0, self.d))
        return np.stack(self._x_bars, axis=1)
