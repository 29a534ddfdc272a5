"""Deterministic multi-worker simulation kernel.

The kernel owns the clocks, per-worker RNG streams, metric recording, and
NaN policing; the algorithmic content lives in slowmo (outer loop),
base_optimizers (inner directions), and comm_protocols (rounds, messages).

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
``stochastic_gradients`` for the stepping workers, one ``local_direction``
and one protocol ``apply_round`` on the (n, d) half-steps. Every batched
form adds in ascending worker rank within a group and is bit for bit the
per-worker loop it replaces, so each group's trace is bit for bit the
trace of its seed run alone, independent of how the state is laid out and
of which groups run beside it.

Metrics are recorded at the start of every inner round (subject to
``metric_cadence``), so with cadence 1 a run of T outer iterations of length
tau yields exactly tau*T records per group; record r describes the state
the r-th step was taken from. At its round a record keeps its clock, x (a
copy when it waits for its batch), the points (z under push-sum, else that
x), the (S, d) in-flight payload sums, the push-sum mass and its log_bias
inputs. Once RECORD_BATCH_VALUES // (S*m*d*max(shard rows, 1)) records wait
(or a trace is handed out), one pass takes the batch the whole way: its
x_bar and consensus (one ``mean_x`` and ``consensus_sq`` call), the loss
and gradient at x_bar (one ``group_losses_and_gradients`` call) and, under
log_bias, the gap to the mean expected direction (one ``gradients`` call).
The summary is observed and reduced as a last row. Each row has the bits of
its own reduction alone, and recording never touches the trajectory.
The average iterate x_bar counts in-flight push-sum payloads so no mass
ever escapes the metrics; every record (and the final summary) of a
push-sum protocol refuses a mass that has drifted from m, at its round.
The other protocols never write w, so their mass is m.

A group whose state turns non-finite ends its own trace there with a
``NumericalAbort`` (records so far, summary ``aborted``), as a run of that
seed alone would; its rows are zeroed from then on and the other groups
go on. The run ends when every group has ended.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .base_optimizers import OptimizerBuffers, local_direction
from .comm_protocols import MIXING_PROTOCOLS, WorkerStates, make_protocol
from .errors import ConfigError, NumericalAbort, ProtocolError
from .numerics import (
    NOISE_BLOCK_VALUES,
    RECORD_BATCH_VALUES,
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


class MetricsTrace:
    """Recorded metrics, a run summary, and the records' average iterates as
    the rows of an (n_records, d) float64 ``x_bar``. A run's records are
    ``columns``, a 1-D array per ``RECORD_FIELDS`` entry (``bias_sq`` float64,
    or an object column holding None where a record has no closed form),
    which ``to_jsonl`` and ``trace_hash`` read;
    ``records``, a dict per record, is built from them on first access. A
    trace is given ``records`` or ``columns``, not both; one read from JSONL
    is given ``records`` and no ``x_bar``."""

    def __init__(self, records=None, summary=None, x_bar=None, columns=None):
        if records is not None and columns is not None:
            raise TypeError("a MetricsTrace takes records or columns, not both")
        if columns is None:
            self.records = [] if records is None else records
        self.columns, self.summary = columns, {} if summary is None else summary
        self.x_bar = np.empty((0, 0)) if x_bar is None else x_bar

    def __len__(self) -> int:
        """The number of records."""
        return len(self.records if self.columns is None else self.columns["t"])

    @functools.cached_property
    def records(self) -> list:
        rows = zip(*(col.tolist() for col in self.columns.values()))
        return [dict(zip(self.columns, row)) for row in rows]

    def to_jsonl(self) -> str:
        """One ``json.dumps`` line per record; from columns, one per column, cut
        at its ", " separators (no number, NaN, Infinity or null holds one),
        and one value for a float column whose values share one bit pattern."""
        if self.columns is None or not len(self.columns["t"]):
            return "\n".join(json.dumps(rec) for rec in self.records)
        fields, cells = [], []
        for name, col in self.columns.items():
            bits = col.view(np.int64) if col.dtype == np.float64 else None
            if bits is not None and (bits == bits[0]).all():  # t is int64: never folded
                fields.append(f"{json.dumps(name)}: {json.dumps(float(col[0]))}")
            else:
                fields.append(f"{json.dumps(name)}: %s")
                cells.append(json.dumps(col.tolist())[1:-1].split(", "))
        return "\n".join(map(("{" + ", ".join(fields) + "}").__mod__, zip(*cells)))

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
        # any block size draws the same rows: as many rounds as fit in
        # NOISE_BLOCK_VALUES, at least min(tau, 64), at most the whole run
        block = max(min(tau, 64), NOISE_BLOCK_VALUES // (S * m * d))
        self.worker_streams = WorkerStreams(self.seeds, m, d, min(block, self.total_steps))
        self.clock = SimClock()
        # noaverage: one private slow iterate and buffer per worker, as rows
        x_outer = np.repeat(x0, m, axis=0) if cfg.slowmo.noaverage else x0
        self.slow = SlowMoState(x_outer=x_outer, u=np.zeros(x_outer.shape))

        self.slow_average_calls = 0  # line-6 exact averages actually performed
        # per record its (t, k, round, gamma), and its snapshot until its batch
        # is reduced; then, per batch of records, each group's (S, n, d) x_bar,
        # (S, n, 5) values (loss, grad_norm_sq, consensus_sq, weight_mass, bias
        # gap) and (S, n) mask of the gaps measured
        self._clocks, self._snapshots = [], []
        self._reduced = [(np.empty((S, 0, d)), np.empty((S, 0, 5)), np.empty((S, 0), bool))]
        self._unit_mass = np.full(S, float(m))
        # snapshots per reduction
        self._batch = max(1, RECORD_BATCH_VALUES // (S * m * d * max(problem.shard_size, 1)))
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

    def mean_x(self, x: np.ndarray, inflight_x: np.ndarray) -> np.ndarray:
        """(R, S, d): each group's average of worker parameters plus its in-flight
        payload sum, for R records of (R, S*m, d) parameters and (R, S, d) sums."""
        total = group_sums(x.reshape(-1, self.d), len(x) * self.groups).reshape(inflight_x.shape)
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

    def consensus_sq(self, points: np.ndarray, xbar: np.ndarray) -> np.ndarray:
        """(R, S): each group's mean squared distance of its points from its x_bar,
        for R records of (R, S*m, d) points and (R, S, d) x_bar rows."""
        diff = points - repeat_groups(xbar, self.m)
        dots = row_dots(diff, diff).reshape(-1, 1)
        return group_sums(dots, len(dots) // self.m, 0.0).reshape(xbar.shape[:-1]) / self.m

    def _observe(self) -> None:
        """Keep this round's snapshot (x, the points, the in-flight sums, the mass,
        checked here; under log_bias the groups in which every worker steps, and
        Nesterov's h); reduce the snapshots once they fill a batch."""
        inflight_x, inflight_w = self.protocol.inflight_sums(self.d)
        copy = self._batch > 1  # a snapshot that waits for its batch is a copy, as x moves on
        x = self.states.x.copy() if copy else self.states.x
        if self.protocol.debias:
            snapshot = (x, self.states.z, inflight_x, self.weight_mass(inflight_w))
        else:  # w stays exactly 1.0, and the mass is m as adding it gives
            snapshot = (x, x, inflight_x, self._unit_mass)
        if self.cfg.log_bias:  # E[d_i] has a closed form where all step, but not for Adam
            steps = np.bincount(self.protocol.active_workers() // self.m, minlength=self.groups)
            snapshot += ((steps == self.m) & (self.cfg.base.kind != "adam"),)
            if self.cfg.base.kind == "sgd-nesterov":
                snapshot += (self.states.buffers.h.copy() if copy else self.states.buffers.h,)
        self._snapshots.append(snapshot)
        if len(self._snapshots) == self._batch:
            self._reduce()

    def _reduce(self) -> None:
        """Every value of the records whose snapshots wait, in one pass: x_bar,
        consensus, the loss and gradient at x_bar and, under log_bias, each
        group's gap ||grad f(x_bar) - (1/m) sum_i E[d_i]||^2 where its mask has it."""
        if not self._snapshots:
            return
        x, points, inflight_x, mass, *bias = (np.stack(rows) if len(rows) > 1 else rows[0][None]
                                              for rows in zip(*self._snapshots))
        self._snapshots.clear()
        xbar = self.mean_x(x, inflight_x)
        losses, gbar = group_losses_and_gradients(self.problem, xbar)
        grad_sq = gaps = row_dots(gbar, gbar)  # a gap is read only where measured
        full = np.zeros(mass.shape, dtype=bool)  # where it is measured
        if bias:
            full, *h = bias
            if full.any():
                expected = self.problem.gradients(points, np.arange(len(self.states)))
                if h:  # Nesterov: E[d] = bl^2 h + (1 + bl) grad
                    bl = self.cfg.base.beta_local
                    expected = bl * bl * h[0] + (1.0 + bl) * expected
                means = group_sums(expected.reshape(-1, self.d), full.size, 0.0) / self.m
                diff = gbar - means.reshape(gbar.shape)
                gaps = row_dots(diff, diff)
        values = np.stack((losses, grad_sq, self.consensus_sq(points, xbar), mass, gaps), -1)
        self._reduced.append((xbar.swapaxes(0, 1), values.swapaxes(0, 1), full.T))

    def record_metrics(self, gamma: float) -> None:
        if self.clock.round % self.cfg.metric_cadence != 0:
            return
        self._observe()
        self._clocks.append((self.clock.t, self.clock.k, self.clock.round, float(gamma)))

    def _traces(self) -> tuple:
        """Each group's MetricsTrace of every record so far, without a summary,
        and the (S, n, 5) values of every row (the summary's last, once observed)."""
        self._reduce()
        self._reduced = [tuple(np.concatenate(parts, axis=1) for parts in zip(*self._reduced))]
        x_bar, values, full = self._reduced[0]
        n = len(self._clocks)
        clock = np.array(self._clocks).reshape(n, 4)
        t, k, rounds = clock[:, :3].astype(np.int64).T
        # a float column where every group has every record's gap, else None where not
        gaps, full = values[:, :n, 4], full[:, :n]
        bias = gaps if full.all() else np.where(full, gaps, None)
        traces = [MetricsTrace(x_bar=x_bar[g, :n], columns=dict(zip(RECORD_FIELDS, (
            t, k, rounds, clock[:, 3], *values[g, :n, :4].T, bias[g])))) for g in range(self.groups)]
        return traces, values

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
        # w stays exactly 1.0 unless push-sum mixes it
        if np.isfinite(x).all() and (not self.protocol.debias or np.isfinite(w).all()):
            return
        finite = (np.isfinite(x).all(axis=1) & np.isfinite(w)).reshape(self.groups, self.m)
        traces, _ = self._traces()
        for g in np.flatnonzero(~finite.all(axis=1)).tolist():
            i = int(np.argmin(finite[g]))  # the group's first worker with a non-finite value
            diag = {
                "t": self.clock.t, "k": self.clock.k,
                "round": self.clock.round, "worker": i,
            }
            trace = traces[g]
            trace.summary = {"aborted": True, **diag}
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
        self._observe()  # the summary's, reduced as the last row
        traces, values = self._traces()
        run = (self.clock.round, self.clock.t, self.partial_final_block, False)
        for g, trace in enumerate(traces):
            if self.alive[g]:
                loss, *final = values[g, -1, :3].tolist()
                min_loss = min([*trace.columns["loss"].tolist(), loss])
                trace.summary = dict(zip(SUMMARY_FIELDS, (loss, *final, min_loss, *run)))
                self._outcomes[g] = trace
        return self._outcomes
