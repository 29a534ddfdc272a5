"""Inner-loop communication protocols.

Every protocol consumes the stepping workers' half-steps x - gamma*d for one
round, as rows of one array, and updates the stacked worker states
(``WorkerStates``: x (m, d), w (m,)) in place:

    allreduce       exact average of the half-steps every round
    local           no communication at all
    dpsgd           doubly-stochastic gossip with a symmetric one-peer matrix
    sgp             push-sum gossip (column-stochastic), de-biased z = x / w
    osgp            push-sum with non-blocking delayed messages and a
                    staleness bound; a worker that has gone ``staleness``
                    rounds without draining anything blocks until mail arrives
    double-average  local steps, then block-end averaging of both parameters
                    and momentum buffers

Push-sum kinds track a scalar weight w per worker; the de-biased iterate
z = x / w is what gradients are evaluated at and what gets averaged. Mass
conservation (sum of w plus in-flight payload weight equals m) is the
protocol's core invariant; the kernel records it and raises ProtocolError
when it drifts.

Gossip and push-sum rounds mix through a sparse ``SlotMixing`` form of the
round's matrix, compiled from the nonzeros ``topology.mixing_matrix`` builds
out of the edge list (no m x m array) and validated once per period entry
(every entry when a dpsgd protocol is built, on first use for push-sum): a
round costs O(nnz * d), O(m * d) on one-peer graphs, and adds each row's
terms in ascending sender rank, so trajectories match a dense double loop
bit for bit. OSGP keeps its in-flight messages as one batch of arrays per
send round.

All cross-worker reductions accumulate in ascending worker rank so traces are
bit-reproducible; delivered messages drain in (send round, sender rank) order
and in-flight sums add in (sender, receiver, send round) order.

A protocol serves S groups of m workers (one per seed of a stacked run)
as S*m rows: averages reduce per group, mixing is block-diagonal (each
group's edge list offset by g*m), and OSGP draws each group's delays from
its own stream and checks each group's stalls apart. S = 1 is the
ordinary run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .base_optimizers import OptimizerBuffers
from .errors import ConfigError, ProtocolError
from .numerics import STREAM_DELAY, group_sums, repeat_groups, rng_stream
from .topology import TopologySchedule, mixing_matrix, out_neighbor

if TYPE_CHECKING:  # config imports this module
    from .config import ExperimentConfig


class WorkerStates:
    """Every worker's state, stacked with the worker index first: parameters
    ``x`` (m, d), push-sum weights ``w`` (m,) and the optimizer buffers."""

    def __init__(self, x: np.ndarray, buffers: OptimizerBuffers):
        self.x = x
        self.w = np.ones(len(x))
        self.buffers = buffers

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i: int) -> "WorkerView":
        return WorkerView(self.x[i], float(self.w[i]))

    @property
    def z(self) -> np.ndarray:
        """De-biased iterates x / w, (m, d) (equal to x wherever w == 1)."""
        if (self.w <= 0.0).any():
            raise ProtocolError(f"push-sum weight underflow (w={self.w.min()})")
        return self.x / self.w[:, None]


class WorkerView(NamedTuple):
    """Worker i of a WorkerStates: ``x`` is a view of its row, ``w`` a copy of its weight."""

    x: np.ndarray
    w: float

    @property
    def z(self) -> np.ndarray:
        if self.w <= 0.0:
            raise ProtocolError(f"push-sum weight underflow (w={self.w})")
        return self.x / self.w


@dataclass(frozen=True)
class DelayModel:
    """Message transit time in rounds.

    constant: always ``rounds``. geometric: (trials - 1) with success
    probability ``p``, capped at ``cap`` so delays stay bounded.
    """

    kind: str = "constant"
    rounds: int = 0
    p: float = 0.5
    cap: int = 8

    def __post_init__(self):
        if self.kind not in ("constant", "geometric"):
            raise ConfigError(f"unknown delay kind {self.kind!r}")
        if self.kind == "constant" and self.rounds < 0:
            raise ConfigError("constant delay must be >= 0")
        if self.kind == "geometric" and not (0.0 < self.p <= 1.0):
            raise ConfigError("geometric delay needs p in (0, 1]")
        if self.cap < 0:
            raise ConfigError("delay cap must be >= 0")

    def draw(self, rng: np.random.Generator, count: int) -> list[int]:
        """``count`` transit times, using the stream as ``count`` single draws would."""
        if self.kind == "constant":
            return [self.rounds] * count
        return np.minimum(rng.geometric(self.p, size=count) - 1, self.cap).tolist()


def exact_average(states: WorkerStates, groups: int = 1) -> np.ndarray:
    """(groups, d): (1/m) sum_i z_i of each group of m workers, accumulated
    in ascending worker rank.

    Uses the de-biased iterate, which coincides with x whenever w == 1, so
    the same reduction serves plain and push-sum protocols.
    """
    return group_sums(states.z, groups) / (len(states) // groups)


class SlotMixing:
    """A mixing matrix p in padded-row ("slot") form, compiled from its
    nonzeros (rows, cols, weights), listed row by row with columns ascending.

    Slot c holds (rows, cols, weights) of every row's c-th nonzero.
    ``doubly``: rows sum to 1 too. ``self_weight`` is the diagonal p[i, i];
    on a one-peer graph ``receiver[j]`` and ``send_weight[j]`` are sender
    j's out-edge and its weight (j itself and 0 for a worker without one).
    """

    def __init__(self, m: int, rows: np.ndarray, cols: np.ndarray, weights: np.ndarray):
        if (weights < 0).any():
            raise ConfigError("mixing weights must be nonnegative")
        if np.max(np.abs(np.bincount(cols, weights, minlength=m) - 1.0)) > 1e-12:
            raise ConfigError("columns must sum to 1")
        self.doubly = bool(np.max(np.abs(np.bincount(rows, weights, minlength=m) - 1.0)) <= 1e-12)
        position = np.arange(rows.size) - np.searchsorted(rows, rows)
        self.slots = [
            (rows[position == c], cols[position == c], weights[position == c, None])
            for c in range(int(position.max()) + 1)
        ]
        diag, off = rows == cols, rows != cols
        self.self_weight = np.zeros(m)
        self.self_weight[rows[diag]] = weights[diag]
        self.receiver = np.arange(m)
        self.receiver[cols[off]] = rows[off]
        self.send_weight = np.zeros(m)
        self.send_weight[cols[off]] = weights[off]

    def mix(self, values: np.ndarray) -> np.ndarray:
        """out[i] = sum_j p[i, j] values[j] over the rows of ``values``.

        A row's first term is assigned rather than added to zero, so a
        signed zero survives as in a left-to-right sum; empty rows stay zero.
        """
        out = np.zeros_like(values)
        for c, (rows, cols, weights) in enumerate(self.slots):
            term = values[cols]
            term *= weights
            if c:
                out[rows] += term
            else:
                out[rows] = term
        return out


def gossip_round(states: WorkerStates, mixing: SlotMixing, half: np.ndarray) -> WorkerStates:
    """One doubly-stochastic gossip round: x_i <- sum_j p[i,j] half[j]."""
    if not mixing.doubly:
        raise ProtocolError("doubly-stochastic gossip needs row sums 1 within 1e-12")
    states.x = mixing.mix(half)
    return states


def pushsum_round(states: WorkerStates, mixing: SlotMixing, half: np.ndarray) -> WorkerStates:
    """One synchronous push-sum round: mix x and w by the same column-stochastic matrix."""
    states.x = mixing.mix(half)
    states.w = mixing.mix(states.w[:, None])[:, 0]
    return states


def double_average(states: WorkerStates, groups: int = 1) -> WorkerStates:
    """Exact average of both parameters and momentum buffers across each
    group's workers."""
    m = len(states) // groups
    states.x[:] = repeat_groups(group_sums(states.x, groups) / m, m)
    states.buffers.h[:] = repeat_groups(group_sums(states.buffers.h, groups) / m, m)
    return states


def osgp_step(
    sent: np.ndarray,
    received: np.ndarray,
    count_since_last: np.ndarray,
    staleness_limit: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One OSGP round's counter and stall bookkeeping for every worker, from
    the (m,) masks of the workers that sent and that received this round.

    Workers whose clock is stalled this round took no step and sent nothing;
    they only watch their inbox. Returns (count_since_last, stalled): a
    receipt resets the counter; a sender that has waited ``staleness_limit``
    rounds without receiving blocks, and a stalled worker stays blocked
    until mail comes.
    """
    waiting = count_since_last < staleness_limit
    count = np.where(received, 0, count_since_last + (sent & waiting))
    return count, ~received & ~(sent & waiting)


class _ProtocolBase:
    """Kernel-facing adapter: one object per run, consulted every round.

    Every protocol is built as ``cls(cfg, m, schedule, seeds)`` from the
    run's config, its worker count per group, its topology schedule (None for
    the kinds that do not mix) and one seed per group. ``apply_round(states,
    half, round_index)`` gets the stacked states and the (n, d) half-steps
    x - gamma*d of the n rows ``active_workers()`` named, in that order.
    """

    name = "abstract"
    debias = False

    def __init__(self, cfg: ExperimentConfig, m: int, schedule: TopologySchedule | None,
                 seeds: tuple):
        self.m = m
        self.groups = len(seeds)
        self.rows = self.groups * m
        self._everyone = np.arange(self.rows)

    def active_workers(self) -> np.ndarray:
        return self._everyone

    def apply_round(self, states: WorkerStates, half: np.ndarray, round_index: int) -> None:
        raise NotImplementedError

    def end_block(self, states: WorkerStates) -> None:
        """Called after the last inner round of each outer iteration."""

    def inflight_sums(self, dimension: int) -> tuple[np.ndarray, np.ndarray]:
        """Each group's (sum of payloads (S, d), sum of weights (S,)) in flight."""
        return np.zeros((self.groups, dimension)), np.zeros(self.groups)

    def clear_payloads(self, group: int) -> None:
        """Zero the in-flight payloads that ``group``'s workers sent."""


class LocalProtocol(_ProtocolBase):
    name = "local"

    def apply_round(self, states, half, round_index):
        states.x = half


class AllReduceProtocol(_ProtocolBase):
    name = "allreduce"

    def apply_round(self, states, half, round_index):
        states.x[:] = repeat_groups(group_sums(half, self.groups) / self.m, self.m)


class DoubleAverageProtocol(_ProtocolBase):
    name = "double-average"

    def apply_round(self, states, half, round_index):
        states.x = half

    def end_block(self, states):
        double_average(states, self.groups)


class _MixingProtocol(_ProtocolBase):
    """A protocol that mixes through its topology schedule's matrices, each
    validated and compiled once per period entry."""

    stochasticity = "column"

    def __init__(self, cfg, m, schedule, seeds):
        super().__init__(cfg, m, schedule, seeds)
        self.schedule = schedule
        self._compiled: dict[int, SlotMixing] = {}

    def mixing(self, round_index: int) -> SlotMixing:
        """The round's matrix over all S*m rows: block-diagonal, one copy of
        the schedule's matrix per group."""
        key = round_index % self.schedule.period
        if key not in self._compiled:
            rows, cols, weights = mixing_matrix(self.schedule, key, self.stochasticity)
            offsets = np.repeat(np.arange(self.groups) * self.m, rows.size)
            self._compiled[key] = SlotMixing(
                self.rows, np.tile(rows, self.groups) + offsets,
                np.tile(cols, self.groups) + offsets, np.tile(weights, self.groups))
        return self._compiled[key]


class GossipProtocol(_MixingProtocol):
    """Compiles its whole period when built, so a round whose edges cannot
    be paired is a ConfigError before the run starts."""

    name = "dpsgd"
    stochasticity = "doubly"

    def __init__(self, cfg, m, schedule, seeds):
        super().__init__(cfg, m, schedule, seeds)
        for k in range(schedule.period):
            self.mixing(k)

    def apply_round(self, states, half, round_index):
        gossip_round(states, self.mixing(round_index), half)


class PushSumProtocol(_MixingProtocol):
    name = "sgp"
    debias = True

    def apply_round(self, states, half, round_index):
        pushsum_round(states, self.mixing(round_index), half)


class _Batch(NamedTuple):
    """The push-sum messages sent in one round, one row per sender: a
    one-peer round is a bijection, so each receiver appears at most once."""

    send_round: int
    senders: np.ndarray
    receivers: np.ndarray
    deliver: np.ndarray  # delivery rounds
    x: np.ndarray  # (n, d) pre-scaled payloads
    w: np.ndarray  # (n,) push-sum weights

    def take(self, keep: np.ndarray) -> "_Batch":
        return _Batch(self.send_round, *(column[keep] for column in self[1:]))


class OverlapPushSumProtocol(_MixingProtocol):
    """Push-sum with delayed, non-blocking messages and a staleness bound.

    In-flight messages are kept as one ``_Batch`` per send round, in send
    order. Walking the batches in that order delivers each receiver's
    messages in (send round, sender) order. Per-edge FIFO delivery is a
    clamp on the ``(period, m)`` array of each edge's last delivery round:
    on a one-peer graph edge (round % period, sender) is a distinct edge.
    """

    name = "osgp"
    debias = True

    def __init__(self, cfg, m, schedule, seeds):
        super().__init__(cfg, m, schedule, seeds)
        out_neighbor(schedule, 0, 0)  # ConfigError unless every worker has one out-neighbor
        self.staleness = cfg.osgp.staleness
        self.delay = cfg.osgp.delay
        self.batches: list[_Batch] = []
        self.last_delivery = np.full((schedule.period, self.rows), -1, dtype=np.int64)
        self.count_since_last = np.zeros(self.rows, dtype=np.int64)
        self.stalled = np.zeros(self.rows, dtype=bool)
        self._delay_rngs = [rng_stream(seed, STREAM_DELAY, 0) for seed in seeds]

    def active_workers(self):
        return np.flatnonzero(~self.stalled)

    def apply_round(self, states, half, round_index):
        if self.m == 1:
            # no peers: degenerate synchronous case, never stalls
            states.x = half
            return
        sent = ~self.stalled
        senders = np.flatnonzero(sent)
        counts = np.bincount(senders // self.m, minlength=self.groups)
        if not counts.all():
            flying = np.zeros(self.groups, dtype=bool)
            for batch in self.batches:
                flying[batch.senders // self.m] = True
            if (~flying & (counts == 0)).any():
                raise ProtocolError(
                    "every worker is stalled and no messages are in flight"
                )
        mix = self.mixing(round_index)
        # each group draws the delays of its senders in ascending rank
        lags = np.array([lag for rng, count in zip(self._delay_rngs, counts.tolist())
                         for lag in self.delay.draw(rng, count)], dtype=np.int64)
        last = self.last_delivery[round_index % len(self.last_delivery)]
        deliver = np.maximum(round_index + lags, last[senders])  # FIFO per edge
        last[senders] = deliver
        if senders.size:
            weight = mix.send_weight[senders]
            self.batches.append(_Batch(round_index, senders, mix.receiver[senders], deliver,
                                       weight[:, None] * half, weight * states.w[senders]))
        keep = mix.self_weight[senders]
        states.x[senders] = keep[:, None] * half
        states.w[senders] = keep * states.w[senders]
        self.count_since_last, self.stalled = osgp_step(
            sent, self._deliver(states, round_index), self.count_since_last, self.staleness,
        )

    def _deliver(self, states, round_index) -> np.ndarray:
        """Add every payload due by ``round_index`` to its receiver, batch by
        batch in send order; returns the (m,) mask of receivers."""
        received = np.zeros(self.rows, dtype=bool)
        pending = []
        for batch in self.batches:
            due = batch.deliver <= round_index
            if not due.all():
                pending.append(batch.take(~due))
                batch = batch.take(due)
            states.x[batch.receivers] += batch.x
            states.w[batch.receivers] += batch.w
            received[batch.receivers] = True
        self.batches = pending
        return received

    def end_block(self, states):
        """Drain barrier: deliver every message before the block's exact average.
        Nothing is in flight after it, so no edge's FIFO clamp carries over."""
        self._deliver(states, np.inf)
        self.last_delivery[:] = -1
        self.count_since_last[:] = 0
        self.stalled[:] = False

    def inflight_sums(self, dimension):
        """Each group's (sum of payloads, sum of weights) in flight, each
        added from zero in (sender, receiver, send round) order."""
        x_sum, w_sum = super().inflight_sums(dimension)
        if not self.batches:
            return x_sum, w_sum
        senders, receivers, _, x, w = (
            np.concatenate(column) for column in zip(*(b[1:] for b in self.batches)))
        # lexsort is stable and the batches are in send order, so ties on
        # (sender, receiver) stay in send-round order; add.at adds in that order
        order = np.lexsort((receivers, senders))
        groups = senders[order] // self.m
        np.add.at(x_sum, groups, x[order])
        np.add.at(w_sum, groups, w[order])
        return x_sum, w_sum

    def clear_payloads(self, group):
        for batch in self.batches:
            batch.x[batch.senders // self.m == group] = 0.0


PROTOCOLS = {
    "allreduce": AllReduceProtocol,
    "local": LocalProtocol,
    "dpsgd": GossipProtocol,
    "sgp": PushSumProtocol,
    "osgp": OverlapPushSumProtocol,
    "double-average": DoubleAverageProtocol,
}
PROTOCOL_NAMES = tuple(PROTOCOLS)
# the protocols that need a topology schedule
MIXING_PROTOCOLS = frozenset(n for n, cls in PROTOCOLS.items() if issubclass(cls, _MixingProtocol))


def make_protocol(
    cfg: ExperimentConfig, m: int, schedule: TopologySchedule | None, seeds=None
) -> _ProtocolBase:
    """The protocol ``cfg.protocol`` names, for one group of m workers per
    seed in ``seeds`` (default: ``cfg.seed`` alone); a mixing protocol mixes
    by ``schedule``, which the others ignore."""
    seeds = (cfg.seed,) if seeds is None else tuple(seeds)
    return PROTOCOLS[cfg.protocol](cfg, m, schedule, seeds)
