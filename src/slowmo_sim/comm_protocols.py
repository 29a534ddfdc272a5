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
round's matrix, built and validated once per period entry: a round costs
O(nnz * d), O(m * d) on one-peer graphs, and adds each row's terms in
ascending sender rank, so trajectories match a dense double loop bit for bit.

All cross-worker reductions accumulate in ascending worker rank so traces are
bit-reproducible; delivered messages drain in (send round, sender rank) order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .base_optimizers import OptimizerBuffers
from .errors import ConfigError, ProtocolError
from .numerics import STREAM_DELAY, rank_sum, rng_stream
from .topology import MixingMatrix, TopologySchedule, mixing_matrix, out_neighbor

PROTOCOL_NAMES = ("allreduce", "local", "dpsgd", "sgp", "osgp", "double-average")


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


@dataclass
class InFlightMessage:
    """A pre-scaled push-sum payload travelling between two workers."""

    sender: int
    receiver: int
    send_round: int
    deliver_round: int
    payload_x: np.ndarray
    payload_w: float


class MessageQueues:
    """In-flight messages, bucketed by the round they are due."""

    def __init__(self):
        self._due: dict[int, list[InFlightMessage]] = {}

    def send(self, msg: InFlightMessage) -> None:
        self._due.setdefault(msg.deliver_round, []).append(msg)

    def _collect(self, rounds) -> dict[int, list[InFlightMessage]]:
        picked = [msg for r in rounds for msg in self._due.pop(r)]
        picked.sort(key=lambda msg: (msg.send_round, msg.sender))
        inboxes: dict[int, list[InFlightMessage]] = {}
        for msg in picked:
            inboxes.setdefault(msg.receiver, []).append(msg)
        return inboxes

    def deliver(self, round_index: int) -> dict[int, list[InFlightMessage]]:
        """Pop everything scheduled for delivery at or before this round.

        Per receiver, messages arrive in (send_round, sender rank) order;
        per-edge FIFO order is preserved because senders keep delivery
        rounds monotone along each edge.
        """
        return self._collect([r for r in self._due if r <= round_index])

    def drain_all(self) -> dict[int, list[InFlightMessage]]:
        """Barrier: deliver every queued message regardless of schedule."""
        return self._collect(list(self._due))

    def empty(self) -> bool:
        return not self._due

    def pending_sums(self, dimension: int) -> tuple[np.ndarray, float]:
        """(sum of payload_x, sum of payload_w) over all queued messages,
        added in (sender, receiver) order and FIFO order within an edge."""
        msgs = [msg for bucket in self._due.values() for msg in bucket]
        msgs.sort(key=lambda msg: (msg.sender, msg.receiver, msg.send_round))
        vec = np.zeros(dimension)
        mass = 0.0
        for msg in msgs:
            vec += msg.payload_x
            mass += msg.payload_w
        return vec, mass


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


def exact_average(states: WorkerStates) -> np.ndarray:
    """(1/m) sum_i z_i, accumulated in ascending worker rank.

    Uses the de-biased iterate, which coincides with x whenever w == 1, so
    the same reduction serves plain and push-sum protocols.
    """
    return rank_sum(states.z) / len(states)


class SlotMixing:
    """A mixing matrix in padded-row ("slot") form.

    Slot c holds (rows, cols, weights) of every row's c-th nonzero, columns
    ascending within a row. ``doubly``: rows sum to 1 too (MixingMatrix has
    checked the columns). ``self_weight`` is the diagonal p[i, i]; ``peer[j]``
    is the (receiver, weight) of sender j's out-edge on a one-peer graph.
    """

    def __init__(self, mixing: MixingMatrix):
        p = mixing.matrix
        self.doubly = bool(np.max(np.abs(p.sum(axis=1) - 1.0)) <= 1e-12)
        rows, cols = np.nonzero(p)  # row-major: columns ascend within each row
        weights = p[rows, cols]
        position = np.arange(rows.size) - np.searchsorted(rows, rows)
        self.slots = [
            (rows[position == c], cols[position == c], weights[position == c, None])
            for c in range(int(position.max()) + 1)
        ]
        self.self_weight = np.diag(p).copy()
        off = rows != cols
        self.peer = dict(zip(cols[off].tolist(), zip(rows[off].tolist(), weights[off].tolist())))

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


def double_average(states: WorkerStates) -> WorkerStates:
    """Exact average of both parameters and momentum buffers across workers."""
    m = len(states)
    states.x[:] = rank_sum(states.x) / m
    states.buffers.h[:] = rank_sum(states.buffers.h) / m
    return states


def _absorb(states: WorkerStates, inboxes: dict[int, list[InFlightMessage]]) -> list[int]:
    """Add every delivered payload to its receiver, in inbox order; returns the receivers."""
    for i, inbox in inboxes.items():
        for msg in inbox:
            states.x[i] += msg.payload_x
            states.w[i] += msg.payload_w
    return list(inboxes)


def osgp_step(
    states: WorkerStates,
    half: np.ndarray,
    senders: np.ndarray,
    self_weight: np.ndarray,
    inboxes: dict[int, list[InFlightMessage]],
    count_since_last: np.ndarray,
    staleness_limit: int,
) -> tuple[np.ndarray, np.ndarray]:
    """One OSGP round's bookkeeping for every worker, after the sends.

    The ``senders`` (ascending; row r of ``half`` is the r-th one's
    half-step) keep ``self_weight`` of their half-step and weight, the rest
    being in flight. Workers whose clock is stalled this round took no step
    and sent nothing; they only watch their inbox. Then every worker drains
    what arrived. Returns (count_since_last, stalled): a drain resets the
    counter; a sender that has waited ``staleness_limit`` rounds without
    receiving blocks, and a stalled worker stays blocked until mail comes.
    """
    p = self_weight[senders]
    states.x[senders] = p[:, None] * half
    states.w[senders] = p * states.w[senders]
    received = np.zeros(len(states), dtype=bool)
    received[_absorb(states, inboxes)] = True
    sent = np.zeros(len(states), dtype=bool)
    sent[senders] = True
    waiting = count_since_last < staleness_limit
    count = np.where(received, 0, count_since_last + (sent & waiting))
    return count, ~received & ~(sent & waiting)


class _ProtocolBase:
    """Kernel-facing adapter: one object per run, consulted every round.

    ``apply_round(states, half, round_index)`` gets the stacked states and
    the (n, d) half-steps x - gamma*d of the n workers ``active_workers()``
    named, in that order.
    """

    name = "abstract"
    debias = False

    def __init__(self, m: int):
        self.m = m
        self._everyone = np.arange(m)

    def active_workers(self) -> np.ndarray:
        return self._everyone

    def apply_round(self, states: WorkerStates, half: np.ndarray, round_index: int) -> None:
        raise NotImplementedError

    def end_block(self, states: WorkerStates) -> None:
        """Called after the last inner round of each outer iteration."""

    def inflight_sums(self, dimension: int) -> tuple[np.ndarray, float]:
        return np.zeros(dimension), 0.0


class LocalProtocol(_ProtocolBase):
    name = "local"

    def apply_round(self, states, half, round_index):
        states.x = half


class AllReduceProtocol(_ProtocolBase):
    name = "allreduce"

    def apply_round(self, states, half, round_index):
        states.x[:] = rank_sum(half) / self.m


class DoubleAverageProtocol(_ProtocolBase):
    name = "double-average"

    def apply_round(self, states, half, round_index):
        states.x = half

    def end_block(self, states):
        double_average(states)


class _MixingCache:
    """The schedule's mixing matrices, validated and compiled once per period entry."""

    def __init__(self, schedule: TopologySchedule, stochasticity: str):
        self.schedule = schedule
        self.stochasticity = stochasticity
        self._cache: dict[int, SlotMixing] = {}

    def at(self, round_index: int) -> SlotMixing:
        key = round_index % self.schedule.period
        if key not in self._cache:
            self._cache[key] = SlotMixing(mixing_matrix(self.schedule, key, self.stochasticity))
        return self._cache[key]


class GossipProtocol(_ProtocolBase):
    name = "dpsgd"

    def __init__(self, m, schedule: TopologySchedule):
        super().__init__(m)
        self.mixing = _MixingCache(schedule, "doubly")

    def apply_round(self, states, half, round_index):
        gossip_round(states, self.mixing.at(round_index), half)


class PushSumProtocol(_ProtocolBase):
    name = "sgp"
    debias = True

    def __init__(self, m, schedule: TopologySchedule):
        super().__init__(m)
        self.mixing = _MixingCache(schedule, "column")

    def apply_round(self, states, half, round_index):
        pushsum_round(states, self.mixing.at(round_index), half)


class OverlapPushSumProtocol(_ProtocolBase):
    """Push-sum with delayed, non-blocking messages and a staleness bound."""

    name = "osgp"
    debias = True

    def __init__(self, m, schedule: TopologySchedule, staleness: int,
                 delay: DelayModel, seed: int):
        super().__init__(m)
        if staleness < 0:
            raise ConfigError("staleness bound must be >= 0")
        out_neighbor(schedule, 0, 0)  # ConfigError unless every worker has one out-neighbor
        self.staleness = staleness
        self.delay = delay
        self.mixing = _MixingCache(schedule, "column")
        self.queues = MessageQueues()
        self.count_since_last = np.zeros(m, dtype=np.int64)
        self.stalled = np.zeros(m, dtype=bool)
        self._delay_rng = rng_stream(seed, STREAM_DELAY, 0)
        self._last_sched: dict[tuple[int, int], int] = {}

    def active_workers(self):
        return np.flatnonzero(~self.stalled)

    def apply_round(self, states, half, round_index):
        if self.m == 1:
            # no peers: degenerate synchronous case, never stalls
            states.x = half
            return
        senders = self.active_workers()
        if not senders.size and self.queues.empty():
            raise ProtocolError(
                "every worker is stalled and no messages are in flight"
            )
        mix = self.mixing.at(round_index)
        # sends happen first, in ascending rank, so delay draws are ordered
        lags = self.delay.draw(self._delay_rng, senders.size)
        weights = states.w.tolist()
        for row, (i, lag) in enumerate(zip(senders.tolist(), lags)):
            nbr, weight = mix.peer[i]
            deliver = round_index + lag
            edge = (i, nbr)
            prev = self._last_sched.get(edge, -1)
            if deliver < prev:
                deliver = prev  # clamp so per-edge delivery stays FIFO
            self._last_sched[edge] = deliver
            self.queues.send(
                InFlightMessage(
                    sender=i,
                    receiver=nbr,
                    send_round=round_index,
                    deliver_round=deliver,
                    payload_x=weight * half[row],
                    payload_w=weight * weights[i],
                )
            )
        self.count_since_last, self.stalled = osgp_step(
            states, half, senders, mix.self_weight, self.queues.deliver(round_index),
            self.count_since_last, self.staleness,
        )

    def end_block(self, states):
        """Drain barrier: flush every queue before the block's exact average."""
        _absorb(states, self.queues.drain_all())
        self.count_since_last[:] = 0
        self.stalled[:] = False

    def inflight_sums(self, dimension):
        return self.queues.pending_sums(dimension)


def make_protocol(
    name: str,
    m: int,
    schedule: TopologySchedule | None = None,
    staleness: int = 4,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> _ProtocolBase:
    if name == "local":
        return LocalProtocol(m)
    if name == "allreduce":
        return AllReduceProtocol(m)
    if name == "double-average":
        return DoubleAverageProtocol(m)
    if schedule is None:
        raise ConfigError(f"protocol {name!r} needs a topology schedule")
    if name == "dpsgd":
        return GossipProtocol(m, schedule)
    if name == "sgp":
        return PushSumProtocol(m, schedule)
    if name == "osgp":
        return OverlapPushSumProtocol(
            m, schedule, staleness, delay or DelayModel(), seed
        )
    raise ConfigError(f"unknown protocol {name!r}")
