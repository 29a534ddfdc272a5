"""Inner-loop communication protocols.

Every protocol consumes the workers' half-steps x - gamma*d for one round and
produces the post-communication states:

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

import numpy as np

from .base_optimizers import OptimizerBuffers
from .errors import ConfigError, ProtocolError
from .numerics import STREAM_DELAY, rng_stream
from .topology import MixingMatrix, TopologySchedule, mixing_matrix, out_neighbor

PROTOCOL_NAMES = ("allreduce", "local", "dpsgd", "sgp", "osgp", "double-average")


@dataclass
class WorkerState:
    """One worker: parameters x, push-sum weight w, optimizer buffers."""

    x: np.ndarray
    buffers: OptimizerBuffers
    w: float = 1.0

    @property
    def z(self) -> np.ndarray:
        """De-biased iterate x / w (equals x whenever w == 1). Read-only."""
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


def rank_sum(vectors: list[np.ndarray]) -> np.ndarray:
    """sum_i v_i as a new array, accumulated in ascending worker rank."""
    total = vectors[0].copy()
    for v in vectors[1:]:
        total += v
    return total


def exact_average(states: list[WorkerState]) -> np.ndarray:
    """(1/m) sum_i z_i, accumulated in ascending worker rank.

    Uses the de-biased iterate, which coincides with x whenever w == 1, so
    the same reduction serves plain and push-sum protocols.
    """
    return rank_sum([s.z for s in states]) / len(states)


class SlotMixing:
    """A mixing matrix in padded-row ("slot") form.

    Slot c holds (rows, cols, weights) of every row's c-th nonzero, columns
    ascending within a row. ``doubly``: rows sum to 1 too (MixingMatrix has
    checked the columns). ``self_weight[i]`` is p[i, i]; ``peer[j]`` is the
    (receiver, weight) of sender j's out-edge on a one-peer graph.
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
        self.self_weight = np.diag(p).tolist()
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


def gossip_round(
    states: list[WorkerState], mixing: SlotMixing, half_x: list[np.ndarray]
) -> list[WorkerState]:
    """One doubly-stochastic gossip round: x_i <- sum_j p[i,j] half_x[j]."""
    if not mixing.doubly:
        raise ProtocolError("doubly-stochastic gossip needs row sums 1 within 1e-12")
    for s, x in zip(states, mixing.mix(np.stack(half_x))):
        s.x = x
    return states


def pushsum_round(
    states: list[WorkerState], mixing: SlotMixing, half_x: list[np.ndarray]
) -> list[WorkerState]:
    """One synchronous push-sum round: mix x and w by the same column-stochastic matrix."""
    new_x = mixing.mix(np.stack(half_x))
    new_w = mixing.mix(np.array([[s.w] for s in states]))[:, 0].tolist()
    for s, x, w in zip(states, new_x, new_w):
        s.x = x
        s.w = w
    return states


def double_average(states: list[WorkerState]) -> list[WorkerState]:
    """Exact average of both parameters and momentum buffers across workers."""
    x_mean = rank_sum([s.x for s in states]) / len(states)
    h_mean = rank_sum([s.buffers.h for s in states]) / len(states)
    for s in states:
        s.x = x_mean.copy()
        s.buffers.h[:] = h_mean
    return states


def osgp_step(
    state: WorkerState,
    half_x: np.ndarray | None,
    p_self: float,
    inbox: list[InFlightMessage],
    count_since_last: int,
    staleness_limit: int,
) -> tuple[WorkerState, int, bool]:
    """One worker's OSGP bookkeeping after its (possible) send.

    ``half_x is None`` marks a worker whose clock is stalled this round: it
    took no gradient step and sent nothing, it only watches its inbox. An
    active worker keeps p_self of its own half-step (the rest is in flight),
    then drains whatever arrived. Returns (state, count_since_last, stalled):
    a drain resets the counter; an active worker that has waited
    ``staleness_limit`` rounds without receiving blocks.
    """
    if half_x is not None:
        state.x = p_self * half_x
        state.w = p_self * state.w
    received = False
    for msg in inbox:
        state.x += msg.payload_x
        state.w += msg.payload_w
        received = True
    if received:
        return state, 0, False
    if half_x is None:
        return state, count_since_last, True
    if count_since_last >= staleness_limit:
        return state, count_since_last, True
    return state, count_since_last + 1, False


class _ProtocolBase:
    """Kernel-facing adapter: one object per run, consulted every round."""

    name = "abstract"
    debias = False

    def __init__(self, m: int):
        self.m = m

    def active_workers(self) -> list[int]:
        return list(range(self.m))

    def apply_round(self, states, half_x: dict, round_index: int) -> None:
        raise NotImplementedError

    def end_block(self, states) -> None:
        """Called after the last inner round of each outer iteration."""

    def inflight_sums(self, dimension: int) -> tuple[np.ndarray, float]:
        return np.zeros(dimension), 0.0


class LocalProtocol(_ProtocolBase):
    name = "local"

    def apply_round(self, states, half_x, round_index):
        for i in range(self.m):
            states[i].x = half_x[i]


class AllReduceProtocol(_ProtocolBase):
    name = "allreduce"

    def apply_round(self, states, half_x, round_index):
        mean = rank_sum([half_x[i] for i in range(self.m)]) / self.m
        for i in range(self.m):
            states[i].x = mean.copy()


class DoubleAverageProtocol(_ProtocolBase):
    name = "double-average"

    def apply_round(self, states, half_x, round_index):
        for i in range(self.m):
            states[i].x = half_x[i]

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

    def apply_round(self, states, half_x, round_index):
        half = [half_x[i] for i in range(self.m)]
        gossip_round(states, self.mixing.at(round_index), half)


class PushSumProtocol(_ProtocolBase):
    name = "sgp"
    debias = True

    def __init__(self, m, schedule: TopologySchedule):
        super().__init__(m)
        self.mixing = _MixingCache(schedule, "column")

    def apply_round(self, states, half_x, round_index):
        half = [half_x[i] for i in range(self.m)]
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
        self.count_since_last = [0] * m
        self.stalled = [False] * m
        self._delay_rng = rng_stream(seed, STREAM_DELAY, 0)
        self._last_sched: dict[tuple[int, int], int] = {}

    def active_workers(self):
        return [i for i in range(self.m) if not self.stalled[i]]

    def apply_round(self, states, half_x, round_index):
        m = self.m
        if m == 1:
            # no peers: degenerate synchronous case, never stalls
            if 0 in half_x:
                states[0].x = half_x[0]
            return
        if not half_x and self.queues.empty():
            raise ProtocolError(
                "every worker is stalled and no messages are in flight"
            )
        mix = self.mixing.at(round_index)
        # sends happen first, in ascending rank, so delay draws are ordered
        senders = sorted(half_x)
        lags = self.delay.draw(self._delay_rng, len(senders))
        for i, lag in zip(senders, lags):
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
                    payload_x=weight * half_x[i],
                    payload_w=weight * states[i].w,
                )
            )
        inboxes = self.queues.deliver(round_index)
        for i in range(m):
            _, count, stalled = osgp_step(
                states[i],
                half_x.get(i),
                mix.self_weight[i],
                inboxes.get(i, []),
                self.count_since_last[i],
                self.staleness,
            )
            self.count_since_last[i] = count
            self.stalled[i] = stalled

    def end_block(self, states):
        """Drain barrier: flush every queue before the block's exact average."""
        inboxes = self.queues.drain_all()
        for i in range(self.m):
            for msg in inboxes.get(i, []):
                states[i].x += msg.payload_x
                states[i].w += msg.payload_w
            self.count_since_last[i] = 0
            self.stalled[i] = False

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
