"""Inner-loop communication protocols.

Every protocol consumes the stepping workers' half-steps x - gamma*d for one
round, as rows of one array, and updates the stacked worker states
(``WorkerStates``: x (m, d), w (m,)) in place:

    allreduce       exact average of the half-steps every round
    local           no communication at all; with base.buffer_strategy
                    "average" it is double averaging (Yu et al. 2019)
    dpsgd           doubly-stochastic gossip with a symmetric one-peer matrix
    sgp             push-sum gossip (column-stochastic), de-biased z = x / w
    osgp            push-sum with non-blocking delayed messages and a
                    staleness bound; a worker that has gone ``staleness``
                    rounds without draining anything blocks until mail arrives

Push-sum kinds track a scalar weight w per worker; the de-biased iterate
z = x / w is what gradients are evaluated at and what gets averaged. Mass
conservation (sum of w plus in-flight payload weight equals m) is the
protocol's core invariant; the kernel records it and raises ProtocolError
when it drifts.

Gossip and push-sum rounds mix with one peer per worker (row i of
``topology.mixing_matrix`` is 1/2 on i and 1/2 on its peer, no m x m
array). A protocol builds its whole period as one ``(period, S*m)`` table
of peers when it is built, and a round is ``0.5 v[peers] + 0.5 v``: O(m *
d), and bit for bit a dense double loop, as a sum of two terms does not
depend on their order. A group of one worker has no peer, and its rounds
are the identity. OSGP sends to the inverse of the peers, a second table
built from ``topology.out_neighbor``'s hops, and keeps its in-flight
messages as the rows of one flat store of plain arrays in send order
(senders, receivers, delivery rounds, payloads, weights); it delivers the
due rows with one ordered ``np.add.at`` each for x and w.

All cross-worker reductions accumulate in ascending worker rank so traces are
bit-reproducible; delivered messages drain in (send round, sender rank) order
and in-flight sums add in (sender, receiver, send round) order.

A protocol serves S groups of m workers (one per seed of a stacked run)
as S*m rows: averages reduce per group, mixing is block-diagonal (each
group's peers offset by g*m), and OSGP draws each group's delays from
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
        return WorkerView(self.x[i])

    @property
    def z(self) -> np.ndarray:
        """De-biased iterates x / w, (m, d) (equal to x wherever w == 1)."""
        if (self.w <= 0.0).any():
            raise ProtocolError(f"push-sum weight underflow (w={self.w.min()})")
        return self.x / self.w[:, None]


class WorkerView(NamedTuple):
    """Worker i of a WorkerStates: ``x`` is a view of its row."""

    x: np.ndarray


DELAY_KINDS = ("constant", "geometric")


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
        if self.kind not in DELAY_KINDS:
            raise ConfigError(f"unknown delay kind {self.kind!r}")
        if self.kind == "constant" and self.rounds < 0:
            raise ConfigError("constant delay must be >= 0")
        if self.kind == "geometric" and not (0.0 < self.p <= 1.0):
            raise ConfigError("geometric delay needs p in (0, 1]")
        if self.cap < 0:
            raise ConfigError("delay cap must be >= 0")

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` transit times, using the stream as ``count`` single draws would."""
        if self.kind == "constant":
            return np.full(count, self.rounds)
        return np.minimum(rng.geometric(self.p, size=count) - 1, self.cap)


def exact_average(states: WorkerStates, groups: int = 1) -> np.ndarray:
    """(groups, d): (1/m) sum_i z_i of each group of m workers, accumulated
    in ascending worker rank.

    Uses the de-biased iterate, which coincides with x whenever w == 1, so
    the same reduction serves plain and push-sum protocols.
    """
    return group_sums(states.z, groups) / (len(states) // groups)


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
    moving = sent & (count_since_last < staleness_limit)
    return np.where(received, 0, count_since_last + moving), ~(received | moving)


class _ProtocolBase:
    """Kernel-facing adapter: one object per run, consulted every round.

    Every protocol is built as ``cls(cfg, m, schedule, seeds)`` from the
    run's config, its worker count per group, its topology schedule (None for
    the kinds that do not mix) and one seed per group. ``apply_round(states,
    half, round_index)`` gets the stacked states and the (n, d) half-steps
    x - gamma*d of the n rows ``active_workers()`` named, in that order.
    """

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
    def apply_round(self, states, half, round_index):
        states.x = half


class AllReduceProtocol(_ProtocolBase):
    def apply_round(self, states, half, round_index):
        states.x[:] = repeat_groups(group_sums(half, self.groups) / self.m, self.m)


class _MixingProtocol(_ProtocolBase):
    """A protocol that mixes by its topology schedule. ``peers`` (period,
    S*m), built once here, holds each row's peer in every period entry:
    group g's copy of the entry's ``mixing_matrix``, offset by g*m."""

    stochasticity = "column"

    def __init__(self, cfg, m, schedule, seeds):
        super().__init__(cfg, m, schedule, seeds)
        self.peers = self._by_entry([mixing_matrix(schedule, k, self.stochasticity)
                                     for k in range(schedule.period)])

    def _by_entry(self, maps) -> np.ndarray:
        """(period, S*m): each entry's (m,) map, group g's copy offset by g*m."""
        return np.array([(row + self.m * np.arange(self.groups)[:, None]).ravel() for row in maps])

    def mix(self, values: np.ndarray, round_index: int) -> np.ndarray:
        """out[i] = 0.5 values[peer of i] + 0.5 values[i] over the rows of
        ``values``: the round's matrix times ``values``, bit for bit, as IEEE
        addition of two terms does not depend on their order."""
        out = values[self.peers[round_index % len(self.peers)]]
        out *= 0.5
        out += 0.5 * values
        return out

    def alone(self, states: WorkerStates, half: np.ndarray) -> bool:
        """Whether each group is one worker, which has no peer: its round is
        the identity, x <- half (0.5 v + 0.5 v is not v for an odd subnormal)."""
        if self.m == 1:
            states.x = half
        return self.m == 1


class GossipProtocol(_MixingProtocol):
    """Doubly-stochastic gossip: x_i <- sum_j p[i,j] half[j]. A round whose
    workers cannot be paired is a ConfigError when it is built."""

    stochasticity = "doubly"

    def apply_round(self, states, half, round_index):
        if not self.alone(states, half):
            states.x = self.mix(half, round_index)


class PushSumProtocol(_MixingProtocol):
    """Synchronous push-sum: x and w mix by the same column-stochastic matrix."""

    debias = True

    def apply_round(self, states, half, round_index):
        if not self.alone(states, half):
            states.x = self.mix(half, round_index)
            states.w = self.mix(states.w, round_index)


class OverlapPushSumProtocol(_MixingProtocol):
    """Push-sum with delayed, non-blocking messages and a staleness bound.

    In-flight messages are the rows of ``senders``, ``receivers``, ``deliver``
    (delivery rounds), ``payloads`` (n, d) and ``weights`` (n,), in send
    order. ``np.add.at`` adds repeated indices in index order, so adding the
    due rows in that order delivers each receiver's messages in (send round,
    sender) order. Per-edge FIFO delivery is a clamp on the ``(period, m)``
    array of each edge's last delivery round: with one peer per round, edge
    (round % period, sender) is a distinct edge.
    """

    debias = True

    def __init__(self, cfg, m, schedule, seeds):
        super().__init__(cfg, m, schedule, seeds)
        self.staleness = cfg.osgp.staleness
        self.delay = cfg.osgp.delay
        # the row each sender's half goes to: the inverse of ``peers``
        self.sends_to = self._by_entry([(np.arange(m) + out_neighbor(schedule, 0, k)) % m
                                        for k in range(schedule.period)])
        self.senders = self.receivers = self.deliver = np.empty(0, dtype=np.int64)
        self.payloads, self.weights = np.empty((0, 0)), np.empty(0)
        self.last_delivery = np.full((schedule.period, self.rows), -1, dtype=np.int64)
        self.count_since_last = np.zeros(self.rows, dtype=np.int64)
        self.stalled = np.zeros(self.rows, dtype=bool)
        self._delay_rngs = [rng_stream(seed, STREAM_DELAY, 0) for seed in seeds]

    def active_workers(self):
        return np.flatnonzero(~self.stalled)

    def apply_round(self, states, half, round_index):
        if self.alone(states, half):  # never stalls
            return
        sent = ~self.stalled
        senders = np.flatnonzero(sent)
        counts = np.bincount(senders // self.m, minlength=self.groups)
        if not counts.all():
            flying = np.bincount(self.senders // self.m, minlength=self.groups)
            if (counts + flying == 0).any():
                raise ProtocolError("every worker is stalled and no messages are in flight")
        receivers = self.sends_to[round_index % len(self.sends_to)][senders]
        # each group draws the delays of its senders in ascending rank
        lags = np.concatenate([self.delay.draw(rng, count)
                               for rng, count in zip(self._delay_rngs, counts.tolist())])
        last = self.last_delivery[round_index % len(self.last_delivery)]
        deliver = np.maximum(round_index + lags, last[senders])  # FIFO per edge
        last[senders] = deliver
        # a sender keeps one half of x and w and sends the other
        x, w = 0.5 * half, 0.5 * states.w[senders]
        sends = (senders, receivers, deliver, x, w)
        if self.senders.size:  # an empty store's payloads are (0, 0), no width yet
            sends = [np.concatenate(pair) for pair in zip(self._messages(), sends)]
        self.senders, self.receivers, self.deliver, self.payloads, self.weights = sends
        states.x[senders] = x
        states.w[senders] = w
        self.count_since_last, self.stalled = osgp_step(
            sent, self._deliver(states, round_index), self.count_since_last, self.staleness,
        )

    def _messages(self) -> tuple:
        """The store's five arrays, in field order."""
        return self.senders, self.receivers, self.deliver, self.payloads, self.weights

    def _deliver(self, states, round_index) -> np.ndarray:
        """Add every payload due by ``round_index`` to its receiver, in storage
        order, and drop it; returns the (m,) mask of receivers."""
        received = np.zeros(self.rows, dtype=bool)
        due = self.deliver <= round_index
        if due.any():
            to = self.receivers[due]
            np.add.at(states.x, to, self.payloads[due])
            np.add.at(states.w, to, self.weights[due])
            received[to] = True
            pending = ~due
            self.senders, self.receivers, self.deliver, self.payloads, self.weights = (
                column[pending] for column in self._messages())
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
        if not self.senders.size:
            return x_sum, w_sum
        # lexsort is stable and the store is in send order, so ties on
        # (sender, receiver) stay in send-round order; add.at adds in that order
        order = np.lexsort((self.receivers, self.senders))
        groups = self.senders[order] // self.m
        np.add.at(x_sum, groups, self.payloads[order])
        np.add.at(w_sum, groups, self.weights[order])
        return x_sum, w_sum

    def clear_payloads(self, group):
        self.payloads[self.senders // self.m == group] = 0.0


PROTOCOLS = {
    "allreduce": AllReduceProtocol,
    "local": LocalProtocol,
    "dpsgd": GossipProtocol,
    "sgp": PushSumProtocol,
    "osgp": OverlapPushSumProtocol,
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
