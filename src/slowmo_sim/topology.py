"""Communication graph schedules: one peer per round.

The workhorse is the time-varying exponential directed graph: at round k,
worker i sends to (i + 2^(k mod P)) mod m with P = floor(log2(m-1)) + 1, so
each round is a bijection and the union over one period is strongly
connected; the directed ring sends to (i + 1) mod m every round. Either way
round k is one hop h, and its mixing matrix is 1/2 on each worker and 1/2 on
one peer. Column-stochastic mixing (push-sum style) takes the worker that
sends to i, (i - h) mod m. Doubly-stochastic mixing pairs i with i XOR h,
a perfect matching exactly when 2h divides m; other rounds are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

TOPOLOGY_KINDS = ("exponential-directed", "ring-directed")


@dataclass(frozen=True)
class TopologySchedule:
    """A periodic schedule of one out-edge per worker and round."""

    kind: str
    m: int

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.m < 1:
            raise ConfigError("topology needs m >= 1")

    @property
    def period(self) -> int:
        if self.kind == "exponential-directed":
            return max(1, (self.m - 1).bit_length())  # floor(log2(m - 1)) + 1, in integers
        return 1


def out_neighbor(schedule: TopologySchedule, worker_id: int, round_index: int) -> int:
    """The worker's single out-neighbor at this round.

    exponential-directed: (i + 2^(k mod P)) mod m; ring-directed: (i + 1) mod m.
    With m = 1 the worker is its own neighbor.
    """
    m = schedule.m
    if not (0 <= worker_id < m):
        raise ConfigError(f"unknown worker_id {worker_id}")
    if m == 1:
        return 0
    hop = 1 << (round_index % schedule.period) if schedule.kind == "exponential-directed" else 1
    return (worker_id + hop) % m


def mixing_matrix(schedule: TopologySchedule, round_index: int, stochasticity: str) -> np.ndarray:
    """One round's mixing matrix p in one-peer form, ``peers`` (m,): row i is
    1/2 on i and 1/2 on ``peers[i]`` (p[i, i] = 1 where ``peers[i]`` is i, as
    for m = 1). No m x m array is built.

    column: the worker that sends to i, (i - h) mod m for the round's hop h.
    doubly: i XOR h, the symmetric pairing, which needs 2h to divide m.
    """
    if stochasticity not in ("column", "doubly"):
        raise ConfigError(f"unknown stochasticity {stochasticity!r}")
    workers = np.arange(schedule.m)
    hop = out_neighbor(schedule, 0, round_index)
    if stochasticity == "column":
        return (workers - hop) % schedule.m
    if schedule.m > 1 and schedule.m % (2 * hop):
        raise ConfigError(
            f"round {round_index % schedule.period} edges cannot be symmetrized into a "
            "perfect matching; doubly-stochastic gossip needs pairwise exchanges"
        )
    return workers ^ hop


def validate_strong_connectivity(schedule: TopologySchedule) -> None:
    """The union over one period must be strongly connected. A union of the
    circulant graphs i -> i + h (mod m) is iff the gcd of m and its hops is 1."""
    hops = [out_neighbor(schedule, 0, k) for k in range(schedule.period)]
    if math.gcd(schedule.m, *hops) != 1:
        raise ConfigError("topology union over one period is not strongly connected")
