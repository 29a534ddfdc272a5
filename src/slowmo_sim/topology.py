"""Communication graph schedules and their sparse mixing matrices.

The workhorse is the time-varying exponential directed graph: at round k,
worker i sends to (i + 2^(k mod P)) mod m with P = floor(log2(m-1)) + 1, so
each round is a bijection and the union over one period is strongly
connected. Column-stochastic mixing (push-sum style) puts weight 1/2 on self
and 1/2 on the single out-edge. Doubly-stochastic mixing pairs workers
symmetrically using the same hop sequence; rounds whose symmetrized edge set
is not a perfect matching are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TOPOLOGY_KINDS = ("exponential-directed", "ring-directed", "complete", "custom")


@dataclass(frozen=True)
class TopologySchedule:
    """A periodic schedule of directed out-edges.

    For ``custom`` kind, ``rounds`` holds one list of (sender, receiver)
    pairs per round in the period, kept as tuples; other kinds generate
    edges on the fly and take no rounds. An edge listed twice in one round
    is refused: the column-stochastic mixing matrix would count it twice in
    the sender's out-degree.
    """

    kind: str
    m: int
    rounds: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.m < 1:
            raise ConfigError("topology needs m >= 1")
        if (self.kind == "custom") != (len(self.rounds) > 0):
            raise ConfigError("a custom topology needs at least one round; other kinds take none")
        rounds = tuple(tuple((int(i), int(j)) for i, j in edges) for edges in self.rounds)
        for r, edges in enumerate(rounds):
            seen = set()
            for i, j in edges:
                if not (0 <= i < self.m and 0 <= j < self.m):
                    raise ConfigError(f"edge ({i},{j}) out of range for m={self.m}")
                if (i, j) in seen:
                    raise ConfigError(f"round {r} lists edge ({i},{j}) twice")
                seen.add((i, j))
        object.__setattr__(self, "rounds", rounds)

    @property
    def period(self) -> int:
        if self.kind == "exponential-directed":
            return _exponential_period(self.m)
        if self.kind == "custom":
            return len(self.rounds)
        return 1


def _exponential_period(m: int) -> int:
    return max(1, (m - 1).bit_length())  # floor(log2(m - 1)) + 1, in integers


def _hop(schedule: TopologySchedule, round_index: int) -> int:
    """How far round ``round_index`` of a one-peer-per-round kind sends."""
    if schedule.kind == "exponential-directed":
        return 1 << (round_index % _exponential_period(schedule.m))
    if schedule.kind == "ring-directed":
        return 1
    raise ConfigError(f"{schedule.kind} topology has no single out-neighbor")


def out_neighbor(schedule: TopologySchedule, worker_id: int, round_index: int) -> int:
    """Single out-neighbor for one-peer-per-round kinds.

    exponential-directed: (i + 2^(k mod P)) mod m; ring-directed: (i + 1) mod m.
    With m = 1 the worker is its own neighbor.
    """
    m = schedule.m
    if not (0 <= worker_id < m):
        raise ConfigError(f"unknown worker_id {worker_id}")
    if m == 1:
        return 0
    return (worker_id + _hop(schedule, round_index)) % m


def out_edges(schedule: TopologySchedule, round_index: int) -> list[tuple[int, int]]:
    """All directed (sender, receiver) pairs active at this round (self-loops excluded)."""
    return list(zip(*(ends.tolist() for ends in _edge_arrays(schedule, round_index))))


def _edge_arrays(schedule: TopologySchedule, round_index: int) -> tuple:
    """The round's out-edges as (senders, receivers) arrays, in ``out_edges`` order."""
    m = schedule.m
    if m == 1:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    if schedule.kind in ("exponential-directed", "ring-directed"):
        senders = np.arange(m)
        return senders, (senders + _hop(schedule, round_index)) % m
    if schedule.kind == "complete":
        return np.nonzero(~np.eye(m, dtype=bool))
    edges = schedule.rounds[round_index % len(schedule.rounds)]
    return tuple(np.array(edges, dtype=np.int64).reshape(-1, 2).T)


def _matching_partners(m: int, edges: list[tuple[int, int]], r: int) -> np.ndarray:
    """Symmetrize a round's directed edges into a perfect matching, or fail.

    Workers are paired greedily in index order, each taking its smallest
    unpaired undirected neighbor. On the uniform-hop rounds the generated
    schedules produce, this walks each cycle and pairs adjacent workers
    (m=8, hop 1 gives (0,1), (2,3), (4,5), (6,7)), succeeding exactly when
    every cycle has even length. Any leftover worker means the round has no
    pairwise exchange pattern and round ``r`` is rejected. Returns each
    worker's partner.
    """
    nbrs: list[set[int]] = [set() for _ in range(m)]
    for i, j in edges:
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    partner = [-1] * m
    for i in range(m):
        if partner[i] != -1:
            continue
        for j in sorted(nbrs[i]):
            if partner[j] == -1:
                partner[i] = j
                partner[j] = i
                break
    if -1 in partner:
        raise ConfigError(
            f"round {r} edges cannot be symmetrized into a perfect matching; "
            "doubly-stochastic gossip needs pairwise exchanges"
        )
    return np.array(partner, dtype=np.int64)


def mixing_matrix(
    schedule: TopologySchedule, round_index: int, stochasticity: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros (rows, cols, weights) of one round's mixing matrix p,
    row by row with columns ascending within a row; no m x m array is built.

    column: p[j,j] = 1/(1 + out-degree of j) and p[j,i] = 1/(1 + out-degree
    of i) for each edge i -> j (1/2 on self and on the single out-edge of a
    one-peer kind). doubly: 1/2-1/2 symmetric pairwise averaging built from
    the same hop sequence. complete (and m = 1): uniform 1/m. A round with no
    edges yields the identity.
    """
    if stochasticity not in ("column", "doubly"):
        raise ConfigError(f"unknown stochasticity {stochasticity!r}")
    m = schedule.m
    if m == 1 or schedule.kind == "complete":
        return np.repeat(np.arange(m), m), np.tile(np.arange(m), m), np.full(m * m, 1.0 / m)
    workers = np.arange(m)
    if stochasticity == "doubly":
        partners = _matching_partners(m, out_edges(schedule, round_index),
                                      round_index % schedule.period)
        pairs = np.sort(np.stack([workers, partners], axis=1), axis=1)
        return np.repeat(workers, 2), pairs.ravel(), np.full(2 * m, 0.5)
    senders, receivers = _edge_arrays(schedule, round_index)
    off = senders != receivers
    senders, receivers = senders[off], receivers[off]
    share = 1.0 / (1.0 + np.bincount(senders, minlength=m))
    rows = np.concatenate([workers, receivers])
    cols = np.concatenate([workers, senders])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], share[cols[order]]


def validate_strong_connectivity(schedule: TopologySchedule) -> None:
    """Union of edges over one period must be strongly connected: a boolean-
    frontier search from worker 0 reaches every worker, along edges and back."""
    m = schedule.m
    ends = np.concatenate([_edge_arrays(schedule, k) for k in range(schedule.period)], axis=1)
    for src, dst in (ends, ends[::-1]):
        seen = frontier = np.arange(m) == 0
        while frontier.any():
            frontier = (np.bincount(dst[frontier[src]], minlength=m) > 0) & ~seen
            seen |= frontier
        if not seen.all():
            raise ConfigError("topology union over one period is not strongly connected")
