"""Communication graph schedules and mixing matrices.

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
    pairs per round in the period; other kinds generate edges on the fly.
    """

    kind: str
    m: int
    rounds: tuple = field(default=())

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigError(f"unknown topology kind {self.kind!r}")
        if self.m < 1:
            raise ConfigError("topology needs m >= 1")
        if self.kind == "custom" and len(self.rounds) == 0:
            raise ConfigError("custom topology needs at least one round")

    @property
    def period(self) -> int:
        if self.kind == "exponential-directed":
            return _exponential_period(self.m)
        if self.kind == "custom":
            return len(self.rounds)
        return 1


def _exponential_period(m: int) -> int:
    if m <= 2:
        return 1
    return int(np.floor(np.log2(m - 1))) + 1


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
    if schedule.kind == "exponential-directed":
        p = _exponential_period(m)
        hop = 1 << (round_index % p)
        return (worker_id + hop) % m
    if schedule.kind == "ring-directed":
        return (worker_id + 1) % m
    raise ConfigError(f"{schedule.kind} topology has no single out-neighbor")


def out_edges(schedule: TopologySchedule, round_index: int) -> list[tuple[int, int]]:
    """All directed (sender, receiver) pairs active at this round (self-loops excluded)."""
    m = schedule.m
    if m == 1:
        return []
    if schedule.kind in ("exponential-directed", "ring-directed"):
        return [(i, out_neighbor(schedule, i, round_index)) for i in range(m)]
    if schedule.kind == "complete":
        return [(i, j) for i in range(m) for j in range(m) if i != j]
    edges = schedule.rounds[round_index % len(schedule.rounds)]
    return [tuple(e) for e in edges]


@dataclass(frozen=True)
class MixingMatrix:
    """An m x m mixing matrix tagged with its stochasticity kind."""

    matrix: np.ndarray
    stochasticity: str  # "column" | "doubly"

    def __post_init__(self):
        p = self.matrix
        m = p.shape[0]
        if p.shape != (m, m):
            raise ConfigError("mixing matrix must be square")
        if np.any(p < 0):
            raise ConfigError("mixing weights must be nonnegative")
        cols = p.sum(axis=0)
        if np.max(np.abs(cols - 1.0)) > 1e-12:
            raise ConfigError("columns must sum to 1")
        if self.stochasticity == "doubly":
            rows = p.sum(axis=1)
            if np.max(np.abs(rows - 1.0)) > 1e-12:
                raise ConfigError("rows must sum to 1 for doubly-stochastic mixing")
        elif self.stochasticity != "column":
            raise ConfigError(f"unknown stochasticity {self.stochasticity!r}")


def _matching_from_edges(m: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Symmetrize a round's directed edges into a perfect matching, or fail.

    Workers are paired greedily in index order, each taking its smallest
    unpaired undirected neighbor. On the uniform-hop rounds the generated
    schedules produce, this walks each cycle and pairs adjacent workers
    (m=8, hop 1 gives (0,1), (2,3), (4,5), (6,7)), succeeding exactly when
    every cycle has even length. Any leftover worker means the round has no
    pairwise exchange pattern and it is rejected.
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
    if any(p == -1 for p in partner):
        raise ConfigError(
            "round edges cannot be symmetrized into a perfect matching; "
            "doubly-stochastic gossip needs pairwise exchanges"
        )
    return [(i, partner[i]) for i in range(m) if i < partner[i]]


def mixing_matrix(
    schedule: TopologySchedule, round_index: int, stochasticity: str
) -> MixingMatrix:
    """Mixing matrix for one round.

    column: p[j,j] = 1/2 and p[out(j),j] = 1/2 for one-peer kinds (uniform
    over self plus out-edges otherwise). doubly: 1/2-1/2 symmetric pairwise
    averaging built from the same hop sequence. complete: uniform 1/m. A
    round with no edges yields the identity.
    """
    m = schedule.m
    if m == 1:
        return MixingMatrix(np.ones((1, 1)), stochasticity)
    if schedule.kind == "complete":
        return MixingMatrix(np.full((m, m), 1.0 / m), stochasticity)

    edges = out_edges(schedule, round_index)
    if stochasticity == "column":
        p = np.zeros((m, m))
        out_count = np.zeros(m, dtype=int)
        for i, j in edges:
            if i != j:
                out_count[i] += 1
        for j in range(m):
            share = 1.0 / (1.0 + out_count[j])
            p[j, j] = share
        for i, j in edges:
            if i != j:
                p[j, i] = 1.0 / (1.0 + out_count[i])
        return MixingMatrix(p, "column")
    if stochasticity == "doubly":
        pairs = _matching_from_edges(m, edges)
        p = np.zeros((m, m))
        np.fill_diagonal(p, 0.5)
        for i, j in pairs:
            p[i, j] = 0.5
            p[j, i] = 0.5
        return MixingMatrix(p, "doubly")
    raise ConfigError(f"unknown stochasticity {stochasticity!r}")


def validate_strong_connectivity(schedule: TopologySchedule) -> None:
    """Union of edges over one period must be strongly connected (m > 1)."""
    m = schedule.m
    if m == 1:
        return
    adj = [set() for _ in range(m)]
    radj = [set() for _ in range(m)]
    for k in range(schedule.period):
        for i, j in out_edges(schedule, k):
            adj[i].add(j)
            radj[j].add(i)

    def reach(start, nbrs):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in nbrs[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return seen

    if len(reach(0, adj)) != m or len(reach(0, radj)) != m:
        raise ConfigError("topology union over one period is not strongly connected")


def custom_schedule(m: int, rounds) -> TopologySchedule:
    """Build a custom schedule from a list of per-round edge lists.

    An edge listed twice in one round is refused: the column-stochastic
    mixing matrix would count it twice in the sender's out-degree.
    """
    norm = []
    for r, edges in enumerate(rounds):
        clean = {}  # edges in order, as an ordered set
        for e in edges:
            i, j = int(e[0]), int(e[1])
            if not (0 <= i < m and 0 <= j < m):
                raise ConfigError(f"edge ({i},{j}) out of range for m={m}")
            if (i, j) in clean:
                raise ConfigError(f"round {r} lists edge ({i},{j}) twice")
            clean[i, j] = None
        norm.append(tuple(clean))
    return TopologySchedule(kind="custom", m=m, rounds=tuple(norm))
