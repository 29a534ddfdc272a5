"""Independently coded baselines that the simulator must reproduce.

The oracle references are per-worker transcriptions of each problem's loss
and gradient formulas, written one worker at a time from the problem's
stacked data (quadratic ``centers`` (m, d), logistic ``features``
(m, n, d) and ``labels`` (m, n), MLP ``features`` (m, n, p) and ``targets``
(m, n)). The package implements only the stacked oracle,
``gradients(points, workers, idx)`` and
``losses_and_gradients(points, workers)``; every stacked and global form
must equal these references bit for bit. The rank-ordered loops add the
per-worker results in ascending rank, the way the kernel did before its
state was stacked.

Each reference shares the simulator's per-worker RNG construction so that a
run with the same seed consumes the same gradient draws in the same order.
They deliberately avoid the kernel and protocol plumbing: the point is to
cross-check the full machinery against direct transcriptions of the
classical algorithms.

* heavy-ball SGD     == tau=1, alpha=1, allreduce, plain-sgd base, beta > 0
* plain local SGD    == local protocol, plain-sgd base, alpha=1, beta=0
* lookahead          == m=1, beta=0, slow-step alpha in (0, 1)
* block momentum     == local protocol, plain-sgd base, beta > 0 (the
  classic block-wise filtering recursion, coded in its original form)

Every algorithm reference returns the sequence of pre-step average
iterates, matching the trace records the simulator writes.

``OsgpReference`` is overlap push-sum kept one message at a time, the
protocol-level baseline for the batched in-flight store.

The graph references are the general sparse forms the one-peer schedules
replaced: ``column_nonzeros_reference`` builds a column-stochastic matrix
from any round's directed edges, ``matching_partners_reference`` pairs them
greedily for doubly-stochastic gossip, and ``strongly_connected_reference``
searches their union for strong connectivity.

``estimate_v_reference`` is ``estimate_V`` one sample at a time: one
stacked oracle call at x = 0, one ``local_direction`` call from fresh
buffers and one rank-ordered sum per sample.

``legacy_jsonl`` writes a trace in the format that held each record's
x_bar as a JSON list, the text the pinned golden hashes were taken of.
"""

from __future__ import annotations

import json
import math

import numpy as np

from slowmo_sim.base_optimizers import OptimizerBuffers, local_direction
from slowmo_sim.errors import ConfigError, ProtocolError
from slowmo_sim.numerics import (
    STREAM_DELAY,
    LogisticProblem,
    MlpProblem,
    Problem,
    QuadraticProblem,
    WorkerStreams,
    group_sums,
    make_worker_rngs,
    rng_stream,
)
from slowmo_sim.theory_checker import VEstimate
from slowmo_sim.topology import out_neighbor


def legacy_jsonl(trace) -> str:
    """The trace's JSONL with ``"x_bar": row.tolist()`` as the last key of
    each record, one record a line, no final newline."""
    return "\n".join(json.dumps({**rec, "x_bar": row.tolist()})
                     for rec, row in zip(trace.records, trace.x_bar, strict=True))


def _sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def reference_loss_and_gradient(
    problem: Problem, i: int, x: np.ndarray, idx: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Worker i's loss and gradient at x over its shard rows ``idx`` (every
    row when None), from that worker's data alone."""
    rows = slice(None) if idx is None else idx
    if isinstance(problem, QuadraticProblem):
        r = x - problem.centers[i]
        g = problem.a @ r
        return float(0.5 * r @ g), g
    if isinstance(problem, LogisticProblem):
        feats, labs = problem.features[i][rows], problem.labels[i][rows]
        margins = labs * (feats @ x)
        g = (feats.T @ (-labs * _sigmoid(-margins))) / feats.shape[0]
        return float(np.logaddexp(0.0, -margins).mean()), g
    if isinstance(problem, MlpProblem):
        feats, targs = problem.features[i][rows], problem.targets[i][rows]
        h, p = problem.hidden, problem.input_dim
        w1 = x[: h * p].reshape(h, p)
        b1 = x[h * p : h * p + h]
        w2 = x[h * p + h : h * p + 2 * h]
        b2 = x[-1]
        n = feats.shape[0]
        hid = np.tanh(feats @ w1.T + b1)
        out = hid @ w2 + b2
        err = out - targs
        loss = float(0.5 * np.mean(err**2))
        e = err / n
        g_w2 = hid.T @ e
        g_b2 = e.sum()
        d_hid = np.outer(e, w2)
        d_pre = d_hid * (1.0 - hid**2)
        g_w1 = d_pre.T @ feats
        g_b1 = d_pre.sum(axis=0)
        return loss, np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])
    raise TypeError(f"no reference for {type(problem).__name__}")


def reference_gradient(problem: Problem, i: int, x: np.ndarray, idx=None) -> np.ndarray:
    return reference_loss_and_gradient(problem, i, x, idx)[1]


def reference_stochastic_gradient(
    problem: Problem, i: int, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Worker i's stochastic gradient at x: its exact gradient plus
    N(0, (sigma^2/d) I) noise, or its gradient over ``b`` shard rows drawn
    uniformly without replacement and sorted (every row when b is the
    shard size)."""
    noise = problem.noise
    if noise.kind == "additive-gaussian":
        g = reference_gradient(problem, i, x)
        if noise.sigma2 > 0:
            scale = np.sqrt(noise.sigma2 / problem.dimension)
            g = g + scale * rng.standard_normal(problem.dimension)
        return g
    n, b = problem.shard_size, noise.batch_size
    idx = np.arange(n) if b == n else np.sort(rng.choice(n, size=b, replace=False))
    return reference_gradient(problem, i, x, idx)


def worker_losses_and_gradients(
    problem: Problem, x: np.ndarray
) -> tuple[list[float], list[np.ndarray]]:
    """Every worker's loss and gradient at x, one reference call each."""
    pairs = [reference_loss_and_gradient(problem, i, x) for i in range(problem.num_workers)]
    return [loss for loss, _ in pairs], [g for _, g in pairs]


def global_loss_and_gradient_reference(problem: Problem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(1/m) sum_i f_i(x) with the losses added from 0.0, and (1/m) sum_i
    grad f_i(x) with the gradients added to worker 0's, both in rank order."""
    losses, grads = worker_losses_and_gradients(problem, x)
    loss = 0.0
    for value in losses:
        loss += value
    return loss / problem.num_workers, _mean(grads)


def stochastic_gradients_reference(
    problem: Problem, points: np.ndarray, workers: np.ndarray, rngs: list
) -> np.ndarray:
    """One ``reference_stochastic_gradient`` per row, worker ``workers[r]``
    at ``points[r]`` drawing from its own generator ``rngs[workers[r]]``."""
    grads = [reference_stochastic_gradient(problem, i, x, rngs[i])
             for i, x in zip(workers.tolist(), points)]
    return np.reshape(grads, (len(workers), problem.dimension))


def estimate_v_reference(problem: Problem, base_config, samples: int,
                         seed: int = 0) -> VEstimate:
    """V = Var[(1/m) sum_i d_i] at x = 0 from ``samples`` samples drawn one at
    a time, each from fresh optimizer buffers."""
    m, d = problem.num_workers, problem.dimension
    streams = WorkerStreams(seed, m, d, block=64)
    workers = np.arange(m)
    points = np.zeros((m, d))
    dbars = np.empty((samples, d))
    for s_idx in range(samples):
        grads = problem.stochastic_gradients(points, workers, streams)
        buffers = OptimizerBuffers.fresh(base_config, m, d)
        directions = local_direction(base_config, buffers, grads)
        dbars[s_idx] = group_sums(directions, 1, 0.0)[0] / m
    dev = dbars - dbars.mean(axis=0)
    v_samples = (dev**2).sum(axis=1)
    return VEstimate(value=float(v_samples.sum() / (samples - 1)),
                     std_error=float(v_samples.std(ddof=1) / math.sqrt(samples)),
                     samples=samples)


def _mean(vectors: list[np.ndarray]) -> np.ndarray:
    total = vectors[0].copy()
    for v in vectors[1:]:
        total += v
    return total / len(vectors)


def heavy_ball_reference(
    problem: Problem, gamma: float, beta: float, steps: int, seed: int = 0
) -> list[np.ndarray]:
    """h <- beta h + gbar; x <- x - gamma h, with gbar the rank-ordered mean."""
    m, d = problem.num_workers, problem.dimension
    rngs = make_worker_rngs(seed, m)
    x = np.zeros(d)
    h = np.zeros(d)
    history = []
    for _ in range(steps):
        history.append(x.copy())
        gbar = reference_stochastic_gradient(problem, 0, x, rngs[0]).copy()
        for i in range(1, m):
            gbar += reference_stochastic_gradient(problem, i, x, rngs[i])
        gbar /= m
        h = beta * h + gbar
        x = x - gamma * h
    return history


def local_sgd_reference(
    problem: Problem, gamma: float, tau: int, T: int, seed: int = 0
) -> list[np.ndarray]:
    """tau independent SGD steps per worker, then an exact parameter average."""
    m, d = problem.num_workers, problem.dimension
    rngs = make_worker_rngs(seed, m)
    xs = [np.zeros(d) for _ in range(m)]
    history = []
    for _ in range(T):
        for _ in range(tau):
            history.append(_mean(xs))
            for i in range(m):
                g = reference_stochastic_gradient(problem, i, xs[i], rngs[i])
                xs[i] = xs[i] - gamma * g
        avg = _mean(xs)
        xs = [avg.copy() for _ in range(m)]
    return history


def lookahead_reference(
    problem: Problem, gamma: float, alpha: float, tau: int, T: int, seed: int = 0
) -> list[np.ndarray]:
    """Single worker: fast weights explore tau steps, slow weights interpolate."""
    d = problem.dimension
    rng = make_worker_rngs(seed, 1)[0]
    slow = np.zeros(d)
    history = []
    for _ in range(T):
        fast = slow.copy()
        for _ in range(tau):
            history.append(fast.copy())
            g = reference_stochastic_gradient(problem, 0, fast, rng)
            fast = fast - gamma * g
        slow = slow + alpha * (fast - slow)
    return history


def block_momentum_reference(
    problem: Problem,
    gamma,
    tau: int,
    T: int,
    block_momentum: float,
    block_lr: float = 1.0,
    seed: int = 0,
) -> list[np.ndarray]:
    """The classic block-wise filtering recursion.

    After each block t of tau local steps at inner step size gamma_t:
    G = mean_i(x_i) - W (the block "gradient"), Delta <- eta * (gamma_t /
    gamma_{t-1}) * Delta + zeta * G, W <- W + Delta, and every worker
    restarts from W. eta is the block momentum, zeta the block learning
    rate. ``gamma`` is one step size, or a list of T, one per block; a
    constant gamma is the classic ratio of 1.
    """
    m, d = problem.num_workers, problem.dimension
    gammas = [gamma] * T if np.isscalar(gamma) else list(gamma)
    rngs = make_worker_rngs(seed, m)
    w = np.zeros(d)
    delta = np.zeros(d)
    xs = [w.copy() for _ in range(m)]
    history = []
    for t in range(T):
        for _ in range(tau):
            history.append(_mean(xs))
            for i in range(m):
                g = reference_stochastic_gradient(problem, i, xs[i], rngs[i])
                xs[i] = xs[i] - gammas[t] * g
        block_grad = _mean(xs) - w
        ratio = gammas[t] / gammas[t - 1] if t else 1.0
        delta = block_momentum * ratio * delta + block_lr * block_grad
        w = w + delta
        xs = [w.copy() for _ in range(m)]
    return history


class OsgpReference:
    """Overlap push-sum on a one-peer schedule (m >= 2), one message per tuple.

    Each round, every worker that is not stalled keeps half of its half-step
    and of its weight and mails the other half to its out-neighbor, in
    ascending rank, with a transit time drawn from the run's delay stream; a
    message is never due before an earlier one on the same edge. Then each
    receiver adds its due messages in (send round, sender) order, and the
    staleness counters advance. ``drain`` is the block-end barrier: it
    delivers everything, so no edge's FIFO clamp outlives it.
    """

    def __init__(self, schedule, staleness, delay, seed, x):
        self.schedule = schedule
        self.staleness = staleness
        self.delay = delay
        self.rng = rng_stream(seed, STREAM_DELAY, 0)
        self.x = [row.copy() for row in x]
        self.w = [1.0] * schedule.m
        self.count = [0] * schedule.m
        self.stalled = [False] * schedule.m
        self.messages = []  # (send round, sender, receiver, due round, x, w)
        self.last_due = {}  # (sender, receiver) -> due round of its latest message

    def active(self) -> list[int]:
        return [i for i, stalled in enumerate(self.stalled) if not stalled]

    def round(self, half: np.ndarray, k: int) -> None:
        senders = self.active()
        if not senders and not self.messages:
            raise ProtocolError("every worker is stalled and no messages are in flight")
        lags = self.delay.draw(self.rng, len(senders))
        for row, i, lag in zip(half, senders, lags):
            j = out_neighbor(self.schedule, i, k)
            due = max(k + lag, self.last_due.get((i, j), -1))
            self.last_due[i, j] = due
            self.messages.append((k, i, j, due, 0.5 * row, 0.5 * self.w[i]))
            self.x[i] = 0.5 * row
            self.w[i] = 0.5 * self.w[i]
        received = self._deliver(lambda msg: msg[3] <= k)
        for i in range(self.schedule.m):
            if i in received:
                self.count[i], self.stalled[i] = 0, False
            elif i in senders and self.count[i] < self.staleness:
                self.count[i], self.stalled[i] = self.count[i] + 1, False
            else:
                self.stalled[i] = True

    def drain(self) -> None:
        self._deliver(lambda msg: True)
        self.last_due = {}
        self.count = [0] * self.schedule.m
        self.stalled = [False] * self.schedule.m

    def _deliver(self, is_due) -> set[int]:
        due = sorted((msg for msg in self.messages if is_due(msg)), key=lambda msg: msg[:2])
        self.messages = [msg for msg in self.messages if not is_due(msg)]
        for _, _, j, _, x, w in due:
            self.x[j] = self.x[j] + x
            self.w[j] = self.w[j] + w
        return {msg[2] for msg in due}

    def inflight_sums(self, dimension: int) -> tuple[np.ndarray, float]:
        """Pending payloads and weights, each added from zero in (sender,
        receiver, send round) order."""
        x, w = np.zeros(dimension), 0.0
        for msg in sorted(self.messages, key=lambda msg: (msg[1], msg[2], msg[0])):
            x = x + msg[4]
            w = w + msg[5]
        return x, w


def round_edges(schedule, round_index: int) -> list[tuple[int, int]]:
    """The round's directed (sender, receiver) edges, self-loops excluded,
    one worker's ``out_neighbor`` at a time."""
    ends = ((i, out_neighbor(schedule, i, round_index)) for i in range(schedule.m))
    return [(i, j) for i, j in ends if i != j]


def column_nonzeros_reference(m: int, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros (rows, cols, weights) of a round's column-stochastic
    matrix, row by row with columns ascending: p[j, j] = 1/(1 + out-degree of
    j) and p[j, i] = 1/(1 + out-degree of i) for each edge i -> j."""
    senders, receivers = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    workers = np.arange(m)
    share = 1.0 / (1.0 + np.bincount(senders, minlength=m))
    rows = np.concatenate([workers, receivers])
    cols = np.concatenate([workers, senders])
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], share[cols[order]]


def matching_partners_reference(m: int, edges, r: int) -> np.ndarray:
    """Each worker's partner when a round's edges are symmetrized into a
    perfect matching, or a ConfigError naming round ``r``.

    Workers are paired greedily in index order, each taking its smallest
    unpaired undirected neighbor; any leftover worker means the round has no
    pairwise exchange pattern.
    """
    nbrs: list[set[int]] = [set() for _ in range(m)]
    for i, j in edges:
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


def strongly_connected_reference(m: int, edges) -> bool:
    """Whether a boolean-frontier search from worker 0 reaches every worker,
    along the edges and back along them."""
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    for a, b in ((src, dst), (dst, src)):
        seen = frontier = np.arange(m) == 0
        while frontier.any():
            frontier = (np.bincount(b[frontier[a]], minlength=m) > 0) & ~seen
            seen |= frontier
        if not seen.all():
            return False
    return True
