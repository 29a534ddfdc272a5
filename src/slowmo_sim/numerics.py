"""Problem definitions and their exact and stochastic gradient oracles.

Three objective families are supported, each sharded across ``m`` workers:

* ``quadratic``  - per-worker f_i(x) = 0.5 (x - b_i)^T A (x - b_i): one
  curvature matrix A and the centers b_i, with no shard to sample from;
* ``logistic``   - binary logistic regression on synthetic Gaussian features
  with per-worker label-flip heterogeneity;
* ``mlp``        - a small two-layer tanh network trained with squared error
  against +/-1 targets (genuinely non-convex, hand-coded backprop).

Gradient noise comes from one of two models: ``additive-gaussian`` adds
N(0, (sigma^2/d) I) to the exact worker gradient (so E||eta||^2 = sigma^2
independent of dimension), and ``minibatch`` returns the gradient of ``b``
shard points sampled uniformly without replacement (logistic and MLP only).

Stacked contract: a problem keeps every worker's data as one array with the
worker index first (quadratic ``centers`` (m, d); logistic ``features``
(m, n, d) and ``labels`` (m, n); MLP ``features`` (m, n, p) and ``targets``
(m, n)) and implements two batched methods. ``gradients(points, workers,
idx=None)`` is the exact gradient of worker ``workers[r]`` at ``points[r]``
for every row, over its shard rows ``idx[r]`` when a shard problem is given
an (n, b) ``idx``, and
``losses_and_gradients(points, workers)`` adds each row's loss. One row of
``points`` is shared by every worker. With every worker asked for, both
take a leading axis: (R, n, d) points (and an (R, n, b) ``idx``) give (R, n)
losses and (R, n, d) gradients, bit for bit R calls. The one stochastic
oracle, ``worker_stochastic_gradient``, makes one call per round for the
stepping workers; ``global_loss`` and ``global_gradient`` one each; the
metrics and log_bias one per batch of records; ``estimate_V`` one per
chunk of samples.

Groups: a problem of S groups of m workers holds group g in rows g*m ...
(g+1)*m - 1; the builders take one seed or S seeds and draw each group's
data from its seed's streams. A quadratic holds one A for every worker or
an (S, d, d) stack of one per group. ``group_sums`` is the one rank-ordered
reduction: it adds each group's rows in ascending rank, bit for bit the
reduction of that group alone, and a single run (S = 1) is the one-group
case.

All randomness flows through counter-based Philox streams (seed, namespace,
index), independent and reproducible regardless of execution order. Each is
keyed as ``SeedSequence(seed, spawn_key=(namespace, index))`` would key it;
``philox_keys`` hashes a family's shared words once and its indices as one column.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:  # config imports this module
    from .config import ProblemConfig

# Stream namespaces. Keeping them distinct means data generation, gradient
# noise, and communication delays never share a stream.
STREAM_DATA = 0
STREAM_NOISE = 1
STREAM_DELAY = 2
STREAM_MISC = 3

# Rows of A per block in the shared-curvature stacked gemv. 32 rows of a
# d = 2000 matrix are 512 KB and stay in L2. At (m, d) = (16, 2000) on a
# 2-vCPU VM with one OpenBLAS 0.3.31 thread, blocks of 16-64 rows ran in
# 12.7-13.8 ms, 128 rows in 16.6 ms, 256 rows in 27.0 ms and the whole
# matrix in 34.5 ms.
MATVEC_BLOCK = 32

# Worker values per batch of records, counted as workers x d x max(shard
# rows, 1): the kernel reduces and evaluates that many records' snapshots in
# one pass, 64 KiB an array, 32 seed-sweep records (4 seeds of m = 16,
# d = 4); 2**16 was no faster there and raised its peak RSS 5%.
RECORD_BATCH_VALUES = 2**13

# Standard normal values (rows x rounds x d) pre-drawn per refill of the
# additive noise: 256 KiB, 128 rounds of a seed-sweep run (64 rows, d = 4).
NOISE_BLOCK_VALUES = 2**15


# SeedSequence's hashmix and mix on 32-bit words held in Python ints or uint64
# arrays, and generate_state's hash constant before each of its 4 calls and after
_M32 = 0xFFFFFFFF
_STATE_CONSTS = np.array([0x8B51F9DD * 0x58F38DED**k & _M32 for k in range(5)], np.uint64)


def _hashmix(value, const, next_const):
    value = (value ^ const) * next_const & _M32
    return value ^ value >> 16


def _mix(x, y):
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32  # the mask undoes a wrapped difference
    return r ^ r >> 16


def philox_keys(seed: int, namespace: int, indices) -> np.ndarray:
    """(n, 2) uint64 keys, row r bit for bit ``np.random.SeedSequence(seed,
    spawn_key=(namespace, indices[r])).generate_state(2, np.uint64)``. The
    words every row shares (the seed, padded to 4 words, and the namespace)
    are hashed once as Python ints, the indices as a masked uint64 column."""
    idx = np.asarray(indices)
    if min(seed, namespace, idx.min(initial=0)) < 0 or idx.max(initial=0) > _M32:
        raise ValueError("seed, namespace and index must be >= 0, an index one word (< 2**32)")
    words = [[n >> s & _M32 for s in range(0, max(n.bit_length(), 1), 32)]
             for n in (int(seed), int(namespace))]
    entropy = words[0] + [0] * (4 - len(words[0])) + words[1]
    c = [0x43B0D7E5]  # the hash constant before each hashmix call, and after the last
    while len(c) < 4 * len(entropy) + 5:
        c.append(c[-1] * 0x931E8875 & _M32)
    consts = zip(c, c[1:])
    pool = [_hashmix(w, *next(consts)) for w in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):  # each pool word into the others
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], *next(consts)))
    for w, dst in itertools.product(entropy[4:], range(4)):  # then each further word
        pool[dst] = _mix(pool[dst], _hashmix(w, *next(consts)))
    c = np.array(c[-5:], dtype=np.uint64)  # the index word's four calls
    pool = _mix(np.array(pool, np.uint64), _hashmix(idx.astype(np.uint64)[:, None], c[:-1], c[1:]))
    return _hashmix(pool, _STATE_CONSTS[:-1], _STATE_CONSTS[1:]).astype("<u4").view("<u8")


@dataclass
class _PhiloxKey(np.random.bit_generator.ISeedSequence):
    """Gives Philox its key; ``Philox(key=...)`` would still seed from OS entropy."""

    key: np.ndarray

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def rng_streams(seed, namespace: int, indices):
    """Generators of streams (s, namespace, i), s in ``seed`` (one or a list), i in ``indices``."""
    return (np.random.Generator(np.random.Philox(_PhiloxKey(key)))
            for s in seed_list(seed) for key in philox_keys(s, namespace, indices))


def rng_stream(seed: int, namespace: int, index: int = 0) -> np.random.Generator:
    """Philox generator for stream (seed, namespace, index), keyed as ``SeedSequence`` keys it."""
    return next(rng_streams(seed, namespace, (index,)))


def make_worker_rngs(seed, m: int) -> list[np.random.Generator]:
    """Per-worker gradient-noise streams: row g*m + i is (seed[g], NOISE, i)."""
    return list(rng_streams(seed, STREAM_NOISE, range(m)))


def seed_list(seed) -> list:
    """One seed, or a sequence of S seeds, as a list of S >= 1 seeds."""
    seeds = np.atleast_1d(seed).tolist()
    if not seeds:
        raise ConfigError("an empty list of seeds builds nothing")
    if any(type(s) is not int or s < 0 for s in seeds):  # bools too
        raise ConfigError(f"seeds must be integers >= 0, got {seeds}")
    return seeds


class WorkerStreams:
    """Per-worker gradient-noise streams, plus standard normal rows pre-drawn
    from them in blocks. ``seed`` is one seed, or a sequence of S seeds for S
    groups of m rows: row g*m + i draws from stream (seed[g], NOISE, i).

    ``standard_normal((block, d))`` uses up a Philox stream exactly as
    ``block`` calls of ``standard_normal(d)`` do, so a worker's k-th row is
    its k-th single draw. Each worker has its own cursor: a worker that does
    not step draws nothing. Additive noise is taken through ``normal_rows``
    and minibatch indices from ``generators`` directly; a problem has one
    noise kind, so it never does both.
    """

    def __init__(self, seed, m: int, dimension: int, block: int):
        self.generators = make_worker_rngs(seed, m)
        rows = len(self.generators)
        self._shape = (rows, block, dimension)
        self._rows = None  # allocated on first use
        self._cursor = np.full(rows, block)
        self._lockstep = True  # every call so far took a row from every worker

    def normal_rows(self, workers: np.ndarray) -> np.ndarray:
        """The next N(0, I) row of each worker in ``workers`` (distinct,
        ascending), (n, d). The result may be a view of the pre-drawn block."""
        m, block, _ = self._shape
        if self._rows is None:
            self._rows = np.empty(self._shape)
        cursor = self._cursor
        if self._lockstep and len(workers) == m:
            c = int(cursor[0])
            if c == block:
                for i, gen in enumerate(self.generators):
                    gen.standard_normal(out=self._rows[i])
                c = 0
            cursor[:] = c + 1
            return self._rows[:, c]
        self._lockstep = False
        for i in workers[cursor[workers] == block].tolist():
            self.generators[i].standard_normal(out=self._rows[i])
            cursor[i] = 0
        rows = self._rows[workers, cursor[workers]]
        cursor[workers] += 1
        return rows


def group_sums(rows: np.ndarray, groups: int, start: float = -0.0) -> np.ndarray:
    """(groups, d): ``start`` plus the rows of each of the ``groups`` equal
    runs of consecutive rows of an (n, d) array, added left to right in
    ascending row order, bit for bit. The default -0.0 leaves a group's first
    row as it is, like ``total = rows[0].copy(); total += row; ...``; start
    0.0 is the same loop from ``np.zeros(d)``. Scalars go in as an (n, 1)
    column; with start 0.0 each group's sum is its Python floats added left
    to right from 0.0. This is the package's one rank-ordered reduction.

    ``rows.sum(axis=0)`` would start from +0.0 (an all -0.0 column loses its
    sign) and sum a single column pairwise; cumsum is sequential.
    """
    stack = rows.reshape(groups, -1, rows.shape[1])
    if rows.shape[1] == 1:
        return stack.cumsum(axis=1)[:, -1] + start
    return np.add.reduce(stack, axis=1, initial=start)


def repeat_groups(values: np.ndarray, m: int) -> np.ndarray:
    """(..., S, d) group rows as one row per worker, m rows a group (as they
    are when S = 1, where they broadcast)."""
    return values if values.shape[-2] == 1 else values.repeat(m, axis=-2)


NOISE_KINDS = ("additive-gaussian", "minibatch")


@dataclass(frozen=True)
class NoiseModel:
    """Gradient noise specification.

    kind is "additive-gaussian" (uses ``sigma2``) or "minibatch" (uses
    ``batch_size``). ``sigma2`` is the total expected squared noise norm.
    """

    kind: str = "additive-gaussian"
    sigma2: float = 0.0
    batch_size: int = 0

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "additive-gaussian" and self.sigma2 < 0:
            raise ConfigError("sigma2 must be nonnegative")
        if self.kind == "minibatch" and self.batch_size < 1:
            raise ConfigError("minibatch noise requires batch_size >= 1")


def _stacked(shards, name: str, ndim: int) -> np.ndarray:
    """``shards`` as one C-ordered float64 array of ``ndim`` axes with the
    worker index first, with no empty axis (no copy when it already is one)."""
    try:
        stack = np.ascontiguousarray(shards, dtype=np.float64)
    except (TypeError, ValueError) as exc:  # ragged shards do not stack
        raise ConfigError(f"{name} shards do not stack into one array: {exc}") from None
    if stack.ndim != ndim or 0 in stack.shape:
        raise ConfigError(f"{name} shards must stack into {ndim} nonempty axes, "
                          f"got shape {stack.shape}")
    return stack


class Problem:
    """Base class: ``m`` workers, shared parameter dimension ``d``.

    A subclass sets ``shard_size`` (the rows of each worker's shard) and
    implements the stacked ``losses_and_gradients`` of the module docstring,
    returning new arrays: the (n,) losses and an (n, d) gradient stack.
    ``gradients`` returns those gradients; a subclass with a cheaper form
    that has the same bits overrides it. ``workers`` are distinct and
    ascending.
    """

    shard_size = 0

    def __init__(self, num_workers: int, dimension: int, noise: NoiseModel):
        self.num_workers = num_workers
        self.dimension = dimension
        self.noise = noise

    def _shards(self, stack: np.ndarray, workers: np.ndarray, idx: np.ndarray | None = None):
        """What rows ``workers`` read of ``stack`` (m, ...): ``stack`` itself for
        every worker, else a gathered copy (of shard rows ``idx`` when given)."""
        if idx is not None:
            return stack[workers[:, None], idx]
        return stack if len(workers) == self.num_workers else stack[workers]

    def gradients(self, points, workers, idx=None):
        return self.losses_and_gradients(points, workers, idx)[1]

    def minibatch_rows(self, rng: np.random.Generator) -> np.ndarray:
        """One minibatch of shard rows drawn from ``rng``: ``batch_size`` rows
        uniformly without replacement, sorted, so the full batch is every row
        in order and reproduces the exact gradient bit for bit."""
        n, b = self.shard_size, self.noise.batch_size
        if b > n:
            raise ConfigError(f"batch_size {b} exceeds shard size {n}")
        if b == n:
            return np.arange(n)
        return np.sort(rng.choice(n, size=b, replace=False))

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise ConfigError(f"parameter shape {x.shape} != ({self.dimension},)")
        return x


def worker_stochastic_gradient(
    problem: Problem, points: np.ndarray, workers: np.ndarray, streams: WorkerStreams
) -> np.ndarray:
    """One stochastic gradient per row: worker ``workers[r]`` at ``points[r]``,
    as a new (n, d) array the caller may overwrite, each worker drawing from
    its own stream.

    additive-gaussian: the exact gradient plus N(0, (sigma^2/d) I) noise from
    ``streams.normal_rows``, each worker's next single draw.
    minibatch: the gradient over ``problem.minibatch_rows`` drawn from the
    worker's generator.
    """
    noise = problem.noise
    if noise.kind == "minibatch":
        idx = np.empty((len(workers), noise.batch_size), dtype=np.intp)
        for r, i in enumerate(workers.tolist()):
            idx[r] = problem.minibatch_rows(streams.generators[i])
        return problem.gradients(points, workers, idx)
    g = problem.gradients(points, workers)
    if noise.sigma2 > 0:
        g += np.sqrt(noise.sigma2 / problem.dimension) * streams.normal_rows(workers)
    return g


def global_loss(problem: Problem, x: np.ndarray) -> float:
    """f(x) = (1/m) sum_i f_i(x), accumulated in ascending worker order."""
    return float(group_losses_and_gradients(problem, problem.check_point(x)[None])[0][0])


def global_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Exact gradient of the global objective, rank-ordered accumulation."""
    return group_losses_and_gradients(problem, problem.check_point(x)[None])[1][0]


def group_losses_and_gradients(problem: Problem, points: np.ndarray):
    """(..., S) losses and (..., S, d) gradients of each group's objective at
    its row of ``points`` (..., S, d; the leading axes are records), for a
    problem of S groups of m workers: one loss-and-gradient evaluation of
    every worker, reduced per group: losses added from 0.0 and gradients
    from the group's first worker's, both in ascending rank, each total
    divided by m."""
    groups = points.shape[-2]
    m = problem.num_workers // groups
    losses, grads = problem.losses_and_gradients(
        repeat_groups(points, m), np.arange(problem.num_workers))
    total = losses.size // m  # groups times records
    return (group_sums(losses.reshape(-1, 1), total, 0.0).reshape(points.shape[:-1]) / m,
            group_sums(grads.reshape(-1, points.shape[-1]), total).reshape(points.shape) / m)


class QuadraticProblem(Problem):
    """Per-worker quadratic 0.5 (x - b_i)^T A (x - b_i).

    ``a`` is one (d, d) matrix for every worker, or a (G, d, d) stack with
    one matrix for each of G equal groups of consecutive workers.
    ``centers`` holds every b_i as a row, (m, d). A quadratic has no shard,
    so its noise is additive. Every product with A goes through
    ``_stacked_matvec``, whose bits did not depend on the BLAS thread count
    on any shape tried.
    """

    def __init__(self, a, centers, noise: NoiseModel):
        centers = _stacked(centers, "center", 2)
        m, d = centers.shape
        super().__init__(m, d, noise)
        self.a = np.asarray(a, dtype=np.float64)
        if self.a.shape[-2:] != (d, d) or self.a.ndim not in (2, 3) or m % self.a[..., 0, 0].size:
            raise ConfigError("curvature matrix shape mismatch")
        # the exact test first: it needs no float temporaries, and a built A
        # passes it (NaN fails both tests)
        transpose = np.swapaxes(self.a, -1, -2)
        if not (np.array_equal(self.a, transpose) or np.allclose(self.a, transpose, atol=1e-12)):
            raise ConfigError("curvature matrix must be symmetric")
        if noise.kind == "minibatch":
            raise ConfigError("a quadratic has no data shard to draw minibatches from")
        self.centers = centers
        # row blocks of A for _matvec: starts at multiples of MATVEC_BLOCK,
        # the last block takes the remainder
        starts = range(0, max(d // MATVEC_BLOCK, 1) * MATVEC_BLOCK, MATVEC_BLOCK)
        self._row_blocks = list(map(slice, starts, [*starts[1:], d]))

    def gradients(self, points, workers):
        return self._stacked_matvec(points - self._shards(self.centers, workers), workers)

    def losses_and_gradients(self, points, workers):
        r = points - self._shards(self.centers, workers)
        g = self._stacked_matvec(r, workers)
        return row_dots(0.5 * r, g), g

    def _stacked_matvec(self, rows, workers):
        """A @ r for every row r of (n, d) or (R, n, d) ``rows``, with the A
        of the row's (ascending) worker. One product per curvature matrix
        that serves some row, or one over every group when every row is
        asked for."""
        if self.a.ndim == 2:
            return self._matvec(self.a, rows)
        groups = len(self.a)
        if len(workers) == self.num_workers:
            return self._matvec(self.a[:, None], rows.reshape(
                *rows.shape[:-2], groups, -1, rows.shape[-1])).reshape(rows.shape)
        out = np.empty(rows.shape)
        size = self.num_workers // groups
        bounds = np.searchsorted(workers, np.arange(groups + 1) * size).tolist()
        for a, lo, hi in zip(self.a, bounds, bounds[1:]):
            if hi > lo:
                out[lo:hi] = self._matvec(a, rows[lo:hi])
        return out

    def _matvec(self, a, rows):
        # a (d, d) against rows (..., n, d), or (G, 1, d, d) against rows
        # (..., G, m, d), the leading axes records: bit for bit the
        # 1-D gemv of each row at one BLAS thread (rows @ A.T, a gemm, is
        # not). Each row block of A is loaded into cache once and serves
        # every row before the next block, instead of the whole of A being
        # streamed once per row. The blocked result also had the same bits
        # at 1 and 2 OpenBLAS threads on every shape tried, where a whole
        # d x d gemv did not (102 of 196 shapes with m = 16 and d =
        # 90-2040). A separate short tail block changes bits, so the
        # remainder rides on the last block.
        out = np.empty(rows.shape)
        cols = rows[..., None]
        for s in self._row_blocks:
            np.matmul(a[..., s, :], cols, out=out[..., s, None])
        return out


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[..., i, :] @ b[..., i, :] for every row, each bit for bit the 1-D dot."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # numerically stable logistic function
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _matvecs(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[r] @ vecs[r] for every r: one gemv per matrix, bit for bit the 2-D by 1-D product."""
    return (mats @ vecs[..., None])[..., 0]


class LogisticProblem(Problem):
    """Binary logistic regression; worker i's shard is ``features[i]`` (n, d)
    with +/-1 ``labels[i]`` (n,)."""

    def __init__(self, features, labels, noise: NoiseModel):
        features = _stacked(features, "feature", 3)
        labels = _stacked(labels, "label", 2)
        m, n, d = features.shape
        super().__init__(m, d, noise)
        if labels.shape != (m, n):
            raise ConfigError(f"label shards {labels.shape} do not match feature shards {(m, n)}")
        if not np.all(np.abs(labels) == 1.0):
            raise ConfigError("labels must be +/-1")
        self.features = features
        self.labels = labels
        self.shard_size = n

    def losses_and_gradients(self, points, workers, idx=None):
        feats = self._shards(self.features, workers, idx)
        labs = self._shards(self.labels, workers, idx)
        margins = labs * _matvecs(feats, points)
        grads = _matvecs(np.swapaxes(feats, -1, -2), -labs * _sigmoid(-margins)) / feats.shape[-2]
        return np.logaddexp(0.0, -margins).mean(axis=-1), grads


class MlpProblem(Problem):
    """Two-layer tanh network, squared error against +/-1 targets; worker
    i's shard is ``features[i]`` (n, p) with ``targets[i]`` (n,).

    Parameters are packed flat as [W1 (h x p), b1 (h), w2 (h), b2 (1)].
    """

    def __init__(self, features, targets, hidden: int, noise: NoiseModel):
        features = _stacked(features, "feature", 3)
        targets = _stacked(targets, "target", 2)
        m, n, p = features.shape
        super().__init__(m, hidden * p + hidden + hidden + 1, noise)
        if targets.shape != (m, n):
            raise ConfigError(f"target shards {targets.shape} do not match feature shards {(m, n)}")
        self.input_dim = p
        self.hidden = hidden
        self.features = features
        self.targets = targets
        self.shard_size = n

    def losses_and_gradients(self, points, workers, idx=None):
        feats = self._shards(self.features, workers, idx)
        targs = self._shards(self.targets, workers, idx)
        h, p = self.hidden, self.input_dim
        w1 = points[..., : h * p].reshape(*points.shape[:-1], h, p)
        b1 = points[..., h * p : h * p + h]
        w2 = points[..., h * p + h : h * p + 2 * h]
        b2 = points[..., -1:]
        n = feats.shape[-2]
        hid = np.tanh(feats @ np.swapaxes(w1, -1, -2) + b1[..., None, :])
        err = _matvecs(hid, w2) + b2 - targs
        losses = 0.5 * np.mean(err**2, axis=-1)
        e = err / n
        g_w2 = _matvecs(np.swapaxes(hid, -1, -2), e)
        g_b2 = e.sum(axis=-1, keepdims=True)
        d_pre = e[..., None] * w2[..., None, :] * (1.0 - hid**2)
        g_w1 = np.swapaxes(d_pre, -1, -2) @ feats
        g_b1 = d_pre.sum(axis=-2)
        grads = np.concatenate([g_w1.reshape(*g_w2.shape[:-1], h * p), g_b1, g_w2, g_b2], axis=-1)
        return losses, grads


# ---------------------------------------------------------------------------
# synthetic problem builders (used by the config layer)
# ---------------------------------------------------------------------------

def build_quadratic(p: ProblemConfig, seed) -> QuadraticProblem:
    """Quadratic with worker centers spread by ``p.heterogeneity`` and one A
    for every worker; a sequence of S seeds builds S groups of m workers,
    each with the A and centers of its seed."""
    seeds = seed_list(seed)
    S, m, d = len(seeds), p.m, p.dimension
    if d == 1:
        a = np.array([[p.l_max]])  # every seed's A
    else:
        eigs = np.linspace(float(p.l_min), float(p.l_max), d)
        for g, s in enumerate(seeds):
            q = np.linalg.qr(rng_stream(s, STREAM_DATA, 0).standard_normal((d, d)))[0]
            if g == 0:
                # after the first QR: allocated before it, set-up's peak at
                # d = 2000 grew 30 MiB. The first A starts on a 64-byte cache
                # line, as then do its row blocks at d = 2000: the blocked
                # gemv ran 13-14 ms there against 15.5-16.5 ms at 16 or 48
                # bytes past one, where malloc left it by chance.
                buf = np.empty(S * d * d + 8)
                start = -buf.ctypes.data % 64 // 8
                stack = buf[start:start + S * d * d].reshape(S, d, d)
            # R and q are dropped and A is symmetrised in place (same bits
            # as 0.5 * (a + a.T)) to keep set-up's peak memory down
            a = stack[g]
            np.matmul(q * eigs, q.T, out=a)
            del q
            a += a.T
            a *= 0.5
        a = stack[0] if S == 1 else stack
    centers = np.empty((S * m, d))
    for row, rng in zip(centers, rng_streams(seeds, STREAM_DATA, range(1, m + 1))):
        rng.standard_normal(out=row)
    centers *= p.heterogeneity
    return QuadraticProblem(a, centers, p.noise)


def _labelled_shards(p: ProblemConfig, seed, input_dim: int, teacher):
    """Each worker's Gaussian features f and +/-1 labels sign(t(f)), where
    t = teacher(rng) is drawn from stream 0 of the worker's seed.

    Worker i flips each label independently with probability
    heterogeneity * i / (m - 1), so heterogeneity tunes zeta^2 from ~0
    upward. The flips are drawn from the worker's data stream only when
    that probability is above 0.
    """
    seeds, m, n = seed_list(seed), p.m, p.samples_per_worker
    teachers = [teacher(rng_stream(s, STREAM_DATA, 0)) for s in seeds]
    feats = np.empty((len(seeds) * m, n, input_dim))
    labels = np.empty((len(seeds) * m, n))
    wrngs = rng_streams(seeds, STREAM_DATA, range(1, m + 1))
    for r, (f, y, wrng) in enumerate(zip(feats, labels, wrngs)):
        g, i = divmod(r, m)
        wrng.standard_normal(out=f)
        y[:] = np.where(teachers[g](f) >= 0, 1.0, -1.0)
        p_flip = p.heterogeneity * i / max(m - 1, 1)
        if p_flip > 0:
            y[wrng.random(n) < p_flip] *= -1.0
    return feats, labels


def build_logistic(p: ProblemConfig, seed) -> LogisticProblem:
    """Labels from a seed's ground-truth direction, flipped per worker; S
    seeds build S groups, as in ``build_quadratic``."""
    def teacher(rng):
        w_true = rng.standard_normal(p.dimension)
        w_true /= np.linalg.norm(w_true)
        return lambda f: f @ w_true

    return LogisticProblem(*_labelled_shards(p, seed, p.dimension, teacher), p.noise)


def build_mlp(p: ProblemConfig, seed) -> MlpProblem:
    """Targets from a seed's random tanh teacher, flipped per worker as in
    logistic; S seeds build S groups, as in ``build_quadratic``."""
    def teacher(rng):
        w1_t = rng.standard_normal((p.hidden, p.input_dim))
        b1_t = 0.1 * rng.standard_normal(p.hidden)
        w2_t = rng.standard_normal(p.hidden)
        return lambda f: np.tanh(f @ w1_t.T + b1_t) @ w2_t

    return MlpProblem(*_labelled_shards(p, seed, p.input_dim, teacher), p.hidden, p.noise)
