"""Problem definitions, stochastic gradient oracles, and problem constants.

Three objective families are supported, each sharded across ``m`` workers:

* ``quadratic``  - per-worker f_i(x) = 0.5 (x - b_i)^T A (x - b_i), optionally
  backed by a sample cloud so that minibatch noise is meaningful;
* ``logistic``   - binary logistic regression on synthetic Gaussian features
  with per-worker label-flip heterogeneity;
* ``mlp``        - a small two-layer tanh network trained with squared error
  against +/-1 targets (genuinely non-convex, hand-coded backprop).

Gradient noise comes from one of two models: ``additive-gaussian`` adds
N(0, (sigma^2/d) I) to the exact worker gradient (so E||eta||^2 = sigma^2
independent of dimension), and ``minibatch`` returns the gradient of ``b``
shard points sampled uniformly without replacement.

All randomness flows through counter-based Philox streams derived from
``(seed, namespace, index)`` so that worker streams are independent and
reproducible regardless of execution order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Stream namespaces. Keeping them distinct means data generation, gradient
# noise, and communication delays never share a stream.
STREAM_DATA = 0
STREAM_NOISE = 1
STREAM_DELAY = 2
STREAM_MISC = 3


def rng_stream(seed: int, namespace: int, index: int = 0) -> np.random.Generator:
    """Counter-based generator for stream ``(seed, namespace, index)``."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(namespace, index))
    return np.random.Generator(np.random.Philox(ss))


def make_worker_rngs(seed: int, m: int) -> list[np.random.Generator]:
    """Per-worker gradient-noise streams; worker i always gets the same stream."""
    return [rng_stream(seed, STREAM_NOISE, i) for i in range(m)]


class WorkerStreams:
    """Per-worker gradient-noise streams, plus standard normal rows pre-drawn
    from them in blocks.

    ``standard_normal((block, d))`` uses up a Philox stream exactly as
    ``block`` calls of ``standard_normal(d)`` do, so a worker's k-th row is
    its k-th single draw. Each worker has its own cursor: a worker that does
    not step draws nothing. A problem takes its noise either through
    ``normal_rows`` or from ``generators`` directly, never both.
    """

    def __init__(self, seed: int, m: int, dimension: int, block: int):
        self.generators = make_worker_rngs(seed, m)
        self._shape = (m, block, dimension)
        self._rows = None  # allocated on first use
        self._cursor = np.full(m, block)
        self._lockstep = True  # every call so far took a row from every worker

    def normal_rows(self, workers: np.ndarray) -> np.ndarray:
        """The next N(0, I) row of each worker in ``workers`` (distinct,
        ascending), (n, d). The result may be a view of the pre-drawn block."""
        m, block, d = self._shape
        if self._rows is None:
            self._rows = np.empty(self._shape)
        cursor = self._cursor
        if self._lockstep and len(workers) == m:
            c = int(cursor[0])
            if c == block:
                for i, gen in enumerate(self.generators):
                    self._rows[i] = gen.standard_normal((block, d))
                c = 0
            cursor[:] = c + 1
            return self._rows[:, c]
        self._lockstep = False
        for i in workers[cursor[workers] == block].tolist():
            self._rows[i] = self.generators[i].standard_normal((block, d))
            cursor[i] = 0
        rows = self._rows[workers, cursor[workers]]
        cursor[workers] += 1
        return rows


def rank_sum(rows: np.ndarray, start: float = -0.0) -> np.ndarray:
    """``start`` plus the rows of an (n, d) array, added left to right in
    ascending row order, bit for bit. The default -0.0 leaves the first row
    as it is, like ``total = rows[0].copy(); total += row; ...``; start 0.0
    is the same loop from ``np.zeros(d)``.

    ``rows.sum(axis=0)`` would start from +0.0 (an all -0.0 column loses its
    sign) and sum a single column pairwise; cumsum is sequential.
    """
    if rows.shape[1] == 1:
        return np.cumsum(rows, axis=0)[-1] + start
    return np.add.reduce(rows, axis=0, initial=start)


def float_sum(values) -> float:
    """Python floats added left to right from 0.0 (``np.sum`` would pair them)."""
    total = 0.0
    for v in values:
        total += v
    return total


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
        if self.kind not in ("additive-gaussian", "minibatch"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        if self.kind == "additive-gaussian" and self.sigma2 < 0:
            raise ConfigError("sigma2 must be nonnegative")
        if self.kind == "minibatch" and self.batch_size < 1:
            raise ConfigError("minibatch noise requires batch_size >= 1")


@dataclass(frozen=True)
class ProblemConstants:
    """Smoothness / noise / heterogeneity constants with exactness flags.

    Non-quadratic kinds report estimate-flagged values, never silently exact.
    ``f_inf`` is the exact optimum for quadratics and the lower bound 0 for
    the nonnegative losses.
    """

    L: float
    sigma2: float
    zeta2: float
    f_inf: float
    L_exact: bool = True
    sigma2_exact: bool = True
    zeta2_exact: bool = True
    f_inf_exact: bool = True


class Problem:
    """Base class: ``m`` workers, shared parameter dimension ``d``."""

    kind = "abstract"

    def __init__(self, num_workers: int, dimension: int, noise: NoiseModel):
        if num_workers < 1:
            raise ConfigError("num_workers must be >= 1")
        if dimension < 1:
            raise ConfigError("dimension must be >= 1")
        self.num_workers = num_workers
        self.dimension = dimension
        self.noise = noise

    # subclasses implement these three
    def worker_loss(self, worker_id: int, x: np.ndarray) -> float:
        raise NotImplementedError

    def worker_gradient(self, worker_id: int, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def minibatch_gradient(self, worker_id: int, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def shard_size(self, worker_id: int) -> int:
        raise NotImplementedError

    def worker_loss_and_gradient(self, worker_id: int, x: np.ndarray) -> tuple[float, np.ndarray]:
        """(worker_loss, worker_gradient) at x, bit for bit. Subclasses whose
        loss and gradient share work override this to do that work once."""
        return self.worker_loss(worker_id, x), self.worker_gradient(worker_id, x)

    def losses_and_gradients(self, x: np.ndarray) -> tuple[list[float], np.ndarray]:
        """Every worker's (loss, gradient) at x: m floats and an (m, d) stack."""
        pairs = [self.worker_loss_and_gradient(i, x) for i in range(self.num_workers)]
        return [loss for loss, _ in pairs], np.stack([g for _, g in pairs])

    def stochastic_gradients(
        self, points: np.ndarray, workers: np.ndarray, streams: WorkerStreams
    ) -> np.ndarray:
        """One stochastic gradient per row: worker ``workers[r]`` at ``points[r]``,
        as a new (n, d) array the caller may overwrite.

        Bit for bit the ``worker_stochastic_gradient`` calls in row order,
        each worker drawing from its own stream; subclasses may batch them.
        """
        return np.stack([
            worker_stochastic_gradient(self, i, x, streams.generators[i])
            for i, x in zip(workers.tolist(), points)
        ])

    def check_worker(self, worker_id: int) -> None:
        if not (0 <= worker_id < self.num_workers):
            raise ConfigError(f"unknown worker_id {worker_id} (m={self.num_workers})")

    def check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise ConfigError(f"parameter shape {x.shape} != ({self.dimension},)")
        return x


def worker_full_gradient(problem: Problem, worker_id: int, x: np.ndarray) -> np.ndarray:
    """Exact gradient of worker ``worker_id``'s local objective at x."""
    problem.check_worker(worker_id)
    x = problem.check_point(x)
    return problem.worker_gradient(worker_id, x)


def worker_stochastic_gradient(
    problem: Problem, worker_id: int, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One stochastic gradient draw for the given worker.

    additive-gaussian: exact gradient plus N(0, (sigma^2/d) I) noise.
    minibatch: gradient of ``b`` uniformly sampled shard points (without
    replacement, indices sorted so the full batch reproduces the exact
    gradient bit for bit).
    """
    problem.check_worker(worker_id)
    x = problem.check_point(x)
    noise = problem.noise
    if noise.kind == "additive-gaussian":
        g = problem.worker_gradient(worker_id, x)
        if noise.sigma2 > 0:
            scale = np.sqrt(noise.sigma2 / problem.dimension)
            g = g + scale * rng.standard_normal(problem.dimension)
        return g
    # minibatch
    n = problem.shard_size(worker_id)
    b = noise.batch_size
    if b > n:
        raise ConfigError(f"batch_size {b} exceeds shard size {n}")
    if b == n:
        idx = np.arange(n)
    else:
        idx = np.sort(rng.choice(n, size=b, replace=False))
    return problem.minibatch_gradient(worker_id, x, idx)


def global_loss(problem: Problem, x: np.ndarray) -> float:
    """f(x) = (1/m) sum_i f_i(x), accumulated in ascending worker order."""
    x = problem.check_point(x)
    total = 0.0
    for i in range(problem.num_workers):
        total += problem.worker_loss(i, x)
    return total / problem.num_workers


def global_gradient(problem: Problem, x: np.ndarray) -> np.ndarray:
    """Exact gradient of the global objective, rank-ordered accumulation."""
    x = problem.check_point(x)
    total = problem.worker_gradient(0, x).copy()
    for i in range(1, problem.num_workers):
        total += problem.worker_gradient(i, x)
    return total / problem.num_workers


def global_loss_and_gradient(problem: Problem, x: np.ndarray) -> tuple[float, np.ndarray]:
    """(global_loss, global_gradient) at x, bit for bit, from one
    loss-and-gradient evaluation of every worker, summed in ascending rank."""
    x = problem.check_point(x)
    m = problem.num_workers
    losses, grads = problem.losses_and_gradients(x)
    return float_sum(losses) / m, rank_sum(grads) / m


def power_iteration(mat: np.ndarray, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Largest eigenvalue of a symmetric PSD matrix to ``tol`` relative accuracy."""
    d = mat.shape[0]
    v = rng_stream(0, STREAM_MISC, 7).standard_normal(d)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = mat @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam_new = float(v @ (mat @ v))
        if abs(lam_new - lam) <= tol * max(abs(lam_new), 1e-300):
            return lam_new
        lam = lam_new
    return lam


class QuadraticProblem(Problem):
    """Per-worker quadratic 0.5 (x - b_i)^T A_i (x - b_i).

    ``a_mats`` may be a single shared matrix or one per worker. When
    ``samples`` is given (one (n, d) array of centers per worker) the worker
    objective becomes the mean over its sample cloud, b_i is the cloud mean,
    and minibatch noise draws from the cloud.
    """

    kind = "quadratic"

    def __init__(self, a_mats, b_vecs, noise: NoiseModel, samples=None):
        b_vecs = [np.asarray(b, dtype=np.float64) for b in b_vecs]
        m = len(b_vecs)
        d = b_vecs[0].shape[0]
        super().__init__(m, d, noise)
        if isinstance(a_mats, np.ndarray) and a_mats.ndim == 2:
            a_mats = [np.asarray(a_mats, dtype=np.float64)] * m
        self.a_mats = [np.asarray(a, dtype=np.float64) for a in a_mats]
        if len(self.a_mats) != m:
            raise ConfigError("need one curvature matrix per worker (or one shared)")
        for a in {id(a): a for a in self.a_mats}.values():  # each distinct matrix once
            if a.shape != (d, d):
                raise ConfigError("curvature matrix shape mismatch")
            if not np.allclose(a, a.T, atol=1e-12):
                raise ConfigError("curvature matrices must be symmetric")
        self.samples = None
        if samples is not None:
            self.samples = [np.asarray(s, dtype=np.float64) for s in samples]
            # the effective center is the floating-point mean of the cloud,
            # so full-batch minibatch gradients match the exact gradient
            b_vecs = [s.mean(axis=0) for s in self.samples]
        elif noise.kind == "minibatch":
            raise ConfigError("minibatch noise on a quadratic requires a sample cloud")
        self.b_vecs = b_vecs
        self.shared_curvature = all(a is self.a_mats[0] for a in self.a_mats) or all(
            np.array_equal(a, self.a_mats[0]) for a in self.a_mats
        )
        # every worker's objective in stacked form: one A, centers as rows
        self._centers = np.stack(b_vecs) if self.shared_curvature and samples is None else None

    def shard_size(self, worker_id):
        if self.samples is None:
            raise ConfigError("quadratic problem has no sample cloud")
        return self.samples[worker_id].shape[0]

    def worker_loss(self, worker_id, x):
        a = self.a_mats[worker_id]
        if self.samples is not None:
            diffs = x[None, :] - self.samples[worker_id]
            return float(0.5 * np.einsum("nd,de,ne->n", diffs, a, diffs).mean())
        r = x - self.b_vecs[worker_id]
        return float(0.5 * r @ (a @ r))

    def worker_gradient(self, worker_id, x):
        return self.a_mats[worker_id] @ (x - self.b_vecs[worker_id])

    def worker_loss_and_gradient(self, worker_id, x):
        if self.samples is not None:
            return super().worker_loss_and_gradient(worker_id, x)
        r = x - self.b_vecs[worker_id]
        g = self.a_mats[worker_id] @ r
        return float(0.5 * r @ g), g

    def losses_and_gradients(self, x):
        if self._centers is None:
            return super().losses_and_gradients(x)
        r = x - self._centers
        g = self._stacked_matvec(r)
        return row_dots(0.5 * r, g).tolist(), g

    def stochastic_gradients(self, points, workers, streams):
        if self._centers is None:
            return super().stochastic_gradients(points, workers, streams)
        centers = self._centers if len(workers) == self.num_workers else self._centers[workers]
        g = self._stacked_matvec(points - centers)
        if self.noise.sigma2 > 0:
            g += np.sqrt(self.noise.sigma2 / self.dimension) * streams.normal_rows(workers)
        return g

    def _stacked_matvec(self, rows):
        # the stacked gemv A @ r per row matches A @ r bit for bit; rows @ A.T does not
        return (self.a_mats[0] @ rows[..., None])[..., 0]

    def minibatch_gradient(self, worker_id, x, idx):
        center = self.samples[worker_id][idx].mean(axis=0)
        return self.a_mats[worker_id] @ (x - center)

    def minimizer(self) -> np.ndarray:
        """Exact global minimizer (least-squares solve of the stationarity system)."""
        m = self.num_workers
        a_bar = sum(self.a_mats) / m
        rhs = sum(self.a_mats[i] @ self.b_vecs[i] for i in range(m)) / m
        sol, *_ = np.linalg.lstsq(a_bar, rhs, rcond=None)
        return sol


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for every row, each bit for bit the 1-D dot."""
    return (a[:, None, :] @ b[:, :, None]).ravel()


def _sigmoid(t: np.ndarray) -> np.ndarray:
    # numerically stable logistic function
    return 0.5 * (1.0 + np.tanh(0.5 * t))


class LogisticProblem(Problem):
    """Binary logistic regression; shards are (features, +/-1 labels) pairs."""

    kind = "logistic"

    def __init__(self, features, labels, noise: NoiseModel):
        features = [np.asarray(f, dtype=np.float64) for f in features]
        labels = [np.asarray(y, dtype=np.float64) for y in labels]
        m = len(features)
        d = features[0].shape[1]
        super().__init__(m, d, noise)
        for f, y in zip(features, labels):
            if f.shape[1] != d or f.shape[0] != y.shape[0]:
                raise ConfigError("feature/label shard shape mismatch")
            if not np.all(np.abs(y) == 1.0):
                raise ConfigError("labels must be +/-1")
        self.features = features
        self.labels = labels

    def shard_size(self, worker_id):
        return self.features[worker_id].shape[0]

    @staticmethod
    def _margin_gradient(feats, labs, margins):
        coeff = -labs * _sigmoid(-margins)
        return (feats.T @ coeff) / feats.shape[0]

    def worker_loss(self, worker_id, x):
        margins = self.labels[worker_id] * (self.features[worker_id] @ x)
        return float(np.logaddexp(0.0, -margins).mean())

    def worker_gradient(self, worker_id, x):
        return self.minibatch_gradient(worker_id, x, slice(None))

    def worker_loss_and_gradient(self, worker_id, x):
        feats, labs = self.features[worker_id], self.labels[worker_id]
        margins = labs * (feats @ x)
        loss = float(np.logaddexp(0.0, -margins).mean())
        return loss, self._margin_gradient(feats, labs, margins)

    def minibatch_gradient(self, worker_id, x, idx):
        feats, labs = self.features[worker_id][idx], self.labels[worker_id][idx]
        return self._margin_gradient(feats, labs, labs * (feats @ x))


class MlpProblem(Problem):
    """Two-layer tanh network, squared error against +/-1 targets.

    Parameters are packed flat as [W1 (h x p), b1 (h), w2 (h), b2 (1)].
    """

    kind = "mlp"

    def __init__(self, features, targets, hidden: int, noise: NoiseModel):
        features = [np.asarray(f, dtype=np.float64) for f in features]
        targets = [np.asarray(y, dtype=np.float64) for y in targets]
        m = len(features)
        p = features[0].shape[1]
        d = hidden * p + hidden + hidden + 1
        super().__init__(m, d, noise)
        self.input_dim = p
        self.hidden = hidden
        self.features = features
        self.targets = targets

    def shard_size(self, worker_id):
        return self.features[worker_id].shape[0]

    def _unpack(self, x):
        h, p = self.hidden, self.input_dim
        w1 = x[: h * p].reshape(h, p)
        b1 = x[h * p : h * p + h]
        w2 = x[h * p + h : h * p + 2 * h]
        b2 = x[-1]
        return w1, b1, w2, b2

    def _loss_grad_subset(self, x, feats, targs, want_grad):
        w1, b1, w2, b2 = self._unpack(x)
        n = feats.shape[0]
        hid = np.tanh(feats @ w1.T + b1)
        out = hid @ w2 + b2
        err = out - targs
        loss = float(0.5 * np.mean(err**2))
        if not want_grad:
            return loss, None
        e = err / n
        g_w2 = hid.T @ e
        g_b2 = e.sum()
        d_hid = np.outer(e, w2)
        d_pre = d_hid * (1.0 - hid**2)
        g_w1 = d_pre.T @ feats
        g_b1 = d_pre.sum(axis=0)
        grad = np.concatenate([g_w1.ravel(), g_b1, g_w2, [g_b2]])
        return loss, grad

    def worker_loss(self, worker_id, x):
        loss, _ = self._loss_grad_subset(
            x, self.features[worker_id], self.targets[worker_id], False
        )
        return loss

    def worker_gradient(self, worker_id, x):
        return self.worker_loss_and_gradient(worker_id, x)[1]

    def worker_loss_and_gradient(self, worker_id, x):
        return self._loss_grad_subset(
            x, self.features[worker_id], self.targets[worker_id], True
        )

    def minibatch_gradient(self, worker_id, x, idx):
        _, grad = self._loss_grad_subset(
            x, self.features[worker_id][idx], self.targets[worker_id][idx], True
        )
        return grad


def _zeta2_on_grid(problem: Problem, points: list[np.ndarray]) -> float:
    worst = 0.0
    for x in points:
        g = global_gradient(problem, x)
        acc = 0.0
        for i in range(problem.num_workers):
            diff = g - problem.worker_gradient(i, x)
            acc += float(diff @ diff)
        worst = max(worst, acc / problem.num_workers)
    return worst


def _reference_grid(problem: Problem, count: int = 8, scale: float = 2.0) -> list[np.ndarray]:
    rng = rng_stream(0, STREAM_MISC, 11)
    pts = [np.zeros(problem.dimension)]
    for _ in range(count):
        pts.append(scale * rng.standard_normal(problem.dimension))
    return pts


def _estimate_sigma2_minibatch(problem: Problem, points, draws: int = 400) -> float:
    rng = rng_stream(0, STREAM_MISC, 13)
    worst = 0.0
    for x in points:
        for i in range(problem.num_workers):
            full = problem.worker_gradient(i, x)
            acc = 0.0
            for _ in range(draws):
                g = worker_stochastic_gradient(problem, i, x, rng)
                diff = g - full
                acc += float(diff @ diff)
            worst = max(worst, acc / draws)
    return worst


def _estimate_lipschitz(problem: Problem, pairs: int = 2000, safety: float = 1.5) -> float:
    rng = rng_stream(0, STREAM_MISC, 17)
    d = problem.dimension
    worst = 0.0
    for _ in range(pairs):
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        gap = np.linalg.norm(x - y)
        if gap < 1e-9:
            continue
        for i in range(problem.num_workers):
            num = np.linalg.norm(
                problem.worker_gradient(i, x) - problem.worker_gradient(i, y)
            )
            worst = max(worst, num / gap)
    return safety * worst


def problem_constants(problem: Problem) -> ProblemConstants:
    """Smoothness L, gradient noise sigma^2, heterogeneity zeta^2, and f_inf.

    Quadratics get exact L (power iteration on each A_i), exact f_inf, and a
    zeta^2 evaluated exactly on a reference grid (constant in x when the
    curvature is shared, in which case it is flagged exact). Logistic L uses
    the Gram-matrix bound lambda_max(F^T F / 4n); the mlp L is sampled. The
    additive-gaussian sigma^2 is exact by construction; the minibatch one is
    a Monte-Carlo estimate.
    """
    m = problem.num_workers
    grid = _reference_grid(problem)

    if problem.noise.kind == "additive-gaussian":
        sigma2, sigma2_exact = problem.noise.sigma2, True
    else:
        sigma2, sigma2_exact = _estimate_sigma2_minibatch(problem, grid[:3]), False

    if m == 1:
        zeta2, zeta2_exact = 0.0, True
    elif isinstance(problem, QuadraticProblem) and problem.shared_curvature:
        # gradient differences are constant in x, the grid evaluation is exact
        zeta2, zeta2_exact = _zeta2_on_grid(problem, grid[:1]), True
    else:
        zeta2, zeta2_exact = _zeta2_on_grid(problem, grid), False

    if isinstance(problem, QuadraticProblem):
        lips = max(power_iteration(a) for a in problem.a_mats)
        f_inf = global_loss(problem, problem.minimizer())
        return ProblemConstants(
            L=lips, sigma2=sigma2, zeta2=zeta2, f_inf=f_inf,
            L_exact=True, sigma2_exact=sigma2_exact, zeta2_exact=zeta2_exact,
            f_inf_exact=True,
        )
    if isinstance(problem, LogisticProblem):
        lips = max(
            power_iteration(f.T @ f / (4.0 * f.shape[0])) for f in problem.features
        )
        return ProblemConstants(
            L=lips, sigma2=sigma2, zeta2=zeta2, f_inf=0.0,
            L_exact=False, sigma2_exact=sigma2_exact, zeta2_exact=zeta2_exact,
            f_inf_exact=False,
        )
    lips = _estimate_lipschitz(problem)
    return ProblemConstants(
        L=lips, sigma2=sigma2, zeta2=zeta2, f_inf=0.0,
        L_exact=False, sigma2_exact=sigma2_exact, zeta2_exact=zeta2_exact,
        f_inf_exact=False,
    )


# ---------------------------------------------------------------------------
# synthetic problem builders (used by the config layer)
# ---------------------------------------------------------------------------

def build_quadratic(
    m: int,
    dimension: int,
    noise: NoiseModel,
    seed: int,
    l_min: float = 1.0,
    l_max: float = 1.0,
    heterogeneity: float = 0.0,
    samples_per_worker: int = 0,
    sample_spread: float = 1.0,
) -> QuadraticProblem:
    """Shared-curvature quadratic with worker centers spread by ``heterogeneity``."""
    rng = rng_stream(seed, STREAM_DATA, 0)
    if dimension == 1:
        a = np.array([[l_max]])
    else:
        # R and q are dropped and a is symmetrised in place (same bits as
        # 0.5 * (a + a.T)) to keep set-up's peak memory down at large d
        q = np.linalg.qr(rng.standard_normal((dimension, dimension)))[0]
        eigs = np.linspace(l_min, l_max, dimension)
        a = (q * eigs) @ q.T
        del q
        a += a.T
        a *= 0.5
    b_vecs = []
    for i in range(m):
        wrng = rng_stream(seed, STREAM_DATA, 1 + i)
        b_vecs.append(heterogeneity * wrng.standard_normal(dimension))
    samples = None
    if samples_per_worker > 0:
        samples = []
        for i in range(m):
            srng = rng_stream(seed, STREAM_DATA, 1000 + i)
            cloud = b_vecs[i] + sample_spread * srng.standard_normal(
                (samples_per_worker, dimension)
            )
            samples.append(cloud)
    return QuadraticProblem(a, b_vecs, noise, samples=samples)


def _flip_probability(heterogeneity: float, worker_id: int, m: int) -> float:
    return heterogeneity * worker_id / max(m - 1, 1)


def build_logistic(
    m: int,
    dimension: int,
    samples_per_worker: int,
    noise: NoiseModel,
    seed: int,
    heterogeneity: float = 0.0,
) -> LogisticProblem:
    """Gaussian features, labels from a shared ground-truth direction.

    Worker i flips each label independently with probability
    heterogeneity * i / (m - 1), so heterogeneity tunes zeta^2 from ~0 upward.
    """
    base = rng_stream(seed, STREAM_DATA, 0)
    w_true = base.standard_normal(dimension)
    w_true /= np.linalg.norm(w_true)
    feats, labs = [], []
    for i in range(m):
        wrng = rng_stream(seed, STREAM_DATA, 1 + i)
        f = wrng.standard_normal((samples_per_worker, dimension))
        y = np.where(f @ w_true >= 0, 1.0, -1.0)
        p_flip = _flip_probability(heterogeneity, i, m)
        if p_flip > 0:
            flips = wrng.random(samples_per_worker) < p_flip
            y = np.where(flips, -y, y)
        feats.append(f)
        labs.append(y)
    return LogisticProblem(feats, labs, noise)


def build_mlp(
    m: int,
    input_dim: int,
    hidden: int,
    samples_per_worker: int,
    noise: NoiseModel,
    seed: int,
    heterogeneity: float = 0.0,
) -> MlpProblem:
    """Teacher-generated +/-1 targets with the same label-flip scheme as logistic."""
    base = rng_stream(seed, STREAM_DATA, 0)
    w1_t = base.standard_normal((hidden, input_dim))
    b1_t = 0.1 * base.standard_normal(hidden)
    w2_t = base.standard_normal(hidden)
    b2_t = 0.0
    feats, targs = [], []
    for i in range(m):
        wrng = rng_stream(seed, STREAM_DATA, 1 + i)
        f = wrng.standard_normal((samples_per_worker, input_dim))
        raw = np.tanh(f @ w1_t.T + b1_t) @ w2_t + b2_t
        y = np.where(raw >= 0, 1.0, -1.0)
        p_flip = _flip_probability(heterogeneity, i, m)
        if p_flip > 0:
            flips = wrng.random(samples_per_worker) < p_flip
            y = np.where(flips, -y, y)
        feats.append(f)
        targs.append(y)
    return MlpProblem(feats, targs, hidden, noise)
