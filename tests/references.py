"""Independently coded baselines that the simulator must reproduce.

The rank-ordered oracle loops call each worker's own oracle one at a time
and add in ascending rank, the way the kernel did before its state was
stacked; the stacked and global oracle forms must equal them bit for bit.

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
"""

from __future__ import annotations

import numpy as np

from slowmo_sim.numerics import Problem, make_worker_rngs, worker_stochastic_gradient


def worker_losses_and_gradients(
    problem: Problem, x: np.ndarray
) -> tuple[list[float], list[np.ndarray]]:
    """Every worker's loss and gradient at x, one per-worker call each."""
    pairs = [problem.worker_loss_and_gradient(i, x) for i in range(problem.num_workers)]
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
    """One ``worker_stochastic_gradient`` call per row, worker ``workers[r]``
    at ``points[r]`` drawing from its own generator ``rngs[workers[r]]``."""
    grads = [worker_stochastic_gradient(problem, i, x, rngs[i])
             for i, x in zip(workers.tolist(), points)]
    return np.reshape(grads, (len(workers), problem.dimension))


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
        gbar = worker_stochastic_gradient(problem, 0, x, rngs[0]).copy()
        for i in range(1, m):
            gbar += worker_stochastic_gradient(problem, i, x, rngs[i])
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
                g = worker_stochastic_gradient(problem, i, xs[i], rngs[i])
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
            g = worker_stochastic_gradient(problem, 0, fast, rng)
            fast = fast - gamma * g
        slow = slow + alpha * (fast - slow)
    return history


def block_momentum_reference(
    problem: Problem,
    gamma: float,
    tau: int,
    T: int,
    block_momentum: float,
    block_lr: float = 1.0,
    seed: int = 0,
) -> list[np.ndarray]:
    """The classic block-wise filtering recursion.

    After each block of tau local steps: G = mean_i(x_i) - W (the block
    "gradient"), Delta <- eta * Delta + zeta * G, W <- W + Delta, and every
    worker restarts from W. eta is the block momentum, zeta the block
    learning rate.
    """
    m, d = problem.num_workers, problem.dimension
    rngs = make_worker_rngs(seed, m)
    w = np.zeros(d)
    delta = np.zeros(d)
    xs = [w.copy() for _ in range(m)]
    history = []
    for _ in range(T):
        for _ in range(tau):
            history.append(_mean(xs))
            for i in range(m):
                g = worker_stochastic_gradient(problem, i, xs[i], rngs[i])
                xs[i] = xs[i] - gamma * g
        block_grad = _mean(xs) - w
        delta = block_momentum * delta + block_lr * block_grad
        w = w + delta
        xs = [w.copy() for _ in range(m)]
    return history
