"""Numerical checks of the convergence guarantee.

For an L-smooth objective with inner-loop direction variance V, slow
momentum beta, slow learning rate alpha, and the prescribed effective step
size gamma_eff = alpha * gamma / (1 - beta) = sqrt(m / (tau T)), the bound
certified here is

    (1/(tau T)) sum_{t,k} E ||grad f(x_bar_{t,k})||^2
        <= (2 Delta + m V L) / sqrt(m tau T)
         + bias_term
         + (4 m V L^2 (tau-1) / (tau T)) * ((1-beta)/alpha - 1)^2
         + (8 m V L^2 tau / (tau T)) * beta^2 / (1 - beta^2)

valid once tau*T clears a problem-dependent step-count threshold. The
bias_term ("effect of the base optimizer") is either measured from logged
per-step expected-direction gaps or, for plain-SGD-with-local-steps runs,
replaced by the closed-form surrogate 3 g^2 L^2 sigma^2 tau + 9 g^2 L^2
zeta^2 tau^2 (requiring g*L*tau <= 1/6).

The LHS expectation is approximated by averaging at least 20 seeded runs;
when any premise fails the report is marked condition-not-met and no
pass/fail verdict is asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .base_optimizers import BaseOptimizerConfig, OptimizerBuffers, local_direction
from .errors import ConfigError
from .numerics import Problem, WorkerStreams, global_gradient, group_sums, make_worker_rngs
from .simkernel import MetricsTrace

SEED_FLOOR = 20  # minimum runs for the LHS expectation
MAX_V_SAMPLES = 10**7  # estimate_V keeps a (samples, d) array


@dataclass(frozen=True)
class BoundInputs:
    """Everything the right-hand side needs, plus the prescription check."""

    delta: float  # f(x_0) - f_inf
    m: int
    tau: int
    T: int
    L: float
    V: float
    alpha: float
    beta: float
    bias_term: float
    gamma_eff: float  # alpha * gamma / (1 - beta)

    def __post_init__(self):
        if self.m < 1 or self.tau < 1 or self.T < 1:
            raise ConfigError("m, tau, T must all be >= 1")
        if not (0.0 <= self.beta < 1.0):
            raise ConfigError("beta must lie in [0, 1)")
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be positive")
        if min(self.delta, self.L, self.V, self.bias_term) < 0.0:
            raise ConfigError("delta, L, V, bias_term must be nonnegative")


def gamma_eff(alpha: float, gamma: float, beta: float) -> float:
    """Effective step size alpha * gamma / (1 - beta)."""
    return alpha * gamma / (1.0 - beta)


def prescribed_gamma(m: int, tau: int, T: int, alpha: float, beta: float) -> float:
    """Inner gamma that realizes gamma_eff = sqrt(m / (tau T))."""
    return (1.0 - beta) / alpha * math.sqrt(m / (tau * T))


def theorem1_terms(inputs: BoundInputs) -> dict:
    """The three formula terms plus the bias term, keyed by name."""
    k_total = inputs.tau * inputs.T
    m, v, lips = inputs.m, inputs.V, inputs.L
    t_lead = (2.0 * inputs.delta + m * v * lips) / math.sqrt(m * k_total)
    t_alpha = (
        4.0 * m * v * lips**2 * (inputs.tau - 1) / k_total
        * ((1.0 - inputs.beta) / inputs.alpha - 1.0) ** 2
    )
    t_momentum = (
        8.0 * m * v * lips**2 * inputs.tau / k_total
        * inputs.beta**2 / (1.0 - inputs.beta**2)
    )
    return {
        "leading": t_lead,
        "bias": inputs.bias_term,
        "alpha_mismatch": t_alpha,
        "momentum": t_momentum,
    }


def theorem1_rhs(inputs: BoundInputs) -> float:
    """Scalar right-hand side of the convergence bound."""
    return sum(theorem1_terms(inputs).values())


def step_count_condition(m: int, L: float, tau: int, alpha: float, beta: float) -> float:
    """Minimum tau*T for the bound to apply."""
    if alpha <= 0 or not (0 <= beta < 1):
        raise ConfigError("need alpha > 0 and beta in [0, 1)")
    inner = max(
        3.0 * tau * (1.0 - beta - alpha) / alpha,
        4.0 * tau * beta / (1.0 - beta),
        1.0,
    )
    return m * L**2 * (1.0 + math.sqrt(3.0) * inner)


def local_sgd_bias_surrogate(
    gamma: float, L: float, sigma2: float, zeta2: float, tau: int
) -> float:
    """Closed-form base-optimizer effect for plain SGD with local steps.

    3 gamma^2 L^2 sigma^2 tau + 9 gamma^2 L^2 zeta^2 tau^2, valid only while
    gamma * L * tau <= 1/6.
    """
    if gamma * L * tau > 1.0 / 6.0 + 1e-12:
        raise ConfigError(
            f"surrogate invalid: gamma*L*tau = {gamma * L * tau:.4f} > 1/6"
        )
    return 3.0 * gamma**2 * L**2 * sigma2 * tau + 9.0 * gamma**2 * L**2 * zeta2 * tau**2


def plain_sgd_V(sigma2: float, m: int) -> float:
    """Direction variance of the averaged plain-SGD step: sigma^2 / m."""
    return sigma2 / m


@dataclass(frozen=True)
class VEstimate:
    value: float
    std_error: float
    samples: int


def estimate_V(
    problem: Problem,
    base_config: BaseOptimizerConfig,
    samples: int = 100_000,
    seed: int = 0,
) -> VEstimate:
    """Monte-Carlo estimate of V = Var[(1/m) sum_i d_i] at x = 0 with fresh
    optimizer buffers; every sample starts from fresh buffers again.

    Column- and doubly-stochastic communication preserve the worker average
    of the update directions, so the averaged-direction distribution is the
    same for every supported protocol.
    """
    if not 100 <= samples <= MAX_V_SAMPLES:
        raise ConfigError(f"estimate_V needs 100 to {MAX_V_SAMPLES} samples, got {samples}")
    m, d = problem.num_workers, problem.dimension
    x = np.zeros(d)

    if base_config.kind == "plain-sgd" and problem.noise.kind == "additive-gaussian":
        # d_i = grad_i + eta_i: draw the noise in bulk, one block per worker
        rngs = make_worker_rngs(seed, m)
        mean_full = global_gradient(problem, x)
        scale = math.sqrt(problem.noise.sigma2 / d)
        noise_mean = np.zeros((samples, d))
        for i in range(m):
            noise_mean += scale * rngs[i].standard_normal((samples, d))
        noise_mean /= m
        dbars = mean_full[None, :] + noise_mean
    else:
        streams = WorkerStreams(seed, m, d, block=64)
        workers = np.arange(m)
        points = np.tile(x, (m, 1))
        dbars = np.empty((samples, d))
        for s_idx in range(samples):
            grads = problem.stochastic_gradients(points, workers, streams)
            buffers = OptimizerBuffers.fresh(base_config, m, d)
            directions = local_direction(base_config, buffers, grads)
            dbars[s_idx] = group_sums(directions, 1, 0.0)[0] / m

    dev = dbars - dbars.mean(axis=0)
    v_samples = (dev**2).sum(axis=1)
    value = float(v_samples.sum() / (samples - 1))
    std_error = float(v_samples.std(ddof=1) / math.sqrt(samples))
    return VEstimate(value=value, std_error=std_error, samples=samples)


def lhs_from_records(records, tau: int, T: int) -> float:
    """(1/(tau T)) sum of grad_norm_sq over a full-cadence trace, a MetricsTrace
    or a list of record dicts."""
    expected = tau * T
    if len(records) != expected:
        raise ConfigError(
            f"trace has {len(records)} records, expected tau*T = {expected} "
            "(bound checks need metric_cadence = 1 and full blocks)"
        )
    return float(np.mean(_numbers(records, "grad_norm_sq")))


def _record_number(record: dict, key: str):
    # the simulator never writes a NaN; one would make the LHS NaN and the verdict False
    value = record.get(key)
    if type(value) not in (int, float) or math.isnan(value):
        if value is None and key == "bias_sq":
            raise ConfigError("trace lacks bias_sq values; rerun with bias logging enabled")
        raise ConfigError(f"trace record needs a number {key!r}, got {value!r}")
    return value


def _numbers(trace, key: str):
    """Every record's ``key`` value of a MetricsTrace or a list of record dicts:
    a float column without NaN as it is, else each record's ``_record_number``."""
    if isinstance(trace, MetricsTrace):
        column = None if trace.columns is None else trace.columns[key]
        if column is not None and column.dtype == np.float64 and not np.isnan(column).any():
            return column
        trace = trace.records
    return [_record_number(r, key) for r in trace]


def measured_bias_term(traces: list) -> float:
    """Average logged expected-direction gap over all records of all traces,
    each trace a MetricsTrace or a list of record dicts."""
    vals = [_numbers(trace, "bias_sq") for trace in traces]
    if not any(len(v) for v in vals):
        raise ConfigError("no records to measure the bias term from")
    return float(np.mean(np.concatenate(vals)))


def check_bound(traces: list, inputs: BoundInputs) -> dict:
    """Compare the measured LHS against the bound's right-hand side.

    ``traces`` holds one trace per seed, a MetricsTrace or a list of record
    dicts. The report never asserts
    pass/fail unless every premise holds: enough seeds, the step-count
    condition, and the gamma_eff prescription.
    """
    per_seed = [lhs_from_records(records, inputs.tau, inputs.T) for records in traces]
    n = len(per_seed)
    lhs = float(np.mean(per_seed))
    # a seed's LHS of inf makes the spread inf (np.std would give NaN and warn)
    lhs_se = (float("nan") if n < 2 else math.inf if math.isinf(lhs)
              else float(np.std(per_seed, ddof=1) / math.sqrt(n)))

    reasons = []
    if n < SEED_FLOOR:
        reasons.append(f"only {n} seeds (need >= {SEED_FLOOR})")
    k_total = inputs.tau * inputs.T
    needed = step_count_condition(inputs.m, inputs.L, inputs.tau, inputs.alpha, inputs.beta)
    if k_total < needed:
        reasons.append(f"step-count condition violated: tau*T = {k_total} < {needed:.1f}")
    prescribed = math.sqrt(inputs.m / k_total)
    if abs(inputs.gamma_eff - prescribed) > 1e-9 * prescribed:
        reasons.append(
            f"gamma_eff = {inputs.gamma_eff:.6g} is not the prescribed "
            f"sqrt(m/(tau T)) = {prescribed:.6g}"
        )

    condition_met = not reasons
    rhs = theorem1_rhs(inputs)
    report = {
        "lhs": lhs,
        "lhs_std_error": lhs_se,
        "lhs_per_seed": per_seed,
        "seeds": n,
        "rhs": rhs,
        "rhs_terms": theorem1_terms(inputs),
        "condition_met": condition_met,
        "reasons": reasons,
        "holds": (lhs <= rhs) if condition_met else None,
    }
    return report
