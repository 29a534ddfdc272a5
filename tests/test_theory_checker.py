"""Bound arithmetic, variance estimation, and the bound-check report."""

import math
import warnings

import numpy as np
import pytest

from slowmo_sim import (
    BaseOptimizerConfig,
    BoundInputs,
    ConfigError,
    MetricsTrace,
    NoiseModel,
    ProblemConfig,
    QuadraticProblem,
    build_logistic,
    build_mlp,
    build_quadratic,
    check_bound,
    estimate_V,
    gamma_eff,
    local_sgd_bias_surrogate,
    plain_sgd_V,
    prescribed_gamma,
    step_count_condition,
    theorem1_rhs,
    theorem1_terms,
)
from references import estimate_v_reference
from slowmo_sim import theory_checker
from slowmo_sim.simkernel import RECORD_FIELDS
from slowmo_sim.theory_checker import lhs_from_records, measured_bias_term


def _inputs(**kw):
    base = dict(delta=1.0, m=1, tau=1, T=100, L=1.0, V=1.0,
                alpha=1.0, beta=0.0, bias_term=0.0,
                gamma_eff=math.sqrt(1.0 / 100))
    base.update(kw)
    return BoundInputs(**base)


# --------------------------------------------------------------------------- #
# closed-form arithmetic
# --------------------------------------------------------------------------- #

def test_rhs_oracle_single_worker_tau_one():
    # (2*1 + 1*1*1)/sqrt(100) = 0.3 with every other term vanishing
    inputs = _inputs()
    terms = theorem1_terms(inputs)
    assert terms["leading"] == pytest.approx(0.3, abs=1e-15)
    assert terms["bias"] == 0.0
    assert terms["alpha_mismatch"] == 0.0
    assert terms["momentum"] == 0.0
    assert theorem1_rhs(inputs) == pytest.approx(0.3, abs=1e-15)


def test_rhs_terms_general_values():
    inputs = _inputs(delta=2.0, m=4, tau=8, T=50, L=1.5, V=0.25,
                     alpha=0.8, beta=0.5, bias_term=0.07,
                     gamma_eff=math.sqrt(4 / (8 * 50)))
    terms = theorem1_terms(inputs)
    k = 8 * 50
    assert terms["leading"] == pytest.approx(
        (2 * 2.0 + 4 * 0.25 * 1.5) / math.sqrt(4 * k), rel=1e-12)
    assert terms["bias"] == pytest.approx(0.07, abs=1e-15)
    mism = (1 - 0.5) / 0.8 - 1.0
    assert terms["alpha_mismatch"] == pytest.approx(
        4 * 4 * 0.25 * 1.5 ** 2 * (8 - 1) / k * mism ** 2, rel=1e-12)
    assert terms["momentum"] == pytest.approx(
        8 * 4 * 0.25 * 1.5 ** 2 * 8 / k * 0.5 ** 2 / (1 - 0.5 ** 2), rel=1e-12)
    assert theorem1_rhs(inputs) == pytest.approx(sum(terms.values()), rel=1e-12)


def test_step_count_condition_oracles():
    # beta=0, alpha=1: the max is the constant branch
    assert step_count_condition(m=2, L=1.0, tau=4, alpha=1.0, beta=0.0) == \
        pytest.approx(2 * (1 + math.sqrt(3.0)), rel=1e-12)
    # momentum branch: 4*tau*beta/(1-beta) = 40 at tau=10, beta=0.5
    got = step_count_condition(m=16, L=1.0, tau=10, alpha=1.0, beta=0.5)
    assert got == pytest.approx(16 * (1 + math.sqrt(3.0) * 40), rel=1e-12)
    assert got == pytest.approx(1124.5125, abs=5e-4)


def test_prescription_identity():
    for m, tau, T, alpha, beta in [(1, 1, 100, 1.0, 0.0), (4, 12, 300, 0.7, 0.6)]:
        g = prescribed_gamma(m, tau, T, alpha, beta)
        assert gamma_eff(alpha, g, beta) == pytest.approx(
            math.sqrt(m / (tau * T)), rel=1e-14)


def test_local_sgd_bias_surrogate_value_and_guard():
    got = local_sgd_bias_surrogate(gamma=0.01, L=2.0, sigma2=1.0, zeta2=0.5, tau=5)
    expect = 3 * 0.01 ** 2 * 4 * 1.0 * 5 + 9 * 0.01 ** 2 * 4 * 0.5 * 25
    assert got == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ConfigError):
        # gamma * L * tau = 1 > 1/6: outside the surrogate's validity range
        local_sgd_bias_surrogate(gamma=0.1, L=2.0, sigma2=1.0, zeta2=0.0, tau=5)


def test_plain_sgd_variance_rule():
    assert plain_sgd_V(sigma2=2.0, m=8) == 0.25


def test_bound_inputs_validation():
    with pytest.raises(ConfigError):
        _inputs(beta=1.0)
    with pytest.raises(ConfigError):
        _inputs(alpha=0.0)
    with pytest.raises(ConfigError):
        _inputs(V=-0.1)


# --------------------------------------------------------------------------- #
# variance estimation
# --------------------------------------------------------------------------- #

def test_estimate_v_matches_additive_theory():
    prob = QuadraticProblem(np.eye(3), [np.zeros(3)] * 4,
                            NoiseModel("additive-gaussian", sigma2=1.0))
    est = estimate_V(prob, BaseOptimizerConfig(kind="plain-sgd"), samples=40_000)
    assert abs(est.value - 0.25) < 4 * est.std_error
    assert est.samples == 40_000 and est.std_error > 0


def test_estimate_v_general_path_runs():
    prob = build_logistic(ProblemConfig(kind="logistic", m=2, dimension=3, samples_per_worker=10,
                                        noise=NoiseModel("minibatch", batch_size=3)), seed=1)
    est = estimate_V(prob, BaseOptimizerConfig(kind="sgd-nesterov"), samples=400)
    assert est.value > 0 and est.std_error > 0


def _v_problem(kind, m, d):
    """A heterogeneous additive quadratic, a sample-cloud minibatch quadratic,
    a minibatch logistic problem or an additive MLP (d = 7: 2 hidden units
    of 1 input) of m workers in dimension d."""
    gauss = NoiseModel("additive-gaussian", sigma2=0.5)
    if kind == "mlp":
        assert d == 7
        return build_mlp(ProblemConfig(kind="mlp", m=m, input_dim=1, hidden=2,
                                       samples_per_worker=6, heterogeneity=0.5, noise=gauss), 5)
    if kind == "logistic":
        return build_logistic(ProblemConfig(kind="logistic", m=m, dimension=d,
                                            samples_per_worker=8, heterogeneity=0.5,
                                            noise=NoiseModel("minibatch", batch_size=3)), 5)
    cloud = {"samples_per_worker": 5, "noise": NoiseModel("minibatch", batch_size=2)}
    return build_quadratic(ProblemConfig(m=m, dimension=d, l_min=0.5, l_max=2.0,
                                         heterogeneity=1.0,
                                         **(cloud if kind == "cloud" else {"noise": gauss})), 5)


def _chunked_estimates(prob, base, samples, chunks, monkeypatch):
    """estimate_V with NOISE_BLOCK_VALUES set so that a chunk holds each of
    ``chunks`` samples (None: the default budget)."""
    per_sample = prob.num_workers * prob.dimension * max(prob.noise.batch_size, 1)
    estimates = []
    for chunk in chunks:
        with monkeypatch.context() as patch:
            if chunk is not None:
                patch.setattr(theory_checker, "NOISE_BLOCK_VALUES", chunk * per_sample)
            estimates.append(estimate_V(prob, base, samples=samples, seed=7))
    return estimates


def _same_estimate(got, want):
    return (got.value.hex(), got.std_error.hex(), got.samples) == \
        (want.value.hex(), want.std_error.hex(), want.samples)


V_BASES = [BaseOptimizerConfig(kind="plain-sgd"), BaseOptimizerConfig(kind="sgd-nesterov"),
           BaseOptimizerConfig(kind="adam")]


@pytest.mark.parametrize("base", V_BASES, ids=lambda b: b.kind)
@pytest.mark.parametrize("kind", ["quadratic", "cloud", "logistic", "mlp"])
def test_estimate_v_is_the_per_sample_loop(kind, base, monkeypatch):
    # one chunk of all 250 samples, chunks of 64 (the last one short), chunks of one
    prob = _v_problem(kind, 3, 7)
    want = estimate_v_reference(prob, base, samples=250, seed=7)
    for got in _chunked_estimates(prob, base, 250, [None, 64, 1], monkeypatch):
        assert _same_estimate(got, want), (got, want)


@pytest.mark.parametrize("m", [1, 3, 16])
@pytest.mark.parametrize("d", [1, 7])
@pytest.mark.parametrize("kind", ["quadratic", "cloud", "logistic"])
def test_estimate_v_is_the_per_sample_loop_at_every_size(kind, d, m, monkeypatch):
    prob = _v_problem(kind, m, d)
    for base in V_BASES:
        want = estimate_v_reference(prob, base, samples=150, seed=7)
        for got in _chunked_estimates(prob, base, 150, [None, 64], monkeypatch):
            assert _same_estimate(got, want), (base.kind, got, want)


def test_estimate_v_input_guards():
    prob = QuadraticProblem(np.eye(2), [np.zeros(2)],
                            NoiseModel("additive-gaussian", sigma2=1.0))
    with pytest.raises(ConfigError):
        estimate_V(prob, BaseOptimizerConfig(), samples=99)


# --------------------------------------------------------------------------- #
# measured quantities and the report
# --------------------------------------------------------------------------- #

def _fake_records(grad_norm_sq, n, bias=None):
    return [{"grad_norm_sq": grad_norm_sq, "bias_sq": bias} for _ in range(n)]


def test_lhs_needs_full_cadence():
    with pytest.raises(ConfigError):
        lhs_from_records(_fake_records(1.0, 7), tau=2, T=4)
    assert lhs_from_records(_fake_records(0.5, 8), tau=2, T=4) == 0.5


def test_measured_bias_requires_logged_values():
    with pytest.raises(ConfigError):
        measured_bias_term([_fake_records(1.0, 3)])
    assert measured_bias_term([_fake_records(1.0, 3, bias=0.2)]) == \
        pytest.approx(0.2)


def _column_trace(grad, bias):
    """A run's MetricsTrace of ``grad_norm_sq`` and ``bias_sq`` columns (object
    dtype where a value is not a float), every other field zero."""
    columns = {name: np.zeros(len(grad), dtype=np.int64 if name in ("t", "k", "round") else None)
               for name in RECORD_FIELDS}
    for name, values in (("grad_norm_sq", grad), ("bias_sq", bias)):
        floats = all(type(v) is float for v in values)
        columns[name] = np.array(values, dtype=None if floats else object)
    return MetricsTrace(columns=columns)


def _outcome(read, trace):
    try:
        return read(trace)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


@pytest.mark.parametrize("grad, bias", [
    ([0.5, 0.25, 1.0, 0.125], [0.1, 0.2, 0.3, -0.0]),
    ([0.5, math.inf, 1.0, 0.125], [math.inf, 0.2, 0.3, 0.0]),
    ([0.5, math.nan, 1.0, 0.125], [0.1, 0.2, math.nan, 0.0]),
    ([0.5, None, 1.0, "1"], [0.1, None, 0.3, 0.0]),
    ([0.5, 0.25, 1.0, 0.125], [0.1, math.nan, None, 0.0]),
    ([0.5, 0.25, 1.0, 0.125], [0.1, 0.2, "0.3", None]),
])
def test_bound_readers_take_a_trace_as_they_take_its_record_dicts(grad, bias):
    # a run's trace is read from its columns; the values and the ConfigErrors
    # are those of its record dicts, as a trace read from JSONL has them
    trace = _column_trace(grad, bias)
    reads = [
        lambda t: lhs_from_records(t, tau=2, T=2),
        lambda t: lhs_from_records(t, tau=1, T=3),
        lambda t: measured_bias_term([t, t]),
        lambda t: check_bound([t] * 20, _inputs(tau=2, T=2))["lhs_per_seed"],
    ]
    for read in reads:
        want = _outcome(read, trace.records)
        assert _outcome(read, trace) == want
        assert _outcome(read, MetricsTrace.from_jsonl(trace.to_jsonl())) == want
    assert _outcome(lambda t: measured_bias_term([t, trace.records]), trace) == \
        _outcome(lambda t: measured_bias_term([t, t]), trace.records)


def test_check_bound_reports_an_infinite_lhs_spread_as_inf():
    traces = [_fake_records(0.01, 4) for _ in range(20)]
    traces[3] = _column_trace([0.5, math.inf, 1.0, 0.125], [0.1, 0.2, 0.3, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = check_bound(traces, _inputs(tau=2, T=2))
    assert report["lhs"] == math.inf and report["lhs_std_error"] == math.inf
    assert report["lhs_per_seed"][3] == math.inf


def test_check_bound_withholds_verdict_without_premises():
    inputs = _inputs()
    traces = [_fake_records(0.01, 100) for _ in range(3)]  # too few seeds
    report = check_bound(traces, inputs)
    assert report["condition_met"] is False
    assert report["holds"] is None
    assert any("seeds" in r for r in report["reasons"])


def test_check_bound_flags_wrong_prescription():
    inputs = _inputs(gamma_eff=0.5)  # should be 0.1
    traces = [_fake_records(0.01, 100) for _ in range(20)]
    report = check_bound(traces, inputs)
    assert any("prescribed" in r for r in report["reasons"])
    assert report["holds"] is None


def test_check_bound_flags_step_count_violation():
    # L huge makes the required step count enormous
    inputs = _inputs(L=100.0, gamma_eff=math.sqrt(1 / 100))
    traces = [_fake_records(0.01, 100) for _ in range(20)]
    report = check_bound(traces, inputs)
    assert any("step-count" in r for r in report["reasons"])


def test_check_bound_happy_path():
    inputs = _inputs()
    traces = [_fake_records(0.01 + 0.001 * s, 100) for s in range(20)]
    report = check_bound(traces, inputs)
    assert report["condition_met"] is True
    assert report["holds"] is True
    assert report["seeds"] == 20
    assert report["lhs"] == pytest.approx(np.mean([0.01 + 0.001 * s for s in range(20)]))
    assert report["rhs"] == pytest.approx(0.3)
    assert report["lhs_std_error"] > 0
