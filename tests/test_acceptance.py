"""Acceptance gate: nine checks covering exact reductions, protocol
invariants, variance and bound verification, qualitative speedup/improvement
directions, variant behavior, and bitwise determinism.

Each test prints one [PASS]/[FAIL] line (visible via the -rP report section)
before asserting, so a red run still names the criterion that broke.
"""

import math

import numpy as np

from slowmo_sim import (
    BaseOptimizerConfig,
    BoundInputs,
    DelayModel,
    ExperimentConfig,
    GammaSchedule,
    MetricsTrace,
    NoiseModel,
    ProblemConfig,
    QuadraticProblem,
    Simulation,
    SlowMoConfig,
    build_logistic,
    build_quadratic,
    check_bound,
    estimate_V,
    gamma_eff,
    local_sgd_bias_surrogate,
    make_protocol,
    prescribed_gamma,
)
from slowmo_sim.comm_protocols import WorkerStates
from slowmo_sim.config import OsgpConfig
from slowmo_sim.base_optimizers import OptimizerBuffers
from slowmo_sim.numerics import rng_stream
from references import (
    block_momentum_reference,
    heavy_ball_reference,
    local_sgd_reference,
    lookahead_reference,
)
from slowmo_sim.theory_checker import lhs_from_records, measured_bias_term
from slowmo_sim.topology import TopologySchedule


def _report(num: int, name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num} ({name}): {detail}")


def _max_diff(a, b):
    assert len(a) == len(b)
    return max(float(np.max(np.abs(x - y))) for x, y in zip(a, b))


# --------------------------------------------------------------------------- #
# 1. reduction suite
# --------------------------------------------------------------------------- #

def test_criterion_1_reduction_suite():
    noise = NoiseModel("additive-gaussian", sigma2=0.4)

    # (a) tau=1, alpha=1, beta=0.9, exact averaging == heavy-ball SGD
    prob_a = build_quadratic(ProblemConfig(m=4, dimension=10, noise=noise, l_min=0.5, l_max=2.0,
                                           heterogeneity=1.0), seed=31)
    sim = Simulation(prob_a, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.9, tau=1), protocol="allreduce",
        gamma=GammaSchedule(value=0.02), T=100, seed=1))
    diff_a = _max_diff(sim.run().x_bar,
                       heavy_ball_reference(prob_a, 0.02, 0.9, 100, seed=1))

    # (b) alpha=1, beta=0: plain local SGD
    prob_b = build_quadratic(ProblemConfig(m=4, dimension=6, noise=noise, l_min=0.5, l_max=2.0,
                                           heterogeneity=1.0), seed=32)
    sim = Simulation(prob_b, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.0, tau=12), protocol="local",
        gamma=GammaSchedule(value=0.05), T=9, seed=2))
    diff_b = _max_diff(sim.run().x_bar,
                       local_sgd_reference(prob_b, 0.05, tau=12, T=9, seed=2))

    # (c) m=1, beta=0, alpha=0.5: the slow/fast-weights interpolation
    prob_c = build_quadratic(ProblemConfig(m=1, dimension=6, noise=noise, l_min=0.5,
                                           l_max=2.0), seed=33)
    sim = Simulation(prob_c, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=0.5, beta=0.0, tau=5), protocol="local",
        gamma=GammaSchedule(value=0.08), T=10, seed=3))
    diff_c = _max_diff(sim.run().x_bar,
                       lookahead_reference(prob_c, 0.08, alpha=0.5, tau=5, T=10, seed=3))

    # (d) zero-delay overlap push-sum == synchronous push-sum, 200 rounds, m=8
    prob_d = build_quadratic(ProblemConfig(m=8, dimension=5, noise=noise, l_min=0.5, l_max=2.0,
                                           heterogeneity=1.0), seed=34)
    kw = dict(gamma=GammaSchedule(value=0.03), total_steps=200, seed=4)
    sgp = Simulation(prob_d, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=12), protocol="sgp", **kw))
    osgp = Simulation(prob_d, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=12), protocol="osgp",
        osgp=OsgpConfig(delay=DelayModel(kind="constant", rounds=0)), **kw))
    diff_d = _max_diff(sgp.run().x_bar, osgp.run().x_bar)

    # (e) local protocol, plain SGD, constant gamma: block momentum (BMUF) with
    # block momentum beta and block learning rate alpha
    prob_e = build_quadratic(ProblemConfig(m=4, dimension=3, noise=noise, l_min=0.5, l_max=2.0,
                                           heterogeneity=1.0), seed=17)
    sim = Simulation(prob_e, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=0.9, beta=0.4, tau=6), protocol="local",
        gamma=GammaSchedule(value=0.05), T=7, seed=21))
    diff_e = _max_diff(sim.run().x_bar,
                       block_momentum_reference(prob_e, gamma=0.05, tau=6, T=7,
                                                block_momentum=0.4, block_lr=0.9, seed=21))

    passed = (diff_a <= 1e-10 and diff_b <= 1e-10 and diff_c <= 1e-10 and diff_d <= 1e-12
              and diff_e <= 1e-10)
    _report(1, "reduction suite", passed,
            f"heavy-ball {diff_a:.2e}, local-SGD {diff_b:.2e}, "
            f"lookahead {diff_c:.2e}, zero-delay overlap {diff_d:.2e}, "
            f"block momentum {diff_e:.2e}")
    assert diff_a <= 1e-10
    assert diff_b <= 1e-10
    assert diff_c <= 1e-10
    assert diff_d <= 1e-12
    assert diff_e <= 1e-10


# --------------------------------------------------------------------------- #
# 2. push-sum invariants
# --------------------------------------------------------------------------- #

def test_criterion_2_pushsum_invariants():
    noise = NoiseModel("additive-gaussian", sigma2=0.5)
    worst_mass_err = 0.0
    for m in (2, 8, 15):
        prob = build_quadratic(ProblemConfig(m=m, dimension=3, noise=noise, l_min=0.5, l_max=2.0,
                                             heterogeneity=1.0), seed=40 + m)
        for protocol in ("sgp", "osgp"):
            kw = {}
            if protocol == "osgp":
                kw = dict(osgp=OsgpConfig(staleness=6,
                                          delay=DelayModel(kind="geometric", p=0.5, cap=3)))
            sim = Simulation(prob, ExperimentConfig(
                base=BaseOptimizerConfig(kind="plain-sgd"),
                slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=12), protocol=protocol,
                gamma=GammaSchedule(value=0.02), total_steps=1000, seed=m, **kw))
            trace = sim.run()
            assert len(trace.records) == 1000
            err = max(abs(r["weight_mass"] - m) for r in trace.records)
            worst_mass_err = max(worst_mass_err, err)

    # de-biased consensus under zero gradients: 50 exponential rounds, m=8
    sched = TopologySchedule(kind="exponential-directed", m=8)
    proto = make_protocol(ExperimentConfig(protocol="sgp", T=1), 8, sched)
    rng = rng_stream(50, 0, 0)
    xs = rng.standard_normal((8, 4))
    mean0 = xs.mean(axis=0)
    states = WorkerStates(xs.copy(), OptimizerBuffers.fresh(BaseOptimizerConfig(), 8, 4))
    for k in range(50):
        proto.apply_round(states, states.x.copy(), k)
    consensus_err = float(np.max(np.abs(states.z - mean0)))

    passed = worst_mass_err <= 1e-9 and consensus_err <= 1e-8
    _report(2, "push-sum invariants", passed,
            f"max |sum w - m| = {worst_mass_err:.2e} over 1000 rounds x m in "
            f"{{2,8,15}} x {{sgp,osgp}}, consensus residual {consensus_err:.2e}")
    assert worst_mass_err <= 1e-9
    assert consensus_err <= 1e-8


# --------------------------------------------------------------------------- #
# 3. averaged-direction variance
# --------------------------------------------------------------------------- #

def test_criterion_3_variance_verification():
    details = []
    ok = True
    for m in (1, 4, 16):
        prob = QuadraticProblem(np.eye(4), [np.zeros(4)] * m,
                                NoiseModel("additive-gaussian", sigma2=1.0))
        est = estimate_V(prob, BaseOptimizerConfig(kind="plain-sgd"),
                         samples=100_000, seed=m)
        theory = 1.0 / m
        ok = ok and abs(est.value - theory) <= 3 * est.std_error
        details.append(f"m={m}: {est.value:.5f} vs {theory:.5f} "
                       f"(+/- {est.std_error:.1e})")
    _report(3, "V = sigma^2/m", ok, "; ".join(details))
    assert ok


# --------------------------------------------------------------------------- #
# 4. convergence bound holds under the prescription
# --------------------------------------------------------------------------- #

def _bound_problem(m):
    return QuadraticProblem(np.eye(4), [np.zeros(4)] * m,
                            NoiseModel("additive-gaussian", sigma2=1.0))


_BOUND_X0 = np.array([1.0, -1.0, 0.5, -1.5])
_SEEDS = range(20)


def _seed_traces(m, cfg):
    """One trace per seed in _SEEDS, from one stacked run of m workers a
    seed over one shared problem (one A, S*m centers): each is bit for bit
    the seed's run of _bound_problem(m) alone."""
    sim = Simulation(_bound_problem(len(_SEEDS) * m), cfg, _BOUND_X0, seeds=_SEEDS)
    traces = sim.run_groups()
    assert all(isinstance(trace, MetricsTrace) for trace in traces)
    return traces


def test_criterion_4_convergence_bound():
    m, L, sigma2 = 2, 1.0, 1.0
    delta = 0.5 * float(_BOUND_X0 @ _BOUND_X0)  # f(x0) - f* = 2.25
    configs = [  # (tau, beta, T) with T chosen so the surrogate range holds
        (1, 0.0, 2592),
        (1, 0.5, 2592),
        (12, 0.0, 864),
        (12, 0.5, 216),
    ]
    lines = []
    all_hold = True
    for tau, beta, T in configs:
        gamma = prescribed_gamma(m, tau, T, 1.0, beta)
        traces = _seed_traces(m, ExperimentConfig(
            base=BaseOptimizerConfig(kind="plain-sgd"),
            slowmo=SlowMoConfig(alpha=1.0, beta=beta, tau=tau), protocol="allreduce",
            gamma=GammaSchedule(value=gamma), T=T, log_bias=(tau == 1)))
        if tau == 1:
            bias = measured_bias_term(traces)  # exactly zero here
        else:
            bias = local_sgd_bias_surrogate(gamma, L, sigma2, 0.0, tau)
        inputs = BoundInputs(delta=delta, m=m, tau=tau, T=T, L=L,
                             V=sigma2 / m, alpha=1.0, beta=beta,
                             bias_term=bias,
                             gamma_eff=gamma_eff(1.0, gamma, beta))
        report = check_bound(traces, inputs)
        held = report["condition_met"] and report["holds"]
        all_hold = all_hold and bool(held)
        lines.append(f"tau={tau} beta={beta}: LHS {report['lhs']:.4f} "
                     f"<= RHS {report['rhs']:.4f}" + ("" if held else " VIOLATED"))
    _report(4, "convergence bound, 20 seeds", all_hold, "; ".join(lines))
    assert all_hold


# --------------------------------------------------------------------------- #
# 5. more workers help at fixed total steps
# --------------------------------------------------------------------------- #

def test_criterion_5_linear_speedup_direction():
    tau, T, beta = 12, 400, 0.5
    stats = []
    for m in (1, 4, 16):
        gamma = prescribed_gamma(m, tau, T, 1.0, beta)
        traces = _seed_traces(m, ExperimentConfig(
            base=BaseOptimizerConfig(kind="plain-sgd"),
            slowmo=SlowMoConfig(alpha=1.0, beta=beta, tau=tau), protocol="local",
            gamma=GammaSchedule(value=gamma), T=T))
        per_seed = [lhs_from_records(trace, tau, T) for trace in traces]
        mean = float(np.mean(per_seed))
        se = float(np.std(per_seed, ddof=1) / math.sqrt(len(per_seed)))
        stats.append((m, mean, se))
    ok = all(stats[i + 1][1] + 2 * stats[i + 1][2]
             <= stats[i][1] - 2 * stats[i][2] for i in range(2))
    detail = " -> ".join(f"m={m}: {mean:.4f}+/-{se:.4f}" for m, mean, se in stats)
    _report(5, "linear-speedup direction", ok, detail)
    assert ok


# --------------------------------------------------------------------------- #
# 6. slow momentum beats the plain base
# --------------------------------------------------------------------------- #

def _desk_logistic():
    return build_logistic(ProblemConfig(kind="logistic", m=8, dimension=10, samples_per_worker=64,
                                        noise=NoiseModel("minibatch", batch_size=8),
                                        heterogeneity=0.6), seed=42)


def test_criterion_6_momentum_improves_base():
    prob = _desk_logistic()
    gamma, T = 0.01, 30
    lines = []
    ok = True
    for protocol in ("local", "sgp"):
        wins = 0
        for seed in range(900, 905):
            finals = {}
            for beta in (0.0, 0.5):
                sim = Simulation(prob, ExperimentConfig(
                    base=BaseOptimizerConfig(kind="plain-sgd"),
                    slowmo=SlowMoConfig(alpha=1.0, beta=beta, tau=12), protocol=protocol,
                    gamma=GammaSchedule(value=gamma), T=T, seed=seed, metric_cadence=1000))
                finals[beta] = sim.run().summary["final_loss"]
            if finals[0.5] < finals[0.0]:
                wins += 1
        ok = ok and wins >= 4
        lines.append(f"{protocol}: beta=0.5 wins {wins}/5 seeds")
    _report(6, "momentum improves the base", ok, "; ".join(lines))
    assert ok


# --------------------------------------------------------------------------- #
# 7. the decentralized variant without block averaging
# --------------------------------------------------------------------------- #

def test_criterion_7_noaverage_variant():
    prob = _desk_logistic()
    kw = dict(protocol="sgp", gamma=GammaSchedule(value=0.5), T=30, seed=77,
              metric_cadence=1000)
    avg = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=12), **kw))
    loss_avg = avg.run().summary["final_loss"]
    noavg = Simulation(prob, ExperimentConfig(
        base=BaseOptimizerConfig(kind="plain-sgd"),
        slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=12, noaverage=True), **kw))
    loss_noavg = noavg.run().summary["final_loss"]
    rel = abs(loss_noavg - loss_avg) / abs(loss_avg)
    ok = (noavg.slow_average_calls == 0 and avg.slow_average_calls == 30
          and rel <= 0.10)
    _report(7, "noaverage variant", ok,
            f"0 exact averages (vs {avg.slow_average_calls}), final loss "
            f"{loss_noavg:.6f} vs {loss_avg:.6f} (rel {rel:.4f} <= 0.10)")
    assert noavg.slow_average_calls == 0
    assert avg.slow_average_calls == 30
    assert rel <= 0.10


# --------------------------------------------------------------------------- #
# 8. buffer strategies across bases
# --------------------------------------------------------------------------- #

def test_criterion_8_buffer_strategies():
    noise = NoiseModel("additive-gaussian", sigma2=0.3)
    prob = build_quadratic(ProblemConfig(m=3, dimension=4, noise=noise, l_min=0.5, l_max=2.0,
                                         heterogeneity=0.5), seed=60)
    tau, total = 4, 11  # blocks 4+4+3: ends mid-block with t=2, k=3
    checked = []
    ok = True
    for kind in ("sgd-nesterov", "adam"):
        for strategy in ("reset", "maintain", "average"):
            sim = Simulation(prob, ExperimentConfig(
                base=BaseOptimizerConfig(kind=kind, buffer_strategy=strategy),
                slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=tau), protocol="local",
                gamma=GammaSchedule(value=0.02), total_steps=total, seed=5))
            sim.run()
            if kind == "adam":
                indices = set(sim.states.buffers.step.tolist())
                if strategy == "reset":
                    ok = ok and indices == {3}          # l = k
                    checked.append(f"reset l={indices.pop()}")
                elif strategy == "maintain":
                    ok = ok and indices == {11}         # l = t*tau + k
                    checked.append(f"maintain l={indices.pop()}")
    _report(8, "buffer strategies", ok,
            "all 3 strategies x {nesterov, adam} complete; adam counters: "
            + ", ".join(checked))
    assert ok


# --------------------------------------------------------------------------- #
# 9. determinism: repeatable, and unmoved by how often metrics are recorded
# --------------------------------------------------------------------------- #

def _state_summary(trace):
    # min_loss is a minimum over the records taken, so it follows the cadence
    return {k: v for k, v in trace.summary.items() if k != "min_loss"}


def test_criterion_9_determinism():
    noise = NoiseModel("additive-gaussian", sigma2=0.4)
    prob = build_quadratic(ProblemConfig(m=4, dimension=3, noise=noise, l_min=0.5, l_max=2.0,
                                         heterogeneity=1.0), seed=70)
    ok = True
    details = []
    for protocol in ("allreduce", "sgp", "osgp"):
        kw = {}
        if protocol == "osgp":
            kw = dict(osgp=OsgpConfig(delay=DelayModel(kind="geometric", p=0.5, cap=3)))
        traces = []
        for cadence in (1, 3, 7, 1):
            sim = Simulation(prob, ExperimentConfig(
                base=BaseOptimizerConfig(kind="sgd-nesterov"),
                slowmo=SlowMoConfig(alpha=1.0, beta=0.5, tau=3), protocol=protocol,
                gamma=GammaSchedule(value=0.05), T=5, seed=99, metric_cadence=cadence, **kw))
            traces.append(sim.run())
        full = {r["round"]: r for r in traces[0].records}
        same = traces[0].trace_hash() == traces[-1].trace_hash() and all(
            _state_summary(tr) == _state_summary(traces[0])
            and all(r == full[r["round"]] for r in tr.records)
            for tr in traces
        )
        ok = ok and same
        details.append(f"{protocol}: {'1 trajectory' if same else 'DIVERGED'}")
    _report(9, "bitwise determinism", ok,
            "; ".join(details) + " (metric cadence 1, 3, 7, then 1 again)")
    assert ok
