"""Averaging, gossip, push-sum, and the overlap (delayed) push-sum machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    BaseOptimizerConfig,
    ConfigError,
    DelayModel,
    ExperimentConfig,
    OptimizerBuffers,
    ProtocolError,
    WorkerStates,
    exact_average,
    make_protocol,
    osgp_step,
)
from slowmo_sim import comm_protocols, parse_config
from slowmo_sim.config import OsgpConfig
from slowmo_sim.numerics import rng_stream
from slowmo_sim.topology import (
    TopologySchedule,
    mixing_matrix,
)

from references import OsgpReference


def _cfg(protocol, **sections):
    """A one-block config for ``protocol``; ``sections`` replace its defaults."""
    return ExperimentConfig(protocol=protocol, T=1, **sections)


def _states(xs, ws=None):
    x = np.array(xs, dtype=np.float64).reshape(len(xs), -1)
    states = WorkerStates(x, OptimizerBuffers.fresh(BaseOptimizerConfig(), *x.shape))
    if ws is not None:
        states.w[:] = ws
    return states


def _everyone(states):
    return states.x.copy()


def _dense(sched, k, stochasticity):
    """The round's m x m matrix: 1/2 on each row's own column and 1/2 on its peer's."""
    workers = np.arange(sched.m)
    p = np.zeros((sched.m, sched.m))
    np.add.at(p, (workers, workers), 0.5)
    np.add.at(p, (workers, mixing_matrix(sched, k, stochasticity)), 0.5)
    return p


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# --------------------------------------------------------------------------- #
# exact average and worker state
# --------------------------------------------------------------------------- #

def test_exact_average_oracle():
    states = _states([[1.0], [2.0], [4.0]])
    assert exact_average(states)[0] == (1.0 + 2.0 + 4.0) / 3.0


def test_exact_average_debiases_by_w():
    states = _states([[2.0], [2.0]], ws=[2.0, 1.0])
    # z = x / w, so the first worker really sits at 1.0
    assert exact_average(states)[0] == pytest.approx(1.5, abs=1e-15)


def test_degenerate_weight_rejected():
    states = _states([[1.0], [2.0]])
    states.w[1] = 0.0
    with pytest.raises(ProtocolError):
        _ = states.z


# --------------------------------------------------------------------------- #
# synchronous rounds
# --------------------------------------------------------------------------- #

def test_gossip_preserves_mean_and_reaches_consensus():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    rng = rng_stream(4, 0, 0)
    xs = rng.standard_normal((8, 3))
    states = _states(list(xs))
    mean0 = xs.mean(axis=0)
    proto = make_protocol(_cfg("dpsgd"), 8, sched)
    for k in range(3):
        proto.apply_round(states, _everyone(states), k)
        mean_k = states.x.mean(axis=0)
        assert np.allclose(mean_k, mean0, atol=1e-13)
    # the hop-1/2/4 pairwise exchanges implement a full dimension exchange
    assert np.allclose(states.x, mean0, atol=1e-13)


def test_pushsum_conserves_mass_and_mean():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    rng = rng_stream(5, 0, 0)
    xs = rng.standard_normal((8, 4))
    states = _states(list(xs))
    sum_x0 = xs.sum(axis=0)
    proto = make_protocol(_cfg("sgp"), 8, sched)
    for k in range(12):
        proto.apply_round(states, _everyone(states), k)
        assert np.allclose(states.x.sum(axis=0), sum_x0, atol=1e-12)
        assert states.w.sum() == pytest.approx(8.0, abs=1e-12)


def test_pushsum_consensus_on_power_of_two():
    # each exponential round is a permutation with 1/2-1/2 weights: after one
    # period every de-biased iterate equals the initial average exactly
    sched = TopologySchedule(kind="exponential-directed", m=8)
    rng = rng_stream(6, 0, 0)
    xs = rng.standard_normal((8, 2))
    states = _states(list(xs))
    mean0 = xs.mean(axis=0)
    proto = make_protocol(_cfg("sgp"), 8, sched)
    for k in range(3):
        proto.apply_round(states, _everyone(states), k)
    assert np.allclose(states.z, mean0, atol=1e-12)
    assert np.allclose(states.w, 1.0, atol=1e-12)


# --------------------------------------------------------------------------- #
# delay model and message queues
# --------------------------------------------------------------------------- #

def test_delay_model_constant():
    rng = rng_stream(0, 2, 0)
    dm = DelayModel(kind="constant", rounds=3)
    assert dm.draw(rng, 10).tolist() == [3] * 10


def test_delay_model_geometric_capped():
    rng = rng_stream(0, 2, 1)
    dm = DelayModel(kind="geometric", p=0.4, cap=5)
    draws = dm.draw(rng, 2000)
    assert min(draws) == 0 and max(draws) == 5


def test_delay_model_batch_uses_the_stream_like_single_draws():
    dm = DelayModel(kind="geometric", p=0.3, cap=4)
    one, batch = rng_stream(1, 2, 0), rng_stream(1, 2, 0)
    singles = [dm.draw(one, 1)[0] for _ in range(300)]
    draws = np.concatenate([dm.draw(batch, 100), dm.draw(batch, 0), dm.draw(batch, 200)])
    assert draws.tolist() == singles
    assert one.random() == batch.random()


def test_delay_model_validation():
    with pytest.raises(ConfigError):
        DelayModel(kind="uniform")
    with pytest.raises(ConfigError):
        DelayModel(kind="constant", rounds=-1)
    with pytest.raises(ConfigError):
        DelayModel(kind="geometric", p=0.0)


def _in_flight(proto, senders, receivers, deliver, xs, w=0.5):
    """Put messages (d = 1) in ``proto``'s store, in send order."""
    n = len(senders)
    proto.senders, proto.receivers, proto.deliver = (
        np.array(column, dtype=np.int64) for column in (senders, receivers, deliver))
    proto.payloads = np.array(xs, dtype=float).reshape(n, 1)
    proto.weights = np.full(n, w)


def test_message_queue_delivery_order_and_sums():
    # 2**53 + 1 rounds to 2**53, so receiver 0 ends at 2**53 + 2 only if its
    # messages add in (send round, sender) order: 1.0 + 1.0 + 2**53
    proto = _osgp(4, staleness=10)
    # senders 0 and 2 send at round 1, sender 1 at round 2
    _in_flight(proto, [0, 2, 1], [0, 3, 0], [5, 9, 5], [1.0, 30.0, 2.0**53])
    states = _states([[1.0], [0.0], [0.0], [0.0]])
    x_sum, w_sum = proto.inflight_sums(1)
    # in-flight sums add by sender first: 0.0 + 1.0 + 2**53 loses the 1.0
    assert x_sum.tolist() == [[2.0**53 + 30.0]] and w_sum.tolist() == [1.5]
    proto.stalled[:] = True
    proto.apply_round(states, np.empty((0, 1)), 5)  # nobody sends; two messages land
    assert states.x[:, 0].tolist() == [2.0**53 + 2, 0.0, 0.0, 0.0]
    assert states.w.tolist() == [2.0, 1.0, 1.0, 1.0]
    x_sum, w_sum = proto.inflight_sums(1)
    assert x_sum.tolist() == [[30.0]] and w_sum.tolist() == [0.5]
    assert proto.active_workers().tolist() == [0]
    assert proto.senders.size
    proto.end_block(states)
    assert states.x[3, 0] == 30.0 and states.w[3] == 1.5
    assert not proto.senders.size


# --------------------------------------------------------------------------- #
# the overlap step function
# --------------------------------------------------------------------------- #

def _osgp_step(sent, received, count, limit=4):
    return osgp_step(np.array(sent), np.array(received), np.array(count), limit)


def test_osgp_step_active_send_and_receive():
    count, stalled = _osgp_step([True], [True], [3])
    assert count[0] == 0 and not stalled[0]


def test_osgp_step_counts_toward_stall():
    count, stalled = _osgp_step([True], [False], [1])
    assert count[0] == 2 and not stalled[0]
    count, stalled = _osgp_step([True], [False], [4])
    assert stalled[0] and count[0] == 4


def test_osgp_step_stalled_worker_only_listens():
    count, stalled = _osgp_step([False, True], [True, False], [4, 0])
    assert count.tolist() == [0, 1] and not stalled.any()
    count, stalled = _osgp_step([False, False], [False, False], count)
    assert stalled.all() and count.tolist() == [0, 1]  # nobody sent or received


# --------------------------------------------------------------------------- #
# protocol adapters
# --------------------------------------------------------------------------- #

def test_allreduce_adapter_reaches_exact_consensus():
    proto = make_protocol(_cfg("allreduce"), 3, None)
    states = _states([[0.0], [0.0], [0.0]])
    proto.apply_round(states, np.array([[1.0], [2.0], [4.0]]), 0)
    assert np.all(states.x == (1.0 + 2.0 + 4.0) / 3.0)


def test_local_adapter_keeps_workers_apart():
    proto = make_protocol(_cfg("local"), 2, None)
    states = _states([[0.0], [0.0]])
    proto.apply_round(states, np.array([[1.0], [2.0]]), 0)
    assert states[0].x[0] == 1.0 and states[1].x[0] == 2.0


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError, match="unknown protocol 'broadcast'"):
        parse_config({"protocol": "broadcast", "T": 1})


def _osgp_cfg(staleness=4, delay=None, seed=0):
    return _cfg("osgp", osgp=OsgpConfig(staleness, delay or DelayModel()), seed=seed)


def _osgp(m=4, staleness=4, delay=None, seed=0):
    sched = TopologySchedule(kind="exponential-directed", m=m)
    return make_protocol(_osgp_cfg(staleness, delay, seed), m, sched)


def test_osgp_zero_delay_matches_synchronous_pushsum():
    m = 4
    sched = TopologySchedule(kind="exponential-directed", m=m)
    rng = rng_stream(7, 0, 0)
    xs = rng.standard_normal((m, 3))
    a = _states(list(xs))
    b = _states([x.copy() for x in xs])
    proto = _osgp(m, delay=DelayModel(kind="constant", rounds=0))
    sync = make_protocol(_cfg("sgp"), m, sched)
    for k in range(50):
        proto.apply_round(a, _everyone(a), k)
        sync.apply_round(b, _everyone(b), k)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.w, b.w)


def test_osgp_delay_keeps_weight_in_range_and_mass_fixed():
    m = 4
    proto = _osgp(m, staleness=6, delay=DelayModel(kind="geometric", p=0.5, cap=3))
    rng = rng_stream(8, 0, 0)
    states = _states(list(rng.standard_normal((m, 2))))
    for k in range(200):
        proto.apply_round(states, states.x[proto.active_workers()], k)
        x_fly, w_fly = proto.inflight_sums(2)
        mass = states.w.sum() + w_fly
        assert mass == pytest.approx(m, abs=1e-9)
        assert np.all((0.0 < states.w) & (states.w <= m + 1e-12))
    proto.end_block(states)
    assert states.w.sum() == pytest.approx(m, abs=1e-9)
    assert not proto.senders.size


def test_osgp_stall_and_recovery():
    # huge constant delay forces every worker to stop stepping until the
    # first batch of messages lands, then activity resumes
    m = 2
    proto = _osgp(m, staleness=2, delay=DelayModel(kind="constant", rounds=8))
    states = _states([[1.0], [5.0]])
    stall_seen, recovered = False, False
    for k in range(12):
        active = proto.active_workers()
        if len(active) < m:
            stall_seen = True
        elif stall_seen:
            recovered = True
        proto.apply_round(states, states.x[active], k)
    assert stall_seen and recovered


def test_osgp_fifo_delivery_per_edge():
    m = 4
    proto = _osgp(m, staleness=10, delay=DelayModel(kind="geometric", p=0.3, cap=6),
                  seed=3)
    rng = rng_stream(9, 0, 0)
    states = _states(list(rng.standard_normal((m, 2))))
    seen: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k in range(150):
        # the store keeps send order, so what round k sent and did not deliver
        # follows the earlier messages that outlive it
        earlier = int((proto.deliver > k).sum())
        proto.apply_round(states, states.x[proto.active_workers()], k)
        for edge in zip(proto.senders[earlier:].tolist(), proto.receivers[earlier:].tolist(),
                        proto.deliver[earlier:].tolist()):
            seen.setdefault(edge[:2], []).append((k, edge[2]))
    for log in seen.values():
        log = sorted(set(log))
        for (s0, d0), (s1, d1) in zip(log, log[1:]):
            if s0 < s1:
                assert d0 <= d1, "later send scheduled before an earlier one"


def test_osgp_drain_resets_the_fifo_clamp():
    # the drain at round 0 flushes the delay-5 messages, so a 0-delay
    # message sent at round 1 is due at round 1, not behind them at round 5
    sched = TopologySchedule(kind="ring-directed", m=2)
    proto = make_protocol(_osgp_cfg(4, DelayModel(kind="constant", rounds=5)), 2, sched)
    states = _states([[1.0], [3.0]])
    proto.apply_round(states, _everyone(states), 0)
    assert proto.deliver.tolist() == [5, 5]
    proto.end_block(states)
    proto.delay = DelayModel(kind="constant", rounds=0)
    proto.apply_round(states, _everyone(states), 1)
    assert not proto.senders.size
    assert states.x[:, 0].tolist() == [2.0, 2.0] and states.w.tolist() == [1.0, 1.0]


def test_osgp_single_worker_never_stalls():
    proto = _osgp(1, staleness=1, delay=DelayModel(kind="constant", rounds=5))
    states = _states([[2.0]])
    for k in range(10):
        assert proto.active_workers().tolist() == [0]
        proto.apply_round(states, _everyone(states), k)
    assert states.w[0] == pytest.approx(1.0)


def test_osgp_all_stalled_with_empty_queues_is_a_deadlock():
    proto = _osgp(2, staleness=1)
    states = _states([[0.0], [1.0]])
    proto.stalled[:] = True
    assert proto.active_workers().tolist() == []
    with pytest.raises(ProtocolError):
        proto.apply_round(states, np.empty((0, 1)), 0)


def test_osgp_all_stalled_with_messages_in_flight_waits():
    proto = _osgp(2, staleness=1, delay=DelayModel(kind="constant", rounds=1))
    states = _states([[0.0], [1.0]])
    proto.apply_round(states, _everyone(states), 0)
    proto.stalled[:] = True
    assert proto.senders.size
    proto.apply_round(states, np.empty((0, 1)), 1)  # both messages land; nobody raises
    assert not proto.senders.size
    assert proto.active_workers().tolist() == [0, 1]


# --------------------------------------------------------------------------- #
# randomized invariants
# --------------------------------------------------------------------------- #

@given(st.integers(0, 10_000), st.sampled_from([2, 4, 8, 16]))
@settings(max_examples=30, deadline=None)
def test_pushsum_mass_invariant_random_starts(seed, m):
    sched = TopologySchedule(kind="exponential-directed", m=m)
    rng = rng_stream(seed, 0, 0)
    states = _states(list(rng.standard_normal((m, 2))))
    proto = make_protocol(_cfg("sgp"), m, sched)
    for k in range(2 * sched.period):
        proto.apply_round(states, _everyone(states), k)
    assert states.w.sum() == pytest.approx(m, abs=1e-12)


# --------------------------------------------------------------------------- #
# batched OSGP against the per-message reference
# --------------------------------------------------------------------------- #

def _matches_reference(proto, states, refs):
    """Each group's rows, counters and in-flight sums against its own reference."""
    x_fly, w_fly = proto.inflight_sums(states.x.shape[1])
    for g, ref in enumerate(refs):
        rows = slice(g * proto.m, (g + 1) * proto.m)
        ref_x, ref_w = ref.inflight_sums(states.x.shape[1])
        if not (_same_bits(states.x[rows], ref.x) and _same_bits(states.w[rows], ref.w)
                and proto.stalled[rows].tolist() == ref.stalled
                and proto.count_since_last[rows].tolist() == ref.count
                and _same_bits(x_fly[g], ref_x) and _same_bits(w_fly[g], ref_w)):
            return False
    return True


@given(
    st.sampled_from([2, 3, 5, 8, 16]),
    st.sampled_from(["exponential-directed", "ring-directed"]),
    st.one_of(
        st.builds(DelayModel, kind=st.just("constant"), rounds=st.integers(0, 4)),
        st.builds(DelayModel, kind=st.just("geometric"), p=st.sampled_from([0.3, 0.6]),
                  cap=st.integers(0, 4)),
    ),
    st.integers(0, 4),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
)
@settings(max_examples=60, deadline=None)
def test_osgp_batches_match_per_message_reference(m, kind, delay, staleness, seed, groups):
    # a stacked run of 1-3 groups: each group draws its delays from its own
    # stream and must match its own one-message-at-a-time reference
    sched = TopologySchedule(kind=kind, m=m)
    seeds = [(seed + g) % 2**32 for g in range(groups)]
    proto = make_protocol(_osgp_cfg(staleness, delay, seed), m, sched, seeds)
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((groups * m, 2))
    x0[rng.random(x0.shape) < 0.1] = -0.0
    states = _states(x0)
    refs = [OsgpReference(sched, staleness, delay, s, x0[g * m:(g + 1) * m])
            for g, s in enumerate(seeds)]
    for k in range(40):
        forced = rng.random(groups * m) < 0.15  # stall some workers from outside
        proto.stalled |= forced
        for g, ref in enumerate(refs):
            ref.stalled = [a or b for a, b in zip(ref.stalled, forced[g * m:(g + 1) * m].tolist())]
        active = proto.active_workers()
        assert active.tolist() == [g * m + i for g, ref in enumerate(refs) for i in ref.active()]
        half = states.x[active] - 0.1 * rng.standard_normal((active.size, 2))
        try:
            proto.apply_round(states, half.copy(), k)
        except ProtocolError:
            raised = []  # the groups whose reference has every worker stalled, nothing in flight
            for g, ref in enumerate(refs):
                try:
                    ref.round(half[active // m == g].copy(), k)
                except ProtocolError:
                    raised.append(g)
            assert raised
            return
        for g, ref in enumerate(refs):
            ref.round(half[active // m == g].copy(), k)
        assert _matches_reference(proto, states, refs)
        if rng.random() < 0.1:
            proto.end_block(states)
            for ref in refs:
                ref.drain()
            assert _matches_reference(proto, states, refs) and not proto.senders.size


# --------------------------------------------------------------------------- #
# one-peer mixing against a dense reference
# --------------------------------------------------------------------------- #

def _dense_gossip(p, half_x):
    """x_i <- sum_j p[i,j] half_x[j] as a dense double loop in ascending j."""
    out = []
    for i in range(p.shape[0]):
        acc = None
        for j in range(p.shape[0]):
            if p[i, j] != 0.0:
                term = p[i, j] * half_x[j]
                acc = term if acc is None else acc + term
        out.append(acc)
    return out


def _dense_pushsum(p, half_x, ws):
    """The same loop for push-sum: an empty row gets x = 0 and w = 0."""
    m = p.shape[0]
    out_x, out_w = [], []
    for i in range(m):
        acc, acc_w = None, 0.0
        for j in range(m):
            if p[i, j] != 0.0:
                term = p[i, j] * half_x[j]
                acc = term if acc is None else acc + term
                acc_w += p[i, j] * ws[j]
        out_x.append(acc if acc is not None else np.zeros_like(half_x[i]))
        out_w.append(acc_w)
    return out_x, out_w


def _built_mixers(kind, m):
    """``kind``'s schedule of m workers, and a (protocol, stochasticity) pair
    for sgp and, where every round pairs, for dpsgd over it."""
    sched = TopologySchedule(kind=kind, m=m)
    out = []
    for name, stochasticity in (("sgp", "column"), ("dpsgd", "doubly")):
        try:
            out.append((make_protocol(_cfg(name), m, sched), stochasticity))
        except ConfigError:
            pass  # some round has no perfect matching: not a doubly schedule
    return sched, out


MIXING_CASES = (
    [("exponential-directed", m) for m in (1, 2, 3, 5, 8, 64)]
    + [("ring-directed", m) for m in (2, 3, 6)]
)


@given(st.sampled_from(MIXING_CASES), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_slot_mixing_matches_dense_loop_bit_for_bit(case, seed):
    # a built protocol's mix adds 0.5 v[peer] to 0.5 v, whatever the peer's
    # column; the dense loop adds in ascending column
    kind, m = case
    rng = np.random.default_rng(seed)
    sched, mixers = _built_mixers(kind, m)
    for proto, stochasticity in mixers:
        for k in range(sched.period):
            p = _dense(sched, k, stochasticity)
            half = rng.standard_normal((m, 3))
            half[rng.random(half.shape) < 0.1] = 0.0
            half[rng.random(half.shape) < 0.1] = -0.0
            ws = list(rng.random(m) + 0.5)

            ref_x, ref_w = _dense_pushsum(p, list(half), ws)
            assert _same_bits(proto.mix(half, k), ref_x)
            assert _same_bits(proto.mix(np.array(ws), k), ref_w)
            if stochasticity == "doubly":
                assert _same_bits(proto.mix(half, k), _dense_gossip(p, list(half)))


def test_mixing_is_compiled_once_per_period_entry(monkeypatch):
    built = []
    real = comm_protocols.mixing_matrix

    def counting(schedule, round_index, stochasticity):
        built.append(round_index)
        return real(schedule, round_index, stochasticity)

    monkeypatch.setattr(comm_protocols, "mixing_matrix", counting)
    m = 8
    sched = TopologySchedule(kind="exponential-directed", m=m)
    for name in ("sgp", "dpsgd", "osgp"):
        built.clear()
        proto = make_protocol(_cfg(name), m, sched)
        assert built == list(range(sched.period)), name  # every entry, once, when built
        states = _states(list(rng_stream(10, 0, 0).standard_normal((m, 2))))
        for k in range(4 * sched.period):
            proto.apply_round(states, states.x[proto.active_workers()], k)
        assert built == list(range(sched.period)), name


@pytest.mark.parametrize("kind, m, bad_round", [
    ("ring-directed", 3, 0),
    ("exponential-directed", 6, 1),  # the hop-2 round is two 3-cycles
])
def test_dpsgd_rejects_an_unpairable_round_when_built(kind, m, bad_round):
    with pytest.raises(ConfigError, match=f"round {bad_round} edges cannot .* perfect matching"):
        make_protocol(_cfg("dpsgd"), m, TopologySchedule(kind, m))
