"""Averaging, gossip, push-sum, and the overlap (delayed) push-sum machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    BaseOptimizerConfig,
    ConfigError,
    DelayModel,
    InFlightMessage,
    MessageQueues,
    OptimizerBuffers,
    ProtocolError,
    SlotMixing,
    WorkerState,
    double_average,
    exact_average,
    gossip_round,
    make_protocol,
    osgp_step,
    pushsum_round,
)
from slowmo_sim import comm_protocols
from slowmo_sim.numerics import rng_stream
from slowmo_sim.topology import (
    MixingMatrix,
    TopologySchedule,
    custom_schedule,
    mixing_matrix,
)


def _states(xs, ws=None):
    cfg = BaseOptimizerConfig()
    out = []
    for i, x in enumerate(xs):
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        s = WorkerState(x=x, buffers=OptimizerBuffers.fresh(cfg, x.size))
        if ws is not None:
            s.w = ws[i]
        out.append(s)
    return out


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
    s = _states([[1.0]])[0]
    s.w = 0.0
    with pytest.raises(ProtocolError):
        _ = s.z


# --------------------------------------------------------------------------- #
# synchronous rounds
# --------------------------------------------------------------------------- #

def test_gossip_preserves_mean_and_reaches_consensus():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    rng = rng_stream(4, 0, 0)
    xs = rng.standard_normal((8, 3))
    states = _states(list(xs))
    mean0 = xs.mean(axis=0)
    for k in range(3):
        mix = SlotMixing(mixing_matrix(sched, k, "doubly"))
        gossip_round(states, mix, [s.x.copy() for s in states])
        mean_k = np.mean([s.x for s in states], axis=0)
        assert np.allclose(mean_k, mean0, atol=1e-13)
    # the hop-1/2/4 pairwise exchanges implement a full dimension exchange
    for s in states:
        assert np.allclose(s.x, mean0, atol=1e-13)


def test_gossip_rejects_column_only_matrix():
    # two senders aimed at one receiver: column-stochastic but not row-stochastic
    sched = custom_schedule(3, [[(0, 1), (2, 1)]])
    mix = mixing_matrix(sched, 0, "column")
    states = _states([[1.0], [2.0], [3.0]])
    rows = mix.matrix.sum(axis=1)
    assert np.max(np.abs(rows - 1.0)) > 1e-6
    with pytest.raises(ProtocolError):
        gossip_round(states, SlotMixing(mix), [s.x.copy() for s in states])


def test_pushsum_conserves_mass_and_mean():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    rng = rng_stream(5, 0, 0)
    xs = rng.standard_normal((8, 4))
    states = _states(list(xs))
    sum_x0 = xs.sum(axis=0)
    for k in range(12):
        mix = SlotMixing(mixing_matrix(sched, k % 3, "column"))
        pushsum_round(states, mix, [s.x.copy() for s in states])
        assert np.allclose(sum(s.x for s in states), sum_x0, atol=1e-12)
        assert sum(s.w for s in states) == pytest.approx(8.0, abs=1e-12)


def test_pushsum_consensus_on_power_of_two():
    # each exponential round is a permutation with 1/2-1/2 weights: after one
    # period every de-biased iterate equals the initial average exactly
    sched = TopologySchedule(kind="exponential-directed", m=8)
    rng = rng_stream(6, 0, 0)
    xs = rng.standard_normal((8, 2))
    states = _states(list(xs))
    mean0 = xs.mean(axis=0)
    for k in range(3):
        mix = SlotMixing(mixing_matrix(sched, k, "column"))
        pushsum_round(states, mix, [s.x.copy() for s in states])
    for s in states:
        assert np.allclose(s.z, mean0, atol=1e-12)
        assert s.w == pytest.approx(1.0, abs=1e-12)


def test_double_average_synchronizes_momentum():
    states = _states([[1.0], [3.0]])
    states[0].buffers.h[:] = 2.0
    states[1].buffers.h[:] = 6.0
    double_average(states)
    for s in states:
        assert s.x[0] == 2.0
        assert s.buffers.h[0] == 4.0


# --------------------------------------------------------------------------- #
# delay model and message queues
# --------------------------------------------------------------------------- #

def test_delay_model_constant():
    rng = rng_stream(0, 2, 0)
    dm = DelayModel(kind="constant", rounds=3)
    assert dm.draw(rng, 10) == [3] * 10


def test_delay_model_geometric_capped():
    rng = rng_stream(0, 2, 1)
    dm = DelayModel(kind="geometric", p=0.4, cap=5)
    draws = dm.draw(rng, 2000)
    assert min(draws) == 0 and max(draws) == 5


def test_delay_model_batch_uses_the_stream_like_single_draws():
    dm = DelayModel(kind="geometric", p=0.3, cap=4)
    one, batch = rng_stream(1, 2, 0), rng_stream(1, 2, 0)
    singles = [dm.draw(one, 1)[0] for _ in range(300)]
    assert dm.draw(batch, 100) + dm.draw(batch, 0) + dm.draw(batch, 200) == singles
    assert one.random() == batch.random()


def test_delay_model_validation():
    with pytest.raises(ConfigError):
        DelayModel(kind="uniform")
    with pytest.raises(ConfigError):
        DelayModel(kind="constant", rounds=-1)
    with pytest.raises(ConfigError):
        DelayModel(kind="geometric", p=0.0)


def test_message_queue_delivery_order_and_sums():
    q = MessageQueues()
    mk = lambda snd, rcv, sr, dr, val: InFlightMessage(
        sender=snd, receiver=rcv, send_round=sr, deliver_round=dr,
        payload_x=np.array([val]), payload_w=0.5,
    )
    q.send(mk(1, 0, 2, 5, 10.0))
    q.send(mk(0, 0, 1, 5, 20.0))
    q.send(mk(2, 0, 3, 9, 30.0))
    x_sum, w_sum = q.pending_sums(1)
    assert x_sum[0] == 60.0 and w_sum == 1.5
    got = q.deliver(5)
    # both round-5 deliveries arrive ordered by (send_round, sender)
    assert [m.payload_x[0] for m in got[0]] == [20.0, 10.0]
    assert not q.empty()
    rest = q.drain_all()
    assert [m.payload_x[0] for m in rest[0]] == [30.0]
    assert q.empty()


# --------------------------------------------------------------------------- #
# the overlap step function
# --------------------------------------------------------------------------- #

def _msg(x, w, snd=1, rcv=0, sr=0, dr=0):
    return InFlightMessage(sender=snd, receiver=rcv, send_round=sr,
                           deliver_round=dr, payload_x=np.array([x]), payload_w=w)


def test_osgp_step_active_send_and_receive():
    s = _states([[4.0]])[0]
    s, count, stalled = osgp_step(
        s, half_x=np.array([4.0]), p_self=0.5,
        inbox=[_msg(1.0, 0.5)], count_since_last=3, staleness_limit=4,
    )
    assert s.x[0] == 3.0 and s.w == 1.0      # kept half, absorbed one message
    assert count == 0 and not stalled        # receipt resets the counter


def test_osgp_step_counts_toward_stall():
    s = _states([[4.0]])[0]
    s, count, stalled = osgp_step(s, np.array([4.0]), 0.5, [], 1, staleness_limit=4)
    assert count == 2 and not stalled
    s, count, stalled = osgp_step(s, s.x.copy(), 0.5, [], 4, staleness_limit=4)
    assert stalled and count == 4


def test_osgp_step_stalled_worker_only_listens():
    s = _states([[4.0]])[0]
    s.w = 0.25
    s, count, stalled = osgp_step(s, None, 0.5, [_msg(2.0, 0.5)], 4, staleness_limit=4)
    assert s.x[0] == 6.0 and s.w == 0.75     # x untouched except for receipt
    assert count == 0 and not stalled


# --------------------------------------------------------------------------- #
# protocol adapters
# --------------------------------------------------------------------------- #

def test_allreduce_adapter_reaches_exact_consensus():
    proto = make_protocol("allreduce", 3)
    states = _states([[0.0], [0.0], [0.0]])
    half = {0: np.array([1.0]), 1: np.array([2.0]), 2: np.array([4.0])}
    proto.apply_round(states, half, 0)
    for s in states:
        assert s.x[0] == (1.0 + 2.0 + 4.0) / 3.0


def test_local_adapter_keeps_workers_apart():
    proto = make_protocol("local", 2)
    states = _states([[0.0], [0.0]])
    half = {0: np.array([1.0]), 1: np.array([2.0])}
    proto.apply_round(states, half, 0)
    assert states[0].x[0] == 1.0 and states[1].x[0] == 2.0


def test_unknown_protocol_rejected():
    with pytest.raises(ConfigError):
        make_protocol("broadcast", 4)


def _osgp(m=4, staleness=4, delay=None, seed=0):
    sched = TopologySchedule(kind="exponential-directed", m=m)
    return make_protocol("osgp", m, schedule=sched, staleness=staleness,
                         delay=delay, seed=seed)


def test_osgp_zero_delay_matches_synchronous_pushsum():
    m = 4
    sched = TopologySchedule(kind="exponential-directed", m=m)
    rng = rng_stream(7, 0, 0)
    xs = rng.standard_normal((m, 3))
    a = _states(list(xs))
    b = _states([x.copy() for x in xs])
    proto = _osgp(m, delay=DelayModel(kind="constant", rounds=0))
    sync = make_protocol("sgp", m, schedule=sched)
    for k in range(50):
        half_a = {i: a[i].x.copy() for i in range(m)}
        half_b = {i: b[i].x.copy() for i in range(m)}
        proto.apply_round(a, half_a, k)
        sync.apply_round(b, half_b, k)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.x, sb.x) and sa.w == sb.w


def test_osgp_delay_keeps_weight_in_range_and_mass_fixed():
    m = 4
    proto = _osgp(m, staleness=6, delay=DelayModel(kind="geometric", p=0.5, cap=3))
    rng = rng_stream(8, 0, 0)
    states = _states(list(rng.standard_normal((m, 2))))
    for k in range(200):
        half = {i: states[i].x.copy() for i in proto.active_workers()}
        proto.apply_round(states, half, k)
        x_fly, w_fly = proto.inflight_sums(2)
        mass = sum(s.w for s in states) + w_fly
        assert mass == pytest.approx(m, abs=1e-9)
        for s in states:
            assert 0.0 < s.w <= m + 1e-12
    proto.end_block(states)
    assert sum(s.w for s in states) == pytest.approx(m, abs=1e-9)
    assert proto.queues.empty()


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
        half = {i: states[i].x.copy() for i in active}
        proto.apply_round(states, half, k)
    assert stall_seen and recovered


def test_osgp_fifo_delivery_per_edge():
    m = 4
    proto = _osgp(m, staleness=10, delay=DelayModel(kind="geometric", p=0.3, cap=6),
                  seed=3)
    rng = rng_stream(9, 0, 0)
    states = _states(list(rng.standard_normal((m, 2))))
    seen: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for k in range(150):
        half = {i: states[i].x.copy() for i in proto.active_workers()}
        proto.apply_round(states, half, k)
        for due in proto.queues._due.values():
            for msg in due:
                edge = (msg.sender, msg.receiver)
                seen.setdefault(edge, []).append((msg.send_round, msg.deliver_round))
    for log in seen.values():
        log = sorted(set(log))
        for (s0, d0), (s1, d1) in zip(log, log[1:]):
            if s0 < s1:
                assert d0 <= d1, "later send scheduled before an earlier one"


def test_osgp_single_worker_never_stalls():
    proto = _osgp(1, staleness=1, delay=DelayModel(kind="constant", rounds=5))
    states = _states([[2.0]])
    for k in range(10):
        assert proto.active_workers() == [0]
        proto.apply_round(states, {0: states[0].x.copy()}, k)
    assert states[0].w == pytest.approx(1.0)


def test_osgp_all_stalled_with_empty_queues_is_a_deadlock():
    proto = _osgp(2, staleness=1)
    states = _states([[0.0], [1.0]])
    proto.stalled = [True, True]
    assert proto.active_workers() == []
    with pytest.raises(ProtocolError):
        proto.apply_round(states, {}, 0)


def test_osgp_all_stalled_with_messages_in_flight_waits():
    proto = _osgp(2, staleness=1, delay=DelayModel(kind="constant", rounds=1))
    states = _states([[0.0], [1.0]])
    proto.apply_round(states, {0: states[0].x.copy(), 1: states[1].x.copy()}, 0)
    proto.stalled = [True, True]
    assert not proto.queues.empty()
    proto.apply_round(states, {}, 1)  # both messages land; nobody raises
    assert proto.queues.empty()
    assert proto.active_workers() == [0, 1]


# --------------------------------------------------------------------------- #
# randomized invariants
# --------------------------------------------------------------------------- #

@given(st.integers(0, 10_000), st.sampled_from([2, 4, 8, 16]))
@settings(max_examples=30, deadline=None)
def test_pushsum_mass_invariant_random_starts(seed, m):
    sched = TopologySchedule(kind="exponential-directed", m=m)
    rng = rng_stream(seed, 0, 0)
    states = _states(list(rng.standard_normal((m, 2))))
    for k in range(2 * sched.period):
        mix = SlotMixing(mixing_matrix(sched, k % sched.period, "column"))
        pushsum_round(states, mix, [s.x.copy() for s in states])
    assert sum(s.w for s in states) == pytest.approx(m, abs=1e-12)


# --------------------------------------------------------------------------- #
# slot mixing against a dense reference
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


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def _schedule_matrices(kind, m):
    sched = TopologySchedule(kind=kind, m=m)
    out = []
    for k in range(sched.period):
        for stochasticity in ("column", "doubly"):
            try:
                out.append(mixing_matrix(sched, k, stochasticity))
            except ConfigError:
                pass  # no perfect matching this round: not a doubly schedule
    return out


def _custom_matrices(rng, m):
    rounds = []
    for _ in range(3):
        n_edges = int(rng.integers(0, 2 * m + 1))
        edges = {tuple(rng.integers(0, m, size=2).tolist()) for _ in range(n_edges)}
        rounds.append(sorted(edges))
    sched = custom_schedule(m, rounds)
    return [mixing_matrix(sched, k, "column") for k in range(sched.period)]


def _ragged_matrix(rng, m):
    """Column-stochastic with random sparsity, no forced diagonal, empty rows."""
    mask = rng.random((m, m)) < 0.4
    empty = rng.random(m) < 0.3
    empty[rng.integers(m)] = False
    mask[empty] = False
    kept = np.flatnonzero(~empty)
    for j in range(m):
        if not mask[:, j].any():
            mask[rng.choice(kept), j] = True
    p = np.where(mask, rng.random((m, m)) + 0.1, 0.0)
    return MixingMatrix(p / p.sum(axis=0), "column")


MIXING_CASES = (
    [("exponential-directed", m) for m in (1, 2, 3, 5, 8, 64)]
    + [("ring-directed", m) for m in (2, 3, 6)]
    + [("complete", m) for m in (1, 3, 4)]
    + [("custom", m) for m in (2, 5, 9)]
    + [("ragged", m) for m in (1, 4, 7)]
)


@given(st.sampled_from(MIXING_CASES), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_slot_mixing_matches_dense_loop_bit_for_bit(case, seed):
    kind, m = case
    rng = np.random.default_rng(seed)
    if kind == "custom":
        matrices = _custom_matrices(rng, m)
    elif kind == "ragged":
        matrices = [_ragged_matrix(rng, m)]
    else:
        matrices = _schedule_matrices(kind, m)
    for mix in matrices:
        half = rng.standard_normal((m, 3))
        half[rng.random(half.shape) < 0.1] = 0.0
        half[rng.random(half.shape) < 0.1] = -0.0
        ws = list(rng.random(m) + 0.5)
        slots = SlotMixing(mix)

        states = _states([h.copy() for h in half], ws=ws)
        pushsum_round(states, slots, [h.copy() for h in half])
        ref_x, ref_w = _dense_pushsum(mix.matrix, list(half), ws)
        for s, x, w in zip(states, ref_x, ref_w):
            assert _same_bits(s.x, x) and _same_bits(s.w, w)

        if mix.stochasticity == "doubly":
            states = _states([h.copy() for h in half])
            gossip_round(states, slots, [h.copy() for h in half])
            for s, x in zip(states, _dense_gossip(mix.matrix, list(half))):
                assert _same_bits(s.x, x)


def test_mixing_is_compiled_once_per_period_entry(monkeypatch):
    built = []
    real = comm_protocols.mixing_matrix

    def counting(schedule, round_index, stochasticity):
        built.append(round_index)
        return real(schedule, round_index, stochasticity)

    monkeypatch.setattr(comm_protocols, "mixing_matrix", counting)
    m = 8
    sched = TopologySchedule(kind="exponential-directed", m=m)
    proto = make_protocol("sgp", m, schedule=sched)
    states = _states(list(rng_stream(10, 0, 0).standard_normal((m, 2))))
    for k in range(4 * sched.period):
        proto.apply_round(states, {i: s.x.copy() for i, s in enumerate(states)}, k)
    assert built == list(range(sched.period))


def test_osgp_rejects_topologies_without_a_single_out_neighbor():
    complete = TopologySchedule(kind="complete", m=3)
    custom = custom_schedule(3, [[(0, 1), (1, 2), (2, 0)]])
    for sched in (complete, custom):
        with pytest.raises(ConfigError):
            make_protocol("osgp", 3, schedule=sched)
