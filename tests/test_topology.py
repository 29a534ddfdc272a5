"""Directed graph schedules, mixing matrices, connectivity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from references import (
    column_nonzeros_reference,
    matching_partners_reference,
    round_edges,
    strongly_connected_reference,
)
from slowmo_sim import (
    ConfigError,
    ExperimentConfig,
    TopologySchedule,
    make_protocol,
    mixing_matrix,
    out_neighbor,
    topology,
    validate_strong_connectivity,
)

KINDS = ("exponential-directed", "ring-directed")


def _dense(sched, k, stochasticity):
    """The round's m x m matrix: 1/2 on each row's own column and 1/2 on its peer's."""
    workers = np.arange(sched.m)
    p = np.zeros((sched.m, sched.m))
    np.add.at(p, (np.concatenate([workers, workers]),
                  np.concatenate([workers, mixing_matrix(sched, k, stochasticity)])), 0.5)
    return p


def test_exponential_hops_m8():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    assert sched.period == 3
    # rounds cycle through hops 1, 2, 4
    assert [out_neighbor(sched, 0, k) for k in range(4)] == [1, 2, 4, 1]
    assert out_neighbor(sched, 6, 1) == 0  # wraps mod m


@pytest.mark.parametrize("m,period", [(1, 1), (2, 1), (3, 2), (8, 3), (9, 4), (16, 4), (17, 5),
                                      (2**53, 53)])
def test_exponential_period(m, period):
    assert TopologySchedule(kind="exponential-directed", m=m).period == period


def test_ring_neighbor():
    sched = TopologySchedule(kind="ring-directed", m=5)
    assert sched.period == 1
    for k in range(3):
        assert [out_neighbor(sched, i, k) for i in range(5)] == [1, 2, 3, 4, 0]


def test_single_worker_points_at_itself():
    sched = TopologySchedule(kind="exponential-directed", m=1)
    assert out_neighbor(sched, 0, 0) == 0
    for stochasticity in ("column", "doubly"):  # p = [[1]]
        assert mixing_matrix(sched, 0, stochasticity).tolist() == [0]


@given(st.integers(2, 64), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_round_map_is_a_permutation(m, k):
    # each round's out-neighbor map must be a bijection, otherwise push-sum
    # in-boxes would collide and mass tracking would need multisets
    sched = TopologySchedule(kind="exponential-directed", m=m)
    targets = {out_neighbor(sched, i, k) for i in range(m)}
    assert len(targets) == m


def test_out_edges_have_no_self_loops():
    for kind in KINDS:
        for m in range(2, 40):
            sched = TopologySchedule(kind=kind, m=m)
            for k in range(sched.period):
                assert all(out_neighbor(sched, i, k) != i for i in range(m))


def test_column_stochastic_mixing_shares():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    p = _dense(sched, 0, "column")
    col_sums = p.sum(axis=0)
    assert np.allclose(col_sums, 1.0, atol=1e-12)
    # out-degree one everywhere: sender keeps 1/2, ships 1/2
    assert p[0, 0] == pytest.approx(0.5)
    assert p[1, 0] == pytest.approx(0.5)


def test_doubly_stochastic_matching_matrix():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    for k in range(sched.period):
        w = _dense(sched, k, "doubly")
        assert np.allclose(w, w.T, atol=0)
        assert np.allclose(w.sum(axis=0), 1.0, atol=1e-12)
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        # pairwise averaging: exactly two entries of 1/2 per row
        assert np.allclose(np.sort(w, axis=1)[:, -2:], 0.5)


def test_no_perfect_matching_raises():
    # a 3-cycle admits no symmetric pairing that covers every node
    sched = TopologySchedule(kind="exponential-directed", m=3)
    with pytest.raises(ConfigError):
        mixing_matrix(sched, 0, "doubly")


def _reference_peers(sched, k, edges, stochasticity):
    """The round's peers by the general forms: the column-stochastic nonzeros
    built from its edges, or their greedy pairing (m = 1: the identity)."""
    if sched.m == 1:
        return np.zeros(1, dtype=np.int64)
    if stochasticity == "doubly":
        return matching_partners_reference(sched.m, edges, k % sched.period)
    rows, cols, weights = column_nonzeros_reference(sched.m, edges)
    assert (weights == 0.5).all() and np.array_equal(rows, np.repeat(np.arange(sched.m), 2))
    pairs = cols.reshape(-1, 2)
    return np.where(pairs[:, 0] == np.arange(sched.m), pairs[:, 1], pairs[:, 0])


def test_peers_and_pairings_equal_the_general_forms():
    # and OSGP sends each half to the row whose push-sum peer is the sender
    osgp_cfg = ExperimentConfig(protocol="osgp", T=1)
    refused = 0
    for kind in KINDS:
        for m in range(1, 601):
            sched = TopologySchedule(kind=kind, m=m)
            sends_to = make_protocol(osgp_cfg, m, sched).sends_to
            for k in range(sched.period):
                edges = round_edges(sched, k)
                assert np.array_equal(sends_to[k][mixing_matrix(sched, k, "column")],
                                      np.arange(m))
                for stochasticity in ("column", "doubly"):
                    try:
                        expected = _reference_peers(sched, k, edges, stochasticity)
                    except ConfigError as exc:
                        with pytest.raises(ConfigError) as got:
                            mixing_matrix(sched, k, stochasticity)
                        assert str(got.value) == str(exc)
                        refused += 1
                        continue
                    assert np.array_equal(mixing_matrix(sched, k, stochasticity), expected)
    assert refused > 0


def test_unknown_stochasticity_rejected():
    for m in (1, 4):
        with pytest.raises(ConfigError):
            mixing_matrix(TopologySchedule(kind="exponential-directed", m=m), 0, "row")


@pytest.mark.parametrize("stochasticity", ["column", "doubly"])
def test_exponential_round_builds_no_dense_matrix(stochasticity):
    # a dense 4096 x 4096 float64 matrix alone would be 128 MiB
    sched = TopologySchedule(kind="exponential-directed", m=4096)
    tracemalloc.start()
    try:
        peers = mixing_matrix(sched, 3, stochasticity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peers.size == 4096
    assert peak < 16 * 2**20


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 16, 33, 8192])
def test_standard_schedules_strongly_connected(m):
    for kind in KINDS:
        validate_strong_connectivity(TopologySchedule(kind=kind, m=m))


def test_connectivity_is_the_circulant_rule(monkeypatch):
    # a union of rounds i -> i + h (mod m) is strongly connected iff gcd(m, hops) == 1
    rng = np.random.default_rng(0)
    for m in range(1, 41):
        sched = TopologySchedule(kind="exponential-directed", m=m)
        for _ in range(6):
            hops = rng.integers(0, m, size=sched.period).tolist()
            monkeypatch.setattr(topology, "out_neighbor",
                                lambda s, i, k, hops=hops: (i + hops[k % len(hops)]) % s.m)
            edges = [(i, (i + h) % m) for h in hops for i in range(m)]
            try:
                validate_strong_connectivity(sched)
                connected = True
            except ConfigError as exc:
                assert str(exc) == "topology union over one period is not strongly connected"
                connected = False
            assert connected == strongly_connected_reference(m, edges)


def test_unknown_kind_rejected():
    for kind in ("torus", "custom", "complete"):
        with pytest.raises(ConfigError, match=f"unknown topology kind {kind!r}"):
            TopologySchedule(kind=kind, m=4)
