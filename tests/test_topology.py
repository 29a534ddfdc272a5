"""Directed graph schedules, mixing matrices, connectivity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    ConfigError,
    MixingMatrix,
    TopologySchedule,
    custom_schedule,
    mixing_matrix,
    out_neighbor,
    validate_strong_connectivity,
)
from slowmo_sim.topology import out_edges


def test_exponential_hops_m8():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    assert sched.period == 3
    # rounds cycle through hops 1, 2, 4
    assert [out_neighbor(sched, 0, k) for k in range(4)] == [1, 2, 4, 1]
    assert out_neighbor(sched, 6, 1) == 0  # wraps mod m


@pytest.mark.parametrize("m,period", [(2, 1), (3, 2), (8, 3), (9, 4), (16, 4), (17, 5)])
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
    assert out_edges(sched, 0) == []


@given(st.integers(2, 64), st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_round_map_is_a_permutation(m, k):
    # each round's out-neighbor map must be a bijection, otherwise push-sum
    # in-boxes would collide and mass tracking would need multisets
    sched = TopologySchedule(kind="exponential-directed", m=m)
    targets = {out_neighbor(sched, i, k) for i in range(m)}
    assert len(targets) == m


def test_out_edges_have_no_self_loops():
    sched = TopologySchedule(kind="exponential-directed", m=6)
    for k in range(sched.period):
        for i, j in out_edges(sched, k):
            assert i != j


def test_column_stochastic_mixing_shares():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    mix = mixing_matrix(sched, 0, "column")
    col_sums = mix.matrix.sum(axis=0)
    assert np.allclose(col_sums, 1.0, atol=1e-12)
    # out-degree one everywhere: sender keeps 1/2, ships 1/2
    assert mix.matrix[0, 0] == pytest.approx(0.5)
    assert mix.matrix[1, 0] == pytest.approx(0.5)


def test_doubly_stochastic_matching_matrix():
    sched = TopologySchedule(kind="exponential-directed", m=8)
    for k in range(sched.period):
        mix = mixing_matrix(sched, k, "doubly")
        w = mix.matrix
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


def test_complete_mixing():
    sched = TopologySchedule(kind="complete", m=4)
    mix = mixing_matrix(sched, 0, "doubly")
    assert np.allclose(mix.matrix, 0.25)


def test_mixing_matrix_validation():
    bad = np.array([[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(ConfigError):
        MixingMatrix(bad, "column")
    ok = MixingMatrix(np.eye(2), "doubly")
    assert ok.matrix.shape == (2, 2)


@pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 33])
def test_standard_schedules_strongly_connected(m):
    for kind in ("exponential-directed", "ring-directed"):
        validate_strong_connectivity(TopologySchedule(kind=kind, m=m))


def test_disconnected_custom_schedule_rejected():
    # two components that never exchange
    rounds = [[(0, 1), (1, 0), (2, 3), (3, 2)]]
    sched = custom_schedule(4, rounds)
    with pytest.raises(ConfigError):
        validate_strong_connectivity(sched)


def test_custom_schedule_validation():
    with pytest.raises(ConfigError):
        custom_schedule(3, [[(0, 5)]])  # endpoint out of range
    with pytest.raises(ConfigError):
        custom_schedule(3, [])  # need at least one round
    sched = custom_schedule(3, [[(0, 1), (1, 2), (2, 0)]])
    assert sched.period == 1
    assert out_edges(sched, 0) == [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(ConfigError):  # custom kinds have no single out-neighbor
        out_neighbor(sched, 1, 0)
    with pytest.raises(ConfigError, match=r"round 1 lists edge \(2,0\) twice"):
        custom_schedule(3, [[(0, 1)], [(2, 0), (1, 2), (2, 0)]])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        TopologySchedule(kind="torus", m=4)
