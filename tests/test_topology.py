"""Directed graph schedules, mixing matrices, connectivity."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slowmo_sim import (
    ConfigError,
    SlotMixing,
    TopologySchedule,
    mixing_matrix,
    out_neighbor,
    validate_strong_connectivity,
)
from slowmo_sim.topology import out_edges


def _dense(sched, k, stochasticity):
    """The round's m x m matrix, filled in from the nonzeros mixing_matrix returns."""
    rows, cols, weights = mixing_matrix(sched, k, stochasticity)
    p = np.zeros((sched.m, sched.m))
    p[rows, cols] = weights
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


def test_complete_mixing():
    sched = TopologySchedule(kind="complete", m=4)
    assert np.allclose(_dense(sched, 0, "doubly"), 0.25)


@pytest.mark.parametrize("kind,m", [("exponential-directed", 9), ("ring-directed", 5),
                                    ("complete", 3), ("exponential-directed", 1)])
@pytest.mark.parametrize("stochasticity", ["column", "doubly"])
def test_nonzeros_come_row_by_row_with_columns_ascending(kind, m, stochasticity):
    sched = TopologySchedule(kind=kind, m=m)
    for k in range(sched.period):
        try:
            rows, cols, weights = mixing_matrix(sched, k, stochasticity)
        except ConfigError:
            continue  # no perfect matching this round
        assert np.array_equal(np.lexsort((cols, rows)), np.arange(rows.size))
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
        assert (weights > 0).all()


def test_custom_column_weights_follow_out_degree():
    sched = TopologySchedule("custom", 3, [[(0, 1), (0, 2), (1, 1)]])
    p = _dense(sched, 0, "column")
    third = 1.0 / 3.0
    assert np.array_equal(p, [[third, 0.0, 0.0], [third, 1.0, 0.0], [third, 0.0, 1.0]])


def test_unknown_stochasticity_rejected():
    for m in (1, 4):
        with pytest.raises(ConfigError):
            mixing_matrix(TopologySchedule(kind="exponential-directed", m=m), 0, "row")


def test_mixing_matrix_validation():
    rows, cols = np.array([0, 1]), np.array([0, 1])
    with pytest.raises(ConfigError, match="sum to 1"):
        SlotMixing(2, rows, cols, np.array([0.9, 1.0]))
    with pytest.raises(ConfigError, match="nonnegative"):
        SlotMixing(3, np.array([0, 0, 1, 2]), np.array([0, 1, 1, 2]),
                   np.array([1.0, 1.5, -0.5, 1.0]))
    ok = SlotMixing(2, rows, cols, np.array([1.0, 1.0]))
    assert ok.doubly and ok.self_weight.tolist() == [1.0, 1.0]


@pytest.mark.parametrize("stochasticity", ["column", "doubly"])
def test_exponential_round_builds_no_dense_matrix(stochasticity):
    # a dense 4096 x 4096 float64 matrix alone would be 128 MiB
    sched = TopologySchedule(kind="exponential-directed", m=4096)
    tracemalloc.start()
    try:
        rows, _, _ = mixing_matrix(sched, 3, stochasticity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.size == 2 * 4096
    assert peak < 16 * 2**20


@pytest.mark.parametrize("m", [2, 3, 5, 8, 16, 33])
def test_standard_schedules_strongly_connected(m):
    for kind in ("exponential-directed", "ring-directed"):
        validate_strong_connectivity(TopologySchedule(kind=kind, m=m))


def test_disconnected_custom_schedule_rejected():
    # two components that never exchange
    rounds = [[(0, 1), (1, 0), (2, 3), (3, 2)]]
    sched = TopologySchedule("custom", 4, rounds)
    with pytest.raises(ConfigError):
        validate_strong_connectivity(sched)


def test_custom_schedule_connected_only_in_the_union_of_its_rounds():
    rounds = [[(0, 1)], [(1, 2)], [(2, 3), (1, 0)], [(3, 1)]]
    validate_strong_connectivity(TopologySchedule("custom", 4, rounds))
    for edges in rounds:  # no round alone is
        with pytest.raises(ConfigError):
            validate_strong_connectivity(TopologySchedule("custom", 4, [edges]))


@pytest.mark.parametrize("rounds", [
    [[(0, 1), (1, 2)], [(2, 3), (1, 0)]],  # 0 reaches all; 2 and 3 never reach 0
    [[(1, 0), (2, 0)], [(3, 2)]],  # all reach 0; 0 reaches none
])
def test_weakly_but_not_strongly_connected_schedule_rejected(rounds):
    with pytest.raises(ConfigError,
                       match="^topology union over one period is not strongly connected$"):
        validate_strong_connectivity(TopologySchedule("custom", 4, rounds))


def test_custom_schedule_validation():
    with pytest.raises(ConfigError, match=r"edge \(0,5\) out of range for m=3"):
        TopologySchedule(kind="custom", m=3, rounds=(((0, 5),),))
    with pytest.raises(ConfigError, match="out of range"):
        TopologySchedule("custom", 3, [[(0, 1)], [(-1, 2)]])
    with pytest.raises(ConfigError):
        TopologySchedule("custom", 3, [])  # need at least one round
    with pytest.raises(ConfigError):
        TopologySchedule("ring-directed", 3, [[(0, 1)]])  # only custom kinds take rounds
    sched = TopologySchedule("custom", 3, [[[0, 1], [1, 2], [2, 0]]])
    assert sched.period == 1
    assert sched.rounds == (((0, 1), (1, 2), (2, 0)),)  # kept as tuples
    assert out_edges(sched, 0) == [(0, 1), (1, 2), (2, 0)]
    with pytest.raises(ConfigError):  # custom kinds have no single out-neighbor
        out_neighbor(sched, 1, 0)
    with pytest.raises(ConfigError, match=r"round 1 lists edge \(2,0\) twice"):
        TopologySchedule(kind="custom", m=3, rounds=(((0, 1),), ((2, 0), (1, 2), (2, 0))))


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        TopologySchedule(kind="torus", m=4)
