"""Movement law, state enumeration, and the window-transition matrix."""

import numpy as np
import pytest

from specbeam.mobility import (MobilityModel, enumerate_states,
                               successor_distribution, transition_matrix)
from _oracles import table_row

M = 12
MARKER = M + 1


def test_published_table_entries():
    model = MobilityModel(p=0.5, kappa1=0.95, kappa2=0.95)
    dwell = successor_distribution(model, (5, 5), M)
    # dwell: stayed at u_i, stays again with kappa2 * p
    assert dwell[5] == pytest.approx(0.475, abs=1e-15)
    # came down 6 -> 5; reversing back up costs (1 - kappa1) * (1 - p)
    assert successor_distribution(model, (6, 5), M)[6] == pytest.approx(0.025, abs=1e-15)
    # dwell at interior cell: each neighbor gets 0.5 * (1 - kappa2 * p)
    assert dwell[4] == pytest.approx(0.2625, abs=1e-15)
    assert dwell[6] == pytest.approx(0.2625, abs=1e-15)


def test_rows_sum_to_one_and_non_adjacent_is_zero():
    model = MobilityModel(p=0.7, kappa1=0.8, kappa2=0.9)
    for prev2 in (4, 5, 6, MARKER):
        dist = successor_distribution(model, (prev2, 5), M)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert set(dist) <= {4, 5, 6}
    assert successor_distribution(model, (5, 5), M).get(8, 0.0) == 0.0
    assert successor_distribution(model, (4, 5), M).get(3, 0.0) == 0.0


def test_matches_independent_table_oracle():
    rng = np.random.default_rng(4)
    for _ in range(200):
        p, k1, k2 = rng.uniform(0.05, 0.95, size=3)
        model = MobilityModel(p=p, kappa1=k1, kappa2=k2)
        prev = int(rng.integers(1, M + 1))
        prev2 = int(rng.choice([c for c in (prev - 1, prev, prev + 1, MARKER)
                                if c == MARKER or 1 <= c <= M]))
        want = table_row(p, k1, k2, prev, prev2, M)
        got = successor_distribution(model, (prev2, prev), M)
        assert set(got) == set(want)
        for c in want:
            assert got[c] == pytest.approx(want[c], abs=1e-12)


def test_edge_renormalization_keeps_relative_odds():
    model = MobilityModel(p=0.5, kappa1=0.95, kappa2=0.95)
    dist = successor_distribution(model, (1, 1), M)  # dwell at the low edge
    assert set(dist) == {1, 2}
    # raw masses 0.475 and 0.2625 rescaled by 1 / (1 - 0.2625)
    assert dist[1] == pytest.approx(0.475 / 0.7375, abs=1e-12)
    assert dist[2] == pytest.approx(0.2625 / 0.7375, abs=1e-12)
    assert dist[1] / dist[2] == pytest.approx(0.475 / 0.2625, rel=1e-12)


def test_marker_only_in_history_slot():
    model = MobilityModel(p=0.5)
    with pytest.raises(ValueError):
        successor_distribution(model, (5, MARKER), M)
    # marker in the old slot is fine
    dist = successor_distribution(model, (MARKER, 12), M)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_infeasible_history_rejected():
    model = MobilityModel(p=0.5)
    with pytest.raises(ValueError):
        successor_distribution(model, (3, 5), M)   # not adjacent
    with pytest.raises(ValueError):
        successor_distribution(model, (5,), M)     # wrong window length


def test_parameter_validation():
    with pytest.raises(ValueError):
        MobilityModel(p=0.0)
    with pytest.raises(ValueError):
        MobilityModel(p=0.5, kappa1=1.2)
    with pytest.raises(ValueError):
        MobilityModel(p=0.5, window=3)


def test_state_enumeration_counts():
    states = enumerate_states(M, window=2)
    # 34 adjacent in-road pairs plus 12 no-history pairs
    assert len(states) == 46
    n_pairs = sum(1 for w in states.windows if w[0] != MARKER)
    assert n_pairs == 34
    assert len(set(states.windows)) == 46
    assert states.marker == MARKER
    assert len(enumerate_states(M, window=1)) == 12
    assert len(enumerate_states(5, window=2)) == 5 + 2 * 4 + 5


def test_state_space_lookup():
    states = enumerate_states(M, window=2)
    for i, win in enumerate(states.windows):
        assert states.index(win) == i
        assert states.cells()[i] == win[-1]
        assert states.is_no_history(i) == (win[0] == MARKER)
    with pytest.raises(ValueError):
        states.index((3, 7))


def test_transition_matrix_structure():
    model = MobilityModel(p=0.5, kappa1=0.95, kappa2=0.95)
    states = enumerate_states(M, window=2)
    t = transition_matrix(model, states)
    assert t.shape == (46, 46)
    assert np.all(t >= 0)
    assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-12

    # support respects the one-step window shift
    for i, win in enumerate(states.windows):
        for j in np.flatnonzero(t[i]):
            nxt = states.windows[j]
            assert nxt[:-1] == win[1:]
            assert abs(nxt[-1] - win[-1]) <= 1

    # the published dwell row: (5,5) -> stay 0.475, step 0.2625 each way
    i = states.index((5, 5))
    assert t[i, states.index((5, 5))] == pytest.approx(0.475, abs=1e-15)
    assert t[i, states.index((5, 4))] == pytest.approx(0.2625, abs=1e-15)
    assert t[i, states.index((5, 6))] == pytest.approx(0.2625, abs=1e-15)


def test_transition_matrix_full_oracle_cross_check():
    """Every nonzero entry equals the table oracle's probability."""
    model = MobilityModel(p=0.37, kappa1=0.6, kappa2=0.85)
    states = enumerate_states(M, window=2)
    t = transition_matrix(model, states)
    for i, win in enumerate(states.windows):
        want = table_row(model.p, model.kappa1, model.kappa2, win[1], win[0], M)
        row = {states.windows[j][-1]: t[i, j] for j in np.flatnonzero(t[i])}
        assert set(row) == set(want)
        for c, q in want.items():
            assert row[c] == pytest.approx(q, abs=1e-12)
