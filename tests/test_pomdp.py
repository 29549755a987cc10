"""Space enumeration, tensor assembly, thresholds, and belief updates."""

import dataclasses

import numpy as np
import pytest

from specbeam.arrays import PropagationConstants, expected_rate, make_band
from specbeam.config import ExperimentConfig
from specbeam.geometry import SceneConfig, build_road
from specbeam.mobility import MobilityModel
from specbeam.pomdp import (ImpossibleObservation, belief_update, build_model,
                            enumerate_actions, initial_belief,
                            observation_likelihoods, snr_thresholds)

CFG = ExperimentConfig.from_dict({})


@pytest.fixture(scope="module")
def model():
    return CFG.build_model(p=0.8)


@pytest.fixture(scope="module")
def toy():
    """3 cells, 1 band, window 1, 6 SNR levels: small enough to hand-check."""
    scene = SceneConfig(road_y_min_m=-30.0, road_y_max_m=30.0, num_cells=3)
    road = build_road(scene)
    band = make_band(CFG.aperture(), 15e9, 90e6)
    consts = PropagationConstants()
    mob = MobilityModel(p=0.6, window=1)
    return build_model(road, (band,), consts, mob, num_levels=6,
                       low_db=-10.0, high_db=50.0, discount=0.9)


def test_paper_instance_dimensions(model):
    assert model.num_states == 46
    assert model.num_actions == 36
    assert model.num_observations == 25
    assert model.T.shape == (46, 46)
    assert model.O.shape == (36, 46, 25)
    assert model.rbar.shape == (36, 46)
    assert model.thresholds.shape == (24,)


def test_action_enumeration_cell_major(model):
    acts = model.actions
    for a in range(36):
        assert acts.beam_cell[a] == a // 3 + 1
        assert acts.band_idx[a] == a % 3
        cell = model.road[acts.beam_cell[a] - 1]
        assert acts.theta_hat[a] == cell.theta
        assert acts.phi_hat[a] == cell.phi
    assert acts.index(cell=5, band=2, num_bands=3) == 14


def test_snr_thresholds_grid():
    thr = snr_thresholds(25, -50.0, 80.0)
    assert thr.shape == (24,)
    assert thr[0] == pytest.approx(1e-5, rel=1e-12)
    assert thr[-1] == pytest.approx(1e8, rel=1e-12)
    ratios = thr[1:] / thr[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-10)
    assert snr_thresholds(2, 0.0, 0.0) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        snr_thresholds(1, -50.0, 80.0)
    with pytest.raises(ValueError):
        snr_thresholds(25, 80.0, -50.0)


def test_tensor_stochasticity(model):
    assert np.abs(model.T.sum(axis=1) - 1.0).max() < 1e-12
    assert np.abs(model.O.sum(axis=2) - 1.0).max() < 1e-12
    assert np.all(model.O >= 0)
    assert np.all(model.rbar >= 0)


def test_rows_factor_through_current_cell(model):
    """States sharing a current cell share observation rows and rewards."""
    cells = model.states.cells()
    for cell in range(1, 13):
        idx = np.flatnonzero(cells == cell)
        assert len(idx) >= 2
        first = idx[0]
        assert np.array_equal(model.O[:, idx, :],
                              np.repeat(model.O[:, first:first + 1, :],
                                        len(idx), axis=1))
        assert np.array_equal(model.rbar[:, idx],
                              np.repeat(model.rbar[:, first:first + 1],
                                        len(idx), axis=1))


def test_aligned_action_maximizes_reward_within_band(model):
    cells = model.states.cells()
    for cell in range(1, 13):
        s = int(np.flatnonzero(cells == cell)[0])
        for band in range(3):
            per_cell = [model.rbar[(c - 1) * 3 + band, s] for c in range(1, 13)]
            assert int(np.argmax(per_cell)) == cell - 1


def test_aligned_reward_agrees_with_expected_rate(model):
    from specbeam.arrays import aligned_gain

    cells = model.states.cells()
    for cell in (1, 7, 12):
        s = int(np.flatnonzero(cells == cell)[0])
        geo = model.road[cell - 1]
        for band_i, band in enumerate(model.bands):
            a = (cell - 1) * 3 + band_i
            sig = model.consts.noise_variance_w(band.bandwidth_hz)
            want = expected_rate(band.bandwidth_hz,
                                 aligned_gain(model.consts, band, geo.r_m), sig)
            assert model.rbar[a, s] == pytest.approx(want, rel=1e-12)


def test_high_gain_shifts_observation_mass_upward(model):
    cells = model.states.cells()
    s = int(np.flatnonzero(cells == 7)[0])
    aligned = (7 - 1) * 3 + 2
    misaligned = (1 - 1) * 3 + 2
    hi = model.O[aligned, s]
    lo = model.O[misaligned, s]
    top = np.arange(25) >= 13
    assert hi[top].sum() > lo[top].sum()


def test_initial_belief(model, toy):
    b = initial_belief(model.states)
    assert b.sum() == pytest.approx(1.0, abs=1e-12)
    support = np.flatnonzero(b)
    assert len(support) == 12
    assert all(model.states.is_no_history(s) for s in support)
    assert np.allclose(initial_belief(toy.states), 1.0 / 3.0)


def test_belief_update_matches_direct_bayes(toy):
    rng = np.random.default_rng(8)
    for _ in range(100):
        b = rng.dirichlet(np.ones(3))
        a = int(rng.integers(3))
        z = int(rng.integers(6))
        post = toy.O[a, :, z] * (toy.T.T @ b)
        if post.sum() == 0:
            continue
        got = belief_update(toy, b, a, z)
        assert np.abs(got - post / post.sum()).max() < 1e-14


def test_belief_update_hand_example(toy):
    """Dirt-simple numbers: point mass on cell 2, observe from the aligned
    action; posterior over cell c must be prop. to P_move(c) * O[a, c, z]."""
    b = np.array([0.0, 1.0, 0.0])
    a = 1  # beam on cell 2 (single band)
    z = 4
    move = np.array([0.2, 0.6, 0.2])          # p=0.6, interior cell
    like = toy.O[a, :, z]
    want = move * like / (move * like).sum()
    got = belief_update(toy, b, a, z)
    assert np.abs(got - want).max() < 1e-14
    assert abs(got.sum() - 1.0) < 1e-12


def test_belief_update_point_mass_deterministic_transition(toy):
    """With a permutation kernel a point mass lands exactly on the successor."""
    perm = np.zeros((3, 3))
    perm[0, 1] = perm[1, 2] = perm[2, 0] = 1.0
    det = dataclasses.replace(toy, T=perm)
    for s in range(3):
        b = np.zeros(3)
        b[s] = 1.0
        for z in range(6):
            try:
                got = belief_update(det, b, 0, z)
            except ImpossibleObservation:
                continue
            want = np.zeros(3)
            want[(s + 1) % 3] = 1.0
            assert np.array_equal(got, want)


def test_belief_update_impossible_observation(toy):
    dead = toy.O.copy()
    dead[:, :, 5] = 0.0
    dead /= dead.sum(axis=2, keepdims=True)
    broken = dataclasses.replace(toy, O=dead)
    b = initial_belief(broken.states)
    with pytest.raises(ImpossibleObservation):
        belief_update(broken, b, 0, 5)


def test_observation_likelihoods_normalize(model):
    b = initial_belief(model.states)
    for a in (0, 17, 35):
        pz = observation_likelihoods(model, b, a)
        assert pz.shape == (25,)
        assert abs(pz.sum() - 1.0) < 1e-12
        # consistency: belief_update normalizer equals the likelihood
        z = int(np.argmax(pz))
        post = model.O[a, :, z] * (model.T.T @ b)
        assert post.sum() == pytest.approx(pz[z], rel=1e-12)


def test_band_restricted_model():
    sub = CFG.build_model(p=0.8, band_label="39ghz")
    assert len(sub.bands) == 1
    assert sub.num_actions == 12
    assert sub.bands[0].label == "39ghz"
    assert sub.num_states == 46


def test_model_validation():
    with pytest.raises(ValueError):
        CFG.build_model(p=0.8, band_label="7ghz")
    road = build_road(SceneConfig())
    with pytest.raises(ValueError):
        enumerate_actions(road, ())
