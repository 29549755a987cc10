"""Space enumeration, tensor assembly, thresholds, and belief updates."""

import dataclasses

import numpy as np
import pytest

from specbeam import artifacts, config, pomdp
from specbeam.arrays import PropagationConstants, expected_rate, gain, make_band
from specbeam.config import ExperimentConfig
from specbeam.geometry import SceneConfig, build_road
from specbeam.mobility import MobilityModel
from specbeam.pomdp import (belief_update, build_model, enumerate_actions,
                            initial_belief, snr_thresholds)
from _oracles import dead_bin_model, reference_belief_update, reference_model_tables

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
    # each gain row is the gain of its action's band and beam, bit for bit,
    # in the full model and in a one-band model sliced from the same table
    for m in (model, CFG.build_model(p=0.8, band_label="39ghz")):
        for a in range(m.num_actions):
            band = m.bands[m.actions.band_idx[a]]
            beam = m.road[m.actions.beam_cell[a] - 1]
            for c, cell in enumerate(m.road):
                want = gain(m.consts, band, cell.r_m, cell.theta, cell.phi,
                            beam.theta, beam.phi)
                assert m.gains[a, c] == want, (a, c)


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


FOUR_BANDS = [{"f_hz": 15.0e9, "bandwidth_hz": 90.0e6},
              {"f_hz": 28.0e9, "bandwidth_hz": 400.0e6},
              {"f_hz": 39.0e9, "bandwidth_hz": 100.0e6},
              {"f_hz": 73.0e9, "bandwidth_hz": 2.0e9}]


@pytest.mark.parametrize("bands", [None, FOUR_BANDS], ids=["default", "four_bands"])
def test_vectorized_tables_match_reference_loop(bands):
    """O is byte-identical to the per-(action, cell) loop; rbar is within
    1e-12 of the table built with the quadrature expected rate."""
    cfg = CFG if bands is None else ExperimentConfig.from_dict({"bands": bands})
    model = cfg.build_model()
    O, rbar = reference_model_tables(model)
    assert model.O.tobytes() == O.tobytes()
    assert np.all(rbar > 0)
    worst = np.max(np.abs(model.rbar / rbar - 1.0))
    print(f"worst relative gap rbar vs quadrature table: {worst:.3e}")
    assert worst < 1e-12


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


def _update(model, b, a, z):
    """belief_update on a batch of one: (posterior, impossible flag)."""
    post, impossible = belief_update(model, b[None, :], model.O[[a], :, [z]])
    return post[0], bool(impossible[0])


def test_belief_update_matches_direct_bayes(toy):
    rng = np.random.default_rng(8)
    b = rng.dirichlet(np.ones(3), size=100)
    a = rng.integers(3, size=100)
    z = rng.integers(6, size=100)
    got, impossible = belief_update(toy, b, toy.O[a, :, z])
    for i in range(100):
        post = toy.O[a[i], :, z[i]] * (toy.T.T @ b[i])
        if post.sum() == 0:
            assert impossible[i]
            continue
        assert not impossible[i]
        assert np.abs(got[i] - post / post.sum()).max() < 1e-14


def test_belief_update_rows_match_scalar_reference(model):
    """Every batched row has the scalar update's exact bits or is flagged."""
    rng = np.random.default_rng(14)
    n = 400
    b = rng.dirichlet(np.ones(model.num_states), size=n)
    b[::2] = np.eye(model.num_states)[rng.integers(model.num_states, size=n // 2)]
    a = rng.integers(model.num_actions, size=n)
    z = rng.integers(model.num_observations, size=n)
    got, impossible = belief_update(model, b, model.O[a, :, z])
    assert impossible.any() and not impossible.all()
    for i in range(n):
        pred = model.O[a[i], :, z[i]] * (model.T.T @ b[i])
        if impossible[i]:
            assert pred.sum() <= 1e-300
            assert np.array_equal(got[i], np.full(model.num_states, 1 / model.num_states))
        else:
            want = reference_belief_update(model, b[i], int(a[i]), int(z[i]))
            assert got[i].tobytes() == want.tobytes()
    dead = dead_bin_model(model)
    got, impossible = belief_update(dead, b, dead.O[a, :, 0])
    assert impossible.all()
    assert np.array_equal(got, np.full_like(got, 1 / model.num_states))


def test_belief_update_takes_gathered_likelihoods(model):
    """Rows gathered from models sharing T update bit for bit in one call."""
    sub = CFG.build_model(p=0.8, band_label="39ghz")
    rng = np.random.default_rng(21)
    n = 60
    b = rng.dirichlet(np.ones(model.num_states), size=2 * n)
    a = rng.integers(sub.num_actions, size=2 * n)
    z = rng.integers(model.num_observations, size=2 * n)
    lik = np.concatenate([model.O[a[:n], :, z[:n]], sub.O[a[n:], :, z[n:]]])
    got, impossible = belief_update(model, b, lik)
    for i in range(2 * n):
        m = model if i < n else sub
        pred = m.O[a[i], :, z[i]] * (m.T.T @ b[i])
        assert impossible[i] == (pred.sum() <= 1e-300)
        want = (np.full(model.num_states, 1 / model.num_states) if impossible[i]
                else reference_belief_update(m, b[i], int(a[i]), int(z[i])))
        assert got[i].tobytes() == want.tobytes()
    assert not impossible.all()


def test_belief_update_hand_example(toy):
    """Dirt-simple numbers: point mass on cell 2, observe from the aligned
    action; posterior over cell c must be prop. to P_move(c) * O[a, c, z]."""
    b = np.array([0.0, 1.0, 0.0])
    a = 1  # beam on cell 2 (single band)
    z = 4
    move = np.array([0.2, 0.6, 0.2])          # p=0.6, interior cell
    like = toy.O[a, :, z]
    want = move * like / (move * like).sum()
    got, impossible = _update(toy, b, a, z)
    assert not impossible
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
            got, impossible = _update(det, b, 0, z)
            if impossible:
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
    got, impossible = _update(broken, b, 0, 5)
    assert impossible
    assert np.array_equal(got, np.full(3, 1.0 / 3.0))


def test_observation_likelihoods_normalize(model):
    """P(z | b, a) sums to one, and averaging the posteriors over it gives
    back the predicted belief T^T b (total probability)."""
    b = initial_belief(model.states)
    zs = np.arange(model.num_observations)
    for a in (0, 17, 35):
        pz = model.O[a].T @ (model.T.T @ b)
        assert pz.shape == (25,)
        assert abs(pz.sum() - 1.0) < 1e-12
        posts, impossible = belief_update(model, np.tile(b, (25, 1)), model.O[a, :, zs])
        assert np.array_equal(impossible, pz <= 1e-300)
        mixed = (pz[~impossible, None] * posts[~impossible]).sum(axis=0)
        assert np.abs(mixed - model.T.T @ b).max() < 1e-12


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


def test_config_builds_slice_one_gain_table(monkeypatch):
    """Every build of a config reuses one gain table, bit for bit."""
    calls = []
    real_gain = pomdp.gain
    monkeypatch.setattr(pomdp, "gain", lambda *args: calls.append(1) or real_gain(*args))
    cfg = ExperimentConfig.from_dict({})
    d = cfg.raw["discretization"]
    for p in (0.95, 0.35):
        for agent in cfg.agent_names():
            label = cfg.band_label_for_agent(agent)
            cached = cfg.build_model(p=p, band_label=label)
            bands = tuple(b for b in cfg.bands() if label in (None, b.label))
            n_calls = len(calls)
            uncached = build_model(build_road(cfg.scene()), bands, cfg.constants(),
                                   cfg.mobility(p), d["num_levels"], d["low_db"],
                                   d["high_db"], cfg.raw["solver"]["discount"])
            assert len(calls) == n_calls + uncached.gains.size
            for name in ("gains", "O", "rbar", "T", "thresholds"):
                got, want = getattr(cached, name), getattr(uncached, name)
                assert got.shape == want.shape and got.strides == want.strides, (agent, name)
                assert got.tobytes() == want.tobytes(), (agent, p, name)
    num_cells, num_bands = cfg.raw["scene"]["num_cells"], len(cfg.raw["bands"])
    table_calls = num_cells * num_bands * num_cells
    uncached_calls = 2 * (table_calls + num_bands * num_cells * num_cells)
    assert len(calls) == table_calls + uncached_calls


def test_config_builds_each_chain_and_band_once(monkeypatch):
    """Builds in a mixed order make one T per p and one model per band, and
    each model's digest is an uncached build's."""
    chains, bands = [], []
    real_chain, real_build = pomdp.transition_matrix, config.build_model
    counted = lambda *args: chains.append(args[0].p) or real_chain(*args)
    monkeypatch.setattr(pomdp, "transition_matrix", counted)
    monkeypatch.setattr(config, "transition_matrix", counted)
    monkeypatch.setattr(config, "build_model",
                        lambda **kw: bands.append(kw["bands"]) or real_build(**kw))
    cfg = ExperimentConfig.from_dict({})
    order = [("sf39", 0.35), ("sm", 0.95), ("sm", 0.35), ("sf15", 0.95)]
    built = [cfg.build_model(p=p, band_label=cfg.band_label_for_agent(agent))
             for agent, p in order]
    assert chains == [0.35, 0.95] and len(bands) == 3
    monkeypatch.undo()
    d = cfg.raw["discretization"]
    for (agent, p), model in zip(order, built):
        label = cfg.band_label_for_agent(agent)
        uncached = build_model(build_road(cfg.scene()),
                               tuple(b for b in cfg.bands() if label in (None, b.label)),
                               cfg.constants(), cfg.mobility(p), d["num_levels"],
                               d["low_db"], d["high_db"], cfg.raw["solver"]["discount"])
        assert artifacts.model_digest(model) == artifacts.model_digest(uncached), (agent, p)


def test_config_models_share_read_only_tables():
    """A config's builds share O, rbar and the gains per band across p, and T
    per p across bands, all read-only; each digest is an uncached build's."""
    cfg = ExperimentConfig.from_dict({})
    d = cfg.raw["discretization"]
    built = {(p, agent): cfg.build_model(p=p, band_label=cfg.band_label_for_agent(agent))
             for p in (0.35, 0.95) for agent in cfg.agent_names()}
    for (p, agent), model in built.items():
        other_p = built[(0.95 if p == 0.35 else 0.35, agent)]
        assert model.mobility.p == p and model.T is not other_p.T
        for name in ("O", "rbar", "gains", "thresholds"):
            assert getattr(model, name) is getattr(other_p, name), (agent, name)
        assert model.T is built[(p, "sm")].T
        assert model.states == built[(p, "sm")].states
        for name in ("T", "O", "rbar", "gains", "thresholds"):
            table = getattr(model, name)
            assert not table.flags.writeable, (agent, name)
            with pytest.raises(ValueError, match="read-only"):
                table[(0,) * table.ndim] = 0.0
        label = cfg.band_label_for_agent(agent)
        uncached = build_model(build_road(cfg.scene()),
                               tuple(b for b in cfg.bands() if label in (None, b.label)),
                               cfg.constants(), cfg.mobility(p), d["num_levels"],
                               d["low_db"], d["high_db"], cfg.raw["solver"]["discount"])
        assert artifacts.model_digest(model) == artifacts.model_digest(uncached)
    again = cfg.build_model(p=0.35)
    assert again is not built[(0.35, "sm")] and again.O is built[(0.35, "sm")].O
