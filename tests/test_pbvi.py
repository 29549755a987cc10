"""Backup correctness, monotone values, expansion, and policy extraction."""

import dataclasses

import numpy as np
import pytest

from specbeam import pbvi
from specbeam.arrays import BandConfig, PropagationConstants
from specbeam.config import ExperimentConfig
from specbeam.mobility import MobilityModel, StateSpace
from specbeam.pbvi import (AlphaVector, BeliefSet, Policy, backup,
                           backup_stage, default_epsilon, expand_beliefs,
                           extract_action, initial_bound, solve,
                           _BELIEF_CHUNK, _backup_block, _cell_tensors,
                           _dedup_rows, _prune_dominated)
from specbeam.pomdp import PomdpModel, initial_belief
from _oracles import (bruteforce_backup, freudenthal_weights, projections,
                      reference_backup_block, simplex_grid)

CFG = ExperimentConfig.from_dict({})


@pytest.fixture(scope="module")
def model():
    return CFG.build_model(p=0.6)


@pytest.fixture(scope="module")
def toy():
    """3 cells, 1 band, window 1: converges quickly at discount 0.9."""
    from specbeam.arrays import make_band
    from specbeam.geometry import SceneConfig, build_road
    from specbeam.pomdp import build_model

    scene = SceneConfig(road_y_min_m=-30.0, road_y_max_m=30.0, num_cells=3)
    return build_model(build_road(scene), (make_band(CFG.aperture(), 15e9, 90e6),),
                       PropagationConstants(), MobilityModel(p=0.6, window=1),
                       num_levels=6, low_db=-10.0, high_db=50.0, discount=0.9)


def _tiny_model(rbar_rows: np.ndarray, discount: float = 0.9) -> PomdpModel:
    """Hand-assembled one-state model; rbar_rows has shape (num_actions, 1)."""
    states = StateSpace(num_cells=1, window=1, windows=((1,),))
    from specbeam.pomdp import ActionSpace

    n_a = len(rbar_rows)
    actions = ActionSpace(theta_hat=np.zeros(n_a), phi_hat=np.zeros(n_a),
                          band_idx=np.zeros(n_a, dtype=int),
                          beam_cell=np.ones(n_a, dtype=int))
    return PomdpModel(
        states=states, actions=actions,
        T=np.array([[1.0]]),
        O=np.tile(np.array([0.5, 0.5]), (n_a, 1, 1)),
        rbar=np.asarray(rbar_rows, dtype=float),
        gains=np.zeros((n_a, 0)),
        thresholds=np.array([1.0]),
        discount=discount,
        road=(), bands=(BandConfig(f_hz=1e9, bandwidth_hz=1e6, n_y=1, n_z=1),),
        consts=PropagationConstants(), mobility=MobilityModel(p=0.5, window=1))


def test_initial_bound_formula(model):
    bound = initial_bound(model)
    assert bound.action == 0
    want = model.rbar.min() / (1.0 - model.discount)
    assert np.allclose(bound.values, want)
    assert np.all(bound.values >= 0)
    # discount 0.99 -> multiplier 100 on the minimum expected reward
    assert want == pytest.approx(100.0 * model.rbar.min(), rel=1e-12)


def test_repeated_backup_converges_to_geometric_sum():
    tiny = _tiny_model(np.array([[3.0], [7.0]]), discount=0.9)
    alphas = [initial_bound(tiny)]
    b = np.array([1.0])
    for _ in range(400):
        alphas = [backup(tiny, b, alphas)]
    assert alphas[0].values[0] == pytest.approx(7.0 / (1.0 - 0.9), rel=1e-9)
    assert alphas[0].action == 1


def test_backup_matches_bruteforce_oracle(model):
    rng = np.random.default_rng(9)
    bound = initial_bound(model)
    for trial in range(8):
        n_extra = int(rng.integers(1, 5))
        alpha_mat = np.vstack([
            bound.values[None, :],
            bound.values[None, :] * (1.0 + rng.random((n_extra, model.num_states)))])
        alphas = [AlphaVector(values=row, action=int(rng.integers(model.num_actions)))
                  for row in alpha_mat]
        b = rng.dirichlet(np.ones(model.num_states))
        got = backup(model, b, alphas)
        want_vec, want_act, want_val = bruteforce_backup(
            model.T, model.O, model.rbar, model.discount, b, alpha_mat)
        assert got.action == want_act
        rel = np.abs(got.values - want_vec).max() / np.abs(want_vec).max()
        assert rel < 1e-12
        assert float(b @ got.values) == pytest.approx(want_val, rel=1e-12)


def _tied_alphas(model, tb, rng, num_random):
    """Alpha rows with duplicates, exact score ties and near ties.

    Three top rows outscore the random ones at most (a, z). A tie row
    copies a top row and changes it only on states that no row of `tb`
    reaches, so both have the same exact score at every (a, z). A near-tie
    row is a top row moved up by one ulp.
    """
    bound = initial_bound(model).values
    base = bound[None, :] * (1.0 + rng.random((num_random, model.num_states)))
    top = 1.5 * base[:3]
    unreached = np.flatnonzero((tb == 0.0).all(axis=0))
    ties = top.copy()
    ties[:, unreached] *= 2.0
    near = np.nextafter(top, np.inf)
    return np.vstack([base[:2], bound[None, :], base, top, ties, near, top[1:3],
                      bound[None, :]])


def _point_heavy_beliefs(model, n, rng):
    """Beliefs on the first three cells, every third one a point mass."""
    near = np.flatnonzero(model.states.cells() <= 2)
    pts = np.zeros((n, model.num_states))
    pts[:, near] = rng.dirichlet(np.ones(len(near)), size=n)
    rows = np.arange(0, n, 3)
    pts[rows] = 0.0
    pts[rows, near[rows % len(near)]] = 1.0
    return pts


@pytest.mark.parametrize("band", [None, "39ghz"])
@pytest.mark.parametrize("num_random", [3, 200])
def test_backup_block_matches_reference_kernel(band, num_random):
    """The max-reduce kernel returns the all-argmax kernel's exact bits."""
    sub = CFG.build_model(p=0.6, band_label=band)
    e, oz = _cell_tensors(sub)
    assert not oz.any(axis=0).all()     # some (a, z) columns are zero everywhere
    rng = np.random.default_rng(21)
    for n in (1, _BELIEF_CHUNK - 1, _BELIEF_CHUNK + 1, 70):
        point = _point_heavy_beliefs(sub, n, rng) @ sub.T
        dense = rng.dirichlet(np.ones(sub.num_states), size=n)
        for tb in (point, dense):
            alpha_mat = _tied_alphas(sub, tb, rng, num_random)
            got_vec, got_act = _backup_block(sub, tb, alpha_mat, e, oz)
            want_vec, want_act = reference_backup_block(sub, tb, alpha_mat, e, oz)
            assert np.array_equal(got_act, want_act), n
            assert np.array_equal(got_vec, want_vec), n


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_solve_bytes_match_reference_kernel(p, monkeypatch):
    """Whole solves with either kernel give the same policy bytes and log."""
    full = CFG.build_model(p=p)
    b0 = initial_belief(full.states)
    got = solve(full, b0, num_stages=2)
    monkeypatch.setattr(pbvi, "_backup_block", reference_backup_block)
    want = solve(full, b0, num_stages=2)
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert np.array_equal(got.actions, want.actions)
    assert got.metadata["stages"] == want.metadata["stages"]


def test_backup_value_improves_on_loose_bound(model):
    bound = initial_bound(model)
    b0 = initial_belief(model.states)
    improved = backup(model, b0, [bound])
    assert float(b0 @ improved.values) > float(b0 @ bound.values)


def test_projection_reference_agrees_with_kernel(model):
    """Scores via the full projection tensor match the cell-factorized path."""
    rng = np.random.default_rng(10)
    alpha_mat = rng.random((3, model.num_states)) * 1e9
    proj = projections(model.T, model.O, alpha_mat)    # (V, A, Z, S)
    b = rng.dirichlet(np.ones(model.num_states))
    tb = b @ model.T
    want_scores = proj @ b                             # (V, A, Z)
    got_scores = np.einsum("s,azs,vs->vaz", tb,
                           model.O.transpose(0, 2, 1), alpha_mat)
    assert np.abs(want_scores - got_scores).max() / np.abs(want_scores).max() < 1e-12


def test_backup_stage_monotone_values(model):
    """Cold start on the full instance: values only ever move up.

    With discount 0.99 the gap from the pessimistic bound shrinks by a
    factor 0.99 per sweep, so the stage is expected to hit the sweep cap
    long before the epsilon test fires; monotonicity must hold regardless.
    """
    b0 = initial_belief(model.states)
    rng = np.random.default_rng(0)
    extra = rng.dirichlet(np.ones(model.num_states), size=7)
    beliefs = BeliefSet(points=np.vstack([b0[None, :], extra]))
    bound = initial_bound(model)
    mat, acts, tracked, info = backup_stage(
        model, beliefs, bound.values[None, :], np.array([bound.action]),
        epsilon=default_epsilon(model), max_sweeps=120, collect_history=True)
    hist = info["value_history"]
    print(f"sweeps={info['sweeps']} converged={info['converged']}")
    assert np.diff(hist, axis=0).min() >= 0.0
    assert np.abs(hist[-1] - tracked).max() == 0.0
    # retained values are honest: each equals max over the final alpha set
    surf = (beliefs.points @ mat.T).max(axis=1)
    assert np.all(surf >= tracked - 1e-6 * np.abs(tracked))
    assert len(mat) == len(acts) <= len(beliefs) + 1


def test_backup_stage_converges_then_fixed_point(toy):
    """Discount 0.9 instance converges, and a rerun stops after one sweep."""
    b0 = initial_belief(toy.states)
    rng = np.random.default_rng(3)
    beliefs = BeliefSet(points=np.vstack(
        [b0[None, :], rng.dirichlet(np.ones(toy.num_states), size=5)]))
    bound = initial_bound(toy)
    eps = default_epsilon(toy)
    mat, acts, tracked, info = backup_stage(
        model=toy, beliefs=beliefs, alphas_mat=bound.values[None, :],
        alpha_actions=np.array([bound.action]), epsilon=eps)
    print(f"toy stage sweeps: {info['sweeps']}")
    assert info["converged"] and 1 < info["sweeps"] < 500
    _, _, tracked2, info2 = backup_stage(toy, beliefs, mat, acts, eps,
                                         tracked=tracked)
    assert info2["sweeps"] == 1
    assert float(np.abs(tracked2 - tracked).max()) < eps


def test_expand_beliefs_growth_and_determinism(model):
    b0 = initial_belief(model.states)
    beliefs = BeliefSet(points=b0[None, :])
    seed = np.random.SeedSequence((42, 1))
    grown = expand_beliefs(model, beliefs, seed, round_id=1)
    assert len(beliefs) < len(grown) <= 2 * len(beliefs)
    again = expand_beliefs(model, beliefs, np.random.SeedSequence((42, 1)), 1)
    assert np.array_equal(grown.points, again.points)
    assert grown.provenance[:1] == [0] and set(grown.provenance[1:]) == {1}
    # all rows are proper beliefs, no duplicates
    assert np.abs(grown.points.sum(axis=1) - 1.0).max() < 1e-12
    assert len({row.tobytes() for row in grown.points}) == len(grown)
    two = expand_beliefs(model, grown, np.random.SeedSequence((42, 2)), 2)
    assert len(two) <= 2 * len(grown)


def test_expand_point_mass_deterministic_dynamics(model):
    perm = np.zeros_like(model.T)
    order = np.roll(np.arange(model.num_states), -1)
    perm[np.arange(model.num_states), order] = 1.0
    det = dataclasses.replace(model, T=perm)
    b = np.zeros(model.num_states)
    b[17] = 1.0
    grown = expand_beliefs(det, BeliefSet(points=b[None, :]),
                           np.random.SeedSequence(3), round_id=1)
    assert len(grown) == 2
    want = np.zeros(model.num_states)
    want[order[17]] = 1.0
    assert np.array_equal(grown.points[1], want)


def test_solve_zero_stages_is_blind_bound(model):
    pol = solve(model, initial_belief(model.states), num_stages=0, seed=1)
    bound = initial_bound(model)
    assert pol.alpha.shape == (1, model.num_states)
    assert np.array_equal(pol.alpha[0], bound.values)
    assert pol.actions[0] == bound.action


def test_solve_determinism_and_metadata():
    sub = CFG.build_model(p=0.6, band_label="15ghz")
    b0 = initial_belief(sub.states)
    a = solve(sub, b0, num_stages=2, expansions_per_stage=1, seed=5)
    b = solve(sub, b0, num_stages=2, expansions_per_stage=1, seed=5)
    assert a.alpha.tobytes() == b.alpha.tobytes()
    assert np.array_equal(a.actions, b.actions)
    assert a.metadata["num_beliefs"] == b.metadata["num_beliefs"]
    assert a.metadata["seed"] == 5
    assert len(a.metadata["stages"]) == 2
    c = solve(sub, b0, num_stages=2, expansions_per_stage=1, seed=6)
    assert c.alpha.shape != a.alpha.shape or a.alpha.tobytes() != c.alpha.tobytes()
    assert a.value(b0) > initial_bound(sub).values[0]


def test_extract_action_rules(model):
    rng = np.random.default_rng(12)
    alpha = rng.random((5, model.num_states)) * 1e9
    acts = np.array([3, 7, 1, 30, 22])
    pol = Policy(alpha=alpha, actions=acts)
    for s in range(0, model.num_states, 7):
        b = np.zeros(model.num_states)
        b[s] = 1.0
        assert extract_action(pol, b) == acts[int(np.argmax(alpha[:, s]))]
    b = rng.dirichlet(np.ones(model.num_states))
    want = acts[int(np.argmax(alpha @ b))]
    assert extract_action(pol, b) == want
    scaled = Policy(alpha=alpha * 7.5, actions=acts)
    assert extract_action(scaled, b) == want
    # ties resolve to the lowest vector index
    dup = Policy(alpha=np.vstack([alpha[0], alpha[0]]), actions=np.array([9, 4]))
    assert extract_action(dup, b) == 9


def test_dedup_and_dominance_pruning():
    mat = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 1.0], [2.0, 0.1]])
    acts = np.array([0, 1, 2, 3])
    ded, dacts = _dedup_rows(mat, acts)
    assert ded.shape == (3, 2)
    assert list(dacts) == [0, 2, 3]
    pruned, pacts = _prune_dominated(ded, dacts)
    assert pruned.shape == (2, 2)
    assert list(pacts) == [0, 3]
    one, oacts = _prune_dominated(mat[:1], acts[:1])
    assert np.array_equal(one, mat[:1]) and list(oacts) == [0]


def test_simplex_interpolation_oracle_is_exact_on_linear():
    """Sanity for the grid-VI oracle used in the acceptance suite."""
    rng = np.random.default_rng(13)
    coeffs = rng.random(3) * 5.0
    grid = simplex_grid(3, 10)
    assert len(grid) == 66          # C(12, 2) compositions of 10 into 3
    assert np.abs(grid.sum(axis=1) - 1.0).max() < 1e-12
    for _ in range(200):
        b = rng.dirichlet(np.ones(3))
        parts = freudenthal_weights(b, 10)
        w_sum = sum(w for _, w in parts)
        interp = sum(w * coeffs @ (np.array(comp) / 10.0) for comp, w in parts)
        assert w_sum == pytest.approx(1.0, abs=1e-9)
        assert interp == pytest.approx(float(coeffs @ b), abs=1e-9)
        for comp, _ in parts:
            assert sum(comp) == 10 and min(comp) >= 0


def test_solver_input_validation(model):
    with pytest.raises(ValueError):
        solve(model, initial_belief(model.states), num_stages=-1)
    with pytest.raises(ValueError):
        solve(model, initial_belief(model.states), expansions_per_stage=0)
    with pytest.raises(ValueError):
        expand_beliefs(model, BeliefSet(points=initial_belief(model.states)[None, :]),
                       np.random.SeedSequence(0), 1, metric="cosine")
