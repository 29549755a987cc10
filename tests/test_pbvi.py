"""Backup correctness, monotone values, expansion, and policy extraction."""

import dataclasses
import functools
import os
import subprocess
import sys

import numpy as np
import pytest

from specbeam import pbvi
from specbeam.arrays import BandConfig, PropagationConstants
from specbeam.config import ExperimentConfig
from specbeam.mobility import MobilityModel, StateSpace
from specbeam.pbvi import (Policy, backup_stage, default_epsilon,
                           expand_beliefs, first_near_max, initial_bound,
                           solve, tie_tolerance, _backup_block, _cell_tensors,
                           _dedup_rows, _prune_dominated)
from specbeam.pomdp import PomdpModel, initial_belief
from specbeam.simulate import PolicyAgent
import _oracles
from _oracles import (backup_at, bruteforce_backup, edge_margins,
                      freudenthal_weights, lowest_in_band, mdp_upper_bound,
                      projections, reference_backup_block, reference_backup_stage,
                      reference_evaluate_plans, reference_expand_beliefs,
                      reference_prune_dominated, sequential_successor_weights,
                      simplex_grid)

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
    actions = ActionSpace(band_idx=np.zeros(n_a, dtype=int),
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
    assert bound.shape == (model.num_states,)
    want = model.rbar.min() / (1.0 - model.discount)
    assert np.allclose(bound, want)
    assert np.all(bound >= 0)
    # discount 0.99 -> multiplier 100 on the minimum expected reward
    assert want == pytest.approx(100.0 * model.rbar.min(), rel=1e-12)


def test_repeated_backup_converges_to_geometric_sum():
    tiny = _tiny_model(np.array([[3.0], [7.0]]), discount=0.9)
    vec, act = initial_bound(tiny), 0
    b = np.array([1.0])
    for _ in range(400):
        vec, act = backup_at(tiny, b, vec[None, :])
    assert vec[0] == pytest.approx(7.0 / (1.0 - 0.9), rel=1e-9)
    assert act == 1


def test_backup_matches_bruteforce_oracle(model):
    rng = np.random.default_rng(9)
    bound = initial_bound(model)
    for trial in range(8):
        n_extra = int(rng.integers(1, 5))
        alpha_mat = np.vstack([
            bound[None, :],
            bound[None, :] * (1.0 + rng.random((n_extra, model.num_states)))])
        b = rng.dirichlet(np.ones(model.num_states))
        got_vec, got_act = backup_at(model, b, alpha_mat)
        want_vec, want_act, want_val = bruteforce_backup(
            model.T, model.O, model.rbar, model.discount, b, alpha_mat)
        assert got_act == want_act
        rel = np.abs(got_vec - want_vec).max() / np.abs(want_vec).max()
        assert rel < 1e-12
        assert float(b @ got_vec) == pytest.approx(want_val, rel=1e-12)


def _tied_alphas(model, tb, rng, num_random):
    """Alpha rows with duplicates, exact score ties and near ties.

    Three top rows outscore the random ones at most (a, z). A tie row
    copies a top row and changes it only on states that no row of `tb`
    reaches, so both have the same exact score at every (a, z). A near-tie
    row is a top row moved up by one ulp.
    """
    bound = initial_bound(model)
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


def _reference_kernel(model, tb, alpha_mat, cells, tol):
    """_oracles.reference_backup_block behind the solver kernel's signature."""
    e, oz = cells[:2]
    return reference_backup_block(model, tb, alpha_mat, e, oz, tol)


def _assert_kernels_agree(model, tb, alpha_mat):
    cells = _cell_tensors(model)
    tol = tie_tolerance(model)
    got = _backup_block(model, tb, alpha_mat, cells, tol)
    want = _reference_kernel(model, tb, alpha_mat, cells, tol)
    for name, g, w in zip(("vectors", "actions", "picks"), got, want):
        assert np.array_equal(g, w), (name, len(tb), len(alpha_mat))
    return got


@pytest.mark.parametrize("band", [None, "39ghz"])
@pytest.mark.parametrize("num_random", [3, 200])
def test_backup_block_matches_reference_kernel(band, num_random):
    """The live-column kernel returns the all-column kernel's exact bits."""
    sub = CFG.build_model(p=0.6, band_label=band)
    assert not _cell_tensors(sub)[1].any(axis=0).all()     # some (a, z) columns are dead
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 70):
        point = _point_heavy_beliefs(sub, n, rng) @ sub.T
        dense = rng.dirichlet(np.ones(sub.num_states), size=n)
        for tb in (point, dense):
            _assert_kernels_agree(sub, tb, _tied_alphas(sub, tb, rng, num_random))


@pytest.mark.parametrize("band", [None, "39ghz"])
def test_backup_block_matches_reference_kernel_at_full_size(band):
    """The default solve's last round: 256 beliefs against over 200 tied vectors."""
    sub = CFG.build_model(p=0.6, band_label=band)
    rng = np.random.default_rng(22)
    tb = np.vstack([_point_heavy_beliefs(sub, 128, rng),
                    rng.dirichlet(np.ones(sub.num_states), size=128)]) @ sub.T
    alpha_mat = _tied_alphas(sub, tb, rng, 200)
    assert len(tb) == 256 and len(alpha_mat) >= 200
    _assert_kernels_agree(sub, tb, alpha_mat)


def test_backup_block_picks_row_0_on_dead_columns():
    """Where the chosen action's observation z is impossible in every cell,
    every vector scores 0 and the rule picks row 0, as the reference does."""
    sub = CFG.build_model(p=0.6)
    dead = ~_cell_tensors(sub)[1].any(axis=0).reshape(sub.num_actions, -1)
    rng = np.random.default_rng(23)
    tb = rng.dirichlet(np.ones(sub.num_states), size=40)
    _, acts, picks = _assert_kernels_agree(sub, tb, _tied_alphas(sub, tb, rng, 20))
    on_dead = dead[acts]                                    # (N, Z)
    assert on_dead.sum() >= 40                              # the case occurs, often
    assert (picks[on_dead] == 0).all()
    assert (picks[~on_dead] != 0).all()                     # row 0 never wins a live one


def _screen_spy(monkeypatch) -> list:
    """Record the arguments and results of every pbvi._screen call from now on."""
    seen, screen = [], pbvi._screen

    def spy(model, cells, ht, reward):
        totals, floor = screen(model, cells, ht, reward)
        seen.append((model, cells, ht, reward, totals, floor))
        return totals, floor
    monkeypatch.setattr(pbvi, "_screen", spy)
    return seen


@pytest.mark.parametrize("power", [200, -200])
def test_backup_block_screen_at_scaled_rewards(power):
    """Rewards, and so vectors and projections, scaled by 2^+-200: the
    screen's power-of-two shift brings them into float32's range."""
    sub = CFG.build_model(p=0.6)
    scaled = dataclasses.replace(sub, rbar=sub.rbar * 2.0 ** power)
    rng = np.random.default_rng(24)
    for tb in (_point_heavy_beliefs(scaled, 30, rng) @ scaled.T,
               rng.dirichlet(np.ones(scaled.num_states), size=30)):
        _assert_kernels_agree(scaled, tb, _tied_alphas(scaled, tb, rng, 40))


def test_backup_block_screen_on_zero_vectors_and_zero_beliefs():
    """All-zero alpha rows, and rows of tb (and so of Ht) that are all 0:
    every action ties on its reward or on 0, and the rule decides."""
    sub = CFG.build_model(p=0.6)
    rng = np.random.default_rng(25)
    tb = rng.dirichlet(np.ones(sub.num_states), size=12)
    tb[[0, 5, 11]] = 0.0
    alpha_mat = _tied_alphas(sub, tb, rng, 10)
    alpha_mat[[0, 4]] = 0.0
    _assert_kernels_agree(sub, tb, alpha_mat)
    _, acts, _ = _assert_kernels_agree(sub, tb, np.zeros((3, sub.num_states)))
    assert (acts[[0, 5, 11]] == 0).all()


def test_backup_block_screen_on_vanishing_beliefs():
    """Predicted beliefs of mass 1e-300 down to subnormal: the shift is
    capped, so both the projections' flush and OZ's flush set entries to 0."""
    sub = CFG.build_model(p=0.6)
    rng = np.random.default_rng(26)
    base = np.vstack([_point_heavy_beliefs(sub, 9, rng),
                      rng.dirichlet(np.ones(sub.num_states), size=9)]) @ sub.T
    for mass in (1e-300, 1e-310, 5e-324):
        tb = base * mass
        _assert_kernels_agree(sub, tb, _tied_alphas(sub, tb, rng, 30))


def test_backup_block_screen_band_edges(monkeypatch):
    """Actions whose totals lie rho/4 and 4 rho below the top, rho the
    screen band: the first is a candidate and the second is not."""
    x, v = 1e12, 3e11
    tiny = _tiny_model(np.zeros((3, 1)), discount=0.9)
    rho = pbvi._SCREEN_BAND * pbvi._screen_error(1, tiny.num_observations)
    totals = x * np.array([1.0 - rho / 4, 1.0 - 4 * rho, 1.0])
    tiny = dataclasses.replace(tiny, rbar=(totals - 0.9 * v)[:, None])
    seen = _screen_spy(monkeypatch)
    _, acts, _ = _assert_kernels_agree(tiny, np.array([[1.0]]), np.array([[v], [v / 2]]))
    screened, floor = seen[0][4:]
    assert (screened >= floor).tolist() == [[True, False, True]]
    assert acts.tolist() == [2]


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_screen_keeps_every_action_in_the_rule_band(p, monkeypatch):
    """Every backup of a 2-stage default solve: each action that the rule's
    band holds, by the float64 totals over all columns the kernel computed
    before the screen, is a screen candidate, and some beliefs hold several."""
    model = CFG.build_model(p=p)
    seen = _screen_spy(monkeypatch)
    solve(model, initial_belief(model.states), num_stages=2)
    tol, several = tie_tolerance(model), 0
    for _, cells, ht, reward, screened, floor in seen:
        oz = cells[1]
        maxima = np.stack([(h.T @ oz).max(axis=0) for h in ht])
        exact = reward + model.discount * maxima.reshape(*reward.shape, -1).sum(axis=2)
        top = exact.max(axis=1, keepdims=True)
        in_band = exact >= top - _oracles.band_width(top, tol)
        candidate = screened >= floor
        assert not (in_band & ~candidate).any()
        several += int((candidate.sum(axis=1) > 1).sum())
    assert len(seen) > 20 and several > 0


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_solve_improvement_path_matches_reference_stage(p, monkeypatch):
    """With both evaluation paths adopting nothing, solves match the stage without them.

    The plan bookkeeping and the duplicate filter then leave the improvement sweeps' policy bytes and stage log as the
    earlier stage code gives them.
    """
    full = CFG.build_model(p=p)
    b0 = initial_belief(full.states)
    with monkeypatch.context() as patch:
        patch.setattr(pbvi, "_evaluate_plans", lambda *args: 0)
        patch.setattr(pbvi, "_solve_plans", lambda *args: 0)
        got = solve(full, b0, num_stages=2)
    with monkeypatch.context() as patch:
        patch.setattr(pbvi, "backup_stage", reference_backup_stage)
        want = solve(full, b0, num_stages=2)
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert np.array_equal(got.actions, want.actions)
    assert got.metadata["stages"] == want.metadata["stages"]
    # and the evaluation sweeps do run and change the policy
    live = solve(full, b0, num_stages=2)
    assert sum(st["eval_sweeps"] for st in live.metadata["stages"]) > 0
    assert live.alpha.tobytes() != got.alpha.tobytes()


def _assert_below_mdp_bound(model, policy):
    bound = mdp_upper_bound(model.T, model.rbar, model.discount)
    excess = (policy.alpha - bound[None, :]).max()
    print(f"largest excess over the MDP bound: {excess / bound.max():+.3%}")
    # no slack beyond rounding: every vector is the value of a plan
    assert excess <= 1e-9 * bound.max()


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_solve_alphas_below_mdp_upper_bound(p):
    """Every alpha of a solve is a lower bound, so it stays below V_MDP."""
    full = CFG.build_model(p=p)
    policy = solve(full, initial_belief(full.states), num_stages=2)
    assert sum(st["eval_sweeps"] for st in policy.metadata["stages"]) > 0
    _assert_below_mdp_bound(full, policy)


def test_toy_alphas_below_mdp_upper_bound():
    """The acceptance c05 toy, solved with the default schedule."""
    from specbeam.arrays import make_band
    from specbeam.geometry import SceneConfig, build_road
    from specbeam.pomdp import build_model

    scene = SceneConfig(road_y_min_m=-30.0, road_y_max_m=30.0, num_cells=3)
    toy = build_model(build_road(scene), (make_band(CFG.aperture(), 15e9, 90e6),),
                      PropagationConstants(), MobilityModel(p=0.6, window=1),
                      num_levels=8, low_db=-10.0, high_db=60.0, discount=0.9)
    policy = solve(toy, initial_belief(toy.states), seed=0)
    _assert_below_mdp_bound(toy, policy)


def test_mdp_upper_bound_oracle_on_tiny_model():
    """One state, rewards 3 and 7 at discount 0.9: the bound is 7 / 0.1."""
    tiny = _tiny_model(np.array([[3.0], [7.0]]), discount=0.9)
    bound = mdp_upper_bound(tiny.T, tiny.rbar, tiny.discount)
    assert bound[0] >= 70.0
    assert bound[0] == pytest.approx(70.0, rel=1e-8)


_SOLVE_CASES = [(None, 0.35), (None, 0.95), ("39ghz", 0.95)]


@functools.lru_cache(maxsize=None)
def _live_solve(band, p):
    """The 2-stage solve with the live-column kernel, shared by the tests below."""
    full = CFG.build_model(p=p, band_label=band)
    return full, solve(full, initial_belief(full.states), num_stages=2)


def _assert_solve_matches_reference(band, p, monkeypatch):
    full, got = _live_solve(band, p)
    with monkeypatch.context() as mp:
        mp.setattr(pbvi, "_backup_block", _reference_kernel)
        want = solve(full, initial_belief(full.states), num_stages=2)
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert np.array_equal(got.actions, want.actions)
    assert got.metadata["stages"] == want.metadata["stages"]


@pytest.mark.parametrize("band, p", _SOLVE_CASES, ids=["0.35", "0.95", "39ghz-0.95"])
def test_solve_bytes_match_reference_kernel(band, p, monkeypatch):
    """Whole solves with either kernel give the same policy bytes and log."""
    _assert_solve_matches_reference(band, p, monkeypatch)


@pytest.mark.parametrize("band, p", _SOLVE_CASES)
def test_solve_bytes_do_not_depend_on_chunk(band, p, monkeypatch):
    """The chunk of the score product shapes BLAS rounding, not the policy.

    The live kernel's products have other shapes than the reference's;
    solves still match the reference scored in chunks of 1, 16 and 64
    beliefs, as they match it at its own 32.
    """
    for chunk in (1, 16, 64):
        monkeypatch.setattr(_oracles, "REFERENCE_CHUNK", chunk)
        _assert_solve_matches_reference(band, p, monkeypatch)


@functools.lru_cache(maxsize=None)
def _evaluated_plan_sets():
    """The model and, per round of 8, 16, 32 and 64 beliefs of the benchmark's
    3-stage sm solve at p=0.95, copies of the array arguments of the round's
    first _evaluate_plans call (some beliefs still unplanned) and of its last."""
    full = CFG.build_model(p=0.95)
    sets: dict[int, list] = {}

    def spy(model, beliefs, anchors, tracked, planned, plan_acts, succ, *rest):
        args = tuple(x.copy() for x in (beliefs, anchors, tracked, planned, plan_acts, succ))
        sets.setdefault(len(beliefs), [args, None])[1] = args
        return evaluate(model, beliefs, anchors, tracked, planned, plan_acts, succ, *rest)

    evaluate = pbvi._evaluate_plans
    pbvi._evaluate_plans = spy
    try:
        solve(full, initial_belief(full.states), num_stages=3)
    finally:
        pbvi._evaluate_plans = evaluate
    return full, sets


@pytest.mark.parametrize("size", [8, 16, 32, 64])
def test_grouped_evaluation_sweep_matches_reference(size):
    """One sweep over each row's distinct successors gives the nodes of the
    per-observation sweep to a relative 1e-12, on a round's first plan set,
    where some successors are unplanned beliefs held at their anchors, and on
    its last, where every belief is planned. A tracked value of -inf makes
    every planned row adopt its node."""
    full, sets = _evaluated_plan_sets()
    first, last = sets[size]
    assert first[3].sum() < size == last[3].sum()
    assert (~first[3][first[5][first[3]]]).any()            # successors left unplanned
    tol = tie_tolerance(full)
    for beliefs, anchors, tracked, planned, plan_acts, succ in (first, last):
        tracked = np.where(planned, -np.inf, tracked)
        got, got_vals = anchors.copy(), tracked.copy()
        want, want_vals = anchors.copy(), tracked.copy()
        assert pbvi._evaluate_plans(full, beliefs, got, got_vals, planned, plan_acts,
                                    succ, 0.0, tol, 1) == 1
        assert reference_evaluate_plans(full, beliefs, want, want_vals, planned,
                                        plan_acts, succ, 0.0, tol, 1) == 1
        assert got[~planned].tobytes() == anchors[~planned].tobytes()
        assert not np.array_equal(got[planned], anchors[planned])
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.allclose(got_vals, want_vals, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("band, p", _SOLVE_CASES, ids=["0.35", "0.95", "39ghz-0.95"])
def test_solve_matches_reference_evaluation_sweeps(band, p, monkeypatch):
    """Whole 2-stage solves with the per-observation sweeps patched in take
    the same actions and log, and reach V(b0) within a relative 1e-9."""
    full, got = _live_solve(band, p)
    with monkeypatch.context() as mp:
        mp.setattr(pbvi, "_evaluate_plans", reference_evaluate_plans)
        want = solve(full, initial_belief(full.states), num_stages=2)
    assert sum(st["eval_sweeps"] for st in got.metadata["stages"]) > 0
    assert np.array_equal(got.actions, want.actions)
    assert got.metadata["stages"] == want.metadata["stages"]
    b0 = initial_belief(full.states)
    assert got.value(b0) == pytest.approx(want.value(b0), rel=1e-9, abs=0.0)


def test_tie_rule_matches_oracle():
    """The tolerance and the rule agree with their restatement in _oracles."""
    for m in (CFG.build_model(p=0.6), CFG.build_model(p=0.35, band_label="39ghz"),
              _tiny_model(np.array([[3.0], [7.0]]))):
        assert tie_tolerance(m) == _oracles.tie_tolerance(m)
    sm = CFG.build_model(p=0.95)
    k = 2 * 46 + 12 + 25 + 1                    # 2|S| + C + M_z + 1
    assert tie_tolerance(sm) == pytest.approx(4 * k * 2.0 ** -53, rel=1e-12)
    tol = 1e-12
    row = np.array([1.0 - 2e-12, 1.0 - 0.5e-12, 1.0, 1.0])
    assert first_near_max(row, tol) == 1        # in the band, not the argmax
    assert first_near_max(np.array([-5.0, -1.0 - 0.5e-12, -1.0]), tol) == 1
    assert first_near_max(np.array([0.0, 0.0]), tol) == 0
    # candidates 0 and 1 sit 1e-12 and 0.5e-12 from the floor 1 - 1e-12
    assert edge_margins(row, tol, 0) == pytest.approx(0.5e-12, rel=1e-3)
    rng = np.random.default_rng(5)
    base = rng.random((6, 5, 4))
    nudged = base * (1.0 + rng.choice([0.0, 0.4e-12, 0.9e-12, 2e-12], size=base.shape))
    for scores in (base, nudged, np.round(base, 1), -nudged):
        for axis in range(3):
            assert np.array_equal(first_near_max(scores, tol, axis=axis),
                                  lowest_in_band(scores, tol, axis)), axis
    # adoption: fresh must beat the retained value by more than the band
    fresh = rng.random(60) * 1e11
    kept = fresh * (1.0 - rng.choice([-1e-12, 0.0, 0.5e-12, 2e-12], size=60))
    assert np.array_equal(pbvi._beats(fresh, kept, tol), _oracles.adopts(fresh, kept, tol))
    assert 0 < pbvi._beats(fresh, kept, tol).sum() < (kept < fresh).sum()


_SOLVE_HASHES = """
import hashlib
from specbeam.config import ExperimentConfig
from specbeam.pbvi import solve
from specbeam.pomdp import initial_belief
cfg = ExperimentConfig.from_dict({})
for band, p, stages in ((None, 0.95, 3), ("39ghz", 0.95, 3), (None, 0.35, 1)):
    model = cfg.build_model(p=p, band_label=band)
    pol = solve(model, initial_belief(model.states), num_stages=stages)
    print(hashlib.sha256(pol.alpha.tobytes() + pol.actions.tobytes()).hexdigest())
"""


def test_solve_bytes_do_not_depend_on_blas_threads():
    """3-stage sm and sf39 at p=0.95, and 1-stage sm at p=0.35, under one
    and two OpenBLAS threads. The 1-stage solve plans at most 4 beliefs, so
    the block solves of _solve_plans do all of its evaluation.

    OpenBLAS reads its thread count when numpy loads, so each count gets
    its own interpreter.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(pbvi.__file__)))
    hashes = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", _SOLVE_HASHES], capture_output=True,
                              text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 3
    assert hashes[0] == hashes[1]


def _expansion_sets(model, rng):
    """Four belief sets: b0, two rounds of growth from it, point-heavy, dense."""
    b0 = initial_belief(model.states)[None, :]
    grown = reference_expand_beliefs(model, b0, np.random.SeedSequence(1))
    grown = reference_expand_beliefs(model, grown, np.random.SeedSequence(2))
    dense = rng.dirichlet(np.ones(model.num_states), size=6)
    return [b0, grown, _point_heavy_beliefs(model, 9, rng),
            np.vstack([dense, dense[:2]])]


@pytest.mark.parametrize("band", [None, "39ghz"])
@pytest.mark.parametrize("p", [0.95, 0.35])
def test_expand_beliefs_matches_reference(band, p):
    """Batched expansion returns the per-proposal expansion's exact bytes."""
    sub = CFG.build_model(p=p, band_label=band)
    rng = np.random.default_rng(31)
    for beliefs in _expansion_sets(sub, rng):
        for seed in (0, 1, 2):
            got = expand_beliefs(sub, beliefs, np.random.SeedSequence((seed, 7)))
            want = reference_expand_beliefs(sub, beliefs, np.random.SeedSequence((seed, 7)))
            assert got.tobytes() == want.tobytes(), (len(beliefs), seed)


def test_expand_beliefs_matches_reference_with_impossible_proposals(model, monkeypatch):
    """A cell-revealing observation and sub-normalized point masses.

    A point mass below 1 lets the first draw land past the belief's
    support, on a state whose successor cell the belief cannot reach; the
    proposal's observation then has zero probability under the belief. A
    subnormal mass makes every proposal of its belief impossible.
    """
    cells = model.states.cells()
    reveal = np.zeros_like(model.O)
    reveal[:, np.arange(model.num_states), cells - 1] = 1.0
    sharp = dataclasses.replace(model, O=reveal)
    beliefs = 0.5 * np.eye(model.num_states)[::3]
    beliefs[1::2] *= 1.5
    beliefs[-1] *= 1e-310      # every proposal impossible, none added
    flagged = []
    update = pbvi.belief_update

    def spy(*args):
        post, impossible = update(*args)
        flagged.append(int(impossible.sum()))
        return post, impossible

    monkeypatch.setattr(pbvi, "belief_update", spy)
    for seed in (0, 1, 2):
        got = expand_beliefs(sharp, beliefs, np.random.SeedSequence(seed))
        want = reference_expand_beliefs(sharp, beliefs, np.random.SeedSequence(seed))
        assert got.tobytes() == want.tobytes(), seed
    assert sum(flagged) >= 1


class _ConstantDraws:
    """Generator stand-in whose every uniform draw is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, size=None):
        return self.value if size is None else np.full(size, self.value)


def test_expand_beliefs_draw_on_a_cdf_step(toy, monkeypatch):
    """A draw equal to a cumulative sum counts that entry (side="right").

    Every draw is 0.5, and the belief, transition and observation rows
    all have a cumulative sum of exactly 0.5 somewhere.
    """
    half = dataclasses.replace(
        toy, T=np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]),
        O=np.tile(np.array([[0.5, 0.5, 0, 0, 0, 0], [0, 0.5, 0.5, 0, 0, 0],
                            [0, 0, 0.5, 0.5, 0, 0]]), (3, 1, 1)))
    beliefs = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _ConstantDraws(0.5))
    got = expand_beliefs(half, beliefs, np.random.SeedSequence(0))
    want = reference_expand_beliefs(half, beliefs, np.random.SeedSequence(0))
    assert len(got) > len(beliefs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_solve_bytes_match_reference_expansion(p, monkeypatch):
    """Whole solves with either expansion give the same policy bytes and log."""
    full = CFG.build_model(p=p)
    b0 = initial_belief(full.states)
    got = solve(full, b0, num_stages=2)
    monkeypatch.setattr(pbvi, "expand_beliefs", reference_expand_beliefs)
    want = solve(full, b0, num_stages=2)
    assert got.alpha.tobytes() == want.alpha.tobytes()
    assert np.array_equal(got.actions, want.actions)
    assert got.metadata == want.metadata


def test_backup_value_improves_on_loose_bound(model):
    bound = initial_bound(model)
    b0 = initial_belief(model.states)
    improved, _ = backup_at(model, b0, bound[None, :])
    assert float(b0 @ improved) > float(b0 @ bound)


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

    With discount 0.99 a backup sweep alone closes only about 1% of the
    gap from the pessimistic bound; the evaluation sweeps between backup
    sweeps close most of the rest. The history holds one row per backup
    sweep, after its evaluation sweeps, and must never decrease.
    """
    b0 = initial_belief(model.states)
    rng = np.random.default_rng(0)
    extra = rng.dirichlet(np.ones(model.num_states), size=7)
    beliefs = np.vstack([b0[None, :], extra])
    bound = initial_bound(model)
    mat, acts, tracked, info = backup_stage(
        model, beliefs, bound[None, :], np.array([0]),
        epsilon=default_epsilon(model), max_sweeps=120, collect_history=True)
    hist = info["value_history"]
    print(f"sweeps={info['sweeps']} eval_sweeps={info['eval_sweeps']} "
          f"converged={info['converged']}")
    assert np.diff(hist, axis=0).min() >= 0.0
    assert np.abs(hist[-1] - tracked).max() == 0.0
    # retained values are honest: each equals max over the final alpha set
    surf = (beliefs @ mat.T).max(axis=1)
    assert np.all(surf >= tracked - 1e-6 * np.abs(tracked))
    assert len(mat) == len(acts) <= len(beliefs) + 1


def test_evaluate_plans_stop_rule_on_geometric_sum():
    """One state, a plan that repeats reward 7 at discount 0.9 from node 30.

    Sweep t lifts the node to 70 - 40 * 0.9**t, a gain of 4 * 0.9**(t-1),
    which first drops below epsilon = 1 at t = 15.
    """
    tiny = _tiny_model(np.array([[3.0], [7.0]]), discount=0.9)
    b = np.array([[1.0]])

    def run(plan_act, tracked0, epsilon=1.0, max_sweeps=500):
        anchors, tracked = np.array([[30.0]]), np.array([tracked0])
        sweeps = pbvi._evaluate_plans(tiny, b, anchors, tracked, np.array([True]),
                                      np.array([plan_act]), np.zeros((1, 2), dtype=int),
                                      epsilon, tie_tolerance(tiny), max_sweeps)
        return sweeps, anchors[0, 0], tracked[0]

    sweeps, node, value = run(1, 30.0)
    assert sweeps == 15
    assert node == value == pytest.approx(70.0 - 40.0 * 0.9 ** 15, rel=1e-12)
    sweeps, node, _ = run(1, 30.0, max_sweeps=5)
    assert sweeps == 5 and node == pytest.approx(70.0 - 40.0 * 0.9 ** 5, rel=1e-12)
    # reward 3 keeps the node at 30: not adopted, then stop
    assert run(0, 30.0) == (1, 30.0, 30.0)
    # a node below the tracked value is not adopted
    assert run(0, 31.0) == (1, 30.0, 31.0)


@functools.lru_cache(maxsize=None)
def _exact_calls():
    """Every _solve_plans call of a 1-stage default solve at p=0.95: the
    model and, per call, copies of its array arguments and its solve count."""
    full = CFG.build_model(p=0.95)
    calls = []

    def spy(model, beliefs, anchors, tracked, planned, plan_acts, succ, tol, kept):
        args = tuple(x.copy() for x in (beliefs, anchors, tracked, planned, plan_acts, succ))
        calls.append((args, exact(model, beliefs, anchors, tracked, planned,
                                  plan_acts, succ, tol, kept)))
        return calls[-1][1]

    exact = pbvi._solve_plans
    pbvi._solve_plans = spy
    try:
        policy = solve(full, initial_belief(full.states), num_stages=1)
    finally:
        pbvi._solve_plans = exact
    assert sum(st["eval_solves"] for st in policy.metadata["stages"]) == \
        sum(n for _, n in calls)
    return full, calls


def _plan_set(size):
    """The first plan set of `size` beliefs whose rows all adopted in one block solve."""
    full, calls = _exact_calls()
    for args, _ in calls:
        beliefs, anchors, tracked, planned, plan_acts, succ = (x.copy() for x in args)
        if planned.sum() != size:
            continue
        before = tracked.copy()
        pbvi._solve_plans(full, beliefs, anchors, tracked, planned, plan_acts, succ,
                          tie_tolerance(full), [])
        if (tracked > before)[planned].all():
            return full, *(x.copy() for x in args)
    raise AssertionError(f"no {size}-belief plan set adopted in one solve")


@pytest.mark.parametrize("size", [2, 4])
def test_solve_plans_match_iterated_limit(size):
    """Block solves give the limit of the evaluation sweeps.

    The planned beliefs start from the initial bound, which every sweep
    then lifts pointwise, so with epsilon 0 the sweeps adopt until the gains
    fall inside the tie band. The sweeps' nodes and the block solve's,
    where every row adopts, agree to a relative 1e-9.
    """
    full, beliefs, anchors, tracked, planned, plan_acts, succ = _plan_set(size)
    tol = tie_tolerance(full)
    rows = np.flatnonzero(planned)
    anchors[rows] = initial_bound(full)
    tracked[rows] = -np.inf
    swept, swept_vals = anchors.copy(), tracked.copy()
    sweeps = pbvi._evaluate_plans(full, beliefs, swept, swept_vals, planned, plan_acts,
                                  succ, 0.0, tol, 20_000)
    assert sweeps < 20_000
    assert pbvi._solve_plans(full, beliefs, anchors, tracked, planned, plan_acts,
                             succ, tol, []) == 1
    print(f"{size} beliefs: {sweeps} sweeps, largest relative difference "
          f"{np.abs(swept - anchors).max() / np.abs(anchors).max():.2e}")
    assert np.allclose(anchors, swept, rtol=1e-9, atol=0.0)
    assert np.array_equal(tracked[rows], np.einsum("ks,ks->k", beliefs[rows], anchors[rows]))


def test_solve_plans_on_geometric_sum():
    """One state, a plan that repeats reward 7 at discount 0.9: the node is 70."""
    tiny = _tiny_model(np.array([[3.0], [7.0]]), discount=0.9)
    anchors, tracked = np.array([[30.0]]), np.array([30.0])
    assert pbvi._solve_plans(tiny, np.array([[1.0]]), anchors, tracked, np.array([True]),
                             np.array([1]), np.zeros((1, 2), dtype=int),
                             tie_tolerance(tiny), []) == 1
    assert anchors[0, 0] == pytest.approx(70.0, rel=1e-12)
    assert tracked[0] == anchors[0, 0]


def test_solve_plans_fix_a_row_that_does_not_beat():
    """A row whose node falls below its retained value keeps its anchor and
    value; the other rows are solved again with it fixed at that anchor."""
    full, beliefs, anchors, tracked, planned, plan_acts, succ = _plan_set(4)
    tol = tie_tolerance(full)
    rows = np.flatnonzero(planned)
    first_vals = tracked.copy()
    pbvi._solve_plans(full, beliefs, anchors.copy(), first_vals, planned, plan_acts,
                      succ, tol, [])
    stuck = rows[1]
    tracked[stuck] = first_vals[stuck] * (1.0 + 1e-6)       # out of its node's reach
    got, got_vals = anchors.copy(), tracked.copy()
    assert pbvi._solve_plans(full, beliefs, got, got_vals, planned, plan_acts,
                             succ, tol, []) == 2
    assert np.array_equal(got[stuck], anchors[stuck]) and got_vals[stuck] == tracked[stuck]
    rest = planned.copy()
    rest[stuck] = False
    want, want_vals = anchors.copy(), tracked.copy()
    assert pbvi._solve_plans(full, beliefs, want, want_vals, rest, plan_acts,
                             succ, tol, []) == 1
    assert got.tobytes() == want.tobytes() and got_vals.tobytes() == want_vals.tobytes()
    assert not np.array_equal(got[rows], anchors[rows])
    assert (got_vals >= tracked).all()


def _count_inverses(monkeypatch) -> list[int]:
    """Count np.linalg.inv calls from here to the test's end, in a one-item list."""
    count, inv = [0], np.linalg.inv

    def counted(a):
        count[0] += 1
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", counted)
    return count


def test_kept_eliminations_match_fresh_ones_on_pipeline_solves(monkeypatch):
    """Every _solve_plans call of the benchmark pipeline config's 20 one-stage
    solves (5 p values, 4 planners) gives the same bytes with the round's kept
    eliminations as with a fresh list, inverts fewer pivots over all, and
    keeps at most two eliminations. Each round starts from an empty list, so
    no elimination outlives its round's model and beliefs."""
    cfg = ExperimentConfig.from_dict({"solver": {"num_stages": 1},
                                      "simulation": {"num_trials": 20}})
    exact, stage, inverses = pbvi._solve_plans, pbvi.backup_stage, _count_inverses(monkeypatch)
    seen = {"calls": 0, "fresh": 0, "kept": 0, "rounds": 0, "checked": 0}

    def counted_stage(*args, **kwargs):
        seen["rounds"] += 1
        return stage(*args, **kwargs)

    def spy(model, beliefs, anchors, tracked, planned, plan_acts, succ, tol, kept):
        if seen["checked"] != seen["rounds"]:       # the round's first exact evaluation
            assert kept == []
            seen["checked"] = seen["rounds"]
        want, want_vals, before = anchors.copy(), tracked.copy(), inverses[0]
        solves = exact(model, beliefs, want, want_vals, planned, plan_acts, succ, tol, [])
        seen["fresh"] += inverses[0] - before
        before = inverses[0]
        assert exact(model, beliefs, anchors, tracked, planned, plan_acts, succ, tol,
                     kept) == solves
        seen["kept"] += inverses[0] - before
        assert len(kept) <= 2
        assert anchors.tobytes() == want.tobytes() and tracked.tobytes() == want_vals.tobytes()
        seen["calls"] += 1
        return solves

    monkeypatch.setattr(pbvi, "_solve_plans", spy)
    monkeypatch.setattr(pbvi, "backup_stage", counted_stage)
    for p in cfg.raw["simulation"]["p_grid"]:
        for agent in cfg.agent_names():
            model = cfg.build_model(p=p, band_label=cfg.band_label_for_agent(agent))
            solve(model, initial_belief(model.states), num_stages=1)
    print(f"{seen['calls']} calls: {seen['fresh']} pivot inverses fresh, "
          f"{seen['kept']} with kept eliminations")
    assert seen["calls"] > 0 and seen["kept"] < seen["fresh"]


def test_successor_weights_are_sequential_sums_on_the_solve_pair(monkeypatch):
    """Every pbvi._successor_weights call of the benchmark's solve pair (3-stage
    sm at p=0.95 and 0.35) has the bytes of a sum in ascending z, one term at a
    time (_oracles.sequential_successor_weights). The one-hot product leaves
    the order to BLAS, so a build or an operand layout that sums in another
    order fails here instead of moving policy bytes."""
    weights, same = pbvi._successor_weights, []

    def spy(o_t, keys, targets):
        w = weights(o_t, keys, targets)
        same.append(w.tobytes() == sequential_successor_weights(o_t, keys, targets).tobytes())
        return w

    monkeypatch.setattr(pbvi, "_successor_weights", spy)
    for p in (0.95, 0.35):
        model = CFG.build_model(p=p)
        solve(model, initial_belief(model.states), num_stages=3)
    assert len(same) > 200 and all(same), same.count(False)


def test_kept_elimination_replays_after_a_row_that_does_not_beat(monkeypatch):
    """A row that does not beat, the re-solve of the other rows, then the
    first structure again: the re-solve eliminates its rows afresh, the last
    call replays the kept elimination without inverting, and both give the
    bytes of a fresh elimination."""
    full, beliefs, anchors, tracked, planned, plan_acts, succ = _plan_set(4)
    tol = tie_tolerance(full)
    rows = np.flatnonzero(planned)
    first_vals = tracked.copy()
    pbvi._solve_plans(full, beliefs, anchors.copy(), first_vals, planned, plan_acts,
                      succ, tol, [])
    tracked[rows[1]] = first_vals[rows[1]] * (1.0 + 1e-6)    # out of its node's reach
    inverses = _count_inverses(monkeypatch)
    kept, got, got_vals = [], anchors.copy(), tracked.copy()
    assert pbvi._solve_plans(full, beliefs, got, got_vals, planned, plan_acts,
                             succ, tol, kept) == 2
    assert [len(acts) for acts, *_ in kept] == [3, 4] and inverses[0] == 4 + 3
    rest = np.delete(rows, 1)
    want = pbvi._plan_nodes(full, anchors, rest, plan_acts[rest], succ[rest], [])
    assert got[rest].tobytes() == want.tobytes()
    before = inverses[0]
    nodes = pbvi._plan_nodes(full, got, rows, plan_acts[rows], succ[rows], kept)
    assert inverses[0] == before and [len(acts) for acts, *_ in kept] == [4, 3]
    want = pbvi._plan_nodes(full, got, rows, plan_acts[rows], succ[rows], [])
    assert inverses[0] == before + 4
    assert nodes.tobytes() == want.tobytes()


def test_plans_follow_the_backup_picks(model, monkeypatch):
    """A plan rerun on the vectors its backup saw gives the backup's vector.

    Only a backup sweep runs between two evaluation phases. Every belief
    whose retained vector that sweep replaced must hold a plan, and the
    node recomputed through that plan from the vectors retained before the
    sweep must be the vector the belief adopted.
    """
    b0 = initial_belief(model.states)
    extra = np.random.default_rng(0).dirichlet(np.ones(model.num_states), size=7)
    beliefs = np.vstack([b0[None, :], extra])
    evaluate = pbvi._evaluate_plans
    seen = {"prev": None, "checked": 0}

    def spy(model, beliefs, anchors, tracked, planned, plan_acts, succ, *rest):
        prev = seen["prev"]
        if prev is not None:
            changed = np.flatnonzero((anchors != prev).any(axis=1))
            assert planned[changed].all()
            for k in changed:
                a = plan_acts[k]
                phi = (model.O[a] * prev[succ[k]].T).sum(axis=1)
                want = model.T @ (model.rbar[a] + model.discount * phi)
                assert np.abs(anchors[k] - want).max() <= 1e-12 * np.abs(want).max()
            seen["checked"] += len(changed)
        sweeps = evaluate(model, beliefs, anchors, tracked, planned, plan_acts,
                          succ, *rest)
        seen["prev"] = anchors.copy()
        return sweeps

    monkeypatch.setattr(pbvi, "_evaluate_plans", spy)
    backup_stage(model, beliefs, initial_bound(model)[None, :], np.array([0]),
                 epsilon=default_epsilon(model), max_sweeps=120)
    assert seen["checked"] > 0


def test_backup_stage_converges_then_fixed_point(toy):
    """Discount 0.9 instance converges; a rerun stops after one sweep.

    The rerun's incoming vectors have no owner, so its single sweep makes
    no plans and runs no evaluation sweep.
    """
    b0 = initial_belief(toy.states)
    rng = np.random.default_rng(3)
    beliefs = np.vstack([b0[None, :], rng.dirichlet(np.ones(toy.num_states), size=5)])
    eps = default_epsilon(toy)
    mat, acts, tracked, info = backup_stage(
        model=toy, beliefs=beliefs, alphas_mat=initial_bound(toy)[None, :],
        alpha_actions=np.array([0]), epsilon=eps)
    print(f"toy stage sweeps: {info['sweeps']} + {info['eval_sweeps']} evaluation")
    assert info["converged"] and 1 < info["sweeps"] < 500
    _, _, tracked2, info2 = backup_stage(toy, beliefs, mat, acts, eps,
                                         tracked=tracked)
    assert info2["sweeps"] == 1 and info2["eval_sweeps"] == 0
    assert info2["converged"]
    assert float(np.abs(tracked2 - tracked).max()) < eps


def test_expand_beliefs_growth_and_determinism(model):
    b0 = initial_belief(model.states)
    beliefs = b0[None, :]
    seed = np.random.SeedSequence((42, 1))
    grown = expand_beliefs(model, beliefs, seed)
    assert len(beliefs) < len(grown) <= 2 * len(beliefs)
    again = expand_beliefs(model, beliefs, np.random.SeedSequence((42, 1)))
    assert np.array_equal(grown, again)
    assert np.array_equal(grown[:1], beliefs)   # existing points stay first
    # all rows are proper beliefs, no duplicates
    assert np.abs(grown.sum(axis=1) - 1.0).max() < 1e-12
    assert len({row.tobytes() for row in grown}) == len(grown)
    two = expand_beliefs(model, grown, np.random.SeedSequence((42, 2)))
    assert len(two) <= 2 * len(grown)


def test_expand_point_mass_deterministic_dynamics(model):
    perm = np.zeros_like(model.T)
    order = np.roll(np.arange(model.num_states), -1)
    perm[np.arange(model.num_states), order] = 1.0
    det = dataclasses.replace(model, T=perm)
    b = np.zeros(model.num_states)
    b[17] = 1.0
    grown = expand_beliefs(det, b[None, :], np.random.SeedSequence(3))
    assert len(grown) == 2
    want = np.zeros(model.num_states)
    want[order[17]] = 1.0
    assert np.array_equal(grown[1], want)
    # every proposal from the first point is now in the set: none is added
    again = expand_beliefs(det, grown, np.random.SeedSequence(4))
    assert len(again) == 3
    assert np.array_equal(again[2], np.eye(model.num_states)[order[order[17]]])


def test_solve_zero_stages_is_blind_bound(model):
    pol = solve(model, initial_belief(model.states), num_stages=0, seed=1)
    assert pol.alpha.shape == (1, model.num_states)
    assert np.array_equal(pol.alpha[0], initial_bound(model))
    assert pol.actions[0] == 0


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
    assert a.value(b0) > initial_bound(sub)[0]


def test_solve_rounds_depend_only_on_their_count():
    """num_stages and expansions_per_stage act only through their product:
    (2, 2), (4, 1) and (1, 4) run the same rounds, and the metadata keeps both."""
    full, want = _live_solve(None, 0.95)
    for stages, per in ((4, 1), (1, 4)):
        got = solve(full, initial_belief(full.states), num_stages=stages,
                    expansions_per_stage=per)
        assert got.alpha.tobytes() == want.alpha.tobytes()
        assert got.actions.tobytes() == want.actions.tobytes()
        assert got.metadata["stages"] == want.metadata["stages"]
        assert (got.metadata["num_stages"], got.metadata["expansions_per_stage"]) == (stages, per)


def test_extract_action_rules(model):
    """PolicyAgent.act takes a batch of beliefs; the true cells are ignored."""
    rng = np.random.default_rng(12)
    alpha = rng.random((5, model.num_states)) * 1e9
    acts = np.array([3, 7, 1, 30, 22])

    def act(alpha, actions, beliefs):
        agent = PolicyAgent("sm", model, Policy(alpha=alpha, actions=actions))
        return agent.act(beliefs, np.ones(len(beliefs), dtype=int))

    points = np.eye(model.num_states)[::7]
    assert np.array_equal(act(alpha, acts, points),
                          acts[alpha[:, ::7].argmax(axis=0)])
    b = rng.dirichlet(np.ones(model.num_states), size=4)
    want = acts[(alpha @ b.T).argmax(axis=0)]
    assert np.array_equal(act(alpha, acts, b), want)
    assert np.array_equal(act(alpha * 7.5, acts, b), want)
    # ties resolve to the lowest vector index
    dup = act(np.vstack([alpha[0], alpha[0]]), np.array([9, 4]), b)
    assert np.array_equal(dup, [9, 9, 9, 9])
    # and so do near ties: a vector higher by less than the tie band loses
    near = act(np.vstack([alpha[0], alpha[0] * (1.0 + 1e-15)]), np.array([9, 4]), b)
    assert np.array_equal(near, [9, 9, 9, 9])


def test_dedup_and_dominance_pruning():
    mat = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 1.0], [2.0, 0.1]])
    acts = np.array([0, 1, 2, 3])
    keep = _dedup_rows(mat)
    assert list(keep) == [0, 2, 3]
    ded, dacts = mat[keep], acts[keep]
    assert ded.shape == (3, 2)
    assert list(dacts) == [0, 2, 3]
    pruned, pacts = _prune_dominated(ded, dacts)
    assert pruned.shape == (2, 2)
    assert list(pacts) == [0, 3]
    one, oacts = _prune_dominated(mat[:1], acts[:1])
    assert np.array_equal(one, mat[:1]) and list(oacts) == [0]


def test_prune_dominated_matches_reference():
    """One-pass pruning keeps the sequential scan's rows, actions and order."""
    rng = np.random.default_rng(17)
    for case in range(1500):
        n, s = int(rng.integers(0, 9)), int(rng.integers(1, 4))
        mat = rng.integers(-2, 3, size=(n, s)).astype(float)
        if n > 1 and case % 3 == 0:                 # dominance chain
            mat[1:] = mat[0] - np.arange(1, n)[:, None] * (rng.random(s) < 0.5)
        if n > 2 and case % 4 == 0:                 # duplicate rows
            mat[rng.integers(n)] = mat[rng.integers(n)]
        if case % 5 == 0:                           # signed zeros
            mat[mat == 0.0] = rng.choice([0.0, -0.0], size=int((mat == 0.0).sum()))
        acts = rng.permutation(max(n, 1))[:n]
        got, got_acts = _prune_dominated(mat, acts)
        want, want_acts = reference_prune_dominated(mat, acts)
        assert got.tobytes() == want.tobytes(), case
        assert np.array_equal(got_acts, want_acts), case


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
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            solve(model, initial_belief(model.states), epsilon=bad)
    with pytest.raises(ValueError):
        solve(model, initial_belief(model.states), max_sweeps=0)
    for bad in ("l2", "cosine"):
        with pytest.raises(ValueError, match="metric"):
            solve(model, initial_belief(model.states), num_stages=0, metric=bad)
