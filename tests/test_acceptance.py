"""Acceptance gate: ten end-to-end checks at the shipped tolerances.

Every check prints a single `criterion NN: PASS/FAIL - ...` verdict line
before asserting, so the verdict is visible in captured output either way.
Solved policies are shared through a session-scoped store that records
per-policy solve wall times; the wall-clock-limited criteria charge
themselves for every solve they depend on, whether or not an earlier
criterion already triggered it.

Grid: solver seed 0, simulation seed 123, 500 trials, horizon 200 slots.
"""

import math
import time

import numpy as np
import pytest
import scipy.stats

from _oracles import (double_sum_response, grid_value_iteration,
                      perfect_info_mc)
from specbeam.arrays import (PropagationConstants, gain, make_band,
                             observation_probs)
from specbeam.config import ExperimentConfig
from specbeam.geometry import SceneConfig, build_road
from specbeam.mobility import MobilityModel
from specbeam.pbvi import solve
from specbeam.pomdp import belief_update, build_model, initial_belief
from specbeam.simulate import (MarkovDynamics, PolicyAgent, fixed_path_eval,
                               perfect_info_rates, simulate_slots)

CFG = ExperimentConfig.from_dict({})
SOLVE_SEED = 0
SIM_SEED = 123
TRIALS = 500
HORIZON = 200
SPEEDS = (10.0, 30.0, 50.0, 70.0, 90.0)
ORACLE_DRAWS = 1_000_000

pytestmark = pytest.mark.acceptance


@pytest.fixture(scope="session")
def store():
    return {"models": {}, "policies": {}, "solve_wall": {}, "c8": {}}


def _model(store, agent, p):
    key = (agent, p)
    if key not in store["models"]:
        store["models"][key] = CFG.build_model(
            p=p, band_label=CFG.band_label_for_agent(agent))
    return store["models"][key]


def _policy(store, agent, p, collect=False):
    key = (agent, p)
    model = _model(store, agent, p)
    if key not in store["policies"]:
        t0 = time.perf_counter()
        store["policies"][key] = solve(
            model, initial_belief(model.states), seed=SOLVE_SEED,
            collect_history=collect)
        store["solve_wall"][key] = time.perf_counter() - t0
    return model, store["policies"][key]


def _trial_stats(model, agent, seed=SIM_SEED):
    """Per-trial mean rates and channel utilization under common seeds."""
    log = simulate_slots([(model, agent)], MarkovDynamics(model), HORIZON,
                         TRIALS, seed)
    means = np.empty(TRIALS)
    counts = np.zeros(len(model.bands), dtype=np.int64)
    for t, (rates, actions) in enumerate(zip(log.rates, log.actions)):
        means[t] = rates.mean()
        counts += np.bincount(model.actions.band_idx[actions],
                              minlength=len(model.bands))
    util = {band.label: float(c) / float(counts.sum())
            for band, c in zip(model.bands, counts)}
    return means, util


def _verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_c01_gain_closed_form_matches_double_sum():
    """Closed-form array gain vs the element-by-element phase sum."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    consts = CFG.constants()
    bands = CFG.bands()
    worst = 0.0
    near_aligned = 0
    for k in range(10_000):
        band = bands[int(rng.integers(3))]
        th, ph = rng.uniform(-1.5, 1.5, size=2)
        if k % 10 < 3:
            # |delta psi| and |delta zeta| below 1e-8 (derivatives <= 1/2),
            # with every tenth case exactly aligned
            scale = 0.0 if k % 10 == 0 else 2e-8
            th_h = th + rng.uniform(-scale, scale) if scale else th
            ph_h = ph + rng.uniform(-scale, scale) if scale else ph
            near_aligned += 1
        else:
            th_h, ph_h = rng.uniform(-1.5, 1.5, size=2)
        g = gain(consts, band, 10.0, th, ph, th_h, ph_h)
        pref = consts.k_const * consts.tx_power_w / (
            10.0 ** 2 * band.f_hz ** 2 * band.num_elements)
        d = double_sum_response(band.n_y, band.n_z, th, ph, th_h, ph_h)
        # below ~1e-9 of the aligned response the double sum is pure
        # cancellation noise, so the denominator is floored there
        denom = max(d, 1e-9 * band.num_elements ** 2)
        worst = max(worst, abs(g / pref - d) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    assert _verdict(
        1, ok, f"max rel err {worst:.2e} over 10^4 cases "
               f"({near_aligned} near-aligned), {elapsed:.1f}s"), worst


def test_c02_observation_model_soundness(store):
    t0 = time.perf_counter()
    model = _model(store, "sm", 0.95)
    row_err = float(np.abs(model.O.sum(axis=2) - 1.0).max())
    rng = np.random.default_rng(2026)
    n = 1_000_000
    worst_sigma = 0.0
    for _ in range(20):
        sigma_sq = 10.0 ** rng.uniform(-15.0, -10.0)
        g = sigma_sq * 10.0 ** rng.uniform(5.0, 8.0)
        probs = observation_probs(g, sigma_sq, model.thresholds)
        snr = (g / sigma_sq) / rng.exponential(size=n)
        counts = np.bincount(
            np.searchsorted(model.thresholds, snr, side="right"),
            minlength=model.num_observations)
        freqs = counts / n
        sigma = np.sqrt(probs * (1.0 - probs) / n)
        dev = np.abs(freqs - probs)
        with np.errstate(invalid="ignore", divide="ignore"):
            z = np.where(sigma > 0, dev / sigma, np.where(dev > 0, np.inf, 0.0))
        worst_sigma = max(worst_sigma, float(z.max()))
    elapsed = time.perf_counter() - t0
    ok = row_err <= 1e-12 and worst_sigma <= 3.0 and elapsed < 30.0
    assert _verdict(
        2, ok, f"row-sum err {row_err:.1e}, worst bin deviation "
               f"{worst_sigma:.2f} sigma over 20x1e6 samples, {elapsed:.1f}s")


def test_c03_belief_update_simplex_and_support(store):
    model = _model(store, "sm", 0.95)
    rng = np.random.default_rng(11)
    steps = 100_000
    beliefs = rng.dirichlet(np.ones(model.num_states), size=steps)
    kill = rng.random(beliefs.shape) < 0.5
    kill[np.arange(steps), rng.integers(model.num_states, size=steps)] = False
    beliefs[len(beliefs) // 2:][kill[len(beliefs) // 2:]] = 0.0  # sparse half
    beliefs /= beliefs.sum(axis=1, keepdims=True)
    acts = rng.integers(model.num_actions, size=steps)
    preds = beliefs @ model.T
    u = rng.random(steps)

    violations = impossible_total = 0
    for a in range(model.num_actions):
        rows = np.flatnonzero(acts == a)
        lik = preds[rows] @ model.O[a]                    # (n, Z)
        cum = np.cumsum(lik, axis=1)
        zs = np.minimum((cum / cum[:, -1:] < u[rows, None]).sum(axis=1),
                        model.num_observations - 1)
        dead = lik[np.arange(len(rows)), zs] <= 0.0
        zs[dead] = lik[dead].argmax(axis=1)   # boundary tie: take a live bin
        posts, impossible = belief_update(model, beliefs[rows], model.O[a, :, zs])
        impossible_total += int(impossible.sum())
        masks = model.O[a, :, zs] * preds[rows]
        bad = ((np.abs(posts.sum(axis=1) - 1.0) > 1e-12) | (posts < 0).any(axis=1)
               | ((posts > 0) != (masks > 0)).any(axis=1) | impossible)
        violations += int(bad.sum())
    ok = violations == 0
    assert _verdict(3, ok, f"{violations} violations in {steps} random updates")
    assert impossible_total == 0


def test_c04_pbvi_monotone_lower_bound(store):
    model, policy = _policy(store, "sm", 0.95, collect=True)
    assert model.num_states == 46 and model.num_actions == 36
    assert model.num_observations == 25
    worst = 0.0
    sweeps = []
    for stage in policy.metadata["stages"]:
        hist = np.asarray(stage["value_history"])
        if len(hist) > 1:
            worst = min(worst, float(np.diff(hist, axis=0).min()))
        sweeps.append(stage["sweeps"])
    ok = worst >= -1e-12
    assert _verdict(
        4, ok, f"min per-belief value step {worst:.3e} across sweeps {sweeps}")


def test_c05_toy_instance_near_optimal():
    t0 = time.perf_counter()
    scene = SceneConfig(road_y_min_m=-30.0, road_y_max_m=30.0, num_cells=3)
    toy = build_model(build_road(scene),
                      (make_band(CFG.aperture(), 15e9, 90e6),),
                      PropagationConstants(), MobilityModel(p=0.6, window=1),
                      num_levels=8, low_db=-10.0, high_db=60.0, discount=0.9)
    b0 = initial_belief(toy.states)
    policy = solve(toy, b0, seed=SOLVE_SEED)
    v_grid = grid_value_iteration(toy.T, toy.O, toy.rbar, toy.discount, b0,
                                  step=0.02, horizon=100)
    agent = PolicyAgent("sm", toy, policy)
    weights = toy.discount ** np.arange(100)
    log = simulate_slots([(toy, agent)], MarkovDynamics(toy), 100, 4000, 202)
    returns = np.array([weights @ rates for rates in log.rates])
    mean = returns.mean()
    se = returns.std(ddof=1) / math.sqrt(len(returns))
    gap = (mean - v_grid) / v_grid
    elapsed = time.perf_counter() - t0
    ok = abs(gap) <= 0.02 and elapsed < 120.0
    assert _verdict(
        5, ok, f"simulated discounted return {mean:.4e} (se {se:.1e}) vs "
               f"grid value {v_grid:.4e}: gap {gap:+.3%}, {elapsed:.1f}s")


def _perfect_info_oracle(bands, road, seed):
    """Oracle estimate for (f_hz, bandwidth_hz) bands on the given road.

    Only plain numbers cross over: the config's aperture and propagation
    values (noise density converted from dBm/Hz here) and each cell's range
    and departure angles.
    """
    raw = CFG.raw
    prop = raw["propagation"]
    return perfect_info_mc(
        bands, (raw["aperture"]["a_y_m"], raw["aperture"]["a_z_m"]),
        [(c.r_m, c.theta, c.phi) for c in road],
        prop["k_const"], prop["path_loss_exp"], prop["tx_power_w"],
        10.0 ** (prop["noise_density_dbm_hz"] / 10.0) * 1e-3,
        ORACLE_DRAWS, seed)


def test_c06_cross_channel_perfect_info_gap(store):
    """60 vs 39 GHz perfect-information gap on the default scene.

    The expected gap comes from the paired Monte Carlo oracle, which also
    bounds it by concavity of E[log2(1 + SNR)] at equal bandwidth. The
    earlier target of 11 +- 2 pp lies above that bound on this scene.
    """
    model = _model(store, "sm", 0.95)
    t0 = time.perf_counter()
    rates = perfect_info_rates(model)
    gap = 100.0 * (rates["60ghz"] / rates["39ghz"] - 1.0)
    elapsed = time.perf_counter() - t0
    est = _perfect_info_oracle(
        [(b["f_hz"], b["bandwidth_hz"]) for b in CFG.raw["bands"]],
        model.road, seed=6)
    want, se = est.gap_pct(2, 1)
    bound = est.gap_bound_pct(2, 1)
    ok = (abs(gap - want) <= 3.0 * se and se < 0.01
          and 0.0 < gap <= bound and bound < 9.0 and elapsed < 1.0)
    assert _verdict(
        6, ok,
        f"60 GHz vs 39 GHz perfect-info average {gap:+.4f}%, oracle "
        f"{want:+.4f}% +- {se:.1e}pp ({(gap - want) / se:+.1f} se), "
        f"concavity bound {bound:+.2f}% "
        f"(below the old 9-13% window), {elapsed:.2f}s"), gap


def test_c07_equal_bandwidth_counterfactual_gap():
    """15 vs 39 GHz with both at 100 MHz, against the oracle.

    At equal bandwidth 15 GHz (4x4) and 60 GHz (16x16) have the same
    aligned gain N/f^2, so their rates coincide and the 15 vs 39 GHz gap
    equals the 60 vs 39 GHz one: the default lead of 60 GHz over 15 GHz is
    the 100/90 MHz bandwidth ratio alone.
    """
    consts = CFG.constants()
    road = build_road(CFG.scene())
    freqs = (15e9, 39e9, 60e9)
    bands = tuple(make_band(CFG.aperture(), f, 100e6) for f in freqs)
    model = build_model(road, bands, consts, CFG.mobility(p=0.95),
                        num_levels=25, low_db=-50.0, high_db=80.0,
                        discount=0.99)
    rates = perfect_info_rates(model)
    gap = 100.0 * (rates["15ghz"] / rates["39ghz"] - 1.0)
    gap60 = 100.0 * (rates["60ghz"] / rates["39ghz"] - 1.0)
    est = _perfect_info_oracle([(f, 100e6) for f in freqs], road, seed=7)
    want, se = est.gap_pct(0, 1)
    bound = est.gap_bound_pct(0, 1)
    ok = (abs(gap - want) <= 3.0 * se and se < 0.01
          and 0.0 < gap <= bound and bound < 9.0
          and math.isclose(gap, gap60, rel_tol=1e-12)
          and math.isclose(rates["15ghz"], rates["60ghz"], rel_tol=1e-12))
    assert _verdict(
        7, ok,
        f"15 GHz at 100 MHz vs 39 GHz perfect-info average {gap:+.4f}%, "
        f"oracle {want:+.4f}% +- {se:.1e}pp ({(gap - want) / se:+.1f} se), "
        f"concavity bound {bound:+.2f}% "
        f"(below the old 9-13% window); 60 vs 39 GHz {gap60:+.4f}%: the 4x4 "
        f"and 16x16 arrays give the same aligned gain at equal bandwidth"), gap


def test_c08_spectrum_mobility_dominates(store):
    t0 = time.perf_counter()
    pre_solved = set(store["solve_wall"])
    t_crit = float(scipy.stats.t.ppf(0.95, TRIALS - 1))
    used = []
    lines = []
    ok = True
    for p in (0.35, 0.95):
        means = {}
        for agent in ("sm", "sf15", "sf39", "sf60"):
            model, policy = _policy(store, agent, p)
            used.append((agent, p))
            means[agent], util = _trial_stats(
                model, PolicyAgent(agent, model, policy))
            store["c8"].setdefault(p, {})[agent] = {
                "mean": float(means[agent].mean()), "util": util}
        for sf in ("sf15", "sf39", "sf60"):
            d = means["sm"] - means[sf]
            t_stat = float(d.mean() / (d.std(ddof=1) / math.sqrt(len(d))))
            ok = ok and t_stat > t_crit
            lines.append(f"p={p:g} sm-{sf}: {d.mean() / 1e6:+.1f} Mbit/s "
                         f"t={t_stat:.1f}")
    charged = sum(store["solve_wall"][k] for k in used if k in pre_solved)
    elapsed = time.perf_counter() - t0 + charged
    ok = ok and elapsed < 600.0
    assert _verdict(
        8, ok, f"paired one-sided t (crit {t_crit:.3f}): " + "; ".join(lines)
               + f"; {elapsed:.0f}s incl solves")


def test_c09_fixed_path_robustness_trend(store):
    t0 = time.perf_counter()
    pre_solved = set(store["solve_wall"])
    scene = CFG.scene()
    drops = {}
    trend_ok = True
    series = {}
    for p in (0.95, 0.35):
        model, policy = _policy(store, "sm", p)
        agent = PolicyAgent("sm", model, policy)
        rows = [fixed_path_eval(model, scene, agent, v, 0.25, TRIALS, SIM_SEED)
                for v in SPEEDS]
        rates = [m.mean_rate_bps for m in rows]
        cis = [m.ci_halfwidth for m in rows]
        series[p] = [f"{r / 1e9:.4f}" for r in rates]
        if p == 0.95:
            trend_ok = all(rates[i + 1] <= rates[i] + cis[i] + cis[i + 1]
                           for i in range(len(rates) - 1))
        drops[p] = 100.0 * (rates[0] - rates[-1]) / rates[0]
    charged = sum(store["solve_wall"][k]
                  for k in (("sm", 0.95), ("sm", 0.35)) if k in pre_solved)
    elapsed = time.perf_counter() - t0 + charged
    ok = (trend_ok and 8.0 <= drops[0.95] <= 16.0
          and drops[0.35] < drops[0.95] and elapsed < 900.0)
    assert _verdict(
        9, ok, f"10->90 km/h drop {drops[0.95]:.2f}% at p=0.95 "
               f"(Gbit/s: {series[0.95]}), {drops[0.35]:.2f}% at p=0.35, "
               f"monotone trend {trend_ok}, {elapsed:.0f}s incl solves")


def test_c10_utilization_bands(store):
    model, policy = _policy(store, "sm", 0.55)
    _, util_mid = _trial_stats(model, PolicyAgent("sm", model, policy))
    if 0.95 in store["c8"]:
        util_hi = store["c8"][0.95]["sm"]["util"]
    else:
        model95, policy95 = _policy(store, "sm", 0.95)
        _, util_hi = _trial_stats(model95, PolicyAgent("sm", model95, policy95))
    mid, hi = util_mid["15ghz"], util_hi["15ghz"]
    ok = 0.05 <= mid <= 0.30 and hi < 0.05
    assert _verdict(
        10, ok, f"15 GHz share {mid:.1%} at p=0.55 (need 5-30%), "
                f"{hi:.2%} at p=0.95 (need <5%)")
