"""Episode loop, common random numbers, fixed paths, and aggregation."""

import dataclasses
import math

import numpy as np
import pytest

from specbeam.arrays import aligned_gain, expected_rate, gain
from specbeam.config import ExperimentConfig
from specbeam.pomdp import initial_belief
from specbeam.simulate import (FixedActionAgent, FixedPathDynamics,
                               MarkovDynamics, OracleAgent, PolicyAgent,
                               fixed_path_eval, monte_carlo, oracle_action,
                               perfect_info_rates, run_trial)

CFG = ExperimentConfig.from_dict({})


@pytest.fixture(scope="module")
def model():
    return CFG.build_model(p=0.8)


@pytest.fixture(scope="module")
def sub15():
    return CFG.build_model(p=0.8, band_label="15ghz")


def test_oracle_action_exhaustive(model):
    """Aligned beam; channel argmax over expected rates at the cell's range."""
    for cell in range(1, 13):
        a = oracle_action(model, cell)
        assert model.actions.beam_cell[a] == cell
        geo = model.road[cell - 1]
        want_rates = []
        for band in model.bands:
            sig = model.consts.noise_variance_w(band.bandwidth_hz)
            want_rates.append(expected_rate(
                band.bandwidth_hz, aligned_gain(model.consts, band, geo.r_m), sig))
        assert model.actions.band_idx[a] == int(np.argmax(want_rates))


def test_oracle_single_channel_reduces_to_alignment(sub15):
    for cell in range(1, 13):
        a = oracle_action(sub15, cell)
        assert sub15.actions.beam_cell[a] == cell
        assert sub15.actions.band_idx[a] == 0


def test_oracle_trial_is_always_aligned(model):
    trace = run_trial(model, MarkovDynamics(model), OracleAgent(model), 300,
                      np.random.SeedSequence((9, 0)))
    beam_cells = model.actions.beam_cell[trace.actions]
    assert np.array_equal(beam_cells, trace.cells)
    # aligned SNR is gain_aligned / (sigma^2 * e), recomputable from the trace
    for t in (0, 57, 299):
        a = trace.actions[t]
        band = model.band_of_action(a)
        g = aligned_gain(model.consts, band, model.road[trace.cells[t] - 1].r_m)
        sig = model.consts.noise_variance_w(band.bandwidth_hz)
        assert trace.snrs[t] == pytest.approx(
            g / (sig * trace.noise_draws[t]), rel=1e-12)


def test_trace_rates_recomputable(model):
    trace = run_trial(model, MarkovDynamics(model),
                      FixedActionAgent(20), 128, np.random.SeedSequence((9, 1)))
    for t in range(0, 128, 17):
        a = trace.actions[t]
        band = model.band_of_action(a)
        sig = model.consts.noise_variance_w(band.bandwidth_hz)
        cell = model.road[trace.cells[t] - 1]
        g = gain(model.consts, band, cell.r_m, cell.theta, cell.phi,
                 model.actions.theta_hat[a], model.actions.phi_hat[a])
        snr = g / (sig * trace.noise_draws[t])
        assert trace.snrs[t] == pytest.approx(snr, rel=1e-12)
        assert trace.rates[t] == pytest.approx(
            band.bandwidth_hz * math.log2(1.0 + snr), rel=1e-12)
    assert np.all(trace.rates >= 0)


def test_trial_replay_is_bit_exact(model):
    a = run_trial(model, MarkovDynamics(model), OracleAgent(model), 64,
                  np.random.SeedSequence((77, 3)), record_beliefs=True)
    b = run_trial(model, MarkovDynamics(model), OracleAgent(model), 64,
                  np.random.SeedSequence((77, 3)), record_beliefs=True)
    for field in ("states", "cells", "actions", "noise_draws", "snrs",
                  "rates", "observations", "resets", "beliefs"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert a.seed_key == b.seed_key


def test_common_random_numbers_across_agents(model, sub15):
    """Same trial seed -> identical path and noise draws for every agent."""
    seed = np.random.SeedSequence((5, 11))
    tr_a = run_trial(model, MarkovDynamics(model), OracleAgent(model), 100, seed)
    tr_b = run_trial(model, MarkovDynamics(model), FixedActionAgent(0), 100,
                     np.random.SeedSequence((5, 11)))
    tr_c = run_trial(sub15, MarkovDynamics(sub15), FixedActionAgent(3), 100,
                     np.random.SeedSequence((5, 11)))
    assert np.array_equal(tr_a.cells, tr_b.cells)
    assert np.array_equal(tr_a.noise_draws, tr_b.noise_draws)
    # the restricted model shares the same chain, so paths coincide too
    assert np.array_equal(tr_a.cells, tr_c.cells)
    assert np.array_equal(tr_a.noise_draws, tr_c.noise_draws)


def test_horizon_zero_and_empty_metrics(model):
    trace = run_trial(model, MarkovDynamics(model), FixedActionAgent(0), 0,
                      np.random.SeedSequence(0))
    assert len(trace.rates) == 0
    with pytest.raises(ValueError):
        monte_carlo([(model, FixedActionAgent(0))], 0, 10, 0)


def test_fixed_path_kinematics():
    scene = CFG.scene()
    # 72 km/h = 20 m/s: 5 m per slot, one 20 m cell every 4 slots, 48 slots
    dyn = FixedPathDynamics(scene, 72.0, 0.25)
    assert dyn.n_slots == 48
    assert np.array_equal(dyn.cells, np.repeat(np.arange(1, 13), 4))
    # crawling: the whole trace stays in the first cell
    crawl = FixedPathDynamics(scene, 0.5, 0.25)
    assert crawl.n_slots == int(240.0 / (0.5 / 3.6 * 0.25))
    assert np.all(crawl.cells[:100] == 1)
    with pytest.raises(ValueError):
        FixedPathDynamics(scene, 0.0, 0.25)


def test_fixed_path_trial_uses_given_cells(model):
    scene = CFG.scene()
    dyn = FixedPathDynamics(scene, 50.0, 0.25)
    trace = run_trial(model, dyn, OracleAgent(model), 999,
                      np.random.SeedSequence((3, 1)))
    assert len(trace.rates) == dyn.n_slots          # horizon comes from the path
    assert np.array_equal(trace.cells, dyn.cells)
    assert np.all(trace.states == -1)


def test_monte_carlo_aggregates(model):
    runs = [(model, OracleAgent(model)), (model, FixedActionAgent(19))]
    out = monte_carlo(runs, num_trials=40, horizon=30, seed=77)
    oracle, blind = out
    assert oracle.label == "oracle" and blind.label == "blind"
    for m in out:
        assert m.num_trials == 40 and m.horizon == 30
        assert m.confidence == 0.95
        assert m.ci_halfwidth > 0
        assert abs(sum(m.utilization.values()) - 1.0) < 1e-12
        assert m.reset_fraction == 0.0              # exact model match
    assert oracle.mean_rate_bps > blind.mean_rate_bps
    # blind agent uses action 19's band exclusively
    band = model.band_of_action(19).label
    assert blind.utilization[band] == 1.0


def test_monte_carlo_clt_scaling(model):
    agent = FixedActionAgent(20)
    m1 = monte_carlo([(model, agent)], 100, 25, seed=5)[0]
    m2 = monte_carlo([(model, agent)], 400, 25, seed=5)[0]
    ratio = m1.ci_halfwidth / m2.ci_halfwidth
    print(f"CI halfwidth ratio at 4x trials: {ratio:.3f}")
    assert 1.6 < ratio < 2.5                        # ~2 by the CLT
    assert m1.mean_rate_bps == pytest.approx(m2.mean_rate_bps,
                                             rel=3 * m1.ci_halfwidth / m1.mean_rate_bps)


def test_monte_carlo_threads_match_serial(model):
    runs = [(model, OracleAgent(model))]
    serial = monte_carlo(runs, 24, 16, seed=3, threads=1, keep_slots=True)[0]
    threaded = monte_carlo(runs, 24, 16, seed=3, threads=2, keep_slots=True)[0]
    assert serial.mean_rate_bps == threaded.mean_rate_bps
    assert serial.ci_halfwidth == threaded.ci_halfwidth
    assert serial.utilization == threaded.utilization
    assert np.array_equal(serial.slot_mean_rates, threaded.slot_mean_rates)


def test_policy_agent_runs_and_respects_band(sub15):
    from specbeam.pbvi import solve

    pol = solve(sub15, initial_belief(sub15.states), num_stages=1,
                expansions_per_stage=1, seed=2)
    agent = PolicyAgent("sf15", sub15, pol)
    m = monte_carlo([(sub15, agent)], 30, 40, seed=11)[0]
    assert m.utilization == {"15ghz": 1.0}
    assert m.mean_rate_bps > 0


def test_impossible_observation_resets_to_uniform(model):
    """A doctored observation tensor with a dead bin forces belief resets."""
    dead = model.O.copy()
    dead[:, :, 0] = 0.0
    dead /= dead.sum(axis=2, keepdims=True)
    huge = np.logspace(280, 303, len(model.thresholds))  # z=0 for any earthly SNR
    broken = dataclasses.replace(model, O=dead, thresholds=huge)
    trace = run_trial(broken, MarkovDynamics(broken), FixedActionAgent(0), 16,
                      np.random.SeedSequence(1), record_beliefs=True)
    assert trace.resets.all()
    assert np.allclose(trace.beliefs[1:], 1.0 / broken.num_states)


def test_fixed_path_eval_wraps_monte_carlo(model):
    m = fixed_path_eval(model, CFG.scene(), OracleAgent(model), 60.0, 0.25,
                        num_trials=25, seed=4)
    assert m.num_trials == 25
    assert m.slot_mean_rates is not None
    assert len(m.slot_mean_rates) == FixedPathDynamics(CFG.scene(), 60.0, 0.25).n_slots
    assert m.mean_rate_bps == pytest.approx(float(m.slot_mean_rates.mean()), rel=1e-12)


def test_perfect_info_rates_ordering(model):
    rates = perfect_info_rates(model)
    assert set(rates) == {"15ghz", "39ghz", "60ghz"}
    # 15 GHz (4x4) has the same aligned gain N/f^2 as 60 GHz (16x16) and
    # trails it only by its 90 MHz bandwidth; 39 GHz (10x10, 100 MHz) has
    # 1/1.0816 of that gain, which costs less than 15 GHz's missing 10 MHz
    assert rates["60ghz"] > rates["39ghz"] > rates["15ghz"]
    assert rates["60ghz"] == pytest.approx(1.60e9, rel=0.01)
