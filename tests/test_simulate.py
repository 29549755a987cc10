"""Episode runner, common random numbers, fixed paths, and metrics."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from _oracles import (FixedActionAgent, RecordingAgent, dead_bin_model,
                      reference_metrics, reference_run_trial)
from specbeam.arrays import aligned_gain, expected_rate, gain
from specbeam.config import ExperimentConfig
from specbeam import simulate
from specbeam.pbvi import Policy, first_near_max, solve
from specbeam.pomdp import initial_belief, inverse_cdf
from specbeam.geometry import containing_cell
from specbeam.simulate import (FixedPathDynamics, MarkovDynamics, OracleAgent,
                               PolicyAgent, fixed_path_eval, fixed_path_slots,
                               monte_carlo, oracle_action, perfect_info_rates,
                               simulate_slots)

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
    log = simulate_slots([(model, OracleAgent(model))], MarkovDynamics(model), 300, 1,
                         seed=9)
    actions, cells, draws = log.actions[0], log.cells[0], log.noise_draws[0]
    beam_cells = model.actions.beam_cell[actions]
    assert np.array_equal(beam_cells, cells)
    # aligned SNR is gain_aligned / (sigma^2 * e), recomputable from the log
    for t in (0, 57, 299):
        a = actions[t]
        band = model.bands[model.actions.band_idx[a]]
        g = aligned_gain(model.consts, band, model.road[cells[t] - 1].r_m)
        sig = model.consts.noise_variance_w(band.bandwidth_hz)
        assert log.rates[0, t] == pytest.approx(
            band.bandwidth_hz * math.log2(1.0 + g / (sig * draws[t])), rel=1e-12)


def test_trace_rates_recomputable(model):
    log = simulate_slots([(model, FixedActionAgent(20))], MarkovDynamics(model), 128, 2,
                         seed=9)
    actions, cells, draws, rates = log.actions[1], log.cells[1], log.noise_draws[1], log.rates[1]
    for t in range(0, 128, 17):
        a = actions[t]
        band = model.bands[model.actions.band_idx[a]]
        sig = model.consts.noise_variance_w(band.bandwidth_hz)
        cell, beam = model.road[cells[t] - 1], model.road[model.actions.beam_cell[a] - 1]
        g = gain(model.consts, band, cell.r_m, cell.theta, cell.phi, beam.theta, beam.phi)
        snr = g / (sig * draws[t])
        assert rates[t] == pytest.approx(
            band.bandwidth_hz * math.log2(1.0 + snr), rel=1e-12)
    assert np.all(rates >= 0)


def test_trial_replay_is_bit_exact(model):
    agents = [RecordingAgent(OracleAgent(model)) for _ in range(2)]
    a, b = (simulate_slots([(model, agent)], MarkovDynamics(model), 64, 4, seed=77)
            for agent in agents)
    for field in ("cells", "noise_draws", "actions", "rates", "resets"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    assert np.array(agents[0].beliefs).tobytes() == np.array(agents[1].beliefs).tobytes()


def test_common_random_numbers_across_agents(model, sub15):
    """Same seed -> identical paths and noise draws for every agent, call and model."""
    a, b, c = (simulate_slots([(m, agent)], MarkovDynamics(m), 100, 12, seed=5)
               for m, agent in ((model, OracleAgent(model)), (model, FixedActionAgent(0)),
                                (sub15, FixedActionAgent(3))))
    assert np.array_equal(a.cells, b.cells)
    assert np.array_equal(a.noise_draws, b.noise_draws)
    # the restricted model shares the same chain, so paths coincide too
    assert np.array_equal(a.cells, c.cells)
    assert np.array_equal(a.noise_draws, c.noise_draws)


def full_row_states(model, u: np.ndarray) -> np.ndarray:
    """(n, h) states drawn by inverse_cdf over whole T.cumsum rows, capped at the
    last state; u (n, h + 1) uniforms, column 0 the start."""
    t_cum = model.T.cumsum(axis=1)
    state = inverse_cdf(initial_belief(model.states).cumsum(), u[:, 0])
    out = []
    for t in range(1, u.shape[1]):
        state = inverse_cdf(t_cum[state], u[:, t])
        out.append(state)
    return np.array(out).reshape(-1, len(u)).T


@pytest.mark.parametrize("p", [0.35, 0.95])
def test_markov_states_match_full_row_draws(p):
    """The successor-list sampler draws the states of inverse_cdf over full
    rows: on uniforms, and on draws equal to every cumsum entry of T."""
    model = CFG.build_model(p=p)
    t_cum = model.T.cumsum(axis=1)
    rng = np.random.default_rng(11)
    edges = np.unique(t_cum[t_cum < 1.0])
    for u in (rng.random((64, 301)), rng.choice(edges, size=(64, 301))):
        assert np.array_equal(MarkovDynamics(model).states(u), full_row_states(model, u))


def test_markov_states_cap_a_row_that_sums_below_one(model):
    """A T row whose cumsum ends below 1: a draw at or above its end lands on
    the last state, as inverse_cdf's cap over the full row puts it."""
    start = int(inverse_cdf(initial_belief(model.states).cumsum(), np.zeros(1))[0])
    t = model.T.copy()
    t[start] *= 0.75
    short = replace(model, T=t)
    end = t[start].cumsum()[-1]
    firsts = [np.nextafter(end, 0.0), end, (end + 1.0) / 2, np.nextafter(1.0, 0.0), 0.1, 0.0]
    u = np.zeros((len(firsts), 3))
    u[:, 1], u[:, 2] = firsts, 0.5
    got = MarkovDynamics(short).states(u)
    assert np.array_equal(got, full_row_states(short, u))
    assert np.array_equal(got[1:4, 0], [model.num_states - 1] * 3)
    assert got[0, 0] != model.num_states - 1


def test_horizon_zero_and_empty_metrics(model):
    log = simulate_slots([(model, FixedActionAgent(0))], MarkovDynamics(model), 0, 1, seed=0)
    assert log.rates.shape == log.cells.shape == (1, 0)
    with pytest.raises(ValueError):
        monte_carlo([(model, FixedActionAgent(0))], 0, 10, 0)


def test_trial_means_match_the_per_row_loop():
    """Each row's mean has the bytes of row.mean(), on whole arrays and on row
    blocks sliced from a larger one, and a row without slots means 0.0."""
    rng = np.random.default_rng(0)
    for h in (1, 2, 8, 9, 127, 128, 129, 200, 345, 1000):
        rates = rng.random((7, h)) * 1e9
        for block in (rates, rates[2:5]):
            assert (np.array(simulate.trial_means(block)).tobytes()
                    == np.array([row.mean() for row in block]).tobytes())
    assert simulate.trial_means(np.empty((3, 0))) == [0.0] * 3


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


@pytest.mark.parametrize("speed", [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8, 25.6,
                                   10.0, 30.0, 50.0, 70.0, 90.0])
def test_fixed_path_ends_on_the_road(speed):
    """The last step can round past the road end; the position is clamped there."""
    scene = CFG.scene()
    dyn = FixedPathDynamics(scene, speed, 0.25)
    assert dyn.n_slots == fixed_path_slots(scene.road_length_m, speed, 0.25)
    assert np.all(np.diff(dyn.cells) >= 0) and dyn.cells[-1] == scene.num_cells
    if speed in CFG.raw["simulation"]["speed_grid_kmh"]:     # the clamp changes nothing
        step = speed / 3.6 * 0.25
        assert dyn.cells.tolist() == [containing_cell(scene, scene.road_y_min_m + step * t)
                                      for t in range(1, dyn.n_slots + 1)]


def test_fixed_path_trial_uses_given_cells(model):
    scene = CFG.scene()
    dyn = FixedPathDynamics(scene, 50.0, 0.25)
    log = simulate_slots([(model, OracleAgent(model))], dyn, 999, 2, seed=3)
    assert log.rates.shape == (2, dyn.n_slots)      # horizon comes from the path
    assert np.array_equal(log.cells[1], dyn.cells)


def test_monte_carlo_aggregates(model):
    runs = [(model, OracleAgent(model)), (model, FixedActionAgent(19))]
    out = monte_carlo(runs, num_trials=40, horizon=30, seed=77)
    oracle, blind = out
    assert oracle.label == "oracle" and blind.label == "blind"
    for m in out:
        assert m.num_trials == 40
        assert m.ci_halfwidth > 0
        assert abs(sum(m.utilization.values()) - 1.0) < 1e-12
        assert m.reset_fraction == 0.0              # exact model match
    assert oracle.mean_rate_bps > blind.mean_rate_bps
    # blind agent uses action 19's band exclusively
    band = model.bands[model.actions.band_idx[19]].label
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
    broken = dead_bin_model(model)
    agent = RecordingAgent(FixedActionAgent(0))
    log = simulate_slots([(broken, agent)], MarkovDynamics(broken), 16, 1, seed=1)
    assert log.resets.all()
    # the beliefs acted on in slots 1, ..., 15 are the posteriors of slots 0, ..., 14
    assert np.allclose(np.array(agent.beliefs[1:]), 1.0 / broken.num_states)


def test_fixed_path_eval_wraps_monte_carlo(model):
    m = fixed_path_eval(model, CFG.scene(), OracleAgent(model), 60.0, 0.25,
                        num_trials=25, seed=4)
    assert m.num_trials == 25


def test_perfect_info_rates_ordering(model):
    rates = perfect_info_rates(model)
    assert set(rates) == {"15ghz", "39ghz", "60ghz"}
    # 15 GHz (4x4) has the same aligned gain N/f^2 as 60 GHz (16x16) and
    # trails it only by its 90 MHz bandwidth; 39 GHz (10x10, 100 MHz) has
    # 1/1.0816 of that gain, which costs less than 15 GHz's missing 10 MHz
    assert rates["60ghz"] > rates["39ghz"] > rates["15ghz"]
    assert rates["60ghz"] == pytest.approx(1.60e9, rel=0.01)


# ------------------------------------------- lockstep runner vs reference

@pytest.fixture(scope="module")
def agents_by_p():
    """Per p: (model, agent) runs for sm, sf39, a tie-heavy sm, oracle, blind."""
    out = {}
    for p in (0.95, 0.35):
        runs = []
        for name in ("sm", "sf39"):
            m = CFG.build_model(p=p, band_label=CFG.band_label_for_agent(name))
            pol = solve(m, initial_belief(m.states), num_stages=1, seed=0)
            runs.append((m, PolicyAgent(name, m, pol)))
        m, sm = runs[0]
        # every vector twice, the copy with another action: exact ties
        # everywhere, which only the lowest-index rule resolves
        doubled = Policy(alpha=np.vstack([sm.policy.alpha, sm.policy.alpha]),
                         actions=np.concatenate([sm.policy.actions,
                                                 sm.policy.actions[::-1]]))
        runs += [(m, PolicyAgent("sm-ties", m, doubled)), (m, OracleAgent(m)),
                 (m, FixedActionAgent(20))]
        out[p] = runs
    return out


def assert_runs_match_reference(runs, dyn, horizon, n, seed):
    """One simulate_slots call over all runs against the per-trial reference loop.

    Per run and trial: the shared cells and noise draws, the actions, rates
    and reset flags, and the belief rows the runner handed the agent, which
    are the reference's beliefs but its last posterior.
    """
    recorders = [RecordingAgent(agent) for _, agent in runs]
    log = simulate_slots([(m, rec) for (m, _), rec in zip(runs, recorders)], dyn,
                         horizon, n, seed)
    h = log.cells.shape[1]
    assert log.rates.shape == (n * len(runs), h)
    for r, ((model, agent), rec) in enumerate(zip(runs, recorders)):
        assert len(rec.beliefs) == h
        for t in range(n):
            want = reference_run_trial(model, dyn, agent, horizon,
                                       np.random.SeedSequence((seed, t)),
                                       record_beliefs=True)
            row = r * n + t
            assert np.array_equal(log.cells[t], want.cells), (agent.label, t)
            assert log.noise_draws[t].tobytes() == want.noise_draws.tobytes()
            assert np.array_equal(log.actions[row], want.actions), (agent.label, t)
            assert log.rates[row].tobytes() == want.rates.tobytes(), (agent.label, t)
            assert np.array_equal(log.resets[row], want.resets), (agent.label, t)
            got = np.array([block[t] for block in rec.beliefs]).reshape(h, model.num_states)
            assert got.tobytes() == want.beliefs[:-1].tobytes(), (agent.label, t)
    return log, recorders


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_lockstep_matches_reference_on_markov_paths(agents_by_p, p):
    runs = agents_by_p[p]
    dyn = MarkovDynamics(runs[0][0])
    for n in (1, 7, 32):
        for horizon in (0, 1, 200):
            assert_runs_match_reference(runs, dyn, horizon, n, seed=31 + n)


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_lockstep_matches_reference_on_fixed_paths(agents_by_p, p):
    scene = CFG.scene()
    for speed in (10.0, 50.0, 130.0):
        assert_runs_match_reference(agents_by_p[p], FixedPathDynamics(scene, speed, 0.25),
                                    0, 7, seed=17)


@pytest.mark.parametrize("p", [0.95, 0.35])
@pytest.mark.parametrize("wide", [False, True])
def test_banked_policy_agents_match_reference(agents_by_p, p, wide, monkeypatch):
    """Bare PolicyAgents, decided together by one rule call per slot, with
    scores padded to the longest alpha set: sm (4 vectors), sf39 without its
    last vector (3), and sm-ties (8) with every vector doubled. The oracle
    and a blind agent sit between them, so the policy rows are not
    contiguous. A wide policy (sm's vectors 30 times) makes the padded
    scores, 4 policies x 120 columns per trial, outgrow the beliefs, 6 runs
    x 46 states: then each agent decides alone, one rule call per policy
    run and slot."""
    sm, (m39, sf39), ties, oracle, blind = agents_by_p[p]
    short = Policy(alpha=sf39.policy.alpha[:-1], actions=sf39.policy.actions[:-1])
    runs = [sm, oracle, (m39, PolicyAgent("sf39", m39, short)), blind, ties]
    if wide:
        copies = Policy(alpha=np.tile(sm[1].policy.alpha, (30, 1)),
                        actions=np.concatenate([np.roll(sm[1].policy.actions, k)
                                                for k in range(30)]))
        runs.append((sm[0], PolicyAgent("sm-wide", sm[0], copies)))
    assert len({len(agent.policy.actions) for _, agent in runs[::2]}) == 3
    calls = []
    monkeypatch.setattr(simulate, "first_near_max",
                        lambda *a, **k: calls.append(1) or first_near_max(*a, **k))
    for dyn, horizon, n in ((MarkovDynamics(sm[0]), 200, 7),
                            (FixedPathDynamics(CFG.scene(), 50.0, 0.25), 0, 3)):
        calls.clear()
        log = simulate_slots(runs, dyn, horizon, n, seed=5)
        assert len(calls) == log.cells.shape[1] * (4 if wide else 1)
        for r, (model, agent) in enumerate(runs):
            for t in range(n):
                want = reference_run_trial(model, dyn, agent, horizon,
                                           np.random.SeedSequence((5, t)))
                row = r * n + t
                assert np.array_equal(log.actions[row], want.actions), (agent.label, t)
                assert log.rates[row].tobytes() == want.rates.tobytes(), (agent.label, t)
                assert np.array_equal(log.resets[row], want.resets), (agent.label, t)


def test_fallback_banks_share_one_scores_buffer(agents_by_p, monkeypatch):
    """Where one bank's padded scores would outgrow the beliefs, each policy
    run decides in a bank of its own, and all of them write their scores into
    one buffer of n rows by the widest alpha set."""
    made, bank = [], simulate.PolicyBank
    monkeypatch.setattr(simulate, "PolicyBank", lambda *a: made.append(bank(*a)) or made[-1])
    sm, sf39, ties, oracle, _ = agents_by_p[0.95]
    wide = Policy(alpha=np.tile(sm[1].policy.alpha, (30, 1)),
                  actions=np.tile(sm[1].policy.actions, 30))
    runs = [sm, oracle, sf39, (sm[0], PolicyAgent("sm-wide", sm[0], wide)), ties]
    n, widest = 7, len(wide.actions)
    simulate_slots(runs, MarkovDynamics(sm[0]), 5, n, seed=1)
    assert len(made) == 4 and all(b.scores.base is made[0].scores.base for b in made)
    assert made[0].scores.base.shape == (n, widest)
    made.clear()
    simulate_slots(runs[:3], MarkovDynamics(sm[0]), 5, n, seed=1)     # one bank
    assert len(made) == 1 and made[0].scores.shape == (2 * n, made[0].width)


def test_lockstep_matches_reference_with_resets(model):
    broken = dead_bin_model(model)
    # the same bins with bin 0 certain: every observation is possible there
    certain = np.zeros_like(broken.O)
    certain[:, :, 0] = 1.0
    alive = replace(broken, O=certain)
    runs = [(alive, FixedActionAgent(5)), (broken, OracleAgent(broken)),
            (broken, FixedActionAgent(5)), (alive, OracleAgent(alive))]
    log, recorders = assert_runs_match_reference(runs, MarkovDynamics(broken), 16, 7, seed=2)
    for r, ((m, _), rec) in enumerate(zip(runs, recorders)):
        resets = log.resets[r * 7:(r + 1) * 7]
        assert resets.all() if m is broken else not resets.any()
        if m is broken:
            assert np.all(np.array(rec.beliefs[1:]) == 1.0 / m.num_states)
    log = simulate_slots([(broken, FixedActionAgent(5))], MarkovDynamics(broken), 16, 3,
                         seed=2)
    assert log.resets[1].all()


def test_lockstep_beliefs_match_reference(agents_by_p):
    """Recorded beliefs: a single trial, and a block of trials."""
    model, agent = agents_by_p[0.35][0]
    dyn = MarkovDynamics(model)
    assert_runs_match_reference([(model, agent)], dyn, 200, 1, seed=8)
    assert_runs_match_reference([(model, agent)], dyn, 200, 32, seed=8)


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_lockstep_beliefs_of_every_run_match_reference(agents_by_p, p):
    runs = agents_by_p[p]
    assert_runs_match_reference(runs, MarkovDynamics(runs[0][0]), 200, 7, seed=8)
    assert_runs_match_reference(runs, FixedPathDynamics(CFG.scene(), 50.0, 0.25),
                                0, 3, seed=8)


def test_monte_carlo_matches_per_run_simulation(agents_by_p):
    """The merged runner gives exactly the metrics of one run at a time."""
    runs = agents_by_p[0.95]
    merged = monte_carlo(runs, 9, 40, seed=3)
    for run, m in zip(runs, merged):
        (alone,) = monte_carlo([run], 9, 40, seed=3)
        assert m == alone
    assert monte_carlo([], 9, 40, seed=3) == []


@pytest.mark.parametrize("p", [0.95, 0.35])
def test_metrics_runner_matches_aggregated_traces(agents_by_p, model, p):
    """SlotLog.metrics equals the metrics computed from reference traces."""
    broken = dead_bin_model(model)
    cases = [(agents_by_p[p], MarkovDynamics(agents_by_p[p][0][0]), 60, 7),
             (agents_by_p[p], MarkovDynamics(agents_by_p[p][0][0]), 0, 3),
             (agents_by_p[p], FixedPathDynamics(CFG.scene(), 130.0, 0.25), 0, 5),
             ([(broken, FixedActionAgent(5)), (broken, OracleAgent(broken))],
              MarkovDynamics(broken), 16, 4)]
    for runs, dyn, horizon, n in cases:
        log = simulate_slots(runs, dyn, horizon, n, seed=12)
        traces = [[reference_run_trial(m, dyn, agent, horizon, np.random.SeedSequence((12, t)))
                   for t in range(n)] for m, agent in runs]
        got = log.metrics()
        assert len(got) == len(runs)
        for (m, agent), metrics, run_traces in zip(runs, got, traces):
            assert metrics == reference_metrics(m, agent.label, run_traces)
    assert monte_carlo([], 2, 5, seed=0) == []
    for runs in ([], agents_by_p[p]):
        with pytest.raises(ValueError, match="num_trials"):
            monte_carlo(runs, 0, 5, seed=0)
    with pytest.raises(ValueError, match="num_trials"):
        simulate_slots(agents_by_p[p], FixedPathDynamics(CFG.scene(), 50.0, 0.25), 0, 0,
                       seed=0)


def test_runs_with_another_chain_are_rejected(agents_by_p, model):
    fast, slow = agents_by_p[0.95], agents_by_p[0.35]
    other_cells = ExperimentConfig.from_dict({"scene": {"num_cells": 4}}).build_model()
    broken = dead_bin_model(model)
    cases = [
        (fast[:2] + slow[3:4] + slow[:1], "run 2 (oracle): its model's T differs"),
        ([(model, OracleAgent(model)), (broken, FixedActionAgent(5, "dead"))],
         "run 1 (dead): its model's thresholds differs"),
        ([(model, OracleAgent(model)), (other_cells, FixedActionAgent(1))],
         "run 1 (blind): its model's states differs"),
    ]
    for runs, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate_slots(runs, MarkovDynamics(runs[0][0]), 5, 1, seed=0)
        with pytest.raises(ValueError, match=re.escape(message)):
            monte_carlo(runs, 2, 5, seed=0)
    with pytest.raises(ValueError, match="run 1"):
        simulate_slots(fast[:1] + slow[:1], FixedPathDynamics(CFG.scene(), 50.0, 0.25),
                       0, 2, seed=0)


# ------------------------------------------------- points in one lockstep

def lockstep_runs(agents_by_p, p, wide):
    """The runs of test_banked_policy_agents_match_reference at p: policy rows
    apart, three alpha-set widths, and with `wide` a policy whose padded scores
    outgrow the beliefs, so each policy run decides in a bank of its own."""
    sm, (m39, sf39), ties, oracle, blind = agents_by_p[p]
    short = Policy(alpha=sf39.policy.alpha[:-1], actions=sf39.policy.actions[:-1])
    runs = [sm, oracle, (m39, PolicyAgent("sf39", m39, short)), blind, ties]
    if wide:
        copies = Policy(alpha=np.tile(sm[1].policy.alpha, (30, 1)),
                        actions=np.concatenate([np.roll(sm[1].policy.actions, k)
                                                for k in range(30)]))
        runs.append((sm[0], PolicyAgent("sm-wide", sm[0], copies)))
    return runs


@pytest.mark.parametrize("wide", [False, True])
def test_points_in_one_lockstep_match_separate_calls(agents_by_p, wide):
    """Markov points at two p, each through its own T, and fixed paths at three
    speeds, stepped together: every point's actions, rates, resets, cells and
    noise draws are those of its own simulate_slots call."""
    runs = {p: lockstep_runs(agents_by_p, p, wide) for p in (0.95, 0.35)}
    scene = CFG.scene()
    fixed = [(runs[p], FixedPathDynamics(scene, speed, 0.25), 0)
             for p, speed in ((0.35, 10.0), (0.95, 50.0), (0.35, 90.0))]
    for n, horizon in ((1, 60), (7, 60), (7, 0)):
        points = [(runs[p], MarkovDynamics(runs[p][0][0]), horizon) for p in (0.35, 0.95)]
        for group in (points, points + fixed, fixed[::-1]):
            logs = simulate.simulate_points(group, n, seed=21)
            assert len(logs) == len(group)
            for (point_runs, dyn, h), log in zip(group, logs):
                alone = simulate_slots(point_runs, dyn, h, n, seed=21)
                assert log.runs is point_runs
                for name in ("actions", "rates", "resets", "cells", "noise_draws"):
                    got, want = getattr(log, name), getattr(alone, name)
                    assert got.shape == want.shape and got.dtype == want.dtype, name
                    assert got.tobytes() == want.tobytes(), (name, n, horizon)
                assert log.metrics() == alone.metrics()


def test_lockstep_groups_hold_at_most_one_default_point():
    """A group holds at most the rows and agent-slots of one default point."""
    assert (simulate.LOCKSTEP_ROWS, simulate.LOCKSTEP_AGENT_SLOTS) == (5 * 500, 5 * 500 * 200)
    groups = simulate.lockstep_groups
    assert groups([(2500, 200)] * 3) == [[0], [1], [2]]
    assert groups([(100, 200)] * 5) == [[0, 1, 2, 3, 4]]           # the benchmark's sweep
    assert groups([(100, h) for h in (345, 115, 69, 49, 38)] * 2) == [list(range(10))]
    # the default robustness points: each alone, by rows or agent-slots
    assert groups([(2500, h) for h in (345, 115, 69, 49, 38)]) == [[0], [1], [2], [3], [4]]
    assert groups([(1000, 345), (1000, 100), (400, 1), (2500, 1), (10, 5)]) == \
        [[0, 1, 2], [3], [4]]
    assert groups([(1000, 400), (1000, 101)]) == [[0], [1]]           # 501,000 agent-slots
    assert groups([]) == []


def test_points_with_another_state_space_or_bins_are_rejected(agents_by_p, model):
    fast, slow = agents_by_p[0.95], agents_by_p[0.35]
    other_cells = ExperimentConfig.from_dict({"scene": {"num_cells": 4}}).build_model()
    broken = dead_bin_model(model)
    dyn = FixedPathDynamics(CFG.scene(), 50.0, 0.25)
    simulate.simulate_points([(fast, dyn, 0), (slow, dyn, 0)], 2, seed=0)  # T per point
    cases = [
        ([(fast, dyn, 0), (slow[:1] + fast[:1], dyn, 0)],
         "point 1, run 1 (sm): its model's T differs from run 0's"),
        ([(fast, dyn, 0), ([(other_cells, FixedActionAgent(1))], dyn, 0)],
         "point 1, run 0 (blind): its model's states differs from point 0, run 0's"),
        ([(fast, dyn, 0), ([(broken, FixedActionAgent(5, "dead"))], dyn, 0)],
         "point 1, run 0 (dead): its model's thresholds differs from point 0, run 0's"),
    ]
    for points, message in cases:
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate.simulate_points(points, 2, seed=0)
