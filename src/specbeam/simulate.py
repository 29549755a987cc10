"""Episode simulation, Monte Carlo aggregation, and the fixed-path study.

Slot protocol: the user moves first, transmission happens at the new cell.
A policy agent therefore commits its action from the belief over the
previous position (it must predict the move); the oracle reads the new cell
directly, so its beam is always aligned. The sampled SNR is quantized into
the observation that drives the belief update.

Agents are compared under common random numbers: trial t of every agent is
driven by streams spawned from SeedSequence((root_seed, t)), and since
decisions consume no randomness, paths and noise realizations coincide
across agents with identical dynamics.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .geometry import SceneConfig, containing_cell
from .pbvi import Policy, extract_action
from .pomdp import ImpossibleObservation, PomdpModel, belief_update, initial_belief

_Z95 = 1.959963984540054


class Agent:
    """Base: maps (belief, true cell) to an action index of its model."""

    label = "agent"

    def act(self, belief: np.ndarray, true_cell: int) -> int:
        raise NotImplementedError


class PolicyAgent(Agent):
    """Greedy alpha-vector agent; ignores the true cell."""

    def __init__(self, label: str, model: PomdpModel, policy: Policy):
        self.label = label
        self.model = model
        self.policy = policy

    def act(self, belief: np.ndarray, true_cell: int) -> int:
        return extract_action(self.policy, belief)


class OracleAgent(Agent):
    """Perfect information: aligned beam, best channel for the cell's range."""

    def __init__(self, model: PomdpModel, label: str = "oracle"):
        self.label = label
        self.model = model
        self._by_cell = np.array(
            [oracle_action(model, cell) for cell in range(1, len(model.road) + 1)])

    def act(self, belief: np.ndarray, true_cell: int) -> int:
        return int(self._by_cell[true_cell - 1])


class FixedActionAgent(Agent):
    """Blind agent that repeats one action; a floor for sanity checks."""

    def __init__(self, action: int, label: str = "blind"):
        self.label = label
        self.action = int(action)

    def act(self, belief: np.ndarray, true_cell: int) -> int:
        return self.action


def oracle_action(model: PomdpModel, true_cell: int) -> int:
    """Aligned-beam action with the channel maximizing expected rate at r."""
    num_bands = len(model.bands)
    base = (true_cell - 1) * num_bands
    s = _state_with_cell(model, true_cell)
    aligned = [float(model.rbar[base + q, s]) for q in range(num_bands)]
    return base + int(np.argmax(aligned))


def _state_with_cell(model: PomdpModel, cell: int) -> int:
    cells = model.states.cells()
    return int(np.flatnonzero(cells == cell)[0])


class MarkovDynamics:
    """Ground-truth window dynamics drawn from the model's own chain."""

    def __init__(self, model: PomdpModel):
        self.model = model
        self._b0_cum = initial_belief(model.states).cumsum()
        self._t_cum = model.T.cumsum(axis=1)

    def initial(self, rng: np.random.Generator) -> int:
        top = self.model.num_states - 1
        return min(int(np.searchsorted(self._b0_cum, rng.random(), side="right")), top)

    def step(self, state: int, rng: np.random.Generator) -> int:
        top = self.model.num_states - 1
        return min(int(np.searchsorted(self._t_cum[state], rng.random(), side="right")), top)

    def cell_of(self, state: int) -> int:
        return self.model.states.cell_of(state)


class FixedPathDynamics:
    """Constant-speed traversal from y_min to y_max; consumes no randomness.

    The cell at slot t (t = 1, ..., n_slots) contains y_min + v*slot_s*t,
    mirroring the move-then-transmit protocol of the Markov runs. The slot
    count floor(road_length / (v*slot_s)) keeps every transmission on the
    road.
    """

    def __init__(self, scene: SceneConfig, speed_kmh: float, slot_s: float):
        if speed_kmh <= 0 or slot_s <= 0:
            raise ValueError("speed and slot length must be positive")
        self.scene = scene
        self.speed_mps = speed_kmh / 3.6
        self.slot_s = slot_s
        self.n_slots = int(math.floor(scene.road_length_m / (self.speed_mps * slot_s)))
        self.cells = np.array([
            containing_cell(scene, scene.road_y_min_m + self.speed_mps * slot_s * t)
            for t in range(1, self.n_slots + 1)], dtype=int)


@dataclass
class TrialTrace:
    """Per-slot log of one episode; rates are recomputable from it."""

    states: np.ndarray        # true window-state index, -1 on fixed paths
    cells: np.ndarray         # true cell during each transmission
    actions: np.ndarray
    noise_draws: np.ndarray   # unit-exponential |n|^2 / sigma^2 draws
    snrs: np.ndarray
    rates: np.ndarray         # bits/s
    observations: np.ndarray
    resets: np.ndarray        # True where an impossible observation reset b
    seed_key: tuple
    config_hash: str = ""
    beliefs: np.ndarray | None = None


@dataclass(frozen=True)
class Metrics:
    """Aggregate over trials for one agent."""

    label: str
    mean_rate_bps: float
    ci_halfwidth: float
    confidence: float
    utilization: dict[str, float]
    num_trials: int
    horizon: int
    reset_fraction: float
    slot_mean_rates: np.ndarray | None = None


def run_trial(model: PomdpModel, dynamics, agent: Agent, horizon: int,
              seed, record_beliefs: bool = False,
              config_hash: str = "") -> TrialTrace:
    """Simulate one episode; every slot consumes one path + one noise draw."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    path_ss, noise_ss = seq.spawn(2)
    path_rng = np.random.default_rng(path_ss)
    noise_rng = np.random.default_rng(noise_ss)

    gains = model.gains
    widths = np.array([b.bandwidth_hz for b in model.bands])
    sigmas = np.array([model.consts.noise_variance_w(w) for w in widths])
    band_idx = model.actions.band_idx

    fixed = isinstance(dynamics, FixedPathDynamics)
    if fixed:
        horizon = dynamics.n_slots
    b = initial_belief(model.states)
    state = -1 if fixed else dynamics.initial(path_rng)

    states = np.empty(horizon, dtype=int)
    cells = np.empty(horizon, dtype=int)
    actions = np.empty(horizon, dtype=int)
    draws = np.empty(horizon)
    snrs = np.empty(horizon)
    rates = np.empty(horizon)
    obs = np.empty(horizon, dtype=int)
    resets = np.zeros(horizon, dtype=bool)
    beliefs = np.empty((horizon + 1, model.num_states)) if record_beliefs else None
    if beliefs is not None:
        beliefs[0] = b

    for t in range(horizon):
        if fixed:
            path_rng.random()            # keep stream parity with Markov runs
            cell = int(dynamics.cells[t])
        else:
            state = dynamics.step(state, path_rng)
            cell = dynamics.cell_of(state)
        a = agent.act(b, cell)
        u = noise_rng.random()
        e = -math.log1p(-u)
        q = band_idx[a]
        snr = gains[a, cell - 1] / (sigmas[q] * e)
        z = int(np.searchsorted(model.thresholds, snr, side="right"))
        try:
            b = belief_update(model, b, a, z)
        except ImpossibleObservation:
            b = np.full(model.num_states, 1.0 / model.num_states)
            resets[t] = True
        states[t] = state
        cells[t] = cell
        actions[t] = a
        draws[t] = e
        snrs[t] = snr
        rates[t] = widths[q] * math.log2(1.0 + snr)
        obs[t] = z
        if beliefs is not None:
            beliefs[t + 1] = b

    return TrialTrace(states=states, cells=cells, actions=actions,
                      noise_draws=draws, snrs=snrs, rates=rates,
                      observations=obs, resets=resets,
                      seed_key=tuple(int(x) for x in np.atleast_1d(seq.entropy)),
                      config_hash=config_hash, beliefs=beliefs)


def _trial_block(args) -> list[TrialTrace]:
    """Traces of the listed trials; trial t is seeded by (root_seed, t)."""
    model, dynamics, agent, horizon, root_seed, trials = args
    return [run_trial(model, dynamics, agent, horizon,
                      np.random.SeedSequence((root_seed, t))) for t in trials]


def simulate_trials(model: PomdpModel, dynamics, agent: Agent, horizon: int,
                    num_trials: int, seed: int, threads: int = 1) -> list[TrialTrace]:
    """Trials 0, ..., num_trials - 1 of one agent, in trial order.

    With threads > 1 contiguous blocks of trials run in worker processes;
    each trial owns its seed, so the traces do not depend on the split.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    if threads <= 1:
        return _trial_block((model, dynamics, agent, horizon, seed, range(num_trials)))
    blocks = np.array_split(np.arange(num_trials), threads * 4)
    jobs = [(model, dynamics, agent, horizon, seed, blk.tolist())
            for blk in blocks if len(blk)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return [trace for traces in pool.map(_trial_block, jobs) for trace in traces]


def aggregate(model: PomdpModel, agent: Agent, horizon: int,
              traces: list[TrialTrace], keep_slots: bool = False) -> Metrics:
    """Mean rate with its 95% interval, band utilization and reset share."""
    n = len(traces)
    means = np.array([float(tr.rates.mean()) if len(tr.rates) else 0.0
                      for tr in traces])
    counts = np.sum([np.bincount(model.actions.band_idx[tr.actions],
                                 minlength=len(model.bands)) for tr in traces], axis=0)
    resets = sum(int(tr.resets.sum()) for tr in traces)
    mean = math.fsum(means) / n
    sd = float(means.std(ddof=1)) if n > 1 else 0.0
    half = _Z95 * sd / math.sqrt(n) if n > 1 else float("inf")
    total_slots = int(counts.sum())
    util = {band.label: (float(counts[q]) / total_slots if total_slots else 0.0)
            for q, band in enumerate(model.bands)}
    slot_means = None
    if keep_slots and horizon:
        slot_means = np.sum([tr.rates for tr in traces], axis=0) / n
    return Metrics(label=agent.label, mean_rate_bps=mean, ci_halfwidth=half,
                   confidence=0.95, utilization=util, num_trials=n,
                   horizon=horizon,
                   reset_fraction=resets / max(total_slots, 1),
                   slot_mean_rates=slot_means)


def monte_carlo(runs: list[tuple[PomdpModel, Agent]], num_trials: int,
                horizon: int, seed: int, threads: int = 1,
                keep_slots: bool = False) -> list[Metrics]:
    """Paired Monte Carlo over agents on each model's own chain.

    `runs` pairs each agent with the model whose action space it uses
    (single-frequency agents carry their restricted model); trial t shares
    its randomness across runs.
    """
    return [aggregate(model, agent, horizon,
                      simulate_trials(model, MarkovDynamics(model), agent,
                                      horizon, num_trials, seed, threads),
                      keep_slots)
            for model, agent in runs]


def fixed_path_eval(model: PomdpModel, scene: SceneConfig, agent: Agent,
                    speed_kmh: float, slot_s: float, num_trials: int,
                    seed: int, threads: int = 1) -> Metrics:
    """Constant-speed traversal; belief still evolves by the Markov model."""
    dyn = FixedPathDynamics(scene, speed_kmh, slot_s)
    traces = simulate_trials(model, dyn, agent, dyn.n_slots, num_trials, seed, threads)
    return aggregate(model, agent, dyn.n_slots, traces, keep_slots=True)


def perfect_info_rates(model: PomdpModel) -> dict[str, float]:
    """Per-channel mean over cells of the aligned expected rate, bits/s."""
    from .arrays import aligned_gain, expected_rate

    out = {}
    for band in model.bands:
        sig = model.consts.noise_variance_w(band.bandwidth_hz)
        vals = [expected_rate(band.bandwidth_hz,
                              aligned_gain(model.consts, band, cell.r_m), sig)
                for cell in model.road]
        out[band.label] = math.fsum(vals) / len(vals)
    return out
