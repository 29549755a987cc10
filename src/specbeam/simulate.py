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

One lockstep runner simulates every trial of a (model, agent) run: the
beliefs are the rows of an (n, |S|) matrix and all trials advance one slot
at a time. Paths and noise do not depend on actions, so each trial's
streams are drawn before the loop (Generator.random(h) equals h single
draws; fixed paths draw nothing). The traces are bit-identical to a
per-trial loop: pomdp.belief_update stacks per-row matrix-vector products
with np.matmul (a batched B @ T rounds the beliefs differently), the logs
are math.log1p/math.log2, which differ from the numpy ufuncs in the last
bit, and actions are pbvi.first_near_max decisions, which the rounding
of the score product does not flip at ties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import SceneConfig, containing_cell
from .pbvi import Policy, first_near_max, tie_tolerance
from .pomdp import PomdpModel, belief_update, initial_belief

_Z95 = 1.959963984540054


class Agent:
    """Base: maps beliefs (n, |S|) and true cells (n,) to actions (n,)."""

    label = "agent"

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class PolicyAgent(Agent):
    """Greedy alpha-vector agent; ignores the true cell."""

    def __init__(self, label: str, model: PomdpModel, policy: Policy):
        self.label = label
        self.model = model
        self.policy = policy
        self.tol = tie_tolerance(model)

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        values = beliefs @ self.policy.alpha.T
        return self.policy.actions[first_near_max(values, self.tol, axis=1)]


class OracleAgent(Agent):
    """Perfect information: aligned beam, best channel for the cell's range."""

    def __init__(self, model: PomdpModel, label: str = "oracle"):
        self.label = label
        self.model = model
        self._by_cell = np.array(
            [oracle_action(model, cell) for cell in range(1, len(model.road) + 1)])

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        return self._by_cell[true_cells - 1]


class FixedActionAgent(Agent):
    """Blind agent that repeats one action; a floor for sanity checks."""

    def __init__(self, action: int, label: str = "blind"):
        self.label = label
        self.action = int(action)

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        return np.full(len(true_cells), self.action)


def oracle_action(model: PomdpModel, true_cell: int) -> int:
    """Aligned-beam action with the channel maximizing expected rate at r."""
    num_bands = len(model.bands)
    base = (true_cell - 1) * num_bands
    s = int(np.flatnonzero(model.states.cells() == true_cell)[0])
    aligned = model.rbar[base:base + num_bands, s]
    return base + int(first_near_max(aligned, tie_tolerance(model)))


class MarkovDynamics:
    """Ground-truth window dynamics drawn from the model's own chain."""

    def __init__(self, model: PomdpModel):
        self.model = model
        self._b0_cum = initial_belief(model.states).cumsum()
        self._t_cum = model.T.cumsum(axis=1)

    def states(self, u: np.ndarray) -> np.ndarray:
        """(n, h) states of n paths; u (n, h + 1) uniforms, column 0 the start.

        Inverse-CDF steps: on a non-decreasing cumsum row, the count of
        entries <= u equals searchsorted(row, u, side="right").
        """
        top = self.model.num_states - 1
        state = np.minimum(np.searchsorted(self._b0_cum, u[:, 0], side="right"), top)
        out = np.empty((u.shape[0], u.shape[1] - 1), dtype=int)
        for t in range(out.shape[1]):
            state = np.minimum((self._t_cum[state] <= u[:, t + 1, None]).sum(axis=1), top)
            out[:, t] = state
        return out


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


def _lockstep(model: PomdpModel, dynamics, agent: Agent, horizon: int,
              seqs: list, record_beliefs: bool = False,
              config_hash: str = "") -> list[TrialTrace]:
    """Traces of the trials seeded by `seqs`, all advanced one slot at a time."""
    n, num_states = len(seqs), model.num_states
    rngs = [[np.random.default_rng(ss) for ss in seq.spawn(2)] for seq in seqs]
    if isinstance(dynamics, FixedPathDynamics):
        horizon = dynamics.n_slots
        states = np.full((n, horizon), -1)
        cells = np.tile(dynamics.cells, (n, 1))
    else:
        states = dynamics.states(np.array([path.random(horizon + 1) for path, _ in rngs]))
        cells = model.states.cells()[states]
    draws = np.array([[-math.log1p(-u) for u in noise.random(horizon).tolist()]
                      for _, noise in rngs])

    widths = np.array([b.bandwidth_hz for b in model.bands])
    sigmas = np.array([model.consts.noise_variance_w(w) for w in widths])
    band_idx = model.actions.band_idx
    actions = np.empty((n, horizon), dtype=int)
    snrs = np.empty((n, horizon))
    obs = np.empty((n, horizon), dtype=int)
    resets = np.zeros((n, horizon), dtype=bool)
    b = np.tile(initial_belief(model.states), (n, 1))
    beliefs = np.empty((n, horizon + 1, num_states)) if record_beliefs else None
    if beliefs is not None:
        beliefs[:, 0] = b

    for t in range(horizon):
        a = agent.act(b, cells[:, t])
        snr = model.gains[a, cells[:, t] - 1] / (sigmas[band_idx[a]] * draws[:, t])
        z = np.searchsorted(model.thresholds, snr, side="right")
        b, resets[:, t] = belief_update(model, b, a, z)
        actions[:, t], snrs[:, t], obs[:, t] = a, snr, z
        if beliefs is not None:
            beliefs[:, t + 1] = b
    log2s = [math.log2(1.0 + s) for s in snrs.ravel().tolist()]
    rates = widths[band_idx[actions]] * np.array(log2s).reshape(n, horizon)

    return [TrialTrace(states=states[i], cells=cells[i], actions=actions[i],
                       noise_draws=draws[i], snrs=snrs[i], rates=rates[i],
                       observations=obs[i], resets=resets[i],
                       seed_key=tuple(int(x) for x in np.atleast_1d(seq.entropy)),
                       config_hash=config_hash,
                       beliefs=None if beliefs is None else beliefs[i])
            for i, seq in enumerate(seqs)]


def run_trial(model: PomdpModel, dynamics, agent: Agent, horizon: int,
              seed, record_beliefs: bool = False,
              config_hash: str = "") -> TrialTrace:
    """Simulate one episode: the lockstep runner on a single trial."""
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return _lockstep(model, dynamics, agent, horizon, [seq], record_beliefs,
                     config_hash)[0]


def simulate_trials(model: PomdpModel, dynamics, agent: Agent, horizon: int,
                    num_trials: int, seed: int) -> list[TrialTrace]:
    """Trials 0, ..., num_trials - 1 of one agent, in trial order.

    Trial t is seeded by SeedSequence((seed, t)), whatever the trial count.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    return _lockstep(model, dynamics, agent, horizon,
                     [np.random.SeedSequence((seed, t)) for t in range(num_trials)])


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
                horizon: int, seed: int, keep_slots: bool = False) -> list[Metrics]:
    """Paired Monte Carlo over agents on each model's own chain.

    `runs` pairs each agent with the model whose action space it uses
    (single-frequency agents carry their restricted model); trial t shares
    its randomness across runs.
    """
    return [aggregate(model, agent, horizon,
                      simulate_trials(model, MarkovDynamics(model), agent,
                                      horizon, num_trials, seed),
                      keep_slots)
            for model, agent in runs]


def fixed_path_eval(model: PomdpModel, scene: SceneConfig, agent: Agent,
                    speed_kmh: float, slot_s: float, num_trials: int,
                    seed: int) -> Metrics:
    """Constant-speed traversal; belief still evolves by the Markov model."""
    dyn = FixedPathDynamics(scene, speed_kmh, slot_s)
    traces = simulate_trials(model, dyn, agent, dyn.n_slots, num_trials, seed)
    return aggregate(model, agent, dyn.n_slots, traces, keep_slots=True)


def perfect_info_rates(model: PomdpModel) -> dict[str, float]:
    """Per-channel mean over cells of the aligned expected rate, bits/s."""
    from .arrays import aligned_gain, expected_rate

    bw = np.array([band.bandwidth_hz for band in model.bands])[:, None]
    aligned = np.array([[aligned_gain(model.consts, band, cell.r_m) for cell in model.road]
                        for band in model.bands])
    rates = expected_rate(bw, aligned, model.consts.noise_variance_w(bw))
    return {band.label: math.fsum(row) / len(row) for band, row in zip(model.bands, rates)}
