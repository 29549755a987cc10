"""Episode simulation, Monte Carlo metrics, and the fixed-path study.

Slot protocol: the user moves first, transmission happens at the new cell.
A policy agent therefore commits its action from the belief over the
previous position (it must predict the move); the oracle reads the new cell
directly, so its beam is always aligned. The sampled SNR is quantized into
the observation that drives the belief update.

One runner, simulate_points, steps points together. A point is a list of
(model, agent) runs with its dynamics and horizon: one p of `sweep-p`, one
(p, speed) of `robustness`; simulate_slots runs one point. The runs of a
point share the chain T, and all runs of all points the SNR bins and the
states. Agents are compared under common random numbers, which hold by
construction: trial t's streams, spawned from SeedSequence((seed, t)), are
drawn once, for the longest horizon, so its path and noise draws are one
array shared by every run and every point reads a prefix of it
(Generator.random(h) is a prefix of a longer draw), not equal copies. A
Markov point's path moves through its own T.

The beliefs of all runs are the rows of one matrix, point by point and a
block of trials per run, the longest horizon first, and all trials advance
one slot at a time; a point's rows drop out when its path ends, so the
live rows are a prefix. Per slot, one PolicyBank rule call decides every
PolicyAgent row into one reused action vector (a bank per agent, sharing
one score buffer, if the padded scores would outgrow the beliefs), an
oracle reads its cell table, other agents act on their own blocks, gains
and noise come from the runs' stacked tables (models that share their
tables, as ExperimentConfig's builds do, once), likelihood rows
O[a, :, z] are contiguous rows of one (A, Z, S) stack, and one
pomdp.belief_update call updates every row, each point's rows predicted
through its own T; rates are formed from the stored SNRs after the loop.
Paths and noise do not depend on actions, so they are drawn before the
loop (fixed paths draw nothing; a Markov step draws over the state's
successors, MarkovDynamics). Every slot is bit-identical to a per-trial,
per-agent loop: pomdp.belief_update stacks per-row matrix-vector products
with np.matmul (a batched B @ T rounds the beliefs differently), the logs
are math.log1p/math.log2, which differ from the numpy ufuncs in the last
bit, each decision is the rule's arithmetic on the scores an agent forms
alone from its unchanged row block, and every other step is per row, so no
byte depends on which points step together.

Each point's SlotLog keeps each agent-slot's action, rate and reset flag,
about 10 bytes, next to the point's cells (one row on a fixed path) and
noise draws; each slot writes its actions, SNRs and resets into column t of
every live point's log. Observations and beliefs last one slot.
lockstep_groups caps what steps together at the rows and agent-slots of
one point of the default config, so the CLI's default runs step one point
at a time, as before. SlotLog.metrics gives each run's mean rate with its
95% interval, band utilization and reset share: the rows of monte_carlo,
fixed_path_eval and the CLI's CSVs. The CLI's trace log is written from
the same logs.

A fixed path's slot count is fixed_path_slots, which config validation
checks as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import aligned_gain, expected_rate
from .geometry import SceneConfig, containing_cell
from .pbvi import Policy, first_near_max, tie_tolerance
from .pomdp import PomdpModel, belief_update, initial_belief, inverse_cdf

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
        self.policy = policy
        self.tol = tie_tolerance(model)

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        return PolicyBank([self], [slice(0, len(beliefs))]).act(beliefs)


class PolicyBank:
    """PolicyAgents deciding together, each for its block of n belief rows.

    Agent i's scores, the product b_i @ alpha_i.T it forms alone, fill rows
    i*n, ..., i*n + n - 1 of one matrix padded with -inf to the longest
    alpha set; one first_near_max call, each row with its agent's
    tolerance, picks every row's vector, so each decision is the agent's own.
    The matrix is allocated, and padded, once. A bank of one agent needs no
    padding, so such banks may share one (n, >= width) `scores` buffer."""

    def __init__(self, agents: list[PolicyAgent], blocks: list[slice],
                 scores: np.ndarray | None = None):
        alphas, sizes = [a.policy.alpha for a in agents], [len(a.policy.actions) for a in agents]
        self.rows = np.r_[tuple(blocks)]
        self.n, self.width = len(self.rows) // len(agents), max(sizes)
        self.tol = np.repeat([a.tol for a in agents], self.n)[:, None]
        self.first = np.repeat(np.cumsum([0] + sizes[:-1]), self.n)
        self.actions = np.concatenate([a.policy.actions for a in agents])
        if scores is None:
            scores = np.full((len(self.rows), self.width), -np.inf)
        self.scores = scores[:, :self.width]
        n = self.n
        self._terms = [(block, alpha.T, self.scores[i * n:(i + 1) * n, :len(alpha)])
                       for i, (alpha, block) in enumerate(zip(alphas, blocks))]

    def act(self, beliefs: np.ndarray) -> np.ndarray:
        """Actions of the belief rows self.rows, in that order."""
        scores = self.scores
        for block, alpha_t, out in self._terms:
            np.matmul(beliefs[block], alpha_t, out=out)
        return self.actions[self.first + first_near_max(scores, self.tol, axis=1)]


class OracleAgent(Agent):
    """Perfect information: aligned beam, best channel for the cell's range."""

    label = "oracle"

    def __init__(self, model: PomdpModel):
        self._by_cell = np.array(
            [oracle_action(model, cell) for cell in range(1, len(model.road) + 1)])

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        return self._by_cell[true_cells - 1]


def oracle_action(model: PomdpModel, true_cell: int) -> int:
    """Aligned-beam action with the channel maximizing expected rate at r."""
    num_bands = len(model.bands)
    base = (true_cell - 1) * num_bands
    s = int(np.flatnonzero(model.states.cells() == true_cell)[0])
    aligned = model.rbar[base:base + num_bands, s]
    return base + int(first_near_max(aligned, tie_tolerance(model)))


class MarkovDynamics:
    """Ground-truth window dynamics drawn from the model's own chain.

    A step draws over the state's successors, the nonzero entries of its T
    row, with their entries of the full row's cumsum: the first entry of a
    non-decreasing cumsum above u is a successor's, so the draw equals
    inverse_cdf over the full row, and a draw at or above the row's last
    entry (one rounded below 1) lands on the last state, as its cap does."""

    def __init__(self, model: PomdpModel):
        self._b0_cum = initial_belief(model.states).cumsum()
        n_s = model.num_states
        rows, cols = np.nonzero(model.T)
        rank = np.arange(rows.size) - rows.searchsorted(rows)   # among the row's successors
        # column s: state s's successors' cumsum entries, then +inf; row s of _next: the
        # successors, then the last state for a draw above them all
        self._cum = np.full((rank.max() + 2, n_s), np.inf)
        self._cum[rank, rows] = model.T.cumsum(axis=1)[rows, cols]
        self._next = np.full((n_s, rank.max() + 2), n_s - 1)
        self._next[rows, rank] = cols

    def states(self, u: np.ndarray) -> np.ndarray:
        """(n, h) states of n paths; u (n, h + 1) uniforms, column 0 the start."""
        state = inverse_cdf(self._b0_cum, u[:, 0])
        out = np.empty((u.shape[1] - 1, u.shape[0]), dtype=int)     # slot-major
        for t, u_t in enumerate(np.ascontiguousarray(u[:, 1:].T)):
            state = self._next[state, (self._cum.take(state, axis=1) <= u_t).sum(axis=0)]
            out[t] = state
        return out.T


def fixed_path_slots(road_m: float, speed_kmh: float, slot_s: float) -> int:
    """Slots of a constant-speed traversal of a road_m road: floor(road_m / (v*slot_s))."""
    if speed_kmh <= 0 or slot_s <= 0:
        raise ValueError("speed and slot length must be positive")
    return int(math.floor(road_m / (speed_kmh / 3.6 * slot_s)))


class FixedPathDynamics:
    """Constant-speed traversal from y_min to y_max; consumes no randomness.

    The cell at slot t (t = 1, ..., n_slots) contains y_min + v*slot_s*t,
    mirroring the move-then-transmit protocol of the Markov runs, and
    clamped to y_max: the last step may round past the road end.
    """

    def __init__(self, scene: SceneConfig, speed_kmh: float, slot_s: float):
        self.n_slots = fixed_path_slots(scene.road_length_m, speed_kmh, slot_s)
        step = speed_kmh / 3.6 * slot_s
        self.cells = np.array([
            containing_cell(scene, min(scene.road_y_min_m + step * t, scene.road_y_max_m))
            for t in range(1, self.n_slots + 1)], dtype=int)


@dataclass(frozen=True)
class Metrics:
    """Aggregate over trials for one agent."""

    label: str
    mean_rate_bps: float
    ci_halfwidth: float
    utilization: dict[str, float]
    num_trials: int
    reset_fraction: float


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """fn (a math function) of every element of x; numpy's ufuncs round differently."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _check_shared_chain(points) -> None:
    """Raise unless every point has runs, every run of a point has the point's
    first T, and every run the first run's SNR bins and states."""
    for k, (runs, _, _) in enumerate(points):
        if not runs:
            raise ValueError(f"point {k} has no runs")
    first = points[0][0][0][0]
    for k, (runs, _, _) in enumerate(points):
        where, ref = (f"point {k}, ", "point 0, run 0") if len(points) > 1 else ("", "run 0")
        for i, (model, agent) in enumerate(runs):
            for name, same, of in (
                    ("states", model.states == first.states, ref),
                    ("T", np.array_equal(model.T, runs[0][0].T), "run 0"),
                    ("thresholds", np.array_equal(model.thresholds, first.thresholds), ref)):
                if not same:
                    raise ValueError(
                        f"{where}run {i} ({agent.label}): its model's {name} differs "
                        f"from {of}'s; the runs of a point share one chain, and all "
                        f"runs one set of SNR bins and one state space")


@dataclass
class SlotLog:
    """What the runner keeps of the trials of a list of runs.

    Run r owns rows r*n, ..., r*n + n - 1 of actions, rates and resets
    (n trials, h slots). cells and noise_draws, (n, h), are every run's.
    """

    runs: list
    cells: np.ndarray
    noise_draws: np.ndarray
    actions: np.ndarray         # the smallest integer type that holds them
    rates: np.ndarray           # bits/s
    resets: np.ndarray

    def metrics(self) -> list[Metrics]:
        """Each run's mean rate with its 95% interval, band utilization and
        reset share."""
        n = len(self.cells)
        out = []
        for r, (model, agent) in enumerate(self.runs):
            rows = slice(r * n, (r + 1) * n)
            means = np.array(trial_means(self.rates[rows]))
            counts = np.bincount(model.actions.band_idx[self.actions[rows]].ravel(),
                                 minlength=len(model.bands))
            total = int(counts.sum())
            out.append(Metrics(
                label=agent.label, mean_rate_bps=math.fsum(means) / n,
                ci_halfwidth=(_Z95 * float(means.std(ddof=1)) / math.sqrt(n)
                              if n > 1 else math.inf),
                utilization={band.label: float(counts[q]) / total if total else 0.0
                             for q, band in enumerate(model.bands)},
                num_trials=n, reset_fraction=int(self.resets[rows].sum()) / max(total, 1)))
        return out


# A lockstep holds at most the rows and the agent-slots of one point of the
# default config (5 runs x 500 trials, 200 slots): its beliefs and its logs
# peak no higher than that point's.
LOCKSTEP_ROWS = 2500
LOCKSTEP_AGENT_SLOTS = 2500 * 200


def lockstep_groups(sizes: list[tuple[int, int]]) -> list[list[int]]:
    """Consecutive points, given as (rows, slots), grouped within the caps
    LOCKSTEP_ROWS and LOCKSTEP_AGENT_SLOTS; a larger point runs alone."""
    groups, rows, held = [], 0, 0
    for k, (r, h) in enumerate(sizes):
        rows, held = rows + r, held + r * h
        if not groups or rows > LOCKSTEP_ROWS or held > LOCKSTEP_AGENT_SLOTS:
            groups.append([])
            rows, held = r, r * h
        groups[-1].append(k)
    return groups


def simulate_slots(runs: list[tuple[PomdpModel, Agent]], dynamics, horizon: int,
                   num_trials: int, seed: int) -> SlotLog:
    """Trials 0, ..., num_trials - 1 of every run, stepped together: the one
    point (runs, dynamics, horizon) of simulate_points."""
    return simulate_points([(runs, dynamics, horizon)], num_trials, seed)[0]


def simulate_points(points: list[tuple[list, object, int]], num_trials: int,
                    seed: int) -> list[SlotLog]:
    """The SlotLog of each point (runs, dynamics, horizon), all stepped together.

    Trial t is seeded by SeedSequence((seed, t)), whatever the trial count
    and the points; its two spawned streams draw the path and the noise. A
    fixed path sets its point's horizon to its slot count. An empty list of
    points gives no logs. Every point needs a run; the runs of a point must
    share T, and all runs the SNR bins and the states (ValueError names the
    first that does not).
    """
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    if not points:
        return []
    _check_shared_chain(points)
    n, first = num_trials, points[0][0][0][0]
    slots = [dyn.n_slots if isinstance(dyn, FixedPathDynamics) else h for _, dyn, h in points]
    cells, draws = _trial_streams(points, slots, n, seed)
    # rows point by point, longest horizon first: the live rows are a prefix
    order = sorted(range(len(points)), key=lambda k: -slots[k])
    flat = [run for k in order for run in points[k][0]]
    ends = np.cumsum([0] + [len(points[k][0]) * n for k in order])
    rows, act_type = ends[-1], np.min_scalar_type(max(len(m.actions) for m, _ in flat) - 1)
    logs = [SlotLog(runs, c, draws[:, :h], actions=np.empty((len(runs) * n, h), act_type),
                    rates=np.empty((len(runs) * n, h)), resets=np.empty((len(runs) * n, h), bool))
            for (runs, _, _), c, h in zip(points, cells, slots)]
    base, gains, obs, width, sigma = _stacked_tables(flat, n)
    run_point = np.repeat(np.arange(len(order)), [len(points[k][0]) for k in order])
    cell_idx = np.zeros((max(slots), len(order), n), np.min_scalar_type(len(first.road) - 1))
    for i, k in enumerate(order):
        cell_idx[:slots[k], i] = cells[k].T - 1
    b, thresholds = np.tile(initial_belief(first.states), (rows, 1)), first.thresholds
    # each slot's actions (own, stacked) and SNRs, written into column t of every live log
    act, a, snr = np.empty(rows, int), np.empty(rows, int), np.empty(rows)
    t = 0
    for live in range(len(order), 0, -1):   # the first `live` points step slots t..stop-1
        stop = slots[order[live - 1]]
        if stop <= t:
            continue
        m = ends[live]
        n_runs = m // n
        decide = _decider(flat[:n_runs], n, b.shape[1], run_point)
        chains = [(slice(ends[i], ends[i + 1]), points[k][0][0][0].T)
                  for i, k in enumerate(order[:live])]
        cols = [(logs[k], slice(ends[i], ends[i + 1])) for i, k in enumerate(order[:live])]
        # each row's true cell: its point's; one live point's broadcasts over its runs
        of_run = slice(0, 1) if live == 1 else run_point[:n_runs]
        act_m, a_m, base_m, a_run = act[:m], a[:m], base[:m], a[:m].reshape(n_runs, n)
        snr_m = snr[:m]
        for t in range(t, stop):
            cells_t = cell_idx[t].astype(np.intp)      # an intp index gathers faster
            decide(b, act, cells_t)
            np.add(act_m, base_m, out=a_m)
            np.divide(gains[a_run, cells_t[of_run]], sigma[a_run] * draws[:, t],
                      out=snr_m.reshape(n_runs, n))
            z = thresholds.searchsorted(snr_m, side="right")
            b, reset = belief_update(first, b[:m], obs[a_m, z], chains)
            for log, r in cols:
                log.actions[:, t], log.rates[:, t], log.resets[:, t] = act[r], snr[r], reset[r]
        t = stop
    for i, k in enumerate(order):
        log, log_base = logs[k], base[ends[i]:ends[i + 1], None]
        step = max(1, 2 ** 12 // max(slots[k], 1))    # rates from the SNRs, ~2^12 values a block
        for blk in (slice(lo, lo + step) for lo in range(0, len(log.rates), step)):
            log.rates[blk] = (width[log.actions[blk] + log_base[blk]]
                              * _elementwise(math.log2, 1.0 + log.rates[blk]))
    return logs


def _trial_streams(points, slots: list[int], n: int, seed: int):
    """Each point's cells (n, h) and the noise draws (n, longest h) of trials
    0, ..., n - 1. Each trial's path and noise streams draw once, for the
    longest horizon, and a point reads a prefix: Generator.random(h) is a
    prefix of a longer draw. A Markov point draws its path through its own T."""
    rngs = [[np.random.default_rng(ss) for ss in np.random.SeedSequence((seed, t)).spawn(2)]
            for t in range(n)]
    fixed = [isinstance(dyn, FixedPathDynamics) for _, dyn, _ in points]
    longest = max((h for h, f in zip(slots, fixed) if not f), default=-1)
    u = np.array([path.random(longest + 1) for path, _ in rngs]) if longest >= 0 else None
    cells = [np.broadcast_to(dyn.cells, (n, h)) if f           # a view: one path
             else runs[0][0].states.cells()[dyn.states(u[:, :h + 1])]
             for (runs, dyn, _), h, f in zip(points, slots, fixed)]
    return cells, -_elementwise(math.log1p, -np.array([noise.random(max(slots))
                                                       for _, noise in rngs]))


def _stacked_tables(runs: list[tuple[PomdpModel, Agent]], n: int):
    """(base, gains, obs, width, sigma): the distinct tables of the runs'
    models stacked, models that share their tables once, and each row's
    offset into them (n rows a run). Likelihood rows O[a, :, z] are
    contiguous rows of the one (A, Z, S) stack `obs`."""
    key = lambda m: (id(m.O), id(m.gains), m.bands, m.consts)
    models = list({key(m): m for m, _ in runs}.values())
    start = dict(zip(map(key, models), np.cumsum([0] + [len(m.actions) for m in models[:-1]])))
    obs = np.ascontiguousarray(np.concatenate([m.O for m in models]).transpose(0, 2, 1))
    bw = [np.array([band.bandwidth_hz for band in m.bands])[m.actions.band_idx] for m in models]
    return (np.repeat([start[key(m)] for m, _ in runs], n), np.vstack([m.gains for m in models]),
            obs, np.concatenate(bw),
            np.concatenate([m.consts.noise_variance_w(w) for m, w in zip(models, bw)]))


def _decider(runs: list[tuple[PomdpModel, Agent]], n: int, num_states: int, point_of_run):
    """decide(beliefs, actions, cells) for the rows of `runs`, n trials a run;
    cells (points, n) holds each point's 0-based true cells at the slot.
    PolicyAgents decide in one PolicyBank, or, if its padded scores would
    outgrow the beliefs (the update's peak stays the peak), in a bank per
    agent, all writing their scores into one buffer; an OracleAgent reads
    its cell table, and any other agent acts on its own block."""
    blocks = [slice(r * n, (r + 1) * n) for r in range(len(runs))]
    banked = [r for r, (_, agent) in enumerate(runs) if isinstance(agent, PolicyAgent)]
    widest = max((len(runs[r][1].policy.actions) for r in banked), default=0)
    shared = (np.empty((n, widest)) if len(banked) * n * widest > len(runs) * n * num_states
              else None)
    banks = [PolicyBank([runs[r][1] for r in g], [blocks[r] for r in g], shared)
             for g in ([banked] if shared is None else [[r] for r in banked]) if g]
    oracles = [(blocks[r], agent._by_cell, int(point_of_run[r]))
               for r, (_, agent) in enumerate(runs) if isinstance(agent, OracleAgent)]
    others = [(blocks[r], agent, int(point_of_run[r])) for r, (_, agent) in enumerate(runs)
              if r not in banked and not isinstance(agent, OracleAgent)]

    def decide(beliefs: np.ndarray, act: np.ndarray, cells: np.ndarray) -> None:
        for bank in banks:
            act[bank.rows] = bank.act(beliefs)
        for block, by_cell, point in oracles:
            act[block] = by_cell[cells[point]]
        for block, agent, point in others:
            act[block] = agent.act(beliefs[block], cells[point].astype(int) + 1)
    return decide


def trial_means(rates: np.ndarray) -> list[float]:
    """Each trial's mean rate; 0.0 for a trial without slots."""
    return rates.mean(axis=1).tolist() if rates.shape[1] else [0.0] * len(rates)


def monte_carlo(runs: list[tuple[PomdpModel, Agent]], num_trials: int,
                horizon: int, seed: int) -> list[Metrics]:
    """Paired Monte Carlo over agents on the runs' shared chain.

    `runs` pairs each agent with the model whose action space it uses
    (single-frequency agents carry their restricted model); all runs step
    together, so trial t's path and noise are one draw for every agent.
    """
    if runs:
        return simulate_slots(runs, MarkovDynamics(runs[0][0]), horizon, num_trials,
                              seed).metrics()
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    return []


def fixed_path_eval(model: PomdpModel, scene: SceneConfig, agent: Agent,
                    speed_kmh: float, slot_s: float, num_trials: int,
                    seed: int) -> Metrics:
    """Constant-speed traversal; belief still evolves by the Markov model."""
    dyn = FixedPathDynamics(scene, speed_kmh, slot_s)
    return simulate_slots([(model, agent)], dyn, dyn.n_slots, num_trials,
                          seed).metrics()[0]


def perfect_info_rates(model: PomdpModel) -> dict[str, float]:
    """Per-channel mean over cells of the aligned expected rate, bits/s."""
    bw = np.array([band.bandwidth_hz for band in model.bands])[:, None]
    aligned = np.array([[aligned_gain(model.consts, band, cell.r_m) for cell in model.road]
                        for band in model.bands])
    rates = expected_rate(bw, aligned, model.consts.noise_variance_w(bw))
    return {band.label: math.fsum(row) / len(row) for band, row in zip(model.bands, rates)}
