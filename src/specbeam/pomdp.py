"""Assembly of the joint beam-direction / band-selection POMDP.

States are mobility windows (see mobility.StateSpace); an action fixes the
beam steering pair and the operating band; observations are discretized SNR
levels. The transition kernel is action-independent, the observation row of
a state depends only on its current cell, and the expected reward of an
action in a state is the mean Shannon rate of the resulting link.
build_model therefore computes O and rbar per (action, cell), from the
gain table, each action's bandwidth and noise variance, and indexes them
by each state's cell.

Belief updates condition the observation on the successor state:

    b'[s'] ∝ O(s', a, z) * sum_s T(s, s') * b[s]

belief_update is the one implementation of this filter, batched over rows
whose likelihoods O[a, :, z] the caller gathers: the simulator runs it once
per slot over all trials of every agent and point, and belief expansion once
per round over all (belief, action) proposals. Each row's T^T b is a
per-row product stacked by np.matmul, one call per block of rows that share
a chain; a batched B @ T rounds differently, and one ulp changes recorded
beliefs and can flip a later expansion pick. The likelihoods multiply into
those predicted rows in place, and each row is divided by its sum, the
order of the filter above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (BandConfig, PropagationConstants, expected_rate, gain,
                     observation_probs)
from .geometry import CellCoord
from .mobility import MobilityModel, StateSpace, enumerate_states, transition_matrix

_NORMALIZER_FLOOR = 1e-300


@dataclass(frozen=True)
class ActionSpace:
    """Beam/band combinations as parallel arrays.

    Action (cell j, band q) points the beam at cell j's center, road[j - 1];
    actions are ordered cell-major then band.
    """

    band_idx: np.ndarray
    beam_cell: np.ndarray  # cell each beam points at (1-based)

    def __len__(self) -> int:
        return self.band_idx.size


def enumerate_actions(road: tuple[CellCoord, ...],
                      bands: tuple[BandConfig, ...]) -> ActionSpace:
    """All (beam, band) actions for the given road."""
    if not bands:
        raise ValueError("at least one band is required")
    return ActionSpace(band_idx=np.tile(np.arange(len(bands)), len(road)),
                       beam_cell=np.repeat([cell.index for cell in road], len(bands)))


def snr_thresholds(num_levels: int, low_db: float, high_db: float) -> np.ndarray:
    """num_levels - 1 linear-scale bin edges, equally spaced in dB.

    The edges span [low_db, high_db] inclusive; bins are [0, t_1), ...,
    [t_{M-1}, inf), and observation_probs needs finite, positive, increasing edges.
    """
    if type(num_levels) is not int or num_levels < 2:
        raise ValueError(f"num_levels: must be an integer >= 2 (got {num_levels!r})")
    with np.errstate(over="ignore", invalid="ignore"):
        thr = 10.0 ** (np.linspace(low_db, high_db, num_levels - 1) / 10.0)
    if not (high_db >= low_db and 0 < thr[0] and thr[-1] < np.inf and (np.diff(thr) > 0).all()):
        raise ValueError(f"{'high_db' if 0 < thr[0] < np.inf else 'low_db'}: the "
                         f"num_levels - 1 edges 10^(dB/10) from low_db up to high_db must "
                         f"be finite, positive and strictly increasing floats (got "
                         f"{num_levels!r} levels, {low_db!r} to {high_db!r} dB)")
    return thr


def gain_table(road: tuple[CellCoord, ...], bands: tuple[BandConfig, ...],
               consts: PropagationConstants) -> np.ndarray:
    """Gain of every (beam, band) action at every road cell, (|A|, num_cells).

    Actions run cell-major, then band, so the model of band q alone uses
    rows q, q + len(bands), ... (band_gains).
    """
    actions = enumerate_actions(road, bands)
    out = np.empty((len(actions), len(road)))
    for a in range(len(actions)):
        band = bands[actions.band_idx[a]]
        beam = road[actions.beam_cell[a] - 1]
        for c, cell in enumerate(road):
            out[a, c] = gain(consts, band, cell.r_m, cell.theta, cell.phi,
                             beam.theta, beam.phi)
    return out


def band_gains(table: np.ndarray, num_bands: int, q: int) -> np.ndarray:
    """The rows of an all-band gain_table that the model of band q alone uses."""
    return np.ascontiguousarray(table[q::num_bands])


@dataclass(frozen=True)
class PomdpModel:
    """Tensors plus the physical objects they were built from."""

    states: StateSpace
    actions: ActionSpace
    T: np.ndarray          # (|S|, |S|) row-stochastic, shared by all actions
    O: np.ndarray          # (|A|, |S|, M_z) row-stochastic observation tensor
    rbar: np.ndarray       # (|A|, |S|) expected rewards, bits/s
    gains: np.ndarray      # (|A|, cells) link gain of each action at each cell, W
    thresholds: np.ndarray # (M_z - 1,) SNR bin edges, linear scale
    discount: float
    road: tuple[CellCoord, ...]
    bands: tuple[BandConfig, ...]
    consts: PropagationConstants
    mobility: MobilityModel

    def __post_init__(self) -> None:
        if not 0.0 < self.discount < 1.0:
            raise ValueError("discount must lie in (0, 1)")

    @property
    def num_states(self) -> int:
        return len(self.states)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @property
    def num_observations(self) -> int:
        return self.O.shape[2]


def build_model(road: tuple[CellCoord, ...], bands: tuple[BandConfig, ...],
                consts: PropagationConstants, mobility: MobilityModel,
                num_levels: int, low_db: float, high_db: float,
                discount: float, gains: np.ndarray | None = None,
                T: np.ndarray | None = None) -> PomdpModel:
    """Assemble the full POMDP from physical parameters.

    `gains` may pass in the gain_table of these bands (or band_gains of a
    larger one), and `T` the transition_matrix of this mobility, when the
    caller already has them.
    """
    states = enumerate_states(len(road), mobility.window)
    actions = enumerate_actions(road, bands)
    thr = snr_thresholds(num_levels, low_db, high_db)
    if gains is None:
        gains = gain_table(road, bands, consts)
    bw = np.array([b.bandwidth_hz for b in bands])[actions.band_idx, None]
    sigma_sq = consts.noise_variance_w(bw)
    cell = states.cells() - 1
    return PomdpModel(
        states=states,
        actions=actions,
        T=transition_matrix(mobility, states) if T is None else T,
        # contiguous, so that a gather of actions' rows copies whole blocks
        O=np.ascontiguousarray(observation_probs(gains, sigma_sq, thr)[:, cell, :]),
        rbar=expected_rate(bw, gains, sigma_sq)[:, cell],
        gains=gains,
        thresholds=thr,
        discount=discount,
        road=road,
        bands=bands,
        consts=consts,
        mobility=mobility,
    )


def initial_belief(states: StateSpace) -> np.ndarray:
    """Uniform over the no-history states (w = 2) or over all cells (w = 1)."""
    b = np.zeros(len(states))
    if states.window == 1:
        b[:] = 1.0 / len(states)
    else:
        idx = [i for i in range(len(states)) if states.is_no_history(i)]
        b[idx] = 1.0 / len(idx)
    return b


def inverse_cdf(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: the index of u (n,) in each non-decreasing cumsum row
    of cum (n, k) or (k,), count(cum <= u) = searchsorted(row, u, "right"),
    capped at k - 1 against a last entry rounded below 1."""
    return np.minimum((cum <= u[:, None]).sum(axis=-1), cum.shape[-1] - 1)


def belief_update(model: PomdpModel, beliefs: np.ndarray, likelihood: np.ndarray,
                  chains=None) -> tuple[np.ndarray, np.ndarray]:
    """Posteriors of beliefs (n, |S|) given likelihood rows (n, |S|).

    Row i of the likelihood is O[a_i, :, z_i] of row i's action and
    observation, gathered by the caller, possibly from other models with the
    same states: the simulator updates the rows of every agent in one call.
    `chains` lists (rows, T) pairs, each block of rows predicted through its
    own T; by default every row moves by model.T.

    Returns (posteriors (n, |S|), impossible (n,)): rows whose observation
    has probability <= 1e-300 under the belief are uniform and flagged.
    Only when some row is impossible does the division run under
    np.errstate: such a row may sum to 0.
    """
    post = np.empty(beliefs.shape)
    for rows, t in chains or ((slice(None), model.T),):
        np.matmul(t.T, beliefs[rows, :, None], out=post[rows, :, None])
    post *= likelihood
    norm = post.sum(axis=1)
    impossible = norm <= _NORMALIZER_FLOOR
    if not impossible.any():
        post /= norm[:, None]
        return post, impossible
    with np.errstate(divide="ignore", invalid="ignore"):    # their rows are reset below
        post /= norm[:, None]
    post[impossible] = 1.0 / model.num_states
    return post, impossible
