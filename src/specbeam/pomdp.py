"""Assembly of the joint beam-direction / band-selection POMDP.

States are mobility windows (see mobility.StateSpace); an action fixes the
beam steering pair and the operating band; observations are discretized SNR
levels. The transition kernel is action-independent, the observation row of
a state depends only on its current cell, and the expected reward of an
action in a state is the mean Shannon rate of the resulting link.

Belief updates condition the observation on the successor state:

    b'[s'] ∝ O(s', a, z) * sum_s T(s, s') * b[s]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (BandConfig, PropagationConstants, expected_rate, gain,
                     observation_probs)
from .geometry import CellCoord
from .mobility import MobilityModel, StateSpace, enumerate_states, transition_matrix

_NORMALIZER_FLOOR = 1e-300


class ImpossibleObservation(ValueError):
    """Raised when an observation has zero probability under the belief."""


@dataclass(frozen=True)
class ActionSpace:
    """Beam/band combinations. theta_hat, phi_hat, band_idx are parallel arrays.

    Action (cell j, band q) points the beam at cell j's center; actions are
    ordered cell-major then band.
    """

    theta_hat: np.ndarray
    phi_hat: np.ndarray
    band_idx: np.ndarray
    beam_cell: np.ndarray  # cell each beam points at (1-based)

    def __len__(self) -> int:
        return self.theta_hat.size

    def index(self, cell: int, band: int, num_bands: int) -> int:
        """Index of the action (cell, band)."""
        return (cell - 1) * num_bands + band

    def describe(self, a: int) -> dict:
        return {"beam_cell": int(self.beam_cell[a]), "band": int(self.band_idx[a]),
                "theta_hat": float(self.theta_hat[a]), "phi_hat": float(self.phi_hat[a])}


def enumerate_actions(road: tuple[CellCoord, ...],
                      bands: tuple[BandConfig, ...]) -> ActionSpace:
    """All (beam, band) actions for the given road."""
    if not bands:
        raise ValueError("at least one band is required")
    th, ph, bi, bc = [], [], [], []
    for cell in road:
        for q in range(len(bands)):
            th.append(cell.theta)
            ph.append(cell.phi)
            bi.append(q)
            bc.append(cell.index)
    return ActionSpace(theta_hat=np.array(th), phi_hat=np.array(ph),
                       band_idx=np.array(bi, dtype=int),
                       beam_cell=np.array(bc, dtype=int))


def snr_thresholds(num_levels: int, low_db: float, high_db: float) -> np.ndarray:
    """num_levels - 1 linear-scale bin edges, equally spaced in dB.

    The edges span [low_db, high_db] inclusive; bins are [0, t_1), ...,
    [t_{M-1}, inf).
    """
    if num_levels < 2:
        raise ValueError("num_levels must be >= 2")
    if high_db < low_db:
        raise ValueError("high_db must be >= low_db")
    if num_levels > 2 and high_db == low_db:
        raise ValueError("a degenerate dB range supports only num_levels == 2")
    edges_db = np.linspace(low_db, high_db, num_levels - 1)
    return 10.0 ** (edges_db / 10.0)


def _per_cell_gains(road: tuple[CellCoord, ...], bands: tuple[BandConfig, ...],
                    consts: PropagationConstants, actions: ActionSpace) -> np.ndarray:
    """Gain of each action at each road cell, shape (|A|, num_cells)."""
    out = np.empty((len(actions), len(road)))
    for a in range(len(actions)):
        band = bands[actions.band_idx[a]]
        th, ph = actions.theta_hat[a], actions.phi_hat[a]
        for c, cell in enumerate(road):
            out[a, c] = gain(consts, band, cell.r_m, cell.theta, cell.phi, th, ph)
    return out


def build_observation_tensor(gains: np.ndarray, bands: tuple[BandConfig, ...],
                             consts: PropagationConstants, states: StateSpace,
                             actions: ActionSpace, thresholds: np.ndarray) -> np.ndarray:
    """O[a, s, z]: SNR-bin probabilities; rows depend on s only via its cell."""
    num_a, num_cells = gains.shape
    per_cell = np.empty((num_a, num_cells, thresholds.size + 1))
    for a in range(num_a):
        sig = consts.noise_variance_w(bands[actions.band_idx[a]].bandwidth_hz)
        for c in range(num_cells):
            per_cell[a, c] = observation_probs(gains[a, c], sig, thresholds)
    return per_cell[:, states.cells() - 1, :]


def build_reward_vectors(gains: np.ndarray, bands: tuple[BandConfig, ...],
                         consts: PropagationConstants, states: StateSpace,
                         actions: ActionSpace) -> np.ndarray:
    """rbar[a, s]: expected rate of action a with the user at s's cell."""
    num_a, num_cells = gains.shape
    per_cell = np.empty((num_a, num_cells))
    for a in range(num_a):
        band = bands[actions.band_idx[a]]
        sig = consts.noise_variance_w(band.bandwidth_hz)
        for c in range(num_cells):
            per_cell[a, c] = expected_rate(band.bandwidth_hz, gains[a, c], sig)
    return per_cell[:, states.cells() - 1]


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

    def band_of_action(self, a: int) -> BandConfig:
        return self.bands[self.actions.band_idx[a]]

    def sigma_sq_of_action(self, a: int) -> float:
        return self.consts.noise_variance_w(self.band_of_action(a).bandwidth_hz)


def build_model(road: tuple[CellCoord, ...], bands: tuple[BandConfig, ...],
                consts: PropagationConstants, mobility: MobilityModel,
                num_levels: int, low_db: float, high_db: float,
                discount: float) -> PomdpModel:
    """Assemble the full POMDP from physical parameters."""
    states = enumerate_states(len(road), mobility.window)
    actions = enumerate_actions(road, bands)
    thr = snr_thresholds(num_levels, low_db, high_db)
    gains = _per_cell_gains(road, bands, consts, actions)
    return PomdpModel(
        states=states,
        actions=actions,
        T=transition_matrix(mobility, states),
        O=build_observation_tensor(gains, bands, consts, states, actions, thr),
        rbar=build_reward_vectors(gains, bands, consts, states, actions),
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


def observation_likelihoods(model: PomdpModel, b: np.ndarray, a: int) -> np.ndarray:
    """P(z | b, a) = sum_{s'} O[a, s', z] * (T^T b)[s'], shape (M_z,)."""
    return model.O[a].T @ (model.T.T @ b)


def belief_update(model: PomdpModel, b: np.ndarray, a: int, z: int) -> np.ndarray:
    """Posterior after acting a and observing z; successor-state convention."""
    post = model.O[a, :, z] * (model.T.T @ b)
    norm = post.sum()
    if norm <= _NORMALIZER_FLOOR:
        raise ImpossibleObservation(
            f"observation {z} has zero probability after action {a}")
    return post / norm
