"""Markov road mobility over a window of recent cell locations.

The user occupies one of num_cells road cells and moves at most one cell per
slot. With window w = 2 the conditional law P(u_t | u_{t-1}, u_{t-2}) is:

    no history  (u_{t-2} = marker):  stay p,        step 0.5*(1-p) each way
    dwell       (u_{t-2} = u_{t-1}): stay k2*p,     step 0.5*(1-k2*p) each way
    moving      (u_{t-2} adjacent):  stay p,        continue k1*(1-p),
                                                    reverse (1-k1)*(1-p)

At the road edges the missing neighbor's mass is redistributed by
renormalizing the remaining entries proportionally. The out-of-coverage
marker (num_cells + 1) may appear only as the oldest window element; it
models an episode start with no movement history. With window w = 1 the
no-history law applies unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class MobilityModel:
    """Parameters of the movement law."""

    p: float
    kappa1: float = 0.95
    kappa2: float = 0.95
    window: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p: must lie in (0, 1) (got {self.p!r})")
        for name in ("kappa1", "kappa2"):
            if not 0.0 <= (value := getattr(self, name)) <= 1.0:
                raise ValueError(f"{name}: must lie in [0, 1] (got {value!r})")
        if type(self.window) is not int or self.window not in (1, 2):
            raise ValueError(f"window: must be 1 or 2 (got {self.window!r})")


@dataclass(frozen=True)
class StateSpace:
    """All feasible location windows, lexicographically ordered.

    For w = 2 these are the adjacent in-road pairs (u_i, u_j), |i - j| <= 1,
    followed by the no-history pairs (marker, u_i); for w = 1 simply the
    cells. The current cell is always the last window element.
    """

    num_cells: int
    window: int
    windows: tuple[tuple[int, ...], ...]
    _index: dict[tuple[int, ...], int] = field(repr=False, hash=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.windows)})

    @property
    def marker(self) -> int:
        """Cell label meaning 'outside coverage before the episode began'."""
        return self.num_cells + 1

    def __len__(self) -> int:
        return len(self.windows)

    def index(self, window: tuple[int, ...]) -> int:
        try:
            return self._index[window]
        except KeyError:
            raise ValueError(f"{window} is not a feasible state window") from None

    def is_no_history(self, state: int) -> bool:
        return self.windows[state][0] == self.marker

    def cells(self) -> np.ndarray:
        """Current cell of every state, shape (|S|,)."""
        return np.array([w[-1] for w in self.windows], dtype=int)


def enumerate_states(num_cells: int, window: int) -> StateSpace:
    """Feasible windows for the given road size and history length."""
    if num_cells < 2:
        raise ValueError("num_cells must be >= 2")
    if window == 1:
        wins = [(i,) for i in range(1, num_cells + 1)]
    elif window == 2:
        marker = num_cells + 1
        wins = [(i, j)
                for i in range(1, num_cells + 1)
                for j in range(1, num_cells + 1) if abs(i - j) <= 1]
        wins += [(marker, i) for i in range(1, num_cells + 1)]
        wins.sort()
    else:
        raise ValueError("only windows 1 and 2 are supported")
    return StateSpace(num_cells=num_cells, window=window, windows=tuple(wins))


def _raw_row(model: MobilityModel, history: tuple[int, ...], marker: int) -> dict[int, float]:
    """Unclipped successor law for an in-road current cell, keyed by cell."""
    cur = history[-1]
    if model.window == 1 or history[0] == marker:
        return {cur: model.p, cur - 1: 0.5 * (1.0 - model.p), cur + 1: 0.5 * (1.0 - model.p)}
    prev = history[0]
    if prev == cur:
        stay = model.kappa2 * model.p
        return {cur: stay, cur - 1: 0.5 * (1.0 - stay), cur + 1: 0.5 * (1.0 - stay)}
    # moving: continue past cur in the same direction, or reverse
    direction = cur - prev  # +1 moving up, -1 moving down
    return {cur: model.p,
            cur + direction: model.kappa1 * (1.0 - model.p),
            cur - direction: (1.0 - model.kappa1) * (1.0 - model.p)}


def successor_distribution(model: MobilityModel, history: tuple[int, ...],
                           num_cells: int) -> dict[int, float]:
    """P(u_next | history) over in-road cells, edge-renormalized."""
    marker = num_cells + 1
    if len(history) != model.window:
        raise ValueError(f"history must have length {model.window}, got {history}")
    cur = history[-1]
    if not 1 <= cur <= num_cells:
        raise ValueError(f"current cell {cur} outside road 1..{num_cells}")
    if model.window == 2:
        prev = history[0]
        if prev != marker and not (1 <= prev <= num_cells and abs(prev - cur) <= 1):
            raise ValueError(f"infeasible history {history}")
    raw = {c: q for c, q in _raw_row(model, history, marker).items()
           if 1 <= c <= num_cells and q > 0.0}
    total = sum(raw.values())
    return {c: q / total for c, q in raw.items()}


def transition_matrix(model: MobilityModel, states: StateSpace) -> np.ndarray:
    """Row-stochastic |S| x |S| window-transition matrix.

    The kernel is shared by every action. T[s, s'] is nonzero only when the
    first w-1 elements of s' equal the last w-1 elements of s.
    """
    if model.window != states.window:
        raise ValueError("model window and state-space window differ")
    n = len(states)
    t = np.zeros((n, n))
    for i, win in enumerate(states.windows):
        for nxt, q in successor_distribution(model, win, states.num_cells).items():
            t[i, states.index(win[1:] + (nxt,))] = q
    return t
