"""Point-based value iteration.

The value function is the upper surface of a set of alpha vectors, each
carrying the action whose one-step lookahead generated it. Starting from
the uniform lower bound

    alpha_0[s] = min_{s', a} rbar[a, s'] / (1 - discount),

the solver alternates belief-set expansion (one stochastic forward
simulation per action per belief, keeping the candidate farthest from the
set) with stages of point-based backup sweeps. A backup at belief b picks,
per (action, observation), the best projected vector

    proj[v, a, z, s] = sum_{s'} T[s, s'] * O[a, s', z] * alpha[v, s']

and returns alpha_{a*,b}[s] = sum_{s'} T[s, s'] (rbar[a*, s'] +
discount * sum_z O[a*, s', z] * alpha_best[s']) for the maximizing
action. The reward term rides inside the transition product because a
slot's transmission happens after the move: both the reward and the
observation are generated at the successor state, exactly as the
simulator pays them. Ties (actions, vectors) resolve to the lowest
index.

Because observation rows depend on a state only through its current cell,
the score b . proj[v, a, z] contracts over the handful of cells rather
than the full state space, and the projection tensor itself is never
formed. A sweep scores a chunk of beliefs against every vector at once,
reduces the scores with a max over vectors, picks each belief's action
from those maxima, and runs the argmax over vectors only on the chosen
action's observation columns. The score block, megabytes at a few dozen
vectors, is written into one buffer that every chunk of the sweep reuses.
Each product keeps the shape it had in the all-argmax kernel kept in
tests/_oracles.py, so the policy bytes are the same: scoring only the
observation columns that are nonzero somewhere, or in smaller chunks,
is faster but lets BLAS round differently, and at a tie within an ulp
that changes which vector or action wins.

Each sweep keeps, per belief, the better of the fresh backup and the
belief's previously retained vector, so per-belief values never decrease.
A retained vector's value is computed once, when adopted, and carried
verbatim afterwards; at the ~1e11 bits/s value scale a recomputed dot
product can wobble by ~1e-5 absolute (a few ulps), which would otherwise
read as a spurious decrease.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .pomdp import ImpossibleObservation, PomdpModel, belief_update


@dataclass(frozen=True)
class AlphaVector:
    """One value hyperplane and the action that generated it."""

    values: np.ndarray
    action: int


@dataclass
class BeliefSet:
    """Distinct belief points with the expansion round that added each."""

    points: np.ndarray              # (N, |S|)
    provenance: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.points.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if not self.provenance:
            self.provenance = [0] * len(self.points)

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class Policy:
    """Final alpha set; the greedy action at b is actions[argmax alpha @ b]."""

    alpha: np.ndarray               # (V, |S|)
    actions: np.ndarray             # (V,) action index per vector
    metadata: dict[str, Any] = field(default_factory=dict)

    def value(self, b: np.ndarray) -> float:
        return float((self.alpha @ b).max())


def initial_bound(model: PomdpModel) -> AlphaVector:
    """Uniform lower bound: the all-min-reward discounted sum."""
    v0 = float(model.rbar.min()) / (1.0 - model.discount)
    return AlphaVector(values=np.full(model.num_states, v0), action=0)


def default_epsilon(model: PomdpModel) -> float:
    """Stage convergence threshold: 1e-3 of the largest expected reward."""
    return 1e-3 * float(np.abs(model.rbar).max())


def _cell_tensors(model: PomdpModel) -> tuple[np.ndarray, np.ndarray]:
    """(E, OZ): state->cell one-hot (|S|, C) and per-cell rows (C, |A|*M_z)."""
    cells = model.states.cells()
    labels = np.unique(cells)
    e = (cells[:, None] == labels[None, :]).astype(float)
    reps = np.array([int(np.flatnonzero(cells == c)[0]) for c in labels])
    oz = model.O[:, reps, :].transpose(1, 0, 2).reshape(len(labels), -1)
    return e, oz


# Beliefs per chunk of the score product. BLAS may round a product of a
# different shape differently, and a tie between alpha vectors or actions
# can then fall the other way, so the chunk is part of what fixes the
# policy bytes.
_BELIEF_CHUNK = 32


def _backup_block(model: PomdpModel, tb: np.ndarray, alpha_mat: np.ndarray,
                  e: np.ndarray, oz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backup one belief per row of `tb`; returns (vectors (N,S), actions (N,)).

    `tb` carries the one-step predicted beliefs (beliefs @ T), which is all
    the backup needs: scores b . proj[v, a, z] are computed as H @ OZ with
    H[v, n, c] = sum_{s' in cell c} alpha[v, s'] tb[n, s'].
    """
    n_v, n_s = alpha_mat.shape
    n_a, _, n_z = model.O.shape
    disc = model.discount
    acts = np.empty(len(tb), dtype=int)
    best_v = np.empty((len(tb), n_z), dtype=int)            # of the chosen action
    buf = np.empty((n_v * min(_BELIEF_CHUNK, len(tb)), n_a * n_z))
    for lo in range(0, len(tb), _BELIEF_CHUNK):
        tbc = tb[lo:lo + _BELIEF_CHUNK]
        n = len(tbc)
        w = alpha_mat[:, None, :] * tbc[None, :, :]
        h = w.reshape(n_v * n, n_s) @ e
        scores = np.matmul(h, oz, out=buf[:n_v * n]).reshape(n_v, n, n_a, n_z)
        totals = tbc @ model.rbar.T + disc * scores.max(axis=0).sum(axis=2)
        a = totals.argmax(axis=1)                           # (n,)
        acts[lo:lo + n] = a
        best_v[lo:lo + n] = scores[:, np.arange(n), a, :].argmax(axis=0)
    g = alpha_mat[best_v]                                   # (N, Z, S)
    phi = (model.O[acts] * g.transpose(0, 2, 1)).sum(axis=2)
    pre = model.rbar[acts] + disc * phi
    out_vec = np.empty((len(tb), n_s))
    for k in range(len(tb)):            # pre @ T.T would round differently
        out_vec[k] = model.T @ pre[k]
    return out_vec, acts


def backup(model: PomdpModel, b: np.ndarray, alphas: list[AlphaVector]) -> AlphaVector:
    """Exact point-based backup of the alpha set at one belief."""
    alpha_mat = np.stack([av.values for av in alphas])
    b = np.asarray(b, dtype=float)
    e, oz = _cell_tensors(model)
    values, actions = _backup_block(model, (b @ model.T)[None, :], alpha_mat, e, oz)
    return AlphaVector(values=values[0], action=int(actions[0]))


def _dedup_rows(mat: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop exact duplicate rows, keeping first occurrences."""
    seen: set[bytes] = set()
    keep = []
    for i in range(len(mat)):
        key = mat[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return mat[keep], actions[keep]


def _prune_dominated(mat: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop rows pointwise-dominated by another surviving row."""
    n = len(mat)
    if n <= 1:
        return mat, actions
    alive = np.ones(n, dtype=bool)
    for i in range(n):
        if not alive[i]:
            continue
        others = alive.copy()
        others[i] = False
        idx = np.flatnonzero(others)
        if idx.size == 0:
            break
        dominated = (mat[idx] >= mat[i]).all(axis=1) & (mat[idx] > mat[i]).any(axis=1)
        if dominated.any():
            alive[i] = False
    return mat[alive], actions[alive]


def backup_stage(model: PomdpModel, beliefs: BeliefSet, alphas_mat: np.ndarray,
                 alpha_actions: np.ndarray, epsilon: float, max_sweeps: int = 500,
                 tracked: np.ndarray | None = None,
                 collect_history: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Sweep backups over the belief set until point values settle.

    `tracked` carries each belief's retained value in from a previous stage
    (None evaluates the incoming set once). Returns the new alpha matrix,
    its actions, the updated tracked values, and an info dict with sweep
    count, convergence flag, and optionally the per-sweep value history.
    """
    pts = beliefs.points
    e, oz = _cell_tensors(model)
    tb = pts @ model.T
    eval0 = pts @ alphas_mat.T                              # (N, V)
    best0 = eval0.argmax(axis=1)
    anchors = alphas_mat[best0]                             # (N, S)
    anchor_acts = alpha_actions[best0]
    vals0 = eval0.max(axis=1)
    tracked = vals0 if tracked is None else np.maximum(tracked, vals0)
    history = [tracked.copy()]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        new_vecs, new_acts = _backup_block(model, tb, alphas_mat, e, oz)
        new_vals = np.einsum("ns,ns->n", pts, new_vecs)
        take = new_vals >= tracked
        anchors = np.where(take[:, None], new_vecs, anchors)
        anchor_acts = np.where(take, new_acts, anchor_acts)
        delta = float(np.where(take, new_vals - tracked, 0.0).max())
        tracked = np.where(take, new_vals, tracked)
        alphas_mat, alpha_actions = _dedup_rows(anchors, anchor_acts)
        if collect_history:
            history.append(tracked.copy())
        if delta < epsilon:
            converged = True
            break
    alphas_mat, alpha_actions = _prune_dominated(alphas_mat, alpha_actions)
    info = {"sweeps": sweeps, "converged": converged}
    if collect_history:
        info["value_history"] = np.stack(history)
    return alphas_mat, alpha_actions, tracked, info


def expand_beliefs(model: PomdpModel, beliefs: BeliefSet, seed_seq: np.random.SeedSequence,
                   round_id: int, metric: str = "l1") -> BeliefSet:
    """Grow the belief set by at most one new point per existing point.

    For every belief, one stochastic forward simulation per action proposes
    a successor belief; the proposal farthest from the current set (minimum
    distance, in the configured metric) is added unless that distance is 0.
    Per-belief random streams make the result independent of evaluation
    order.
    """
    if metric not in ("l1", "l2"):
        raise ValueError(f"unknown metric {metric!r}")
    n0 = len(beliefs)
    pts = np.empty((2 * n0, model.num_states))
    pts[:n0] = beliefs.points
    count = n0
    prov = list(beliefs.provenance)
    t_cum = model.T.cumsum(axis=1)
    o_cum = model.O.cumsum(axis=2)
    streams = seed_seq.spawn(n0)
    for i in range(n0):
        rng = np.random.default_rng(streams[i])
        b = beliefs.points[i]
        b_cum = b.cumsum()
        best_cand, best_dist = None, 0.0
        for a in range(model.num_actions):
            u = rng.random(3)
            top = model.num_states - 1
            s = min(int(np.searchsorted(b_cum, u[0], side="right")), top)
            s2 = min(int(np.searchsorted(t_cum[s], u[1], side="right")), top)
            z = min(int(np.searchsorted(o_cum[a, s2], u[2], side="right")),
                    model.num_observations - 1)
            try:
                cand = belief_update(model, b, a, z)
            except ImpossibleObservation:
                continue
            diffs = pts[:count] - cand
            if metric == "l1":
                dist = float(np.abs(diffs).sum(axis=1).min())
            else:
                dist = float(np.sqrt((diffs ** 2).sum(axis=1)).min())
            if dist > best_dist:
                best_cand, best_dist = cand, dist
        if best_cand is not None:
            pts[count] = best_cand
            count += 1
            prov.append(round_id)
    return BeliefSet(points=pts[:count].copy(), provenance=prov)


def solve(model: PomdpModel, b0: np.ndarray, *, num_stages: int = 4,
          expansions_per_stage: int = 2, epsilon: float | None = None,
          max_sweeps: int = 500, seed: int = 0, metric: str = "l1",
          collect_history: bool = False) -> Policy:
    """Run the full expansion/backup schedule from the initial belief."""
    if num_stages < 0 or expansions_per_stage < 1:
        raise ValueError("num_stages must be >= 0 and expansions_per_stage >= 1")
    eps = default_epsilon(model) if epsilon is None else float(epsilon)
    bound = initial_bound(model)
    alphas_mat = bound.values[None, :]
    alpha_actions = np.array([bound.action])
    beliefs = BeliefSet(points=np.asarray(b0, dtype=float)[None, :])
    tracked: np.ndarray | None = None
    stage_log: list[dict] = []
    round_id = 0
    for _ in range(num_stages):
        for _ in range(expansions_per_stage):
            round_id += 1
            old_n = len(beliefs)
            beliefs = expand_beliefs(model, beliefs,
                                     np.random.SeedSequence((seed, round_id)),
                                     round_id, metric=metric)
            if tracked is not None and len(beliefs) > old_n:
                fresh = (beliefs.points[old_n:] @ alphas_mat.T).max(axis=1)
                tracked = np.concatenate([tracked, fresh])
            alphas_mat, alpha_actions, tracked, info = backup_stage(
                model, beliefs, alphas_mat, alpha_actions, eps, max_sweeps,
                tracked=tracked, collect_history=collect_history)
            entry = {"round": round_id, "num_beliefs": len(beliefs),
                     "num_alphas": len(alphas_mat), "sweeps": info["sweeps"],
                     "converged": info["converged"]}
            if collect_history:
                entry["value_history"] = info["value_history"]
            stage_log.append(entry)
    metadata = {"seed": seed, "num_stages": num_stages,
                "expansions_per_stage": expansions_per_stage,
                "epsilon": eps, "max_sweeps": max_sweeps, "metric": metric,
                "discount": model.discount, "stages": stage_log,
                "num_beliefs": len(beliefs)}
    return Policy(alpha=alphas_mat, actions=alpha_actions, metadata=metadata)


def extract_action(policy: Policy, b: np.ndarray) -> int:
    """Greedy action of the vector maximizing alpha @ b (lowest index wins)."""
    return int(policy.actions[int(np.argmax(policy.alpha @ b))])
