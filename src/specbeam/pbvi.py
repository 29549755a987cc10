"""Point-based value iteration.

The value function is the upper surface of a set of alpha vectors, each
carrying the action whose one-step lookahead generated it. Starting from
the uniform lower bound

    alpha_0[s] = min_{s', a} rbar[a, s'] / (1 - discount),

the solver runs num_stages * expansions_per_stage rounds, each a belief-set
expansion (one stochastic forward simulation per action per belief, keeping
the candidate farthest from the set in L1) and a stage of point-based backup
sweeps; only the product matters. Beliefs are the rows of an (N, |S|)
array; expansion updates all N * |A| proposals of a round in one
pomdp.belief_update call, and only its farthest-point picks run in turn. A
backup at belief b picks, per (action, observation), the best projected vector

    proj[v, a, z, s] = sum_{s'} T[s, s'] * O[a, s', z] * alpha[v, s']

and returns alpha_{a*,b}[s] = sum_{s'} T[s, s'] (rbar[a*, s'] +
discount * sum_z O[a*, s', z] * alpha_best[s']) for the maximizing
action. The reward term rides inside the transition product because a
slot's transmission happens after the move: both the reward and the
observation are generated at the successor state, exactly as the
simulator pays them.

Every vector, action and adoption decision takes the lowest index whose
score is within tie_tolerance of the maximum (first_near_max), so ties
resolve alike however BLAS rounds, whatever the product shapes or thread
count. A sweep keeps, per belief, the fresh backup only where the rule
prefers it to the retained vector, so values never decrease. A retained
vector's value is computed once, when adopted, and carried verbatim; a
recomputed dot product can wobble by a few ulps, which would read as a
decrease.

Because observation rows depend on a state only through its current cell,
the score b . proj[v, a, z] contracts over the handful of cells rather
than the full state space, and the projection tensor itself is never
formed. A sweep projects every belief on every vector per cell in one
float64 product (Ht). It then screens the actions: one belief at a time,
it scores the live (action, observation) columns, those some cell can
produce, in float32, keeps only the max over vectors and totals each
action. The actions whose screen total lies within rho of the belief's
top one are its candidates: 1.04 per belief on the default model, where
3.6% of the beliefs hold more than one. Only the candidates' columns are
rescored in float64, all beliefs' together; the rule picks each belief's
action among their totals and, per observation, the vector under each
candidate.

The screen cannot drop the rule's choice. A float32 score sums, over C
cells, nonnegative products of h and oz, each cast from float64, so it
rounds C + 2 times (two casts, a product, C - 1 additions) and lies
within gamma_{C+2} = (C+2) u / (1 - (C+2) u), u = 2^-24, of the sum of
the float64 inputs' products, relatively (Higham 2002, Lemmas 3.1, 3.3).
A max rounds nothing. Summing an action's at most M_z maxima in float64,
the discount and the reward's addition round M_z + 1 times more, with
u' = 2^-53, so a screen total lies within eps X_a of the exact total
X_a over the float64 inputs, eps = _screen_error = gamma_{C+2} +
2 gamma'_{M_z+1}. Float32 subnormals would make the products slow, so
Ht is scaled by the power of two 2^s that puts its maximum in
[2^59, 2^60) (s <= 1023), and its entries below 1 and OZ's below 2^-60
are set to 0: every nonzero product is then at least 2^-60. Each zeroed
product was below one scaled unit 2^-s, so a total moves by less than
C M_z 2^-s, and the band's floor drops 2 C M_z 2^-s more; scaling back
is exact, or off by at most 2^-1075 where it underflows. By
tie_tolerance, an action in the rule's band has X_a >= x - 6 gamma_k
max(x, 2^-969), x the top exact total, so its screen total lies within
2 eps x + 6 gamma_k max(x, 2^-969), plus the flush terms, of the top
screen total. The band, rho = 4 eps measured from max(|top|, 2^-969),
covers that whenever 6 gamma_k <= 2 eps, which holds for k below
10^8 (C + 2), so for any model that fits in memory; on the default model
it is twice what is needed. So the rule's band, its top total included,
lies among the candidates, and the rule picks among them what it would
pick among all actions. The float32 errors of the default model's
screens stay below 0.22 eps (tests/tie_edges.py), and most beliefs keep
one candidate.

With discount 0.99 a backup sweep closes only about 1% of the remaining
value gap, so between backup (improvement) sweeps the stage runs cheap
evaluation sweeps, as modified policy iteration (Puterman & Shin 1978)
and point-based policy iteration (Ji et al. 2007) do. A backup sweep's
choices form a finite-state controller over the beliefs: belief k's plan
is its action a_k and, per observation z, the belief succ[k, z] that owns
the vector the backup picked for z (the incoming set's vectors have no
owner, so a stage's first sweep makes no plans). An evaluation sweep
recomputes every planned belief's node from the retained vectors,

    node_k = T (rbar[a_k] + discount * sum_z O[a_k, :, z] * node[succ[k, z]])
           = T (rbar[a_k] + discount * sum_j W_kj * node[j]),

W_kj the sum of O[a_k, :, z] over the z with succ[k, z] = j, the weights
of the block solve below too. A call groups each plan's observations by
successor once, keeping its J <= M_z distinct successors (about 10 on the
default model, against M_z = 25) padded with zero weights, so a sweep
costs N * (J * |S| + |S|^2) against the N * V * C * L score product of a
backup sweep over its L <= |A| * M_z live columns. The grouped sum is
the same sum, factored and reordered, so nodes differ from a sum over z
only by rounding. Each node is the value of a finite plan whose leaves
are retained vectors, and those are values of plans too, so every node
is still a lower bound. A belief adopts its node under the same rule, so
per-belief values stay monotone.

Each evaluation sweep closes only about 1 - discount of the evaluation's
own gap, so on the 2-4 belief plan sets of small rounds, where backups
are cheap, the hundreds of sweeps to convergence were most of a solve.
A sweep that leaves at most _EXACT_PLANS planned beliefs evaluates their
plans exactly instead (_solve_plans), as point-based policy iteration
does: the nodes solve the m |S| linear system above, with every
unplanned successor fixed at its anchor. Its (|S|, |S|) blocks
delta_kj I - discount * T diag(W_kj), with W_kj as above, form an
M-matrix, so block elimination needs no pivoting between blocks. It uses
only (|S|, |S|) inverses and stacked (|S|, |S|) products, whose bytes held
under one and two OpenBLAS threads on the default model; one dense solve
of the whole system gave other bytes under the two from 138 unknowns up.
A row whose node does not beat its retained value is fixed at its anchor
and the rest are solved again, so values stay monotone; the nodes left
are the values of a finite-state controller whose leaves are retained
vectors, so they stay lower bounds.
The blocks depend only on the plan structure (actions and successor slots),
which recurs within a round, so a round keeps its last two eliminations, and
an equal structure replays one on its new right-hand side. A replay applies
the same operands in the same order, so nodes keep their bytes; keeping
every structure of a round caught few more repeats and cost 5 MB more peak
memory. Larger plan sets keep the evaluation sweeps: raising the limit from
4 to 8 plans made the 3-stage solves about 1.3 times slower.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .pomdp import PomdpModel, belief_update, inverse_cdf

_EXACT_PLANS = 4        # at most this many planned beliefs: _solve_plans
_SCREEN_BAND = 4        # the action screen's band, in units of _screen_error


@dataclass
class Policy:
    """Final alpha set; the greedy action at b is actions[first_near_max(alpha @ b)]."""

    alpha: np.ndarray               # (V, |S|)
    actions: np.ndarray             # (V,) action index per vector
    metadata: dict[str, Any] = field(default_factory=dict)
    stage_wall_s: list[float] = field(default_factory=list)  # per round; not saved

    def value(self, b: np.ndarray) -> float:
        return float((self.alpha @ b).max())


def tie_tolerance(model: PomdpModel) -> float:
    """Relative tolerance of first_near_max: 4 gamma_k, k = 2|S| + C + M_z + 1.

    Every compared score is a sum of nonnegative products. The longest is
    a backup's action total, sum_s' tb[s'] rbar[a, s'] + discount * sum_z
    max_v sum_c OZ[c, a, z] sum_{s' in c} alpha[v, s'] tb[s'], tb = b T.
    A term of it passes through at most k roundings (C cells, M_z
    observations): |S| in tb, one product with alpha, |S| - 1 additions in
    a cell, one product with OZ, C - 1 and M_z - 1 additions, the discount
    and the reward sum's addition. A max rounds nothing, nor do the
    products with a one-hot cell indicator and the additions of exact
    zeros (other cells' states, observations no cell can produce) that
    _backup_block's products carry. The computed sum is then within
    gamma_k = k u / (1 - k u), u = 2^-53, of the exact one, relatively, in
    any order (Higham 2002, Lemmas 3.1, 3.3). With x the
    exact maximum, every computed score, and so the computed maximum and
    the band's floor, lies within about x gamma_k of its exact value: a
    candidate within 2 gamma_k of x is in the band and one more than
    6 gamma_k below x is out, for any product shape and BLAS build. An
    underflowing product is off by up to u * 2^-1022 instead, and vector
    values (~1e13) stay below 1/u, so the band is measured from
    max(|top|, 2^-969): scores of an all but impossible observation tie.
    """
    cells = np.unique(model.states.cells()).size
    ku = (2 * model.num_states + cells + model.num_observations + 1) * 2.0 ** -53
    return 4.0 * ku / (1.0 - ku)            # 4 gamma_k, gamma_k = k u / (1 - k u)


def _band_floor(top: np.ndarray, tol: float) -> np.ndarray:
    return top - tol * np.maximum(np.abs(top), 2.0 ** -969)


def first_near_max(scores: np.ndarray, tol: float, axis: int = -1) -> np.ndarray:
    """The decision rule: the lowest index along `axis` whose score is at
    least top - tol * max(|top|, 2^-969), top the computed maximum."""
    if scores.ndim == 2 and axis in (1, -1) and scores.shape[1] <= 16 and len(scores) >= 32:
        # numpy reduces a short last axis row by row; over a transposed copy the max is a
        # few whole-row passes, with the same values (a max rounds nothing)
        top = np.ascontiguousarray(scores.T).max(axis=0)[:, None]
    else:
        top = scores.max(axis=axis, keepdims=True)
    return (scores >= _band_floor(top, tol)).argmax(axis=axis)


def _beats(fresh: np.ndarray, kept: np.ndarray, tol: float) -> np.ndarray:
    """Where the rule over the pair (kept, fresh) picks fresh: kept is below its band."""
    return kept < _band_floor(fresh, tol)


def initial_bound(model: PomdpModel) -> np.ndarray:
    """Uniform lower bound (|S|,): the all-min-reward discounted sum."""
    v0 = float(model.rbar.min()) / (1.0 - model.discount)
    return np.full(model.num_states, v0)


def default_epsilon(model: PomdpModel) -> float:
    """Stage convergence threshold: 1e-3 of the largest expected reward."""
    return 1e-3 * float(np.abs(model.rbar).max())


def _cell_tensors(model: PomdpModel
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(E, OZ, OZ32, first): the state->cell one-hot (|S|, C), the per-cell
    rows (C, |A|*M_z), OZ's live columns (those some cell can produce) in
    float32 with entries below 2^-60 set to 0, (C, L), and the index of
    each action's first column among them (|A|,)."""
    cells = model.states.cells()
    labels = np.unique(cells)
    e = (cells[:, None] == labels[None, :]).astype(float)
    reps = np.array([int(np.flatnonzero(cells == c)[0]) for c in labels])
    oz = model.O[:, reps, :].transpose(1, 0, 2).reshape(len(labels), -1)
    live = oz.any(axis=0)
    per_action = live.reshape(model.num_actions, -1).sum(axis=1)    # >= 1: O's rows sum to 1
    oz_live = oz[:, live]
    oz32 = np.where(oz_live < 2.0 ** -60, 0.0, oz_live).astype(np.float32)
    return e, oz, oz32, np.cumsum(per_action) - per_action


def _screen_error(cells: int, observations: int) -> float:
    """The action screen's relative error bound: gamma_{C+2} in float32 plus
    2 gamma_{M_z+1} in float64 (module docstring)."""
    k32 = (cells + 2) * 2.0 ** -24
    k64 = (observations + 1) * 2.0 ** -53
    return k32 / (1.0 - k32) + 2.0 * k64 / (1.0 - k64)


def _screen(model: PomdpModel, cells: tuple[np.ndarray, ...], ht: np.ndarray,
            reward: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The action screen of a backup: float32 totals (N, |A|) and the floor
    (N, 1) of each belief's band; the candidates reach it.

    Ht is scaled by 2^s and flushed as the module docstring sets out, each
    belief's live columns are scored and maximized over vectors in float32,
    and each action's maxima are summed in float64 and scaled back. The
    floor lies rho = _SCREEN_BAND * _screen_error below the top total,
    relative to max(|top|, 2^-969), and 2 C M_z 2^-s lower for the flushes.
    """
    oz32, first = cells[2:]
    n_b, n_c, _ = ht.shape
    n_z = model.num_observations
    shift = min(60 - int(np.frexp(ht.max())[1]), 1023)
    h32 = np.multiply(ht, 2.0 ** shift, out=np.empty(ht.shape, np.float32))  # no float64 copy
    h32[h32 < 1.0] = 0.0
    best = np.empty((n_b, oz32.shape[1]), dtype=np.float32)
    for k in range(n_b):
        (h32[k].T @ oz32).max(axis=0, out=best[k])
    unit = 2.0 ** -shift
    totals = reward + model.discount * (np.add.reduceat(best, first, axis=1, dtype=float) * unit)
    rho = _SCREEN_BAND * _screen_error(n_c, n_z)
    return totals, _band_floor(totals.max(axis=1, keepdims=True), rho) - 2.0 * n_c * n_z * unit


def _backup_block(model: PomdpModel, tb: np.ndarray, alpha_mat: np.ndarray,
                  cells: tuple[np.ndarray, ...], tol: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Back up each row of `tb`: vectors (N,S), actions (N,) and picks (N,Z).

    `tb` carries the one-step predicted beliefs (beliefs @ T), which is all
    the backup needs, and `cells` is _cell_tensors(model). The projection
    Ht[n, c, v] = sum_{s' in cell c} tb[n, s'] alpha[v, s'] is formed once,
    and b_n . proj[v, a, z] = (Ht[n]^T @ OZ)[v, (a, z)]. The action screen
    (_screen) leaves each belief the candidate actions that the rule's band
    could hold (module docstring). Each (belief, candidate) pair's columns
    are rescored in float64, in blocks no larger than one belief's (V, L)
    scores, then maximized over vectors and totalled, a dead column entering
    as a 0. The rule picks each belief's action among its candidates'
    totals, the others standing at -inf, and each pair's vector per
    observation; picks[n, z] is the row of `alpha_mat` so chosen for
    observation z under the chosen action. Actions are one first_near_max
    decision at `tol` for all rows, picks one per block of pairs.
    """
    e, oz, oz32, _ = cells
    n_b, n_s = tb.shape
    n_c = len(oz)
    n_a, _, n_z = model.O.shape
    disc = model.discount
    ht = ((tb[:, None, :] * e.T).reshape(n_b * n_c, n_s) @ alpha_mat.T
          ).reshape(n_b, n_c, -1)                           # (N, C, V)
    reward = tb @ model.rbar.T                              # (N, A)
    screen, floor = _screen(model, cells, ht, reward)
    pair_b, pair_a = np.nonzero(screen >= floor)            # candidates, belief by belief
    oz_t = oz.reshape(n_c, n_a, n_z).transpose(1, 2, 0)    # (A, Z, C)
    future = np.empty(len(pair_b))
    pair_picks = np.empty((len(pair_b), n_z), dtype=int)
    step = max(1, oz32.shape[1] // n_z)  # (step, Z, V) scores fit in one (V, L) block
    for lo in range(0, len(pair_b), step):
        k, a = pair_b[lo:lo + step], pair_a[lo:lo + step]
        scores = np.matmul(oz_t[a], ht[k])                  # (n, Z, V)
        top = scores.max(axis=2)        # one max serves the future values and the picks' band
        future[lo:lo + step] = top.sum(axis=1)
        pair_picks[lo:lo + step] = (scores >= _band_floor(top[:, :, None], tol)).argmax(axis=2)
    totals = np.full((n_b, n_a), -np.inf)                   # -inf: screened out
    totals[pair_b, pair_a] = reward[pair_b, pair_a] + disc * future
    acts = first_near_max(totals, tol, axis=1)              # (N,)
    picks = pair_picks[pair_a == acts[pair_b]]              # the pair of each belief's action
    del ht                              # free its memory before the (N, Z, S) gathers
    g = alpha_mat.take(picks, axis=0)
    phi = (model.O[acts] * g.transpose(0, 2, 1)).sum(axis=2)
    pre = model.rbar[acts] + disc * phi
    # T @ pre[k] for every k; pre @ T.T would round differently
    return np.matmul(model.T, pre[:, :, None])[:, :, 0], acts, picks


def _dedup_rows(mat: np.ndarray) -> np.ndarray:
    """Indices of the first occurrence of each distinct row, in order."""
    first: dict[bytes, int] = {}
    for i, row in enumerate(mat):
        first.setdefault(row.tobytes(), i)
    return np.array(list(first.values()), dtype=int)


def _prune_dominated(mat: np.ndarray, actions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop rows pointwise-dominated (>= everywhere, > somewhere) by another row.

    Dominance is transitive, so every dominated row is dominated by an
    undominated one, which no pass drops: one pass keeps the same rows,
    in order, as the scan against still-alive rows in tests/_oracles.py.
    """
    dominated = [((mat >= r).all(axis=1) & (mat > r).any(axis=1)).any() for r in mat]
    keep = ~np.array(dominated, dtype=bool)
    return mat[keep], actions[keep]


def _successor_weights(o_t: np.ndarray, keys: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """W[k, j] = sum of o_t[k, z] over the z with keys[k, z] == targets[k, j]:
    (m, J, S) from o_t (m, Z, S), keys (m, Z) and targets broadcast to (m, J)."""
    return np.matmul((keys[:, None, :] == targets[..., None]).astype(float), o_t)


def _evaluate_plans(model: PomdpModel, beliefs: np.ndarray, anchors: np.ndarray,
                    tracked: np.ndarray, planned: np.ndarray, plan_acts: np.ndarray,
                    succ: np.ndarray, epsilon: float, tol: float,
                    max_sweeps: int) -> int:
    """Evaluation sweeps of the beliefs' plans; returns the sweeps run.

    Belief k's plan is action plan_acts[k], then the node of belief
    succ[k, z] after observation z. A sweep recomputes every planned node
    (node_k in the module docstring), and a belief adopts its node where
    the rule at `tol` prefers it; `anchors` and `tracked` change in place.
    Sweeps stop once one adopts nothing or gains less than `epsilon`.
    Each row's distinct successors uniq[k, :J] and weights W_kj are formed
    once per call; a short row is padded with successor 0 at weight 0.
    """
    rows = np.flatnonzero(planned)
    acts = plan_acts[rows]
    nxt = np.sort(succ[rows], axis=1)
    first = np.ones(nxt.shape, dtype=bool)
    first[:, 1:] = nxt[:, 1:] != nxt[:, :-1]
    j = first.cumsum(axis=1) - 1                            # slot of each sorted successor
    uniq = np.full((len(rows), j.max() + 1), -1)            # -1 matches no z: zero weights
    uniq[np.arange(len(rows))[:, None], j] = nxt
    w = _successor_weights(model.O[acts].transpose(0, 2, 1), succ[rows], uniq)  # (m, J, S)
    uniq[uniq < 0] = 0
    r = model.rbar[acts]
    b = beliefs[rows]
    for sweep in range(1, max_sweeps + 1):
        pre = r + model.discount * np.einsum("mjs,mjs->ms", w, anchors.take(uniq, axis=0))
        nodes = pre @ model.T.T
        vals = np.einsum("ms,ms->m", b, nodes)
        gain = vals - tracked[rows]
        take = _beats(vals, tracked[rows], tol)
        adopt = rows[take]
        anchors[adopt] = nodes[take]
        tracked[adopt] = vals[take]
        if not adopt.size or gain[take].max() < epsilon:
            return sweep
    return max_sweeps


def _plan_nodes(model: PomdpModel, anchors: np.ndarray, rows: np.ndarray,
                acts: np.ndarray, nxt: np.ndarray, kept: list) -> np.ndarray:
    """The nodes (m, S) of the plans of `rows`, with every other belief's
    node fixed at its anchor, by elimination over the module docstring's
    (S, S) blocks delta_kj I - discount * T diag(W_kj). `kept` holds the
    round's last two eliminations (acts, slot, inverses, blocks), newest first."""
    m = len(rows)
    disc = model.discount
    where = np.full(len(anchors), m)
    where[rows] = np.arange(m)
    slot = where[nxt]                                       # (m, Z); m: fixed
    o_t = model.O[acts].transpose(0, 2, 1)                  # (m, Z, S)
    fixed = np.einsum("kzs,kzs->ks", o_t * (slot == m)[:, :, None], anchors[nxt])
    x = np.matmul(model.T, (model.rbar[acts] + disc * fixed)[:, :, None])   # (m, S, 1)
    hit = [i for i, old in enumerate(kept)
           if np.array_equal(old[0], acts) and np.array_equal(old[1], slot)]
    if hit:
        kept.insert(0, kept.pop(hit[0]))
    else:
        w = _successor_weights(o_t, slot, np.arange(m))
        a = model.T * (-disc * w[:, :, None, :])            # (m, m, S, S)
        diag, s = np.arange(m)[:, None], np.arange(model.num_states)
        a[diag, diag, s, s] += 1.0
        invs = []
        for k in range(m):
            invs.append(np.linalg.inv(a[k, k]))
            a[k, k + 1:] = np.matmul(invs[k], a[k, k + 1:])
            a[k + 1:, k + 1:] -= np.matmul(a[k + 1:, k, None], a[k, None, k + 1:])
        kept[:] = [(acts, slot, invs, a), *kept[:1]]
    invs, a = kept[0][2:]
    for k in range(m):
        x[k] = invs[k] @ x[k]
        x[k + 1:] -= np.matmul(a[k + 1:, k], x[k])
    for k in range(m - 2, -1, -1):
        x[k] -= np.matmul(a[k, k + 1:], x[k + 1:]).sum(axis=0)
    return x[:, :, 0]


def _solve_plans(model: PomdpModel, beliefs: np.ndarray, anchors: np.ndarray,
                 tracked: np.ndarray, planned: np.ndarray, plan_acts: np.ndarray,
                 succ: np.ndarray, tol: float, kept: list) -> int:
    """Exact evaluation of the beliefs' plans; returns the block solves run.

    The planned beliefs' nodes are solved for at once (_plan_nodes). A row
    whose node does not beat its tracked value under the rule at `tol` is
    fixed at its anchor and the rest are solved again, until every row left
    beats and adopts; `anchors`, `tracked` and `kept` (_plan_nodes) change in place.
    """
    rows = np.flatnonzero(planned)
    solves = 0
    while rows.size:
        nodes = _plan_nodes(model, anchors, rows, plan_acts[rows], succ[rows], kept)
        solves += 1
        vals = np.einsum("ms,ms->m", beliefs[rows], nodes)
        take = _beats(vals, tracked[rows], tol)
        if take.all():
            anchors[rows] = nodes
            tracked[rows] = vals
            break
        rows = rows[take]
    return solves


def backup_stage(model: PomdpModel, beliefs: np.ndarray, alphas_mat: np.ndarray,
                 alpha_actions: np.ndarray, epsilon: float, max_sweeps: int = 500,
                 tracked: np.ndarray | None = None,
                 collect_history: bool = False
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Sweep backups over the belief set until point values settle.

    `tracked` carries each belief's retained value in from a previous stage
    (None, or -inf for a belief, evaluates the incoming set there). Between
    improvement sweeps, the plans the improvement sweeps chose are
    evaluated: exactly by block solves while at most _EXACT_PLANS beliefs
    hold a plan, else by evaluation sweeps (at most `max_sweeps` each
    time). Returns the new alpha matrix, its actions, the updated tracked
    values, and an info dict with the improvement and evaluation sweep
    counts, the block solve count, the convergence flag, and optionally
    the per-sweep value history (one row per improvement sweep, taken after
    its evaluation).
    """
    cells = _cell_tensors(model)
    tol = tie_tolerance(model)
    tb = beliefs @ model.T
    n_b = len(beliefs)
    eval0 = beliefs @ alphas_mat.T                              # (N, V)
    best0 = first_near_max(eval0, tol, axis=1)
    anchors = alphas_mat[best0]                             # (N, S)
    anchor_acts = alpha_actions[best0]
    vals0 = eval0[np.arange(n_b), best0]
    tracked = vals0 if tracked is None else np.maximum(tracked, vals0)
    history = [tracked.copy()]
    owner = None                # belief whose anchor each alpha row is
    planned = np.zeros(n_b, dtype=bool)
    plan_acts = np.zeros(n_b, dtype=int)
    succ = np.zeros((n_b, model.num_observations), dtype=int)
    kept: list = []             # the round's last two block eliminations
    converged = False
    sweeps = eval_sweeps = eval_solves = 0
    for sweeps in range(1, max_sweeps + 1):
        new_vecs, new_acts, picks = _backup_block(model, tb, alphas_mat, cells, tol)
        new_vals = np.einsum("ns,ns->n", beliefs, new_vecs)
        take = _beats(new_vals, tracked, tol)
        anchors = np.where(take[:, None], new_vecs, anchors)
        anchor_acts = np.where(take, new_acts, anchor_acts)
        delta = float(np.where(take, new_vals - tracked, 0.0).max())
        tracked = np.where(take, new_vals, tracked)
        if owner is not None:   # the incoming set's vectors have no owner
            planned |= take
            plan_acts[take] = new_acts[take]
            succ[take] = owner[picks[take]]
        converged = delta < epsilon
        if not converged and planned.sum() > _EXACT_PLANS:
            eval_sweeps += _evaluate_plans(model, beliefs, anchors, tracked,
                                           planned, plan_acts, succ, epsilon,
                                           tol, max_sweeps)
        elif not converged and planned.any():
            eval_solves += _solve_plans(model, beliefs, anchors, tracked, planned,
                                        plan_acts, succ, tol, kept)
        owner = _dedup_rows(anchors)
        alphas_mat, alpha_actions = anchors[owner], anchor_acts[owner]
        if collect_history:
            history.append(tracked.copy())
        if converged:
            break
    alphas_mat, alpha_actions = _prune_dominated(alphas_mat, alpha_actions)
    info = {"sweeps": sweeps, "eval_sweeps": eval_sweeps, "eval_solves": eval_solves,
            "converged": converged}
    if collect_history:
        info["value_history"] = np.stack(history)
    return alphas_mat, alpha_actions, tracked, info


def expand_beliefs(model: PomdpModel, beliefs: np.ndarray,
                   seed_seq: np.random.SeedSequence) -> np.ndarray:
    """Grow the belief set (N, |S|) by at most one new point per existing point.

    For every belief, one stochastic forward simulation per action proposes
    a successor belief; the proposal farthest from the current set (minimum
    L1 distance) is added unless that distance is 0. Per-belief random
    streams make the result independent of evaluation order. Each pick is
    measured against the points added before it.
    """
    n0, n_s = beliefs.shape
    n_a = model.num_actions
    # belief i's stream yields (u_s, u_s', u_z) for actions 0, 1, ... in turn
    u = np.concatenate([np.random.default_rng(ss).random((n_a, 3))
                        for ss in seed_seq.spawn(n0)])
    rows = np.repeat(np.arange(n0), n_a)
    acts = np.tile(np.arange(n_a), n0)
    s = inverse_cdf(beliefs.cumsum(axis=1)[rows], u[:, 0])
    s2 = inverse_cdf(model.T[s].cumsum(axis=1), u[:, 1])
    z = inverse_cdf(model.O[acts, s2].cumsum(axis=1), u[:, 2])
    cands, impossible = belief_update(model, beliefs[rows], model.O[acts, :, z])
    cands = cands.reshape(n0, n_a, n_s)
    impossible = impossible.reshape(n0, n_a)
    pts = np.empty((2 * n0, n_s))
    pts[:n0] = beliefs
    count = n0
    for i in range(n0):
        dist = np.abs(pts[None, :count] - cands[i][:, None, :]).sum(axis=2).min(axis=1)
        dist[impossible[i]] = 0.0
        k = int(dist.argmax())              # the first of equal maxima
        if dist[k] > 0.0:
            pts[count] = cands[i, k]
            count += 1
    return pts[:count].copy()


def solve(model: PomdpModel, b0: np.ndarray, *, num_stages: int = 4,
          expansions_per_stage: int = 2, epsilon: float | None = None,
          max_sweeps: int = 500, seed: int = 0, metric: str = "l1",
          collect_history: bool = False) -> Policy:
    """Run the full expansion/backup schedule from the initial belief; `metric` is "l1"."""
    if metric != "l1":
        raise ValueError(f"metric must be 'l1' (got {metric!r})")
    if num_stages < 0 or expansions_per_stage < 1:
        raise ValueError("num_stages must be >= 0 and expansions_per_stage >= 1")
    if (epsilon is not None and not epsilon > 0) or max_sweeps < 1:
        raise ValueError("epsilon must be None or > 0 and max_sweeps >= 1")
    eps = default_epsilon(model) if epsilon is None else float(epsilon)
    alphas_mat = initial_bound(model)[None, :]
    alpha_actions = np.array([0])
    beliefs = np.asarray(b0, dtype=float)[None, :]
    tracked = np.empty(0)
    stage_log: list[dict] = []
    stage_wall_s: list[float] = []
    for round_id in range(1, num_stages * expansions_per_stage + 1):
        t0 = time.perf_counter()
        beliefs = expand_beliefs(model, beliefs, np.random.SeedSequence((seed, round_id)))
        # -inf: backup_stage values the new beliefs
        tracked = np.append(tracked, np.full(len(beliefs) - len(tracked), -np.inf))
        alphas_mat, alpha_actions, tracked, info = backup_stage(
            model, beliefs, alphas_mat, alpha_actions, eps, max_sweeps,
            tracked=tracked, collect_history=collect_history)
        stage_log.append({"round": round_id, "num_beliefs": len(beliefs),
                          "num_alphas": len(alphas_mat), **info})
        stage_wall_s.append(time.perf_counter() - t0)
    metadata = {"seed": seed, "num_stages": num_stages,
                "expansions_per_stage": expansions_per_stage,
                "epsilon": eps, "max_sweeps": max_sweeps, "metric": "l1",
                "discount": model.discount, "stages": stage_log,
                "num_beliefs": len(beliefs)}
    return Policy(alpha=alphas_mat, actions=alpha_actions, metadata=metadata,
                  stage_wall_s=stage_wall_s)

