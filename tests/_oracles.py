"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions, not by calling
into the package: the phased-array response as a raw elementwise phase sum,
the per-band perfect-information rate by paired Monte Carlo from plain
numbers, the mobility law as a literal three-entry table, the point-based
backup as an explicit loop over (action, observation, vector) triples, a
belief-grid value iteration over the simplex with Freudenthal interpolation
for small instances, and the fully observed MDP's value as an upper bound.
Other references keep earlier package code verbatim so a faster rewrite can
be held to it, bit for bit or within a stated tolerance: the quadrature
expected rate, the per-(action, cell) model tables, the scalar belief
update, the per-proposal belief expansion, the sequential dominance pruning,
the backup kernel, the backup stage without evaluation sweeps, the
per-observation evaluation sweeps and the per-trial episode loop, with the
metrics of its traces; a recording agent shows the beliefs the simulator
hands an agent. Those that decide (a vector, an action or an adoption)
restate the package's tie rule in their own code: the lowest index whose
score is within a relative tolerance of the maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations_with_replacement
from types import SimpleNamespace

import numpy as np


# ---------------------------------------------------------------- arrays ---

def double_sum_response(n_y: int, n_z: int, theta: float, phi: float,
                        theta_hat: float, phi_hat: float) -> float:
    """|AF|^2 summed element by element, steering phases written out."""
    psi = 0.5 * math.cos(phi) * math.sin(theta)
    zeta = 0.5 * math.sin(phi)
    psi_h = 0.5 * math.cos(phi_hat) * math.sin(theta_hat)
    zeta_h = 0.5 * math.sin(phi_hat)
    total = 0.0 + 0.0j
    for m in range(n_y):
        for n in range(n_z):
            received = 2.0 * math.pi * (m * psi + n * zeta)
            steer = -2.0 * math.pi * (m * psi_h + n * zeta_h)
            total += complex(math.cos(received + steer), math.sin(received + steer))
    return abs(total) ** 2


def quad_rate_integral(c: float) -> float:
    """I(c) = int_0^inf ln(1 + c/u) e^-u du by adaptive quadrature.

    Evaluated in x-space as int_0^inf (1 - e^{-c/x})/(1+x) dx split at
    X = max(c, 1): the head is flattened by x = e^y - 1 and the tail mapped
    onto (0, 1] by x = X/t, leaving two bounded smooth integrands. Below
    c = 1e-8 it returns the one-term series c (1 - euler_gamma - ln c).
    """
    from scipy.integrate import quad

    if c < 1e-8:
        return c * (1.0 - float(np.euler_gamma) - math.log(c)) if c > 0 else 0.0
    big = max(c, 1.0)

    def head(y: float) -> float:
        return -math.expm1(-c / math.expm1(y)) if y > 0 else 1.0

    def tail(t: float) -> float:
        return -math.expm1(-c * t / big) * big / (t * (t + big)) if t > 0 else c / big

    tol = 1e-10
    v1, e1 = quad(head, 0.0, math.log1p(big), epsabs=0.0, epsrel=tol, limit=200)
    v2, e2 = quad(tail, 0.0, 1.0, epsabs=0.0, epsrel=tol, limit=200)
    total = v1 + v2
    if not math.isfinite(total) or (e1 + e2) > 1e-6 * abs(total):
        raise RuntimeError(f"rate quadrature did not converge for c={c!r}")
    return total


def reference_model_tables(model) -> tuple[np.ndarray, np.ndarray]:
    """(O, rbar) of a model rebuilt one (action, cell) pair at a time.

    The SNR-bin probabilities are differences of F(t) = exp(-(G/s^2)/t) at
    the bin edges, as scalar code; the expected rate uses quad_rate_integral.
    """
    num_a, num_cells = model.gains.shape
    thr = model.thresholds
    obs = np.empty((num_a, num_cells, thr.size + 1))
    rew = np.empty((num_a, num_cells))
    for a in range(num_a):
        band = model.bands[model.actions.band_idx[a]]
        sig = model.consts.noise_variance_w(band.bandwidth_hz)
        for c in range(num_cells):
            g = model.gains[a, c]
            if g == 0.0:
                obs[a, c] = 0.0
                obs[a, c, 0] = 1.0
                rew[a, c] = 0.0
                continue
            cdf = np.exp(-(g / sig) / thr)
            obs[a, c] = np.diff(np.concatenate(([0.0], cdf, [1.0])))
            rew[a, c] = band.bandwidth_hz * quad_rate_integral(g / sig) / math.log(2.0)
    cells = model.states.cells() - 1
    return obs[:, cells, :], rew[:, cells]


def mc_expected_rate(bandwidth_hz: float, g: float, sigma_sq: float,
                     num_samples: int, seed: int) -> tuple[float, float]:
    """(estimate, standard error) of E[W log2(1 + G/E)] by plain sampling."""
    rng = np.random.default_rng(seed)
    e = rng.exponential(scale=sigma_sq, size=num_samples)
    vals = bandwidth_hz * np.log2(1.0 + g / e)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(num_samples))


# ------------------------------------------- perfect-information rates ---

@dataclass(frozen=True)
class PerfectInfoEstimate:
    """Paired Monte Carlo perfect-information averages, one row per band.

    per_draw[b, i] is the road-cell average of band b's aligned rate under
    noise draw i; the draws are common to every band and cell.
    """

    bandwidths_hz: np.ndarray    # (bands,)
    aligned_gains: np.ndarray    # (bands, cells), W
    per_draw: np.ndarray         # (bands, draws), bits/s

    @property
    def means(self) -> np.ndarray:
        return self.per_draw.mean(axis=1)

    @property
    def standard_errors(self) -> np.ndarray:
        return self.per_draw.std(axis=1, ddof=1) / math.sqrt(self.per_draw.shape[1])

    def gap_pct(self, a: int, b: int) -> tuple[float, float]:
        """100*(mean_a/mean_b - 1) and its standard error in pp.

        The error is the ratio estimator's over the paired draws:
        std(y_a - R*y_b) / (mean_b * sqrt(n)) with R = mean_a/mean_b.
        """
        ya, yb = self.per_draw[a], self.per_draw[b]
        ratio = ya.mean() / yb.mean()
        se = (ya - ratio * yb).std(ddof=1) / (yb.mean() * math.sqrt(ya.size))
        return 100.0 * (ratio - 1.0), 100.0 * se

    def gap_bound_pct(self, a: int, b: int) -> float:
        """Concavity cap on gap_pct(a, b): 100*(max_c max(G_a/G_b, W_a/W_b) - 1)."""
        g_ratio = self.aligned_gains[a] / self.aligned_gains[b]
        w_ratio = self.bandwidths_hz[a] / self.bandwidths_hz[b]
        return 100.0 * (float(np.maximum(g_ratio, w_ratio).max()) - 1.0)


def perfect_info_mc(bands: list[tuple[float, float]],
                    aperture_m: tuple[float, float],
                    cells: list[tuple[float, float, float]],
                    k_const: float, path_loss_exp: float, tx_power_w: float,
                    noise_density_w_hz: float, num_draws: int,
                    seed: int) -> PerfectInfoEstimate:
    """Per-band mean over road cells of the aligned rate E[W log2(1 + G/(N0 W U))].

    bands holds (f_hz, bandwidth_hz) pairs, aperture_m the (A_y, A_z) sides
    and cells the (r_m, theta, phi) of each road cell; the beam is steered
    onto the cell. Each axis holds floor(2A/lambda) + 1 elements, the aligned
    |AF|^2 comes from the element-by-element phase sum, and the gain is
    G = K P |AF|^2 / (r^eta f^2 N). U ~ Exp(1) is drawn once and shared by
    every band and cell, so band differences are estimated on paired draws.

    Why a cross-channel gap is capped: with c = G/(N0 W) the rate is
    W I(c)/ln 2, where I(c) = E[ln(1 + c/U)] is concave with I(0) = 0, so
    I(k c) <= k I(c) for k >= 1 and I(k c) <= I(c) for k <= 1. Writing band
    a's SNR scale as k times band b's at the same cell gives
    rate_a <= max(G_a/G_b, W_a/W_b) * rate_b cell by cell, hence for the
    averages too. At equal bandwidth the gap is at most G_a/G_b - 1, which
    for 60 vs 39 GHz on the 3.8 cm aperture is 256*39^2/(100*60^2) - 1 =
    +8.16 %, whatever the cell or SNR.
    """
    c_light = 299792458.0
    rng = np.random.default_rng(seed)
    u = rng.exponential(size=num_draws)
    gains = np.empty((len(bands), len(cells)))
    per_draw = np.zeros((len(bands), num_draws))
    for b, (f_hz, bandwidth_hz) in enumerate(bands):
        lam = c_light / f_hz
        n_y = int(math.floor(2.0 * aperture_m[0] / lam)) + 1
        n_z = int(math.floor(2.0 * aperture_m[1] / lam)) + 1
        noise_w = noise_density_w_hz * bandwidth_hz
        for c, (r_m, theta, phi) in enumerate(cells):
            af_sq = double_sum_response(n_y, n_z, theta, phi, theta, phi)
            gains[b, c] = (k_const * tx_power_w * af_sq
                           / (r_m ** path_loss_exp * f_hz ** 2 * n_y * n_z))
            per_draw[b] += bandwidth_hz * np.log2(1.0 + gains[b, c] / (noise_w * u))
    per_draw /= len(cells)
    return PerfectInfoEstimate(
        bandwidths_hz=np.array([w for _, w in bands], dtype=float),
        aligned_gains=gains, per_draw=per_draw)


# -------------------------------------------------------------- mobility ---

def table_row(p: float, kappa1: float, kappa2: float, u_prev: int,
              u_prev2: int, num_cells: int) -> dict[int, float]:
    """Successor law straight from the movement table, edge-renormalized.

    u_prev2 == num_cells + 1 marks a missing history entry.
    """
    marker = num_cells + 1
    if u_prev2 == marker:
        row = {u_prev - 1: (1 - p) / 2, u_prev: p, u_prev + 1: (1 - p) / 2}
    elif u_prev2 == u_prev:
        row = {u_prev - 1: (1 - kappa2 * p) / 2, u_prev: kappa2 * p,
               u_prev + 1: (1 - kappa2 * p) / 2}
    elif u_prev2 == u_prev - 1:   # was moving up
        row = {u_prev - 1: (1 - kappa1) * (1 - p), u_prev: p,
               u_prev + 1: kappa1 * (1 - p)}
    elif u_prev2 == u_prev + 1:   # was moving down
        row = {u_prev - 1: kappa1 * (1 - p), u_prev: p,
               u_prev + 1: (1 - kappa1) * (1 - p)}
    else:
        raise ValueError(f"history ({u_prev2}, {u_prev}) is not adjacent")
    row = {c: q for c, q in row.items() if 1 <= c <= num_cells and q > 0}
    z = sum(row.values())
    return {c: q / z for c, q in row.items()}


# ----------------------------------------------------------------- pomdp ---

class ImpossibleObservation(ValueError):
    """Raised when an observation has zero probability under the belief."""


def reference_belief_update(model, b: np.ndarray, a: int, z: int) -> np.ndarray:
    """Posterior after acting a and observing z; successor-state convention.

    The package's earlier scalar update, kept as the bit-exact reference
    for one row of the batched pomdp.belief_update.
    """
    post = model.O[a, :, z] * (model.T.T @ b)
    norm = post.sum()
    if norm <= 1e-300:
        raise ImpossibleObservation(
            f"observation {z} has zero probability after action {a}")
    return post / norm


# ------------------------------------------------------------------ pbvi ---

def sequential_successor_weights(o_t: np.ndarray, keys: np.ndarray,
                                 targets: np.ndarray) -> np.ndarray:
    """W[k, j] of pbvi._successor_weights, summed one term at a time from 0.0
    in ascending z: o_t[k, z] over the z with keys[k, z] == targets[k, j].
    (m, J, S) from o_t (m, Z, S), keys (m, Z) and targets broadcast to (m, J)."""
    targets = np.broadcast_to(targets, (len(keys), np.shape(targets)[-1]))
    w = np.zeros((len(o_t), targets.shape[1], o_t.shape[2]))
    for z in range(keys.shape[1]):
        k, j = np.nonzero(keys[:, z, None] == targets)
        w[k, j] += o_t[k, z]
    return w


UNDERFLOW_SCALE = math.ldexp(1.0, -969)    # smallest normal / unit roundoff


def band_width(top, tol: float):
    """tol * max(|top|, 2^-969): half-width of the tie rule's band."""
    return tol * np.maximum(np.abs(top), UNDERFLOW_SCALE)


def tie_tolerance(model) -> float:
    """4 gamma_k with k = 2|S| + C + M_z + 1, restated from pbvi.tie_tolerance.

    k counts the roundings of the longest score sum, a backup's action
    total: |S| in b T, then the alpha product, |S| - 1 additions in a
    cell, the OZ product, C - 1 and M_z - 1 additions, the discount and
    the reward sum's addition.
    """
    cells = len(set(model.states.cells().tolist()))
    k = 2 * model.num_states + cells + model.O.shape[2] + 1
    unit = 2.0 ** -53
    return 4 * k * unit / (1 - k * unit)


def lowest_in_band(scores: np.ndarray, tol: float, axis: int) -> np.ndarray:
    """Smallest index i along `axis` with scores[i] >= top - band_width(top)."""
    moved = np.moveaxis(scores, axis, 0)
    top = moved.max(axis=0)
    idx = np.arange(len(moved)).reshape((-1,) + (1,) * (moved.ndim - 1))
    return np.where(moved >= top - band_width(top, tol), idx, len(moved)).min(axis=0)


def edge_margins(scores: np.ndarray, tol: float, axis: int) -> np.ndarray:
    """Per decision, how near the tie rule's band edge its candidates sit.

    For each decision along `axis` (floor = top - band_width(top), pick
    the lowest index in the band), the smallest |score - floor| over the
    candidates at or before the pick, relative to max(|top|, 2^-969): the
    only candidates whose crossing of the edge would change the pick.
    """
    moved = np.moveaxis(scores, axis, -1)
    top = moved.max(axis=-1, keepdims=True)
    floor = top - band_width(top, tol)
    pick = (moved >= floor).argmax(axis=-1)
    dist = np.abs(moved - floor) / np.maximum(np.abs(top), UNDERFLOW_SCALE)
    upto = np.arange(moved.shape[-1]) <= pick[..., None]
    return np.where(upto, dist, np.inf).min(axis=-1)


def adopts(fresh: np.ndarray, kept: np.ndarray, tol: float) -> np.ndarray:
    """Keep-the-better: True where `fresh` wins the pair (kept, fresh).

    The rule takes kept, the lower index, unless it scores below fresh's
    band.
    """
    pair = np.stack([kept, fresh])
    return lowest_in_band(pair, tol, axis=0) == 1


def reference_expand_beliefs(model, beliefs: np.ndarray,
                             seed_seq: np.random.SeedSequence) -> np.ndarray:
    """The solver's earlier expansion, one proposal at a time.

    Per belief and action: three scalar draws, searchsorted inverse-CDF
    steps, the scalar belief update (impossible proposals skipped) and a
    running strict-maximum pick of the farthest proposal.
    """
    n0 = len(beliefs)
    pts = np.empty((2 * n0, model.num_states))
    pts[:n0] = beliefs
    count = n0
    t_cum = model.T.cumsum(axis=1)
    o_cum = model.O.cumsum(axis=2)
    streams = seed_seq.spawn(n0)
    for i in range(n0):
        rng = np.random.default_rng(streams[i])
        b = beliefs[i]
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
                cand = reference_belief_update(model, b, a, z)
            except ImpossibleObservation:
                continue
            dist = float(np.abs(pts[:count] - cand).sum(axis=1).min())
            if dist > best_dist:
                best_cand, best_dist = cand, dist
        if best_cand is not None:
            pts[count] = best_cand
            count += 1
    return pts[:count].copy()


def reference_prune_dominated(mat: np.ndarray, actions: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """The solver's earlier pruning: each row against the rows still alive."""
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


def backup_at(model, b: np.ndarray, alpha_mat: np.ndarray) -> tuple[np.ndarray, int]:
    """(vector, action) of the solver's backup kernel at the single belief b."""
    from specbeam.pbvi import _backup_block, _cell_tensors

    vecs, acts, _ = _backup_block(model, (b @ model.T)[None, :], alpha_mat,
                                  _cell_tensors(model), tie_tolerance(model))
    return vecs[0], int(acts[0])


def extract_action(policy, b: np.ndarray, tol: float) -> int:
    """Action of the first vector whose alpha @ b is within tol of the max."""
    scores = (policy.alpha @ b).tolist()
    top = max(scores)
    floor = top - tol * max(abs(top), UNDERFLOW_SCALE)
    first = next(i for i, x in enumerate(scores) if x >= floor)
    return int(policy.actions[first])


def bruteforce_backup(T: np.ndarray, O: np.ndarray, rbar: np.ndarray,
                      discount: float, b: np.ndarray,
                      alpha_mat: np.ndarray) -> tuple[np.ndarray, int, float]:
    """One point-based backup by exhaustive enumeration.

    The slot pays its reward at the post-move state, so action a is scored
    as sum_s' (T^T b)[s'] rbar[a, s'] plus the discounted best projection
    per observation; the returned vector is T @ (rbar[a] + discount * phi).
    Returns (vector, action, value at b); ties go to the lowest action.
    """
    tb = b @ T
    num_a, _, num_z = O.shape
    best = None
    for a in range(num_a):
        phi = np.zeros(T.shape[0])
        val = float(tb @ rbar[a])
        for z in range(num_z):
            scores = [float(np.sum(tb * O[a, :, z] * alpha_mat[v]))
                      for v in range(len(alpha_mat))]
            v_star = int(np.argmax(scores))
            phi += O[a, :, z] * alpha_mat[v_star]
            val += discount * scores[v_star]
        if best is None or val > best[2]:
            best = (T @ (rbar[a] + discount * phi), a, val)
    return best


def projections(T: np.ndarray, O: np.ndarray, alpha_mat: np.ndarray) -> np.ndarray:
    """proj[v, a, z, s] = sum_s' T[s, s'] O[a, s', z] alpha[v, s'], in full.

    Reference form of the backup projection; the solver's sweep kernel
    computes the same contractions through the per-cell factorization.
    """
    v, s = alpha_mat.shape
    a, _, z = O.shape
    m1 = alpha_mat[:, None, None, :] * O.transpose(0, 2, 1)[None, :, :, :]
    return (m1.reshape(v * a * z, s) @ T.T).reshape(v, a, z, s)


REFERENCE_CHUNK = 32


def reference_backup_block(model, tb: np.ndarray, alpha_mat: np.ndarray,
                           e: np.ndarray, oz: np.ndarray, tol: float
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The solver's earlier sweep kernel, kept as the bit-exact reference.

    Scores every (vector, belief, action, observation) over all of OZ's
    columns in chunks of 32 beliefs, picks among vectors for every (action,
    observation) and totals each action from the best scores. `e` and `oz`
    are the (|S|, C) state->cell one-hot and the (C, |A|*M_z) per-cell
    observation rows; `tb` holds the predicted beliefs (beliefs @ T), one
    per row. Returns the vectors, the actions and, per belief and
    observation, the row of `alpha_mat` picked under the chosen action.
    Vectors and actions are picked by lowest_in_band at `tol`.
    """
    n_v, n_s = alpha_mat.shape
    n_a, _, n_z = model.O.shape
    disc = model.discount
    out_vec = np.empty((len(tb), n_s))
    out_act = np.empty(len(tb), dtype=int)
    out_pick = np.empty((len(tb), n_z), dtype=int)
    for lo in range(0, len(tb), REFERENCE_CHUNK):
        tbc = tb[lo:lo + REFERENCE_CHUNK]
        n = len(tbc)
        w = alpha_mat[:, None, :] * tbc[None, :, :]
        h = w.reshape(n_v * n, n_s) @ e
        scores = (h @ oz).reshape(n_v, n, n_a, n_z)
        best_v = lowest_in_band(scores, tol, axis=0)        # (n, A, Z)
        totals = tbc @ model.rbar.T + disc * scores.max(axis=0).sum(axis=2)
        acts = lowest_in_band(totals, tol, axis=1)          # (n,)
        for k in range(n):
            a = acts[k]
            g = alpha_mat[best_v[k, a]]                     # (Z, S)
            phi = (model.O[a] * g.T).sum(axis=1)
            out_vec[lo + k] = model.T @ (model.rbar[a] + disc * phi)
            out_act[lo + k] = a
            out_pick[lo + k] = best_v[k, a]
    return out_vec, out_act, out_pick


def reference_backup_stage(model, beliefs: np.ndarray, alphas_mat: np.ndarray,
                           alpha_actions: np.ndarray, epsilon: float,
                           max_sweeps: int = 500, tracked: np.ndarray | None = None,
                           collect_history: bool = False):
    """The solver's backup stage before evaluation sweeps, kept as the reference.

    Improvement sweeps only, each one kernel call, keep-the-better per
    belief and an exact-duplicate filter. It differs from the earlier code
    only in taking two of the kernel's three outputs, in filtering
    duplicates here, in deciding by this module's tie rule, and in
    reporting `eval_sweeps: 0` and `eval_solves: 0` so that solve's stage
    log has the same keys.
    """
    from specbeam.pbvi import _backup_block, _cell_tensors, _prune_dominated

    def dedup_rows(mat, actions):
        seen: set[bytes] = set()
        keep = []
        for i in range(len(mat)):
            key = mat[i].tobytes()
            if key not in seen:
                seen.add(key)
                keep.append(i)
        return mat[keep], actions[keep]

    cells = _cell_tensors(model)
    tol = tie_tolerance(model)
    tb = beliefs @ model.T
    eval0 = beliefs @ alphas_mat.T                              # (N, V)
    best0 = lowest_in_band(eval0, tol, axis=1)
    anchors = alphas_mat[best0]                             # (N, S)
    anchor_acts = alpha_actions[best0]
    vals0 = np.take_along_axis(eval0, best0[:, None], axis=1)[:, 0]
    tracked = vals0 if tracked is None else np.maximum(tracked, vals0)
    history = [tracked.copy()]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_sweeps + 1):
        new_vecs, new_acts, _ = _backup_block(model, tb, alphas_mat, cells, tol)
        new_vals = np.einsum("ns,ns->n", beliefs, new_vecs)
        take = adopts(new_vals, tracked, tol)
        anchors = np.where(take[:, None], new_vecs, anchors)
        anchor_acts = np.where(take, new_acts, anchor_acts)
        delta = float(np.where(take, new_vals - tracked, 0.0).max())
        tracked = np.where(take, new_vals, tracked)
        alphas_mat, alpha_actions = dedup_rows(anchors, anchor_acts)
        if collect_history:
            history.append(tracked.copy())
        if delta < epsilon:
            converged = True
            break
    alphas_mat, alpha_actions = _prune_dominated(alphas_mat, alpha_actions)
    info = {"sweeps": sweeps, "eval_sweeps": 0, "eval_solves": 0, "converged": converged}
    if collect_history:
        info["value_history"] = np.stack(history)
    return alphas_mat, alpha_actions, tracked, info


def reference_evaluate_plans(model, beliefs: np.ndarray, anchors: np.ndarray,
                             tracked: np.ndarray, planned: np.ndarray,
                             plan_acts: np.ndarray, succ: np.ndarray, epsilon: float,
                             tol: float, max_sweeps: int) -> int:
    """The solver's evaluation sweeps before successor grouping, kept as the reference.

    Every sweep gathers each planned belief's successor node per
    observation, (m, Z, |S|), and sums its Z observation terms. It differs
    from that code only in deciding by this module's adoption rule.
    """
    rows = np.flatnonzero(planned)
    acts = plan_acts[rows]
    o_t = model.O[acts].transpose(0, 2, 1).copy()           # (m, Z, S)
    r = model.rbar[acts]
    nxt = succ[rows]
    b = beliefs[rows]
    for sweep in range(1, max_sweeps + 1):
        pre = r + model.discount * np.einsum("mzs,mzs->ms", o_t, anchors[nxt])
        nodes = pre @ model.T.T
        vals = np.einsum("ms,ms->m", b, nodes)
        gain = vals - tracked[rows]
        take = adopts(vals, tracked[rows], tol)
        adopt = rows[take]
        anchors[adopt] = nodes[take]
        tracked[adopt] = vals[take]
        if not adopt.size or gain[take].max() < epsilon:
            return sweep
    return max_sweeps


def mdp_upper_bound(T: np.ndarray, rbar: np.ndarray, discount: float,
                    tol: float = 1e-9) -> np.ndarray:
    """Value (|S|,) of the fully observed MDP, approached from above.

    The MDP sees the state, so its optimal value bounds the value of every
    POMDP plan from above, state by state. A slot's reward is paid at the
    successor state and T does not depend on the action, so value
    iteration reads V = max_a T (rbar[a] + discount V). It starts from the
    constant max(rbar) / (1 - discount), which is above the fixed point;
    the iteration is monotone, so every iterate stays above it too. Stops
    once a step moves V by less than `tol` relative to its scale.
    """
    v = np.full(T.shape[0], float(rbar.max()) / (1.0 - discount))
    while True:
        nxt = (T @ (rbar + discount * v[None, :]).T).max(axis=1)
        step = float(np.abs(nxt - v).max())
        v = nxt
        if step <= tol * float(np.abs(v).max()):
            return v


# ------------------------------------------------------ episode simulation

def dead_bin_model(model):
    """Observation bin 0 made impossible while every SNR falls into it.

    Every slot's observation then has zero probability under any belief,
    so a simulator must reset the belief to uniform in every slot.
    """
    dead = model.O.copy()
    dead[:, :, 0] = 0.0
    dead /= dead.sum(axis=2, keepdims=True)
    huge = np.logspace(280, 303, len(model.thresholds))  # z=0 for any earthly SNR
    return replace(model, O=dead, thresholds=huge)


class FixedActionAgent:
    """Blind agent that repeats one action; a floor for sanity checks."""

    def __init__(self, action: int, label: str = "blind"):
        self.label = label
        self.action = int(action)

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        return np.full(len(true_cells), self.action)


class RecordingAgent:
    """Wraps an agent and keeps a copy of every belief block handed to it.

    beliefs[t] is the (n, |S|) block of slot t: the beliefs the agent acts
    on, that is, the posteriors after slot t - 1 (the prior at t = 0).
    """

    def __init__(self, agent):
        self.agent = agent
        self.label = agent.label
        self.beliefs: list[np.ndarray] = []

    def act(self, beliefs: np.ndarray, true_cells: np.ndarray) -> np.ndarray:
        self.beliefs.append(beliefs.copy())
        return self.agent.act(beliefs, true_cells)


def reference_act(agent, b: np.ndarray, true_cell: int, tol: float) -> int:
    """One belief's action, as the per-trial agents decided it."""
    from specbeam.simulate import OracleAgent, PolicyAgent

    if isinstance(agent, PolicyAgent):
        return extract_action(agent.policy, b, tol)
    if isinstance(agent, OracleAgent):
        return int(agent._by_cell[true_cell - 1])
    if isinstance(agent, FixedActionAgent):
        return agent.action
    raise TypeError(f"no reference decision for {type(agent).__name__}")


def reference_run_trial(model, dynamics, agent, horizon: int, seed,
                        record_beliefs: bool = False) -> SimpleNamespace:
    """The per-trial, per-slot simulator loop, kept as the bit-exact reference.

    Draws one path and one noise number per slot from streams spawned off
    the trial's seed, decides per belief, and updates the belief with
    reference_belief_update, resetting it to uniform on an impossible
    observation. Markov steps are scalar inverse-CDF searchsorted calls.

    Returns a record of per-slot arrays: states (-1 on fixed paths), cells,
    actions, noise_draws, snrs, rates, observations and resets, and with
    record_beliefs the h + 1 beliefs from the prior to the last posterior.
    """
    from specbeam.pomdp import initial_belief
    from specbeam.simulate import FixedPathDynamics

    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    path_ss, noise_ss = seq.spawn(2)
    path_rng = np.random.default_rng(path_ss)
    noise_rng = np.random.default_rng(noise_ss)

    gains = model.gains
    widths = np.array([b.bandwidth_hz for b in model.bands])
    sigmas = np.array([model.consts.noise_variance_w(w) for w in widths])
    band_idx = model.actions.band_idx
    top = model.num_states - 1
    t_cum = model.T.cumsum(axis=1)
    state_cells = model.states.cells()
    tol = tie_tolerance(model)

    fixed = isinstance(dynamics, FixedPathDynamics)
    if fixed:
        horizon = dynamics.n_slots
    b = initial_belief(model.states)
    state = -1 if fixed else min(int(np.searchsorted(
        initial_belief(model.states).cumsum(), path_rng.random(), side="right")), top)

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
            state = min(int(np.searchsorted(t_cum[state], path_rng.random(),
                                            side="right")), top)
            cell = int(state_cells[state])
        a = reference_act(agent, b, cell, tol)
        u = noise_rng.random()
        e = -math.log1p(-u)
        q = band_idx[a]
        snr = gains[a, cell - 1] / (sigmas[q] * e)
        z = int(np.searchsorted(model.thresholds, snr, side="right"))
        try:
            b = reference_belief_update(model, b, a, z)
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

    return SimpleNamespace(states=states, cells=cells, actions=actions,
                           noise_draws=draws, snrs=snrs, rates=rates,
                           observations=obs, resets=resets, beliefs=beliefs)


def reference_metrics(model, label: str, traces: list):
    """Metrics of one agent's reference_run_trial records, from the definitions.

    The mean rate is the math.fsum of the trial means over n, the 95%
    half-width 1.959963984540054 times the ddof=1 deviation of the trial
    means over sqrt(n) (infinite for one trial). Utilization and the reset
    share count slots.
    """
    from specbeam.simulate import Metrics

    n, h = len(traces), len(traces[0].rates)
    means = np.array([float(tr.rates.mean()) if h else 0.0 for tr in traces])
    half = 1.959963984540054 * float(means.std(ddof=1)) / math.sqrt(n) if n > 1 else math.inf
    counts = [0] * len(model.bands)
    for tr in traces:
        for a in tr.actions:
            counts[model.actions.band_idx[a]] += 1
    slots = n * h
    return Metrics(label=label, mean_rate_bps=math.fsum(means) / n, ci_halfwidth=half,
                   utilization={band.label: counts[q] / slots if slots else 0.0
                                for q, band in enumerate(model.bands)},
                   num_trials=n,
                   reset_fraction=sum(int(tr.resets.sum()) for tr in traces) / max(slots, 1))


# ----------------------------------------------- belief-grid value iteration

def simplex_grid(num_states: int, resolution: int) -> np.ndarray:
    """All compositions of `resolution` into num_states parts, scaled to 1."""
    pts = []
    for cuts in combinations_with_replacement(range(resolution + 1), num_states - 1):
        prev = 0
        parts = []
        for c in cuts:
            parts.append(c - prev)
            prev = c
        parts.append(resolution - prev)
        pts.append(parts)
    return np.array(pts, dtype=float) / resolution


def freudenthal_weights(b: np.ndarray, resolution: int
                        ) -> list[tuple[tuple[int, ...], float]]:
    """Vertices (integer compositions) and barycentric weights containing b.

    Works on cumulative tail sums, where the simplex grid becomes the
    ordered lattice: floor the interior coordinates and add unit steps in
    order of decreasing fractional part. Weights are the consecutive gaps
    of the sorted fractional parts; they are nonnegative and sum to one,
    and the scheme reproduces linear functions exactly.
    """
    n = b.size
    c = resolution * np.concatenate(([1.0], 1.0 - np.cumsum(b)[:-1]))
    c = np.clip(c, 0.0, float(resolution))
    interior = c[1:]
    f = np.floor(interior)
    r = interior - f
    order = np.argsort(-r, kind="stable")
    vertex = np.concatenate(([float(resolution)], f, [0.0]))
    sorted_r = np.concatenate(([1.0], r[order], [0.0]))
    out = []
    for j in range(n):
        w = sorted_r[j] - sorted_r[j + 1]
        comp = tuple(int(round(vertex[k] - vertex[k + 1])) for k in range(n))
        if w > 0:
            out.append((comp, float(w)))
        if j < n - 1:
            vertex[1 + order[j]] += 1.0
    return out


def grid_value_iteration(T: np.ndarray, O: np.ndarray, rbar: np.ndarray,
                         discount: float, b0: np.ndarray, step: float,
                         horizon: int) -> float:
    """Finite-horizon optimal value at b0 on a regular belief grid.

    Belief updates follow the simulator's convention: predict with T, then
    condition the observation on the successor state. Values between grid
    points are Freudenthal-interpolated. Small state spaces only.
    """
    num_s = T.shape[0]
    num_a, _, num_z = O.shape
    resolution = int(round(1.0 / step))
    pts = simplex_grid(num_s, resolution)
    lookup = {tuple(int(round(x * resolution)) for x in pt): i
              for i, pt in enumerate(pts)}
    num_p = len(pts)

    # precompute, per (grid point, action): the immediate reward, and per
    # observation its likelihood plus interpolation (ids, weights) of the
    # posterior
    base = (pts @ T) @ rbar.T                                   # (P, A)
    pz = np.empty((num_p, num_a, num_z))
    ids = np.zeros((num_p, num_a, num_z, num_s), dtype=int)
    wts = np.zeros((num_p, num_a, num_z, num_s))
    for i in range(num_p):
        tb = pts[i] @ T
        for a in range(num_a):
            post = O[a].T * tb                                  # (Z, S)
            mass = post.sum(axis=1)
            pz[i, a] = mass
            for z in range(num_z):
                if mass[z] <= 0.0:
                    continue
                for k, (comp, w) in enumerate(
                        freudenthal_weights(post[z] / mass[z], resolution)):
                    ids[i, a, z, k] = lookup[comp]
                    wts[i, a, z, k] = w

    v = np.zeros(num_p)
    for _ in range(horizon):
        cont = (v[ids] * wts).sum(axis=3)                       # (P, A, Z)
        v = (base + discount * (pz * cont).sum(axis=2)).max(axis=1)

    return float(sum(w * v[lookup[comp]]
                     for comp, w in freudenthal_weights(np.asarray(b0, float),
                                                        resolution)))
