"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the definitions, not by calling
into the package: the phased-array response as a raw elementwise phase sum,
the per-band perfect-information rate by paired Monte Carlo from plain
numbers, the mobility law as a literal three-entry table, the point-based
backup as an explicit loop over (action, observation, vector) triples, and a
belief-grid value iteration over the simplex with Freudenthal interpolation
for small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

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


# ------------------------------------------------------------------ pbvi ---

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
