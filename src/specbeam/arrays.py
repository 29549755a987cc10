"""Uniform planar array response, per-band link gain, and SNR/rate statistics.

The BS array lies in the y-z plane with critical element spacing d = lambda/2
on both axes. For a beam steered to (theta_hat, phi_hat) and a user seen at
(theta, phi) the received power factorizes into two Dirichlet kernels, one
per axis, in the normalized angle offsets

    psi  = 0.5 * cos(phi) * sin(theta),      zeta = 0.5 * sin(phi),

giving the closed-form gain

    G = K * P_T / (r^eta * f^2 * Ny * Nz)
        * [ sin(pi*Ny*dpsi)/sin(pi*dpsi) * sin(pi*Nz*dzeta)/sin(pi*dzeta) ]^2.

The noise is circularly-symmetric complex Gaussian, so |n|^2 is exponential
with mean sigma_sq and the SNR gamma = G/|n|^2 has cdf
F(x) = exp(-G / (sigma_sq * x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

SPEED_OF_LIGHT = 299792458.0

# below this offset from an integer, evaluate the Dirichlet ratio by series
_DIRICHLET_SERIES_CUTOFF = 1e-7
# below this SNR scale G/sigma^2, evaluate the rate integral by series
_EXPECTED_RATE_SERIES_CUTOFF = 1e-8
_EULER_GAMMA = float(np.euler_gamma)


@dataclass(frozen=True)
class ApertureSpec:
    """Physical aperture available to every band, meters per axis."""

    a_y_m: float
    a_z_m: float

    def __post_init__(self) -> None:
        if self.a_y_m <= 0 or self.a_z_m <= 0:
            raise ValueError("aperture sides must be positive")


@dataclass(frozen=True)
class BandConfig:
    """One operating band: center frequency, bandwidth, element counts."""

    f_hz: float
    bandwidth_hz: float
    n_y: int
    n_z: int

    def __post_init__(self) -> None:
        if self.f_hz <= 0:
            raise ValueError("f_hz must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.n_y < 1 or self.n_z < 1:
            raise ValueError("element counts must be >= 1")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.f_hz

    @property
    def num_elements(self) -> int:
        return self.n_y * self.n_z

    @property
    def label(self) -> str:
        return f"{self.f_hz / 1e9:g}ghz"


@dataclass(frozen=True)
class PropagationConstants:
    """Path-gain constant, loss exponent, transmit power, noise density."""

    k_const: float = (SPEED_OF_LIGHT / (4.0 * math.pi)) ** 2
    path_loss_exp: float = 2.0
    tx_power_w: float = 1.0
    noise_density_w_hz: float = 10.0 ** (-17.4) * 1e-3  # -174 dBm/Hz

    def __post_init__(self) -> None:
        if min(self.k_const, self.tx_power_w, self.noise_density_w_hz) <= 0:
            raise ValueError("propagation constants must be positive")
        if self.path_loss_exp <= 0:
            raise ValueError("path_loss_exp must be positive")

    def noise_variance_w(self, bandwidth_hz: float) -> float:
        """sigma^2 = N0 * W for a band of the given width."""
        return self.noise_density_w_hz * bandwidth_hz


def elements_for_band(aperture: ApertureSpec, f_hz: float) -> tuple[int, int]:
    """Per-axis element counts filling the aperture at spacing lambda/2.

    N = floor(2 * A / lambda) + 1 on each axis.
    """
    if f_hz <= 0:
        raise ValueError("f_hz must be positive")
    lam = SPEED_OF_LIGHT / f_hz
    return (int(math.floor(2.0 * aperture.a_y_m / lam)) + 1,
            int(math.floor(2.0 * aperture.a_z_m / lam)) + 1)


def make_band(aperture: ApertureSpec, f_hz: float, bandwidth_hz: float) -> BandConfig:
    n_y, n_z = elements_for_band(aperture, f_hz)
    return BandConfig(f_hz=f_hz, bandwidth_hz=bandwidth_hz, n_y=n_y, n_z=n_z)


def normalized_angles(theta: float, phi: float) -> tuple[float, float]:
    """(psi, zeta) at critical spacing d = lambda/2."""
    return 0.5 * math.cos(phi) * math.sin(theta), 0.5 * math.sin(phi)


def dirichlet_ratio_abs(delta: float, n: int) -> float:
    """|sin(pi*n*delta) / sin(pi*delta)|, stable near integer delta.

    Both numerator and denominator are reduced modulo the nearest integer
    (exact identities), and for residuals below 1e-7 the ratio is replaced
    by the series n * (1 - (n^2 - 1) * (pi*d)^2 / 6).
    """
    d = delta - round(delta)
    if abs(d) < _DIRICHLET_SERIES_CUTOFF:
        x = math.pi * d
        return n * (1.0 - (n * n - 1.0) * x * x / 6.0)
    return abs(math.sin(math.pi * n * d) / math.sin(math.pi * d))


def gain(consts: PropagationConstants, band: BandConfig, r_m: float,
         theta: float, phi: float, theta_hat: float, phi_hat: float) -> float:
    """Closed-form received power for a beam at (theta_hat, phi_hat)."""
    if r_m <= 0:
        raise ValueError("r_m must be positive")
    psi, zeta = normalized_angles(theta, phi)
    psi_h, zeta_h = normalized_angles(theta_hat, phi_hat)
    dy = dirichlet_ratio_abs(psi - psi_h, band.n_y)
    dz = dirichlet_ratio_abs(zeta - zeta_h, band.n_z)
    pref = consts.k_const * consts.tx_power_w / (
        r_m ** consts.path_loss_exp * band.f_hz ** 2 * band.num_elements)
    return pref * (dy * dz) ** 2


def aligned_gain(consts: PropagationConstants, band: BandConfig, r_m: float) -> float:
    """Gain with the beam exactly on the user: K*P_T*Ny*Nz / (r^eta * f^2)."""
    if r_m <= 0:
        raise ValueError("r_m must be positive")
    return (consts.k_const * consts.tx_power_w * band.num_elements
            / (r_m ** consts.path_loss_exp * band.f_hz ** 2))


def snr_sample(g: float, sigma_sq: float, rng: np.random.Generator) -> float:
    """One draw of gamma = G / |n|^2 with |n|^2 ~ Exp(mean sigma_sq)."""
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    if g < 0:
        raise ValueError("gain must be non-negative")
    u = 1.0 - rng.random()  # in (0, 1]
    return g / (sigma_sq * -math.log(u))


def rate(bandwidth_hz: float, snr: float) -> float:
    """Shannon rate W * log2(1 + gamma) in bits/s."""
    if snr < 0:
        raise ValueError("snr must be non-negative")
    return bandwidth_hz * math.log2(1.0 + snr)


def _rate_integral(c: float) -> float:
    """I(c) = int_0^inf ln(1 + c/u) e^-u du, the mean of ln(1+gamma).

    Evaluated in x-space as int_0^inf (1 - e^{-c/x})/(1+x) dx split at
    X = max(c, 1): the head is flattened by x = e^y - 1 and the tail mapped
    onto (0, 1] by x = X/t, leaving two bounded smooth integrands.
    """
    if c < _EXPECTED_RATE_SERIES_CUTOFF:
        # I(c) = c*(1 - euler_gamma - ln c) + O(c^2 ln c)
        return c * (1.0 - _EULER_GAMMA - math.log(c)) if c > 0 else 0.0
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


def expected_rate(bandwidth_hz: float, g: float, sigma_sq: float) -> float:
    """E[W * log2(1 + G/E)] with E exponential of mean sigma_sq, bits/s."""
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    if g < 0:
        raise ValueError("gain must be non-negative")
    if g == 0.0:
        return 0.0
    return bandwidth_hz * _rate_integral(g / sigma_sq) / math.log(2.0)


def observation_probs(g: float, sigma_sq: float, thresholds: np.ndarray) -> np.ndarray:
    """Probability of each SNR bin [t_{i-1}, t_i) under F(x) = exp(-G/(s^2 x)).

    Bins are delimited by the given ascending positive thresholds plus the
    implicit 0 and +inf; G = 0 puts all mass in the lowest bin.
    """
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim != 1 or thr.size == 0:
        raise ValueError("thresholds must be a non-empty 1-D array")
    if np.any(thr <= 0) or np.any(np.diff(thr) <= 0):
        raise ValueError("thresholds must be positive and strictly increasing")
    if sigma_sq <= 0:
        raise ValueError("sigma_sq must be positive")
    if g < 0:
        raise ValueError("gain must be non-negative")
    if g == 0.0:
        out = np.zeros(thr.size + 1)
        out[0] = 1.0
        return out
    cdf = np.exp(-(g / sigma_sq) / thr)
    return np.diff(np.concatenate(([0.0], cdf, [1.0])))
