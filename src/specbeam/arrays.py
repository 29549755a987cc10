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
F(x) = exp(-G / (sigma_sq * x)). Its mean Shannon rate has a closed form in
the exponential integral E1 of c = G/sigma_sq,

    E[W log2(1 + gamma)] = W / ln 2 * (e^c E1(c) + ln c + euler_gamma),

which _rate_integral evaluates in numpy alone, elementwise over arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0

# below this offset from an integer, evaluate the Dirichlet ratio by series
_DIRICHLET_SERIES_CUTOFF = 1e-7
_EULER_GAMMA = float(np.euler_gamma)
# (-1)^(k+1) / (k k!) for k = 20 down to 1, the Horner order of the E1 series
_SERIES_COEFFS = tuple((-1) ** (k + 1) / (k * math.factorial(k)) for k in range(20, 0, -1))
_CONTINUED_FRACTION_DEPTH = 100


@dataclass(frozen=True)
class ApertureSpec:
    """Physical aperture available to every band, meters per axis."""

    a_y_m: float
    a_z_m: float

    def __post_init__(self) -> None:
        for name in ("a_y_m", "a_z_m"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"{name}: must be a positive number (got {value!r})")


@dataclass(frozen=True)
class BandConfig:
    """One operating band: center frequency, bandwidth, element counts."""

    f_hz: float
    bandwidth_hz: float
    n_y: int
    n_z: int

    def __post_init__(self) -> None:
        for name in ("f_hz", "bandwidth_hz"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"{name}: must be a positive number (got {value!r})")
        for name in ("n_y", "n_z"):
            if not (value := getattr(self, name)) >= 1:
                raise ValueError(f"{name}: must be >= 1 (got {value!r})")

    @property
    def num_elements(self) -> int:
        return self.n_y * self.n_z

    @property
    def label(self) -> str:
        return band_label(self.f_hz)


def band_label(f_hz: float) -> str:
    """Band name from its frequency in GHz by the %g format: 39e9 -> '39ghz'."""
    return f"{f_hz / 1e9:g}ghz"


@dataclass(frozen=True)
class PropagationConstants:
    """Path-gain constant, loss exponent, transmit power, noise density."""

    k_const: float = (SPEED_OF_LIGHT / (4.0 * math.pi)) ** 2
    path_loss_exp: float = 2.0
    tx_power_w: float = 1.0
    noise_density_w_hz: float = 10.0 ** (-17.4) * 1e-3  # -174 dBm/Hz

    def __post_init__(self) -> None:
        for name in ("k_const", "path_loss_exp", "tx_power_w", "noise_density_w_hz"):
            if not (value := getattr(self, name)) > 0:
                raise ValueError(f"{name}: must be a positive number (got {value!r})")

    def noise_variance_w(self, bandwidth_hz: float) -> float:
        """sigma^2 = N0 * W for a band of the given width."""
        return self.noise_density_w_hz * bandwidth_hz


def elements_for_band(aperture: ApertureSpec, f_hz: float) -> tuple[int, int]:
    """Per-axis element counts filling the aperture at spacing lambda/2.

    N = floor(2 * A / lambda) + 1 on each axis.
    """
    if not f_hz > 0:
        raise ValueError(f"f_hz: must be a positive number (got {f_hz!r})")
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


def _rate_integral(c: np.ndarray) -> np.ndarray:
    """I(c) = int_0^inf ln(1 + c/u) e^-u du = e^c E1(c) + ln c + euler_gamma.

    Elementwise over c >= 0, with I(0) = 0. Differentiating under the
    integral, I'(c) = int_0^inf e^-u / (u + c) du = e^c E1(c), so
    I(c) = int_0^c e^t E1(t) dt; and since d/dt (e^t E1(t) + ln t) = e^t E1(t)
    with e^t E1(t) + ln t -> -euler_gamma as t -> 0, that is the closed form
    above. Two branches, each within a few ulps:

    * c < 1: with E1(c) = -euler_gamma - ln c + sum_k (-1)^(k+1) c^k/(k k!),
      I(c) = -expm1(c) (euler_gamma + ln c) + e^c sum_k (-1)^(k+1) c^k/(k k!).
      The sum alternates with decreasing terms and exceeds 3c/4, so cutting
      it after 20 terms errs by less than c^21/(21 * 21!) < 2e-21 of it. As
      c -> 0 both parts scale with c, and I(c) -> c (1 - euler_gamma - ln c),
      so no cutoff is needed; the parts cancel most near c = 1, where their
      magnitudes sum to 2.7 I(1).
    * c >= 1: e^c E1(c) = 1/(c+1- 1/(c+3- 4/(c+5- 9/(c+7- ...)))) (Abramowitz
      & Stegun 5.1.22), evaluated bottom-up at a fixed depth of 100. The
      truncation error shrinks as c grows; at c = 1 it is 4.5e-17 of I(1),
      below half an ulp. All three terms are positive, so nothing cancels.
    """
    c = np.asarray(c, dtype=float)
    out = np.zeros(c.shape)
    small = (c > 0.0) & (c < 1.0)
    x = c[small]
    total = np.zeros(x.shape)
    for coef in _SERIES_COEFFS:
        total = (total + coef) * x
    out[small] = -np.expm1(x) * (_EULER_GAMMA + np.log(x)) + np.exp(x) * total
    large = c >= 1.0
    x = c[large]
    den = x + (2 * _CONTINUED_FRACTION_DEPTH + 1)
    for k in range(_CONTINUED_FRACTION_DEPTH, 0, -1):
        den = x + (2 * k - 1) - k * k / den
    out[large] = 1.0 / den + np.log(x) + _EULER_GAMMA
    return out


def expected_rate(bandwidth_hz: float | np.ndarray, g: float | np.ndarray,
                  sigma_sq: float | np.ndarray) -> float | np.ndarray:
    """E[W * log2(1 + G/E)] with E exponential of mean sigma_sq, bits/s.

    The arguments broadcast against each other, and the result takes
    their broadcast shape.
    """
    if np.any(sigma_sq <= 0):
        raise ValueError("sigma_sq must be positive")
    if np.any(g < 0):
        raise ValueError("gain must be non-negative")
    return bandwidth_hz * _rate_integral(g / sigma_sq) / math.log(2.0)


def observation_probs(g: float | np.ndarray, sigma_sq: float | np.ndarray,
                      thresholds: np.ndarray) -> np.ndarray:
    """Probability of each SNR bin [t_{i-1}, t_i) under F(x) = exp(-G/(s^2 x)).

    Bins are delimited by the given ascending positive thresholds plus the
    implicit 0 and +inf; G = 0 puts all mass in the lowest bin. g and
    sigma_sq broadcast against each other, and the bins form a last axis.
    """
    thr = np.asarray(thresholds, dtype=float)
    if thr.ndim != 1 or thr.size == 0:
        raise ValueError("thresholds must be a non-empty 1-D array")
    if np.any(thr <= 0) or np.any(np.diff(thr) <= 0):
        raise ValueError("thresholds must be positive and strictly increasing")
    if np.any(sigma_sq <= 0):
        raise ValueError("sigma_sq must be positive")
    if np.any(g < 0):
        raise ValueError("gain must be non-negative")
    with np.errstate(over="ignore"):    # g/s^2 over a tiny edge: exp(-inf) = 0 is the limit
        cdf = np.exp(-np.divide(g, sigma_sq)[..., None] / thr)
    return np.diff(cdf, prepend=0.0, append=1.0)
