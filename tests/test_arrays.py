"""Planar-array response, gain closed form, SNR statistics, rates."""

import math

import numpy as np
import pytest

from specbeam.arrays import (ApertureSpec, PropagationConstants,
                             _rate_integral, aligned_gain, dirichlet_ratio_abs,
                             elements_for_band, expected_rate, gain,
                             make_band, normalized_angles, observation_probs)
from _oracles import (FixedActionAgent, double_sum_response, mc_expected_rate,
                      quad_rate_integral)

AP_PAPER = ApertureSpec(a_y_m=0.0375, a_z_m=0.0375)
AP_DEFAULT = ApertureSpec(a_y_m=0.038, a_z_m=0.038)


def test_element_counts_published_triple():
    for ap in (AP_PAPER, AP_DEFAULT):
        assert elements_for_band(ap, 15e9) == (4, 4)
        assert elements_for_band(ap, 39e9) == (10, 10)
        assert elements_for_band(ap, 60e9) == (16, 16)


def test_make_band_spacing_and_labels():
    band = make_band(AP_DEFAULT, 39e9, 100e6)
    assert band.n_y == band.n_z == 10
    assert band.num_elements == 100
    assert band.label == "39ghz"


def test_direct_response_aligned_and_single_element():
    band = make_band(AP_DEFAULT, 39e9, 100e6)
    th, ph = 0.31, -0.42
    assert double_sum_response(band.n_y, band.n_z, th, ph, th, ph) == pytest.approx(
        band.num_elements ** 2, rel=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b, c, d = rng.uniform(-1.5, 1.5, size=4)
        assert double_sum_response(1, 1, a, b, c, d) == pytest.approx(1.0, rel=1e-12)


def test_gain_equals_brute_force_response():
    """Closed form vs. double sum after stripping the path prefactor."""
    consts = PropagationConstants()
    rng = np.random.default_rng(3)
    worst = 0.0
    for f in (15e9, 39e9, 60e9):
        band = make_band(AP_DEFAULT, f, 100e6)
        pref = consts.k_const * consts.tx_power_w / (
            10.0 ** 2 * band.f_hz ** 2 * band.num_elements)
        for k in range(300):
            th, ph = rng.uniform(-1.5, 1.5, size=2)
            if k % 3 == 0:       # near-aligned, through the series branch
                th_h = th + rng.uniform(-2e-8, 2e-8)
                ph_h = ph + rng.uniform(-2e-8, 2e-8)
            else:
                th_h, ph_h = rng.uniform(-1.5, 1.5, size=2)
            g = gain(consts, band, 10.0, th, ph, th_h, ph_h)
            d = double_sum_response(band.n_y, band.n_z, th, ph, th_h, ph_h)
            worst = max(worst, abs(g / pref - d) / max(d, 1e-12))
    print(f"worst relative gap closed form vs double sum: {worst:.3e}")
    assert worst < 1e-9


def test_dirichlet_ratio_series_branch_is_continuous():
    for n in (4, 10, 16):
        lo = dirichlet_ratio_abs(0.999e-7, n)   # series side
        hi = dirichlet_ratio_abs(1.001e-7, n)   # sine side
        assert lo == pytest.approx(hi, rel=1e-9)
        assert dirichlet_ratio_abs(0.0, n) == n
        assert dirichlet_ratio_abs(3.0, n) == pytest.approx(n, rel=1e-12)
        # exact kernel zero
        assert dirichlet_ratio_abs(1.0 / n, n) == pytest.approx(0.0, abs=1e-12)


def test_aligned_gain_reference_value():
    # 4x4 at 15 GHz, r = 16.5 m, eta = 2, K = 5.7e14:
    # G = 5.7e14 * 16 / (16.5^2 * (15e9)^2) ~= 1.489e-7
    consts = PropagationConstants(k_const=5.7e14)
    band = make_band(AP_PAPER, 15e9, 90e6)
    g = aligned_gain(consts, band, 16.5)
    assert g == pytest.approx(5.7e14 * 16 / (272.25 * 2.25e20), rel=1e-12)
    assert g == pytest.approx(1.489e-7, rel=1e-3)
    th, ph = 0.7, -0.48
    assert gain(consts, band, 16.5, th, ph, th, ph) == pytest.approx(g, rel=1e-12)


def test_aligned_gain_decreases_with_distance_and_frequency():
    consts = PropagationConstants()
    bands = [make_band(AP_DEFAULT, f, 100e6) for f in (15e9, 39e9, 60e9)]
    for band in bands:
        gs = [aligned_gain(consts, band, r) for r in (10.0, 20.0, 40.0, 80.0)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
    # per element the response drops with f^2; N*Nz/f^2 decides the total
    per_elem = [aligned_gain(consts, b, 30.0) / b.num_elements for b in bands]
    assert all(a > b for a, b in zip(per_elem, per_elem[1:]))


def test_gain_peaks_at_alignment_over_cell_directions():
    from specbeam.geometry import SceneConfig, build_road

    consts = PropagationConstants()
    road = build_road(SceneConfig())
    band = make_band(AP_DEFAULT, 60e9, 100e6)
    for target in road:
        best = max(range(len(road)), key=lambda j: gain(
            consts, band, target.r_m, target.theta, target.phi,
            road[j].theta, road[j].phi))
        assert road[best].index == target.index


def test_snr_sample_distribution():
    """The simulator's noise |n|^2 / sigma^2 is unit exponential.

    Every slot's SNR is G / (sigma^2 * draw), so with the draws Exp(1) the
    SNR has cdf F(x) = exp(-G / (sigma^2 x)).
    """
    from specbeam.config import ExperimentConfig
    from specbeam.simulate import MarkovDynamics, simulate_slots

    model = ExperimentConfig.from_dict({}).build_model(p=0.8)
    log = simulate_slots([(model, FixedActionAgent(0))], MarkovDynamics(model),
                         200, 500, seed=5)
    samples = log.noise_draws.ravel()
    n = samples.size
    assert n >= 100_000
    assert np.all(samples > 0)
    # median of Exp(1) = ln 2
    assert np.median(samples) == pytest.approx(math.log(2.0), rel=0.02)
    # Kolmogorov-Smirnov against F(x) = 1 - exp(-x), fixed seed
    xs = np.sort(samples)
    cdf = -np.expm1(-xs)
    ks = np.abs(cdf - np.arange(1, n + 1) / n).max()
    print(f"KS statistic at n={n}: {ks:.5f}")
    assert ks < 1.63 / math.sqrt(n)  # 1% critical value


def test_rate_integral_matches_quadrature():
    cs = np.logspace(-8.0, 8.0, 161)
    closed = _rate_integral(cs)
    ref = np.array([quad_rate_integral(c) for c in cs])
    worst = np.max(np.abs(closed / ref - 1.0))
    print(f"worst relative gap closed form vs quadrature: {worst:.3e}")
    assert worst < 1e-10


def test_rate_integral_two_term_series_below_1e8():
    """I(c) = c (1 - euler_gamma - ln c)
    + c^2 (3/4 - (euler_gamma + ln c)/2) + O(c^3 ln^2 c)."""
    cs = np.logspace(-300.0, -8.0, 293)[:-1]
    series = (cs * (1.0 - np.euler_gamma - np.log(cs))
              + cs ** 2 * (0.75 - (np.euler_gamma + np.log(cs)) / 2.0))
    worst = np.max(np.abs(_rate_integral(cs) / series - 1.0))
    print(f"worst relative gap closed form vs two-term series: {worst:.3e}")
    assert worst < 1e-15


def test_rate_integral_branches_meet_at_one():
    below, at_one = _rate_integral(np.array([np.nextafter(1.0, 0.0), 1.0]))
    assert abs(below - at_one) <= 1e-15 * at_one
    assert _rate_integral(0.0) == 0.0


def test_expected_rate_against_monte_carlo():
    rng = np.random.default_rng(6)
    for trial in range(3):
        g = 10.0 ** rng.uniform(-10, -6)
        sigma_sq = 10.0 ** rng.uniform(-15, -12)
        est, se = mc_expected_rate(100e6, g, sigma_sq, 10_000_000, seed=trial)
        got = expected_rate(100e6, g, sigma_sq)
        print(f"closed form {got:.6e} vs MC {est:.6e} +- {se:.2e}")
        assert abs(got - est) < 3.0 * se


def test_expected_rate_edge_cases_and_monotonicity():
    assert expected_rate(100e6, 0.0, 1e-12) == 0.0
    vals = [expected_rate(90e6, g, 1e-13) for g in (1e-12, 1e-10, 1e-8, 1e-6)]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # smooth and increasing across tiny SNR scales
    sigma = 1.0
    lo = expected_rate(1e8, 0.99e-8, sigma)
    hi = expected_rate(1e8, 1.01e-8, sigma)
    assert lo < hi < lo * 1.05
    with pytest.raises(ValueError):
        expected_rate(1e8, -1.0, sigma)
    with pytest.raises(ValueError):
        expected_rate(1e8, 1.0, 0.0)


def test_expected_rate_and_observation_probs_broadcast():
    """Array calls give, element by element, the scalar calls' values."""
    bw = np.array([90e6, 400e6, 2e9])[:, None]
    sig = 4e-21 * bw
    g = 10.0 ** np.linspace(-14.0, -4.0, 7)
    thr = 10.0 ** np.linspace(-5.0, 8.0, 24)
    rates = expected_rate(bw, g, sig)
    probs = observation_probs(g, sig, thr)
    assert rates.shape == (3, 7) and probs.shape == (3, 7, 25)
    for i in range(3):
        for j in range(7):
            assert rates[i, j] == expected_rate(bw[i, 0], g[j], sig[i, 0])
            assert probs[i, j].tobytes() == observation_probs(g[j], sig[i, 0], thr).tobytes()


def test_observation_probs():
    thr = 10.0 ** (np.linspace(-5.0, 8.0, 24))
    rng = np.random.default_rng(7)
    for _ in range(50):
        g = 10.0 ** rng.uniform(-14, -4)
        probs = observation_probs(g, 9e-15, thr)
        assert probs.shape == (25,)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    # single threshold placed at G/sigma^2 leaves e^-1 mass below it
    g, sigma_sq = 4.2e-9, 1.3e-14
    probs = observation_probs(g, sigma_sq, np.array([g / sigma_sq]))
    assert probs[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert probs[1] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    zero = observation_probs(0.0, sigma_sq, thr)
    assert zero[0] == 1.0 and np.all(zero[1:] == 0.0)

    with pytest.raises(ValueError):
        observation_probs(g, sigma_sq, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        observation_probs(g, sigma_sq, np.array([-1.0, 1.0]))


def test_normalized_angles_definition():
    th, ph = 0.9, -0.3
    psi, zeta = normalized_angles(th, ph)
    assert psi == pytest.approx(0.5 * math.cos(ph) * math.sin(th), abs=1e-15)
    assert zeta == pytest.approx(0.5 * math.sin(ph), abs=1e-15)
