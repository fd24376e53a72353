"""Free dephasing exponent: closed form, derivative, quadrature oracle."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dephasing_pdd
from dephasing_pdd import quadrature, spectral
from dephasing_pdd.errors import QuadratureError
from dephasing_pdd.quadrature import adaptive_panel_quad
from dephasing_pdd.spectral import (SpectralParams, bath_integral,
                                    gamma0_analytic, gamma0_derivative,
                                    gamma0_quadrature, rate_scale,
                                    spectral_density)

BATHS = [SpectralParams(0.5, 0.1), SpectralParams(1.0, 0.5),
         SpectralParams(3.0, 0.5), SpectralParams(2.0, 0.3, omega_c=2.0)]


def full_domain(monkeypatch, oracle, *args, tol):
    """``oracle(*args)`` over the whole [0, 60 + 5s] in one call, at
    tol / 100: the domain that no tail bound shortens."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_HEAD_CUTOFFS", spectral._TAIL_CUTOFFS)
        return oracle(*args, tol=tol / 100)


class TestSpectralParams:
    def test_rejects_nonpositive_s(self):
        with pytest.raises(ValueError, match="Ohmicity"):
            SpectralParams(0.0, 0.5)

    def test_rejects_negative_eta(self):
        with pytest.raises(ValueError, match="coupling"):
            SpectralParams(1.0, -0.1)

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError, match="cutoff"):
            SpectralParams(1.0, 0.5, omega_c=0.0)

    def test_ohmic_detection(self):
        assert SpectralParams(1.0, 0.5).is_ohmic
        assert not SpectralParams(3.0, 0.5).is_ohmic


class TestSpectralDensity:
    def test_vanishes_at_zero_frequency(self):
        for p in BATHS:
            assert spectral_density(p, 0.0) == 0.0

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError, match="nonnegative"):
            spectral_density(BATHS[0], -1.0)

    def test_peak_at_s_omega_c(self):
        # d/dw [w^s e^(-w/wc)] = 0 at w = s wc
        p = SpectralParams(3.0, 0.5, omega_c=2.0)
        w = np.linspace(0.0, 40.0, 4001)
        peak = w[np.argmax(spectral_density(p, w))]
        assert peak == pytest.approx(p.s * p.omega_c, abs=0.02)

    def test_vectorized_matches_scalar(self):
        p = BATHS[2]
        w = np.array([0.0, 0.5, 1.0, 7.0])
        out = spectral_density(p, w)
        assert out.shape == w.shape
        for wi, oi in zip(w, out):
            assert spectral_density(p, float(wi)) == oi


class TestGamma0Analytic:
    def test_zero_at_t_zero(self):
        for p in BATHS:
            assert gamma0_analytic(p, 0.0) == 0.0

    def test_ohmic_closed_form(self):
        p = SpectralParams(1.0, 0.5)
        t = 7.0
        assert gamma0_analytic(p, t) == pytest.approx(
            0.25 * np.log(1.0 + t * t), rel=1e-14)

    def test_continuous_across_ohmic_threshold(self):
        # the s = 1 branch must agree with the generic branch nearby
        lo, hi = SpectralParams(1.0, 0.5), SpectralParams(1.0 + 1e-7, 0.5)
        for t in (0.5, 3.0, 20.0):
            assert gamma0_analytic(lo, t) == pytest.approx(
                gamma0_analytic(hi, t), rel=1e-5)

    def test_super_ohmic_saturates_with_revivals(self):
        # s = 3: late-time exponent dips back below its running maximum
        p = SpectralParams(3.0, 0.5)
        g = gamma0_analytic(p, np.linspace(0.0, 30.0, 600))
        assert np.max(g) > g[-1]
        assert g[-1] == pytest.approx(p.eta, rel=5e-3)  # eta * Gamma(2)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            gamma0_analytic(BATHS[0], -0.1)

    @settings(max_examples=60, deadline=None)
    @given(s=st.floats(0.3, 4.0), t=st.floats(0.0, 50.0))
    def test_nonnegative(self, s, t):
        assert gamma0_analytic(SpectralParams(s, 0.5), t) >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(s=st.floats(0.3, 2.0), t=st.floats(0.0, 40.0))
    def test_monotone_below_s_two(self, s, t):
        # sin(s arctan(u)) >= 0 for s <= 2, so Gamma0 never decreases
        p = SpectralParams(s, 0.5)
        assert gamma0_analytic(p, t + 0.25) >= gamma0_analytic(p, t) - 1e-12


class TestGamma0Derivative:
    @pytest.mark.parametrize("p", BATHS, ids=lambda p: f"s={p.s}")
    def test_analytic_matches_finite_difference(self, p):
        t = np.linspace(0.1, 25.0, 40)
        h = 1e-6 * t
        fd = (gamma0_analytic(p, t + h) - gamma0_analytic(p, t - h)) / (2 * h)
        assert np.max(np.abs(gamma0_derivative(p, t) - fd)) < 1e-7

    def test_ohmic_reduction(self):
        # s = 1 analytic rate is eta wc^2 t / (1 + wc^2 t^2)
        p = SpectralParams(1.0, 0.5)
        t = 3.0
        assert gamma0_derivative(p, t) == pytest.approx(
            p.eta * t / (1.0 + t * t), rel=1e-13)


    @pytest.mark.parametrize("p", [*BATHS, SpectralParams(171.5, 1e-10)],
                             ids=lambda p: f"s={p.s},eta={p.eta}")
    def test_rate_scale_keeps_a_moderate_prefactor(self, p):
        # k = 0 and the very product the plain rate takes: same bits
        k, g = rate_scale(p)
        assert k == 0 and g == p.eta * p.omega_c * math.gamma(p.s)
        t = np.linspace(0.0, 25.0, 41)
        assert np.array_equal(gamma0_derivative(p, t, g),
                              gamma0_derivative(p, t))

    def test_rate_scale_without_coupling_is_zero(self):
        # where the plain product 0 * Gamma(200) would be nan
        assert rate_scale(SpectralParams(200.0, 0.0)) == (0, 0.0)

    @pytest.mark.parametrize("s,eta", [
        (171.5, 0.5), (171.0, 100.0), (171.7, 0.5), (171.7, 1e-10),
        (300.0, 1e-300)])
    def test_rate_scale_brings_the_prefactor_to_2_1000(self, s, eta):
        # Gamma(s) itself overflows past s = 171.62: then from logarithms
        k, g = rate_scale(SpectralParams(s, eta))
        exact = eta * mpmath.gamma(s) / mpmath.mpf(2) ** k
        assert g <= 2.0 ** 1000 and (k == 0 or g > 2.0 ** 999)
        assert g == pytest.approx(float(exact), rel=1e-12)
        plain = eta * spectral._euler_gamma(s)
        if plain < math.inf:  # then 2^-k exactly
            assert g == math.ldexp(plain, -k)


class TestGamma0Quadrature:
    @pytest.mark.parametrize("p", BATHS, ids=lambda p: f"s={p.s}")
    def test_matches_closed_form(self, p):
        for t in (0.3, 2.0, 11.0):
            ref = gamma0_quadrature(p, t)
            assert gamma0_analytic(p, t) == pytest.approx(ref, rel=1e-8)

    def test_zero_time_and_zero_coupling(self):
        assert gamma0_quadrature(BATHS[1], 0.0) == 0.0
        assert gamma0_quadrature(SpectralParams(1.0, 0.0), 5.0) == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            gamma0_quadrature(BATHS[0], -1.0)
        with pytest.raises(ValueError):
            gamma0_quadrature(BATHS[0], 1.0, tol=0.0)

    def test_divergent_integral_does_not_converge(self, monkeypatch):
        # int_0^1 dx / x diverges: every round bisects the panel at 0, so
        # the panels stay few and the round limit ends it
        rounds = []
        estimates = quadrature._panel_estimates
        monkeypatch.setattr(quadrature, "_panel_estimates",
                            lambda *args: rounds.append(1) or estimates(*args))
        with pytest.raises(QuadratureError, match="did not converge"):
            adaptive_panel_quad(lambda x: 1.0 / x, 0.0, 1.0)
        assert len(rounds) == quadrature._MAX_ROUNDS


class TestBathIntegral:
    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_moment_is_euler_gamma(self, s):
        # weight x^2 leaves eta * int x^s e^-x dx = eta Gamma(s + 1); the
        # weight stays below (60 + 5s)^2 on the domain
        p = SpectralParams(s, 0.5)
        got = bath_integral(p, 1.0, lambda x: x * x, (60.0 + 5.0 * s) ** 2,
                            tol=1e-13)
        assert got == pytest.approx(0.5 * math.gamma(s + 1.0), rel=2e-12)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_tail_bound_is_above_the_exact_tail(self, s):
        # int_X^inf x^(s-2) e^-x dx is the upper incomplete Gamma(s-1, X)
        for x in (1.5, 2.0, 3.0, 5.0, 10.0, 20.0, 30.0, 45.0, 60.0, 75.0):
            exact = mpmath.gammainc(s - 1.0, x)
            bound = math.exp(spectral._log_tail_bound(s, x))
            assert bound >= exact
            assert bound <= 2.0 * exact  # and tight enough to cut early

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    def test_truncated_gamma0_matches_the_full_domain(self, s, monkeypatch):
        p, tol = SpectralParams(s, 0.5), 1e-9
        for t in (0.05, 0.7, 3.7, 10.0, 24.3, 80.0):
            full = full_domain(monkeypatch, gamma0_quadrature, p, t, tol=tol)
            assert gamma0_quadrature(p, t, tol=tol) == pytest.approx(
                full, rel=2.0 * tol, abs=0.0)

    @pytest.mark.parametrize("weight_sup,weight", [
        (1e300, np.ones_like), (1.0, np.zeros_like)],
        ids=["huge_bound", "zero_integral"])
    def test_domain_ends_at_60_plus_5s_at_the_latest(self, weight_sup, weight,
                                                     monkeypatch):
        seen = []
        monkeypatch.setattr(
            spectral, "adaptive_panel_quad",
            lambda f, a, b, pts, rel_tol: seen.append((a, b))
            or adaptive_panel_quad(f, a, b, pts, rel_tol=rel_tol))
        bath_integral(BATHS[2], 10.0, weight, weight_sup, 1e-9)
        assert seen == [(0.0, 35.0), (35.0, 75.0)]

    def test_zero_time_and_zero_coupling_and_negative_time(self):
        weight = np.ones_like
        assert bath_integral(BATHS[1], 0.0, weight, 1.0, 1e-10) == 0.0
        assert bath_integral(SpectralParams(1.0, 0.0), 5.0, weight, 1.0,
                             1e-10) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            bath_integral(BATHS[1], -1.0, weight, 1.0, 1e-10)

    def test_underflowing_frequency_takes_the_knee_alone(self, monkeypatch):
        # w_c t = 1e-300 * 1e-300 underflows to 0, and w_c t = 1e-10 *
        # 1e-310 to a subnormal 1e-320 whose period 2 pi/(w_c t) overflows
        # to inf: no period exists, in the first part or in the extension
        # up to the tail bound
        seen = []
        monkeypatch.setattr(
            spectral, "adaptive_panel_quad",
            lambda f, a, b, pts, rel_tol: seen.append(list(pts))
            or adaptive_panel_quad(f, a, b, pts, rel_tol=rel_tol))
        for omega_c, t in ((1e-300, 1e-300), (1e-10, 1e-310)):
            seen.clear()
            p = SpectralParams(1.0, 0.5, omega_c=omega_c)
            got = bath_integral(p, t, lambda x: x * x, 65.0 ** 2, tol=1e-12)
            assert seen == [[1.0], [1.0]], t
            assert got == pytest.approx(0.5, rel=1e-11)


class TestRuntimeDependencies:
    def test_cli_import_leaves_scipy_out(self):
        # numpy is the only runtime dependency; scipy serves the tests
        src = str(Path(dephasing_pdd.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, dephasing_pdd.cli; "
             "print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
            env=env, capture_output=True, text=True, check=True).stdout
        assert loaded.strip() == "[]"

    def test_large_s_gamma_overflows_to_inf(self):
        # Euler Gamma(s) passes the float range near s = 171.6
        rate = gamma0_derivative(SpectralParams(200.0, 0.5), 1.0)
        assert np.isinf(rate)  # as scipy.special.gamma, no OverflowError
