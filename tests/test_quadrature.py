"""The G10/K21 panel rule and the quadrature oracles against independent
truths: numpy's Gauss-Legendre rule, exact monomial integrals and a
40-digit mpmath evaluation of the closed-form sums."""

import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from dephasing_pdd import quadrature
from dephasing_pdd.dynamics import (ControlProtocol, ProtocolTag,
                                    attenuation_functions, singlet)
from dephasing_pdd.errors import QuadratureError
from dephasing_pdd.pulses import (PulseSchedule, controlled_gamma_quadrature,
                                  pdd_schedule)
from dephasing_pdd.qsl import qslt_general
from dephasing_pdd.quadrature import _NODES, _WEIGHTS
from dephasing_pdd.spectral import SpectralParams, gamma0_quadrature

K21, G10 = _WEIGHTS.T
ETA = 0.5


def monomial_error(weights, k):
    exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
    return abs(_NODES ** k @ weights - exact)


class TestRule:
    def test_gauss_nodes_and_weights_match_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        on_gauss = G10 != 0.0
        np.testing.assert_allclose(_NODES[on_gauss], nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(G10[on_gauss], weights, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("weights,degree", [(K21, 31), (G10, 19)],
                             ids=["K21", "G10"])
    def test_polynomial_degree(self, weights, degree):
        assert weights.sum() == pytest.approx(2.0, abs=1e-15)
        for k in range(degree + 1):
            assert monomial_error(weights, k) < 1e-15, k
        # the degree is sharp: the next even power is off
        assert monomial_error(weights, degree + 1) > 1e-13


@mpmath.workdps(40)
def gamma0_mp(s, t):
    """Closed-form Gamma0(t) at omega_c = 1, to 40 digits."""
    u = mpmath.mpf(t)
    if s == 1.0:
        return ETA / 2 * mpmath.log1p(u * u)
    a = mpmath.mpf(s) - 1
    return ETA * mpmath.gamma(a) * (
        1 - mpmath.cos(a * mpmath.atan(u)) * (1 + u * u) ** (-a / 2))


@mpmath.workdps(40)
def controlled_gamma_mp(s, instants, t):
    """Gamma(t) = -sum_{a<b} c_a c_b Gamma0(t_b - t_a) over the points
    0, the float instants before t, and t, with weights 1, 2(-1)^j and
    (-1)^(n+1): the filter-function integral expanded pair by pair."""
    taus = [x for x in instants if x < t]
    n = len(taus)
    pts = [mpmath.mpf(x) for x in (0.0, *taus, t)]
    c = [1, *(2 * (-1) ** j for j in range(1, n + 1)), (-1) ** (n + 1)]
    return -mpmath.fsum(c[a] * c[b] * gamma0_mp(s, pts[b] - pts[a])
                        for b in range(len(pts)) for a in range(b))


@pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("t", [0.3, 2.0, 11.0, 40.0, 150.0])
def test_gamma0_quadrature_within_tol_of_mpmath(s, t):
    tol = 1e-10
    ref = gamma0_mp(s, t)
    got = gamma0_quadrature(SpectralParams(s, ETA), t, tol=tol)
    assert abs(got - ref) <= tol * abs(ref)


@pytest.mark.parametrize("s", [1.0, 3.0])
@pytest.mark.parametrize("n", [5, 100])
@pytest.mark.parametrize("side,nudge", [(-0.25, 0.0), (0.25, 0.0),
                                        (0.25, 1e-3)],
                         ids=["before", "after", "nudged"])
def test_controlled_gamma_quadrature_within_tol_of_mpmath(s, n, side, nudge):
    # t a quarter spacing before or after the middle pulse; "nudged" moves
    # that pulse by spacing/1000, off the train, onto the per-gap steps
    tol = 1e-9
    spacing = 10.0 / (n + 1)
    instants = list(pdd_schedule(n, 10.0).instants)
    instants[n // 2] += nudge * spacing
    sched = PulseSchedule(tuple(instants), 10.0)
    t = instants[n // 2] + side * spacing
    ref = controlled_gamma_mp(s, sched.instants, t)
    got = controlled_gamma_quadrature(SpectralParams(s, ETA), sched, t,
                                      tol=tol)
    assert abs(got - ref) <= tol * abs(ref)


def test_controlled_gamma_quadrature_resolves_every_period():
    # with no breakpoint per period of the filter's fastest oscillation,
    # e^(i x t), the first panels alias it here and read 1.7e-8; Gamma is
    # linear in eta, so the module's ETA serves
    s, tol = 3.0029, 1e-8
    sched = pdd_schedule(2, 9.8015)
    t = 12.447905
    ref = controlled_gamma_mp(s, sched.instants, t)
    got = controlled_gamma_quadrature(SpectralParams(s, ETA), sched, t,
                                      tol=tol)
    assert abs(got - ref) <= tol * abs(ref)


def scripted_estimates(script, panels):
    """A ``_panel_estimates`` that reads each panel's (value, error)
    off ``script`` by its edges and logs the panel count of each round."""
    def scripted(f, lo, hi):
        panels.append(len(lo))
        cells = [script[edge] for edge in zip(lo.tolist(), hi.tolist())]
        return (np.array([v for v, _ in cells]),
                np.array([e for _, e in cells]))
    return scripted


def test_retired_panels_add_up_over_rounds(monkeypatch):
    # rounds 1-3 each retire one panel (error 2e-11, under its share
    # budget / 4); in round 3 the retired errors and the kept one's 5e-11
    # still break the budget of about 1e-10, so a fourth round runs
    script = {(0.0, 0.5): (0.1, 2e-11), (0.5, 1.0): (0.9, 1e-6),
              (0.5, 0.75): (0.2, 2e-11), (0.75, 1.0): (0.7, 1e-6),
              (0.75, 0.875): (0.3, 2e-11), (0.875, 1.0): (0.4, 5e-11),
              (0.875, 0.9375): (0.15, 0.0), (0.9375, 1.0): (0.25, 0.0)}
    panels = []
    monkeypatch.setattr(quadrature, "_panel_estimates",
                        scripted_estimates(script, panels))
    total = quadrature.adaptive_panel_quad(None, 0.0, 1.0, [0.5],
                                           rel_tol=1e-10)
    exact = math.fsum([0.1, 0.2, 0.3, 0.15, 0.25])
    assert abs(total - exact) <= 4 * np.finfo(float).eps * exact
    assert panels == [2, 2, 2, 2]


def test_shrinking_total_reopens_retired_panels(monkeypatch):
    # round 1 retires [0, 0.5] with an error of 1e-12 at a total of 1;
    # round 2 shrinks the total to 1e-7, so that error alone breaks the
    # budget: the panel is reopened, not left to stall the loop
    script = {(0.0, 0.5): (0.5, 1e-12), (0.5, 1.0): (0.5, 1e-9),
              (0.5, 0.75): (-0.25, 0.0), (0.75, 1.0): (-0.25 + 1e-7, 0.0),
              (0.0, 0.25): (0.25, 0.0), (0.25, 0.5): (0.25, 0.0)}
    panels = []
    monkeypatch.setattr(quadrature, "_panel_estimates",
                        scripted_estimates(script, panels))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        total = quadrature.adaptive_panel_quad(None, 0.0, 1.0, [0.5],
                                               rel_tol=1e-10)
    assert total == pytest.approx(1e-7, rel=1e-8)
    assert panels == [2, 2, 2]  # no idle round


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_integrand_raises_in_the_first_round(monkeypatch, bad):
    rounds = []
    estimates = quadrature._panel_estimates
    monkeypatch.setattr(quadrature, "_panel_estimates",
                        lambda *args: rounds.append(1) or estimates(*args))
    with np.errstate(invalid="ignore"):
        with pytest.raises(QuadratureError, match="not finite"):
            quadrature.adaptive_panel_quad(
                lambda x: np.where(x > 0.5, bad, 1.0), 0.0, 1.0, [0.5])
    assert len(rounds) == 1


def oracle_call(name, tol):
    """One call of each oracle at a given tolerance."""
    p = SpectralParams(1.0, ETA)
    sched = pdd_schedule(2, 10.0)
    if name == "gamma0":
        return gamma0_quadrature(p, 5.0, tol=tol)
    if name == "filter":
        return controlled_gamma_quadrature(p, sched, 5.0, tol=tol)
    q_of_t, qdot_of_t = attenuation_functions(
        ControlProtocol(ProtocolTag("Q11"), sched), p)
    return qslt_general(singlet(), q_of_t, qdot_of_t, 5.5,
                        breakpoints=sched.instants, rel_tol=tol)


ORACLES = ["gamma0", "filter", "mlmt"]


@pytest.mark.parametrize("oracle", ORACLES)
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(oracle, tol):
    with pytest.raises(ValueError, match="rel_tol"):
        oracle_call(oracle, tol)


@pytest.mark.parametrize("oracle", ORACLES)
def test_hopeless_tolerance_stops_at_the_panel_bound(oracle, monkeypatch):
    # every panel stays unconverged at 1e-300, so each round doubles them;
    # without a panel bound memory ran out (over 2 GB) before the round limit
    panels = []
    estimates = quadrature._panel_estimates
    monkeypatch.setattr(quadrature, "_panel_estimates",
                        lambda f, lo, hi: panels.append(len(lo))
                        or estimates(f, lo, hi))
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureError, match="did not converge"):
            oracle_call(oracle, 1e-300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(panels) <= quadrature._MAX_PANELS < 2 * max(panels)
    assert len(panels) < quadrature._MAX_ROUNDS
    assert peak < 32 * 2 ** 20
