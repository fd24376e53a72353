"""Ohmic-family bath spectral densities and the free dephasing exponent.

A qubit coupled longitudinally to a zero-temperature bosonic bath dephases
with its off-diagonal element scaled by exp(-Gamma0(t)), where

    Gamma0(t) = int_0^inf  J(w)/w^2 * (1 - cos(w t)) dw,
    J(w)      = eta * w^s / w_c^(s-1) * exp(-w / w_c).

Both the closed form of Gamma0 (exact for any Ohmicity s > 0, with the
s = 1 logarithmic limit handled separately) and an independent adaptive
quadrature of the defining integral are provided; the quadrature acts as
the oracle in the test suite.  It is one case of :func:`bath_integral`,
J(w)/w^2 times a control's filter |f(w, t)|^2 (the other: the pulse train
of :mod:`.pulses`), split at whole periods of its fastest oscillation and
cut where a tail bound from the filter's supremum meets the tolerance.
Times are dimensionless multiples of 1/w_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import adaptive_panel_quad

# |s - 1| below this routes to the logarithmic Ohmic form; Euler Gamma's
# pole at s = 1 makes the generic expression unusable nearby.
OHMIC_THRESHOLD = 1e-9

_HEAD_CUTOFFS = 20.0  # the bath integral's first part: 20 + 5s cutoffs,
_TAIL_CUTOFFS = 60.0  # extended by a tail bound up to 60 + 5s (tail < 1e-26)
_TAIL_SHARE = 0.01  # of the tolerance, left to the tail beyond the domain
_ENVELOPE_KNEE = 1.0  # breakpoint at the exp(-x) envelope's scale
_MAX_BREAKPOINTS = 4000  # whole periods at most, so panel counts stay bounded


@dataclass(frozen=True)
class SpectralParams:
    """Bath description: Ohmicity exponent ``s``, dimensionless coupling
    ``eta`` and cutoff frequency ``omega_c`` (the unit of inverse time)."""

    s: float
    eta: float
    omega_c: float = 1.0

    def __post_init__(self):
        if not self.s - 1.0 > -1.0:  # s - 1 = -1 is a pole of Euler's Gamma
            raise ValueError("Ohmicity exponent must be positive, with s - 1 "
                             f"above -1 (Euler Gamma's pole), got s={self.s}")
        if self.eta < 0:
            raise ValueError(f"coupling must be nonnegative, got eta={self.eta}")
        if not self.omega_c > 0:
            raise ValueError(f"cutoff must be positive, got omega_c={self.omega_c}")

    @property
    def is_ohmic(self):
        return abs(self.s - 1.0) < OHMIC_THRESHOLD


def _as_nonnegative_array(x, name):
    arr = np.asarray(x, dtype=float)
    if (arr < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    return arr


def _euler_gamma(x):
    """Euler's Gamma of a float, inf where it overflows (s above ~171)."""
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


def _maybe_scalar(arr, like):
    return float(arr) if np.ndim(like) == 0 else arr


def spectral_density(p: SpectralParams, omega):
    """Spectral weight J(w) = eta * w^s / w_c^(s-1) * exp(-w/w_c).

    Vanishes at w = 0 (for s > 0) and decays exponentially past the cutoff.
    Negative frequencies are a domain error.
    """
    w = _as_nonnegative_array(omega, "omega")
    x = w / p.omega_c
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(x > 0, p.eta * p.omega_c * x ** p.s * np.exp(-x), 0.0)
    return _maybe_scalar(out, omega)


def gamma0_analytic(p: SpectralParams, t):
    """Free decoherence exponent Gamma0(t) in closed form.

    For s != 1:
        eta * Gamma(s-1) * {1 - cos[(s-1) arctan(w_c t)] / (1 + w_c^2 t^2)^((s-1)/2)}
    For s = 1:
        (eta / 2) * ln(1 + w_c^2 t^2)

    Gamma(.) is Euler's Gamma function, negative non-integer arguments
    included (sub-Ohmic s < 1 gives s - 1 in (-1, 0)).  Accepts scalars or
    arrays of nonnegative times.
    """
    tt = _as_nonnegative_array(t, "t")
    u = p.omega_c * tt
    if p.is_ohmic:
        out = 0.5 * p.eta * np.log1p(u * u)
    else:
        g = _euler_gamma(p.s - 1.0)
        theta = np.arctan(u)
        out = p.eta * g * (
            1.0 - np.cos((p.s - 1.0) * theta)
            * (1.0 + u * u) ** (-(p.s - 1.0) / 2.0)
        )
    return _maybe_scalar(out, t)


def gamma0_derivative(p: SpectralParams, t, prefactor=None):
    """Rate dGamma0/dt in closed form,

        dGamma0/dt = eta * w_c * Gamma(s) * sin(s arctan(w_c t))
                     / (1 + w_c^2 t^2)^(s/2),

    which is pole-free for every s > 0 (it reduces to
    eta w_c^2 t / (1 + w_c^2 t^2) at s = 1); a ``prefactor`` replaces
    eta w_c Gamma(s) (:func:`rate_scale`).
    """
    u = p.omega_c * _as_nonnegative_array(t, "t")
    g = (p.eta * p.omega_c * _euler_gamma(p.s) if prefactor is None
         else prefactor)
    out = g * np.sin(p.s * np.arctan(u)) * (1.0 + u * u) ** (-p.s / 2.0)
    return _maybe_scalar(out, t)


def rate_scale(p: SpectralParams):
    """(k, eta w_c Gamma(s) / 2^k), the least k >= 0 that brings this rate
    prefactor to at most 2^1000: exact, or from logs where it overflows."""
    g = p.eta * p.omega_c * _euler_gamma(p.s) if p.eta else 0.0
    if g <= 2.0 ** 1000:
        return 0, g
    log2 = (math.log(p.eta) + math.log(p.omega_c)
            + math.lgamma(p.s)) / math.log(2.0)
    k = max(0, math.ceil(log2) - 1000)
    return k, math.ldexp(g, -k) if g < math.inf else 2.0 ** (log2 - k)


def _log_tail_bound(s, x):
    """log of a bound >= int_x^inf y^(s-2) e^(-y) dy for x > max(0, s - 2)."""
    return (s - 2.0) * math.log(x) - x - math.log1p(-max(0.0, s - 2.0) / x)


def bath_integral(p: SpectralParams, t, weight, weight_sup, tol):
    """eta * int x^(s-2) e^(-x) weight(x) dx in x = w/w_c: J(w)/w^2 times a
    filter ``weight``, a vectorized callable of x whose fastest
    oscillation is e^(i x w_c t), integrated to relative tolerance ``tol``.

    The domain [0, 20 + 5s] grows in unit steps, to 60 + 5s at most, until
    W X^(s-2) e^(-X) / (1 - max(0, s - 2)/X), W = ``weight_sup`` >= weight
    on [0, 60 + 5s], bounds the tail past X by 1% of ``tol`` times the
    integral so far.  Split at x = 1 and at most 4000 whole periods
    2 pi/(w_c t).  0.0 at t = 0 or eta = 0.  Raises ValueError for t < 0
    or a bad ``tol``, QuadratureError on non-convergence.
    """
    t = float(t)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0 or p.eta == 0.0:
        return 0.0
    u, upper = p.omega_c * t, _TAIL_CUTOFFS + 5.0 * p.s

    def integrand(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            val = x ** (p.s - 2.0) * np.exp(-x) * weight(x)
        return np.where(x > 0, val, 0.0)

    # whole periods; none where w_c t underflows to 0 or the period overflows
    period = 2.0 * np.pi / u if u > 0.0 else upper
    step = min(max(period, upper / _MAX_BREAKPOINTS), upper)
    pts = np.append(_ENVELOPE_KNEE, np.arange(step, upper, step))
    head = end = _HEAD_CUTOFFS + 5.0 * p.s
    total = adaptive_panel_quad(integrand, 0.0, head, pts, rel_tol=tol)
    # in logs; a zero integral or a budget below 1e-300 keeps all 60 + 5s
    budget = math.log(max(_TAIL_SHARE * tol * abs(total) / weight_sup, 1e-300))
    while end < upper and _log_tail_bound(p.s, end) > budget:
        end = min(end + 1.0, upper)
    if end > head:
        total += adaptive_panel_quad(integrand, head, end, pts, rel_tol=tol)
    return p.eta * total


def gamma0_quadrature(p: SpectralParams, t, tol=1e-10):
    """Gamma0(t) by adaptive quadrature of the defining integral.

    Independent oracle for :func:`gamma0_analytic`: :func:`bath_integral`
    of the weight 2 sin^2(x w_c t / 2), the half-angle form of 1 - cos,
    which avoids its cancellation; its supremum W is 2.
    """
    h = 0.5 * p.omega_c * float(t)
    return bath_integral(p, t, lambda x: 2.0 * np.sin(h * x) ** 2, 2.0, tol)
