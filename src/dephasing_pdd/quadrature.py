"""Vectorized adaptive panel quadrature for oscillatory bath integrals.

The spectral integrals evaluated here all have the shape

    I = int_a^b  g(x) dx,

where g carries an exponential envelope times trigonometric factors whose
fastest frequency is known in advance.  The domain is pre-split at caller
supplied breakpoints (the envelope knee and oscillation half-periods) and
each panel is estimated with an embedded Gauss-Legendre pair.  Panels whose
error estimate exceeds their share of the global budget are bisected; the
integrand is always evaluated on all active panels in one vectorized call.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_LO_NODES, _LO_WEIGHTS = np.polynomial.legendre.leggauss(15)
_HI_NODES, _HI_WEIGHTS = np.polynomial.legendre.leggauss(31)
_MAX_ROUNDS = 40  # bisection rounds before giving up
_ENVELOPE_KNEE = 1.0  # breakpoint at the exp(-x) envelope's scale
_MAX_BREAKPOINTS = 4000


def _panel_estimates(f, lo_edges, hi_edges):
    """Low/high order Gauss estimates for a batch of panels."""
    mid = 0.5 * (lo_edges + hi_edges)
    half = 0.5 * (hi_edges - lo_edges)

    x_lo = mid[:, None] + half[:, None] * _LO_NODES[None, :]
    x_hi = mid[:, None] + half[:, None] * _HI_NODES[None, :]
    f_lo = f(x_lo.ravel()).reshape(x_lo.shape)
    f_hi = f(x_hi.ravel()).reshape(x_hi.shape)

    est_lo = half * (f_lo * _LO_WEIGHTS).sum(axis=1)
    est_hi = half * (f_hi * _HI_WEIGHTS).sum(axis=1)
    return est_hi, np.abs(est_hi - est_lo)


def adaptive_panel_quad(f, a, b, breakpoints=(), rel_tol=1e-10):
    """Integrate a vectorized ``f`` over [a, b] to a relative tolerance.

    Parameters
    ----------
    f : callable
        Maps a 1-D ndarray of abscissae to integrand values.
    a, b : float
        Integration limits, a < b.
    breakpoints : iterable of float
        Interior points where panels must not straddle (oscillation
        half-periods, envelope scales).  Values outside (a, b) are ignored.
    rel_tol : float
        Target: summed panel error below ``rel_tol * |integral|``.

    Returns
    -------
    float

    Raises
    ------
    QuadratureError
        If the error budget is not met within 40 bisection rounds; the
        message gives the last round's error bound.
    """
    pts = np.asarray(sorted(p for p in breakpoints if a < p < b), dtype=float)
    edges = np.concatenate(([a], pts, [b]))
    lo_edges = edges[:-1].copy()
    hi_edges = edges[1:].copy()

    done_value = 0.0
    done_error = 0.0

    for _ in range(_MAX_ROUNDS):
        values, errors = _panel_estimates(f, lo_edges, hi_edges)
        total = done_value + values.sum()
        total_err = done_error + errors.sum()
        budget = rel_tol * max(abs(total), 1e-300)
        if total_err <= budget:
            return total

        # retire panels that already meet their per-panel share
        n_active = len(lo_edges)
        share = budget / (2.0 * n_active)
        keep = errors > share
        done_value += values[~keep].sum()
        done_error += errors[~keep].sum()

        mid = 0.5 * (lo_edges[keep] + hi_edges[keep])
        lo_edges = np.concatenate((lo_edges[keep], mid))
        hi_edges = np.concatenate((mid, hi_edges[keep]))

    raise QuadratureError(
        f"quadrature did not converge to rel_tol={rel_tol:g} "
        f"within {_MAX_ROUNDS} rounds (achieved {total_err:.3e})")


def oscillation_breakpoints(max_frequency, upper):
    """Breakpoints at half-periods of the fastest oscillation (at most
    4000, so panel counts stay bounded) plus the envelope knee."""
    pts = [_ENVELOPE_KNEE]
    if max_frequency > 0.0:
        step = max(np.pi / max_frequency, upper / _MAX_BREAKPOINTS)
        pts.extend(np.arange(step, upper, step))
    return pts
