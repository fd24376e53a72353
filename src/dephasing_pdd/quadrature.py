"""Vectorized adaptive panel quadrature.

``adaptive_panel_quad`` integrates a vectorized integrand over [a, b] to a
relative tolerance.  The domain is pre-split at caller supplied
breakpoints and each panel is estimated with the nested Gauss-Kronrod pair
G10/K21 of QUADPACK's ``qk21`` (Piessens et al., 1983): the 21 Kronrod
nodes contain the 10 Gauss nodes, so one integrand call per round gives
the K21 value and its error estimate |K21 - G10|.  Panels whose error
estimate exceeds their share of the global budget are bisected; the
integrand is always evaluated on all active panels in one vectorized
call.  The bath integrals it serves are set up in :mod:`.spectral`.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

# QUADPACK qk21 to 17 digits: the nonnegative nodes, each with its K21
# weight and its G10 weight (0 on the nodes Kronrod adds); the rule is
# symmetric about 0
_GK21_HALF = np.array([
    (0.99565716302580808, 0.011694638867371874, 0.0),
    (0.97390652851717172, 0.032558162307964727, 0.066671344308688138),
    (0.93015749135570823, 0.054755896574351996, 0.0),
    (0.86506336668898451, 0.075039674810919953, 0.14945134915058059),
    (0.78081772658641690, 0.093125454583697606, 0.0),
    (0.67940956829902441, 0.10938715880229764, 0.21908636251598204),
    (0.56275713466860468, 0.12349197626206585, 0.0),
    (0.43339539412924719, 0.13470921731147333, 0.26926671930999636),
    (0.29439286270146020, 0.14277593857706008, 0.0),
    (0.14887433898163121, 0.14773910490133849, 0.29552422471475287),
    (0.0, 0.14944555400291691, 0.0),
])
_GK21 = np.concatenate((_GK21_HALF[:-1] * (-1.0, 1.0, 1.0), _GK21_HALF[::-1]))
_NODES = _GK21[:, 0]  # 21 nodes on [-1, 1]
_WEIGHTS = _GK21[:, 1:]  # columns: K21, G10
_MAX_ROUNDS = 40  # bisection rounds before giving up
# bisected panels per round: real calls peak near 700, while unconverged
# panels double each round and would exhaust memory before _MAX_ROUNDS
_MAX_PANELS = 2 ** 14


def _panel_estimates(f, lo_edges, hi_edges):
    """K21 value and |K21 - G10| error estimate for a batch of panels."""
    mid = 0.5 * (lo_edges + hi_edges)
    half = 0.5 * (hi_edges - lo_edges)

    x = mid[:, None] + half[:, None] * _NODES[None, :]
    est = half[:, None] * (f(x.ravel()).reshape(x.shape) @ _WEIGHTS)
    return est[:, 0], np.abs(est[:, 0] - est[:, 1])


def adaptive_panel_quad(f, a, b, breakpoints=(), rel_tol=1e-10):
    """Integrate a vectorized ``f`` over [a, b] to a relative tolerance.

    Parameters
    ----------
    f : callable
        Maps a 1-D ndarray of abscissae to integrand values.
    a, b : float
        Integration limits, a < b.
    breakpoints : array_like of float
        Interior points where panels must not straddle (oscillation
        periods, envelope scales).  Values outside (a, b) are ignored.
    rel_tol : float
        Target: summed panel error below ``rel_tol * |integral|``; a
        positive finite number.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If ``rel_tol`` is not a positive finite number.
    QuadratureError
        If the integrand is not finite at a node, or the error budget is
        not met within 40 bisection rounds of at most ``_MAX_PANELS``
        panels; the message gives the last round's error bound.
    """
    if not 0.0 < rel_tol < np.inf:
        raise ValueError(f"rel_tol must be positive and finite, got {rel_tol}")
    pts = np.asarray(breakpoints, dtype=float).ravel()
    pts = np.sort(pts[(a < pts) & (pts < b)])
    edges = np.concatenate(([a], pts, [b]))
    lo_edges, hi_edges = edges[:-1], edges[1:]
    # retired panels' edges, values and error estimates
    retired = np.zeros((4, 0))

    for _ in range(_MAX_ROUNDS):
        values, errors = _panel_estimates(f, lo_edges, hi_edges)
        total = retired[2].sum() + values.sum()
        total_err = retired[3].sum() + errors.sum()
        if not np.isfinite((total, total_err)).all():
            raise QuadratureError(
                f"the integrand is not finite on [{a:g}, {b:g}] (total "
                f"{total:g}, error bound {total_err:g})")
        budget = rel_tol * max(abs(total), 1e-300)
        if total_err <= budget:
            return total

        # retire panels that already meet their per-panel share
        keep = errors > budget / (2.0 * len(lo_edges))
        retired = np.concatenate((retired, np.stack(
            (lo_edges, hi_edges, values, errors))[:, ~keep]), axis=1)
        lo_edges, hi_edges = lo_edges[keep], hi_edges[keep]
        if not keep.any():
            # the total shrank below the one the retired panels met: reopen
            # them worst first, all but those that fit half the budget
            order = np.argsort(retired[3])
            fits = np.cumsum(retired[3][order]) <= 0.5 * budget
            lo_edges, hi_edges = retired[:2, order[~fits]]
            retired = retired[:, order[fits]]

        if 2 * len(lo_edges) > _MAX_PANELS:
            break
        mid = 0.5 * (lo_edges + hi_edges)
        lo_edges = np.concatenate((lo_edges, mid))
        hi_edges = np.concatenate((mid, hi_edges))

    raise QuadratureError(
        f"quadrature did not converge to rel_tol={rel_tol:g} within "
        f"{_MAX_ROUNDS} rounds of at most {_MAX_PANELS} panels (achieved "
        f"{total_err:.3e})")
