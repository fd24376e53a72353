"""Quantum-speed-limit-time bounds along dephasing trajectories.

Three routes are implemented and cross-checked against each other:

* the X-state closed form  tau_QSL / tau_d = Phi0 |1 - Q(t)| / int |dQ/dt|,
  with the denominator computed as the total variation of Q: sum |dQ|
  over the pulse instants and the extrema of Q, which one batched
  extrema finder locates for every caller from the sign of dQ/dt alone;
* its analytic upper bound  Phi0 (1 - Q(t)) / (1 - Q(tau_d)), tight whenever
  Q is monotone on the window;
* the general open-system ML/MT bound built from the singular values of
  d(rho)/dt paired against the initial-state eigenvalues (von Neumann
  trace inequality pairing, descending against descending), its time
  averages taken by adaptive quadrature of |dQ/dt| (Deffner & Lutz,
  PRL 111, 010402 (2013)).

The driving time tau_d is bound to the evaluation time ("running"
window), which reproduces the ratio = 1 baseline of free Ohmic dephasing;
``QslInputs.tau_d`` only caps the evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .correlations import XStateSummary, purity, relative_purity
from .dynamics import TwoQubitState
from .errors import FrozenDynamicsError, NoCoherenceError, QuadratureError
from .quadrature import adaptive_panel_quad

_FROZEN_TOL = 1e-14
_SCAN_POINTS = 64
_MAX_SCAN_ROUNDS = 10
_MAX_REFINE_ROUNDS = 100


def _coherences(rho0: TwoQubitState):
    """(d, |a14|, |a23|) of the X-state ``rho0``, read and checked by
    :class:`XStateSummary`; :class:`NoCoherenceError` if both coherences
    vanish: nothing dephases, so the QSLT is undefined."""
    x = XStateSummary.from_state(rho0)
    a14, a23 = abs(x.a14), abs(x.a23)
    if a14 + a23 <= _FROZEN_TOL:
        raise NoCoherenceError("initial X-state has no anti-diagonal coherence")
    return x.d, a14, a23


def phi0(rho0: TwoQubitState) -> float:
    """Initial-state prefactor of the X-state QSLT formula.

    Phi0 = max{ 2(|a14|^2 + |a23|^2) / [(d1 + d4)|a14| + (d2 + d3)|a23|],
                sqrt(2(|a14|^2 + |a23|^2)) }

    Raises :class:`NoCoherenceError` for a state without coherence.
    """
    d, a14, a23 = _coherences(rho0)
    num = 2.0 * (a14 ** 2 + a23 ** 2)
    den = (d[0] + d[3]) * a14 + (d[1] + d[2]) * a23
    return float(max(num / den, np.sqrt(num)))


@dataclass(frozen=True)
class QslInputs:
    """Everything the X-state bounds need: the prefactor, the attenuation
    trajectory as a callable, its breakpoints (pulse instants, where dQ/dt
    jumps), and the observation window length."""

    phi0: float
    q_of_t: Callable
    tau_d: float
    breakpoints: tuple = ()
    qdot_of_t: Optional[Callable] = None


def _slope(q_of_t, qdot_of_t, ts, a, b):
    """dQ/dt at ``ts``; without a derivative, a forward difference whose
    stencil stays inside each point's segment [a, b]."""
    if qdot_of_t is not None:
        return np.asarray(qdot_of_t(ts), dtype=float)
    h = 1e-7 * (b - a)
    s = np.clip(ts, a, b - h)
    return (np.asarray(q_of_t(s + h), dtype=float)
            - np.asarray(q_of_t(s), dtype=float)) / h


def _refine(probe, x1, f1, x2, f2, rtol):
    """Chandrupatla's method (Adv. Eng. Softw. 28, 145 (1997)) on all
    brackets [x1, x2] at once, one ``probe(t, k)`` call per round on the
    open brackets k only.  A closed bracket keeps its place in the arrays
    and its ends; each returns its end of smaller |f| once narrower than
    1e-13 + rtol |x| (brentq's)."""
    x3, f3, t = x2, f2, np.full(len(x1), 0.5)
    for _ in range(_MAX_REFINE_ROUNDS):
        a1, a2 = np.abs(f1), np.abs(f2)
        xm = np.where(a1 < a2, x1, x2)
        tol, dx = 1e-13 + rtol * np.abs(xm), np.abs(x2 - x1)
        live = ~((dx < tol) | (np.minimum(a1, a2) == 0.0))
        k = np.flatnonzero(live)
        if not k.size:
            return xm
        # closed brackets, dx = 0 among them, are computed on and masked out
        with np.errstate(divide="ignore", invalid="ignore"):
            tl = 0.5 * tol / dx  # no step closer than tol / 2 to either end
            xt = np.where(live, x1 + np.clip(t, tl, 1.0 - tl) * (x2 - x1), x1)
            ft = f1.copy()
            ft[k] = probe(xt[k], k)
            flip = live & (np.sign(ft) != np.sign(f1))
            x1, x2, x3 = xt, np.where(flip, x1, x2), np.where(flip, x2, x1)
            f1, f2, f3 = ft, np.where(flip, f1, f2), np.where(flip, f2, f1)
            xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
            iqi = (f1 / (f2 - f1) * f3 / (f2 - f3) + (x3 - x1) / (x2 - x1)
                   * f1 / (f3 - f1) * f2 / (f3 - f2))
        # inverse quadratic interpolation where safe, else bisection
        t = np.where((phi ** 2 < xi) & ((1.0 - phi) ** 2 < 1.0 - xi), iqi, 0.5)
    raise QuadratureError(f"extrema did not converge in {_MAX_REFINE_ROUNDS} rounds")


def _interleave(even, odd):
    """Rows of ``even`` with ``odd`` slotted between consecutive columns."""
    out = np.empty((even.shape[0], even.shape[1] + odd.shape[1]))
    out[:, ::2], out[:, 1::2] = even, odd
    return out


def _extrema(q_of_t, qdot_of_t, a, b, rel_tol):
    """Zeros of dQ/dt inside every segment (a[k], b[k]): one sign scan of
    all segments at once, each round halving every interval, until each
    segment's count of sign changes repeats; then :func:`_refine` of every
    bracket at once.  The first probe covers the first two rounds, 128
    intervals per segment, with the 64-interval counts read off its even
    columns; each later round probes only the new midpoints.  Scan ends
    are nudged inward, off the wrong side of a pulse instant.

    Only the signs and zeros of ``qdot_of_t`` matter, so any positive
    multiple of dQ/dt serves, and the refinement steps on its values
    directly.  When it has a ``scan(ts, x, a, b)`` method the scan takes
    its rates from that, row k of ``ts`` sampling segment k at the
    fractions ``x`` of its width (the equidistant train's table,
    :class:`~dephasing_pdd.dynamics.SignRate`); refinement probes always
    call ``qdot_of_t`` itself.
    """
    scan = getattr(qdot_of_t, "scan", None)

    def probe(ts, x):
        if scan is not None:
            return scan(ts, x, a, b)
        m = ts.shape[1]
        return _slope(q_of_t, qdot_of_t, ts.ravel(), np.repeat(a, m),
                      np.repeat(b, m)).reshape(ts.shape)

    x = np.linspace(0.0, 1.0, _SCAN_POINTS + 1)[None]
    ts = np.linspace(a, b, _SCAN_POINTS + 1, axis=-1)
    ts[:, 0] = np.nextafter(a, b)
    ts[:, -1] = np.nextafter(b, a)
    ts, x = (_interleave(v, 0.5 * (v[:, :-1] + v[:, 1:])) for v in (ts, x))
    slope = probe(ts, x[0])
    # round 1 counts the 64 intervals on the even columns
    seen, counts = slope[:, ::2], None
    for rounds in range(1, _MAX_SCAN_ROUNDS + 1):
        row, col = np.nonzero(seen)
        # pair consecutive nonzero samples of a row, so a zero plateau
        # contributes at most one node; a plateau between equal signs
        # hides no extremum that moves the variation
        flat = np.sign(seen[row, col])
        change = (row[1:] == row[:-1]) & (flat[1:] != flat[:-1])
        new_counts = np.bincount(row[1:][change], minlength=len(a))
        if counts is not None and np.array_equal(new_counts, counts):
            break
        if rounds == _MAX_SCAN_ROUNDS:
            raise QuadratureError(
                f"extrema scan over {len(a)} segments did not stabilize "
                f"within {_MAX_SCAN_ROUNDS} doublings")
        counts = new_counts
        if rounds > 1:
            mid, x_mid = (0.5 * (v[:, :-1] + v[:, 1:]) for v in (ts, x))
            slope = _interleave(slope, probe(mid, x_mid[0]))
            ts, x = _interleave(ts, mid), _interleave(x, x_mid)
        seen = slope

    r, i, j = row[1:][change], col[:-1][change], col[1:][change]
    # a zero plateau yields its middle sample: a bracket closed at once
    plateau = j > i + 1
    i[plateau] = j[plateau] = (i + j)[plateau] // 2
    return _refine(lambda t, k: _slope(q_of_t, qdot_of_t, t, a[r[k]], b[r[k]]),
                   ts[r, i], slope[r, i], ts[r, j], slope[r, j],
                   max(rel_tol, 4.0 * np.finfo(float).eps))


def _nodes(q_of_t, qdot_of_t, t_start, t_end, breakpoints, rel_tol):
    """Segment edges plus every extremum of Q on [t_start, t_end], sorted:
    Q is monotone between consecutive nodes."""
    if np.isnan(rel_tol):  # it would stall the refinement; 0 means 4 eps
        raise ValueError("rel_tol must not be nan")
    edges = np.array(sorted({t_start, t_end, *(
        x for x in breakpoints if t_start < x < t_end)}), dtype=float)
    if len(edges) < 2:
        return edges
    roots = _extrema(q_of_t, qdot_of_t, edges[:-1], edges[1:], rel_tol)
    return np.unique(np.concatenate((edges, roots)))


def total_variation(q_of_t, t_end, breakpoints=(), t_start=0.0,
                    rel_tol=1e-9, qdot_of_t=None):
    """Total variation of Q over [t_start, t_end]: sum |Q| differences
    between consecutive extrema and segment edges, exact up to the
    root-location error, which enters only quadratically.

    ``rel_tol`` is the relative tolerance of the refinement of each
    extremum (floored at 4 machine epsilons).  ``qdot_of_t`` is dQ/dt or
    any positive multiple of it (see :func:`_extrema`).  Without it the
    extrema are the zeros of a forward difference of Q.
    """
    if t_end < t_start:
        raise ValueError("t_end must be >= t_start")
    if t_end == t_start:
        return 0.0
    nodes = _nodes(q_of_t, qdot_of_t, t_start, t_end, breakpoints, rel_tol)
    return float(np.abs(np.diff(np.asarray(q_of_t(nodes), dtype=float))).sum())


def cumulative_total_variation(q_of_t, ts_eval, q_eval, breakpoints=(),
                               qdot_of_t=None):
    """Total variation of Q on [0, t] for every t in ``ts_eval`` at once.

    Inserts the extrema of Q into the evaluation grid and reads off exact
    partial sums, so a dense trace does not pay a separate search per
    output row.  ``q_eval`` is Q at ``ts_eval``, which the caller has
    already (a trace's Q column), so Q is evaluated here at the inserted
    nodes only.  ``qdot_of_t`` is as in :func:`total_variation`.
    """
    ts_eval = np.asarray(ts_eval, dtype=float)
    nodes = _nodes(q_of_t, qdot_of_t, 0.0, float(ts_eval.max()),
                   breakpoints, 0.0)
    grid, where = np.unique(np.concatenate((ts_eval, nodes)),
                            return_inverse=True)
    at_eval = where[:len(ts_eval)]
    q, fresh = np.empty(len(grid)), np.ones(len(grid), dtype=bool)
    q[at_eval], fresh[at_eval] = q_eval, False
    q[fresh] = q_of_t(grid[fresh])
    cum = np.concatenate(([0.0], np.cumsum(np.abs(np.diff(q)))))
    return cum[at_eval]


def qslt_cells(phi0, q, tv, fixed=False):
    """(ratio, bound, defined) of the X-state QSLT at times t, from Q(t) and
    the total variation of Q on [0, t]; with ``fixed`` every t takes the
    last time's window.  ratio = Phi0 |1 - Q| / TV, defined where
    TV > 1e-14 (else Q stays 1 on the window: 0/0).  The running bound is
    Phi0, or 0 at a revival, |1 - Q| <= 1e-14; the fixed bound is
    Phi0 (1 - Q) / (1 - Q(t_last))."""
    with np.errstate(divide="ignore", invalid="ignore"):
        if fixed:
            tv = np.full_like(tv, tv[-1])
            bound = phi0 * (1.0 - q) / (1.0 - q[-1])
        else:
            bound = np.where(np.abs(1.0 - q) <= _FROZEN_TOL, 0.0, phi0)
        ratio = phi0 * np.abs(1.0 - q) / tv
    return ratio, bound, tv > _FROZEN_TOL


def _cell(inputs: QslInputs, t_eval, rel_tol=1e-9):
    """(ratio, bound) of :func:`qslt_cells` at ``t_eval`` on the window
    [0, t_eval], from the total variation of Q there."""
    if not 0.0 < t_eval <= inputs.tau_d * (1 + 1e-12):
        raise ValueError(f"t_eval must lie in (0, tau_d], got {t_eval}")
    q = float(np.asarray(inputs.q_of_t(t_eval)).item())
    ratio, bound, defined = qslt_cells(inputs.phi0, q, total_variation(
        inputs.q_of_t, t_eval, breakpoints=inputs.breakpoints,
        rel_tol=rel_tol, qdot_of_t=inputs.qdot_of_t))
    if not defined:
        raise FrozenDynamicsError("Q(t) = 1 on the whole window")
    return float(ratio), float(bound)


def qslt_ratio(inputs: QslInputs, t_eval, rel_tol=1e-9):
    """tau_QSL / tau_d = Phi0 |1 - Q(t_eval)| / int_0^tau_d |dQ/dt| dt,
    with tau_d = t_eval.

    Raises :class:`FrozenDynamicsError` when Q never leaves 1 on the
    window (zero total variation).
    """
    return _cell(inputs, t_eval, rel_tol)[0]


def qslt_upper_bound(inputs: QslInputs, t_eval):
    """Analytic bound Phi0 (1 - Q(t_eval)) / (1 - Q(tau_d)), tau_d = t_eval:
    Phi0 away from revivals and 0 at them.  Equals :func:`qslt_ratio`
    whenever Q is monotone on the window, and is frozen (raises
    :class:`FrozenDynamicsError`) exactly where the ratio is.
    """
    return _cell(inputs, t_eval)[1]


def qslt_general(rho0: TwoQubitState, q_of_t, qdot_of_t, tau_d,
                 breakpoints=(), rel_tol=1e-8):
    """General ML/MT open-system bound over the window [0, tau_d].

    tau_QSL = max{ 1/<sum_i sigma_i rho_i>, 1/<sqrt(sum_i sigma_i^2)> }
              * |f(tau_d) - 1| * tr(rho0^2)

    with sigma_i(t) the singular values of d(rho)/dt (descending), rho_i
    the eigenvalues of the initial state (descending), <.> the time
    average over the window, and f the relative purity.  For an X-state
    sigma_i is |a14| or |a23| times |dQ/dt|, so both averages are constants
    times <|dQ/dt|>, integrated to ``rel_tol`` by adaptive quadrature on
    panels split at the pulse instants and the extrema of Q.
    """
    _, a14, a23 = _coherences(rho0)
    m = rho0.matrix
    rho_eigs = np.sort(np.linalg.eigvalsh(m))[::-1]
    sigma_per_speed = np.sort([a14, a14, a23, a23])[::-1]

    nodes = _nodes(q_of_t, qdot_of_t, 0.0, float(tau_d), breakpoints, rel_tol)
    speed = adaptive_panel_quad(
        lambda t: np.abs(np.asarray(qdot_of_t(t), dtype=float)),
        0.0, float(tau_d), nodes[1:-1], rel_tol=rel_tol) / tau_d
    avg_ml = float(sigma_per_speed @ rho_eigs) * speed
    avg_mt = float(np.sqrt((sigma_per_speed ** 2).sum())) * speed
    if min(avg_ml, avg_mt) <= _FROZEN_TOL:
        raise FrozenDynamicsError("d(rho)/dt vanishes on the whole window")

    q_end = float(np.asarray(q_of_t(tau_d)).item())
    evolved = m.copy()
    for i, j in ((0, 3), (3, 0), (1, 2), (2, 1)):
        evolved[i, j] = evolved[i, j] * q_end
    f = relative_purity(rho0, TwoQubitState(evolved))
    return (1.0 / min(avg_ml, avg_mt)) * abs(f - 1.0) * purity(rho0)
