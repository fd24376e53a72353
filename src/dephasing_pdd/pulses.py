"""Bang-bang pulse schedules and the controlled decoherence exponent.

Ideal instantaneous pi pulses at instants 0 < tau_1 < ... < tau_N < tau_f
turn the free exponent Gamma0(t) into a piecewise expression: between the
n-th and (n+1)-th pulse,

    Gamma_n(t) = (-1)^n Gamma0(t)
               + 2 sum_{j<=n} (-1)^(j+n) Gamma0(t - tau_j)
               + 2 sum_{j<=n} (-1)^(j+1) Gamma0(tau_j)
               + 4 sum_{j<=n} sum_{k<j} (-1)^(j+k+1) Gamma0(tau_j - tau_k),

    Gamma(t) = Gamma0(t) for t <= tau_1, Gamma_N(t) beyond the last pulse.

The last two sums depend only on the schedule, so they are evaluated once
per (schedule, bath) pair; each time point then costs O(N) terms, which
reach Gamma0 in array calls of a few thousand terms, not a Python loop
over the pulses.  The oracle in the tests is the bath integral
(:func:`.spectral.bath_integral`) of the pulse-train filter function.

The extrema search needs dGamma/dt only where it samples whole inter-pulse
segments at common offsets.  On the equidistant train every segment has
the same width, so one table of Gamma0' over the pulse lattice serves all
of them at O(N) terms per offset
(:meth:`ControlledDecoherence.train_derivative`); the exact per-point
route is its fallback and oracle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralParams, bath_integral, gamma0_analytic

_BLOCK_TERMS = 4096
_PHASE_ENTRIES = 2 ** 20  # complex pulse phases held at once in the oracle


@dataclass(frozen=True)
class PulseSchedule:
    """Ordered pi-pulse instants within (0, tau_f), times in units 1/w_c.

    Immutable after construction; an empty schedule means free decay.
    """

    instants: tuple = ()
    tau_f: float = 10.0

    def __post_init__(self):
        object.__setattr__(self, "instants", tuple(float(x) for x in self.instants))
        if not self.tau_f > 0:
            raise ValueError(f"tau_f must be positive, got {self.tau_f}")
        taus = self.instants
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("pulse instants must be strictly increasing")
        if taus and not (0.0 < taus[0] and taus[-1] < self.tau_f):
            raise ValueError("pulse instants must lie strictly inside (0, tau_f)")

    @property
    def n_pulses(self):
        return len(self.instants)


def pdd_schedule(n_pulses: int, tau_f: float) -> PulseSchedule:
    """Equally spaced train: tau_n = n * tau_f / (N + 1), n = 1..N."""
    if n_pulses < 0:
        raise ValueError("n_pulses must be nonnegative")
    step = tau_f / (n_pulses + 1)
    return PulseSchedule(tuple(step * n for n in range(1, n_pulses + 1)), tau_f)


class ControlledDecoherence:
    """Gamma(t) evaluator for one (free exponent, schedule) pair.

    ``base`` is the free exponent Gamma0 as a vectorized callable of time.
    The schedule-only partial sums are computed at construction; the
    train spacing behind :meth:`train_derivative` is cached on first use,
    so the instance is not read-only (racing threads compute one value).
    """

    def __init__(self, base, schedule: PulseSchedule, base_derivative=None):
        self.base = base
        self.schedule = schedule
        self.base_derivative = base_derivative
        self._taus = taus = np.asarray(schedule.instants, dtype=float)

        n = len(taus)
        static = np.zeros(n + 1)
        g_tau = base(taus) if n else np.zeros(0)
        for j in range(1, n + 1):
            signs = (-1.0) ** (j + np.arange(1, j) + 1)
            inner = 4.0 * float(np.dot(signs, base(taus[j - 1] - taus[: j - 1])))
            static[j] = static[j - 1] + 2.0 * (-1.0) ** (j + 1) * g_tau[j - 1] + inner
        self._static = static

    @functools.cached_property
    def _train_spacing(self):
        """delta when the instants are pdd_schedule's equidistant train
        tau_j = j delta bit for bit, else None; checked on first use."""
        taus = self._taus
        if len(taus) and np.array_equal(
                taus, taus[0] * np.arange(1, len(taus) + 1)):
            return float(taus[0])
        return None

    def _evaluate(self, fn, t, include_static):
        tt = np.asarray(t, dtype=float)
        if np.any(tt < 0):
            raise ValueError("t must be nonnegative")
        # n pulses strictly before t; t == tau_j stays on the left
        # branch, which Gamma_n continuity makes equivalent
        n = np.searchsorted(self._taus, tt.ravel(), side="left")
        # one fn call per block of ~_BLOCK_TERMS terms keeps memory flat
        pieces = [(tt.ravel(), n)]
        if n.sum() + n.size > _BLOCK_TERMS:
            cuts = np.searchsorted(np.cumsum(n + 1), np.arange(
                _BLOCK_TERMS, n.sum() + n.size, _BLOCK_TERMS))
            pieces = zip(np.split(tt.ravel(), cuts), np.split(n, cuts))
        blocks = []
        for tb, nb in pieces:
            # point-major (point i, pulse j < n_i) pairs
            i = np.repeat(np.arange(nb.size), nb)
            j = np.arange(i.size) - (np.cumsum(nb) - nb)[i]
            vals = fn(np.concatenate((tb, tb[i] - self._taus[j])))
            block = np.where(nb % 2, -1.0, 1.0) * vals[:tb.size]
            if include_static:
                block = block + self._static[nb]
            # terms 2 (-1)^(j+1+n) fn(t - tau_j), added in pulse order
            np.add.at(block, i, np.where((j + nb[i]) % 2, 2.0, -2.0)
                      * vals[tb.size:])
            blocks.append(block)
        out = np.concatenate(blocks)
        return float(out[0]) if tt.ndim == 0 else out.reshape(tt.shape)

    def __call__(self, t):
        return self._evaluate(self.base, t, include_static=True)

    def derivative(self, t):
        """dGamma/dt between pulses (the schedule-only sums are constant)."""
        if self.base_derivative is None:
            raise ValueError("no base derivative supplied")
        return self._evaluate(self.base_derivative, t, include_static=False)

    def train_derivative(self, x, a, b):
        """(rows, dGamma/dt, dGamma0/dt) on whole segments of the
        equidistant train tau_j = j delta from one table.

        ``rows`` indexes the segments (a[r], b[r]) that are train segments
        [tau_n, tau_{n+1}], n < N (tau_0 = 0), read off the layout, never
        off sample times; it is empty when the instants are not j delta,
        so any other schedule stays on :meth:`derivative`.  Row i of each
        rate holds its one-sided values inside segment rows[i] at
        t = tau_n + x delta, for fractions x in [0, 1].  With u = x delta,
        k = n - j,

            dGamma_n/dt = (-1)^n Gamma0'(u + n delta)
                          + 2 sum_{k<n} (-1)^k Gamma0'(u + k delta),

        so one table Gamma0'(u + k delta) and its alternating cumulative
        sum serve every segment at O(N) terms per offset, where
        :meth:`derivative`, the oracle, takes O(N) per point.
        """
        delta = self._train_spacing
        if delta is None:
            empty = np.zeros((0, len(x)))
            return np.zeros(0, dtype=int), empty, empty
        taus = np.concatenate(([0.0], self._taus))
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        n = np.minimum(np.searchsorted(taus, a), len(taus) - 2)
        rows = np.flatnonzero((taus[n] == a) & (taus[n + 1] == b))
        n = n[rows]
        k = np.arange(n.max() + 1 if n.size else 0)
        table = self.base_derivative(
            np.asarray(x, dtype=float)[:, None] * delta + delta * k)
        alt = np.where(k % 2, -table, table)
        prefix = np.zeros_like(table)
        np.cumsum(2.0 * alt[:, :-1], axis=1, out=prefix[:, 1:])
        dgamma0 = table[:, n].T
        dgamma = np.where(n % 2, -1.0, 1.0)[:, None] * dgamma0 + prefix[:, n].T
        return rows, dgamma, dgamma0


def controlled_gamma_quadrature(p: SpectralParams, schedule: PulseSchedule,
                                t, tol=1e-9):
    """Gamma(t) via the filter-function integral (independent oracle).

    Evaluates

        Gamma(t) = int_0^inf  J(w) / (2 w^2) * |f_n(w, t)|^2 dw,
        f_n(w,t) = 1 + (-1)^(n+1) e^(iwt) + 2 sum_{j<=n} (-1)^j e^(iw tau_j),

    with n the number of pulses before t: the bath integral of the weight
    |f_n|^2 / 2, as in the free-exponent oracle.
    """
    t = float(t)
    taus = np.asarray([x for x in schedule.instants if x < t], dtype=float)
    n = len(taus)
    u = p.omega_c * t
    v = p.omega_c * taus
    sign_t = (-1.0) ** (n + 1)
    signs_j = (-1.0) ** np.arange(1, n + 1)

    # points per block: at most _PHASE_ENTRIES (point, pulse) phases
    rows = max(1, _PHASE_ENTRIES // max(n, 1))

    def weight(x):
        f = 1.0 + sign_t * np.exp(1j * u * x)
        if n:
            for lo in range(0, len(x), rows):
                phases = 1j * np.outer(x[lo:lo + rows], v)
                np.exp(phases, out=phases)
                phases *= signs_j
                f[lo:lo + rows] += 2.0 * phases.sum(axis=1)
        return 0.5 * np.abs(f) ** 2

    return bath_integral(p, t, weight, tol)


def free_decoherence(p: SpectralParams):
    """Gamma0 for the given bath as a vectorized callable of time."""
    def base(t):
        return gamma0_analytic(p, t)
    return base
