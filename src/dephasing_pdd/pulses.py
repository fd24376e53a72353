"""Bang-bang pulse schedules and the controlled decoherence exponent.

Ideal instantaneous pi pulses at instants 0 < tau_1 < ... < tau_N < tau_f
turn the free exponent Gamma0(t) into a piecewise expression: between the
n-th and (n+1)-th pulse,

    Gamma_n(t) = (-1)^n Gamma0(t)
               + 2 sum_{j<=n} (-1)^(j+n) Gamma0(t - tau_j)
               + 2 sum_{j<=n} (-1)^(j+1) Gamma0(tau_j)
               + 4 sum_{j<=n} sum_{k<j} (-1)^(j+k+1) Gamma0(tau_j - tau_k),

    Gamma(t) = Gamma0(t) for t <= tau_1, Gamma_N(t) beyond the last pulse.

The last two sums, S_n, depend only on the schedule and are set up once,
by continuity at each pulse (an O(N) lattice sum on the equidistant
train).  Each time point then costs O(N) terms, in array calls of a few
thousand terms.  On the equidistant train one table of Gamma0 or Gamma0'
over the pulse lattice serves whole segments sampled at common fractions
(:meth:`ControlledDecoherence.train_table`).  The oracles are the exact
per-point route for the table and, in the tests, the bath integral
(:func:`.spectral.bath_integral`) of the pulse-train filter function.
"""

from __future__ import annotations

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

    ``base`` is the free exponent Gamma0 as a vectorized callable of time;
    the schedule-only sums S_n are set up at construction.
    """

    def __init__(self, base, schedule: PulseSchedule, base_derivative=None):
        self.base = base
        self.schedule = schedule
        self.base_derivative = base_derivative
        self._taus = taus = np.asarray(schedule.instants, dtype=float)
        n = len(taus)
        # delta if the instants are tau_j = j delta bit for bit
        self._spacing = (float(taus[0]) if n and (
            taus == taus[0] * np.arange(1, n + 1)).all() else None)
        # S_j - S_(j-1) = 2 D(tau_j), D the dynamic part of Gamma_(j-1),
        # by continuity at tau_j; on the train D(tau_j) = A_j + A_(j-1),
        # A_j = sum_(m<=j) (-1)^(m+1) Gamma0(tau_m)
        if self._spacing is not None:
            dynamic = np.array(base(taus), dtype=float)
            dynamic[1::2] *= -1.0
            dynamic = dynamic.cumsum()
            dynamic[1:] += dynamic[:-1]
        else:
            dynamic = (self._evaluate(base, taus, include_static=False)
                       if n else taus)
        self._static = np.concatenate(([0.0], (2.0 * dynamic).cumsum()))

    def _evaluate(self, fn, t, include_static):
        tt = np.asarray(t, dtype=float)
        if (tt < 0).any():
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

    def train_table(self, fn, x, a, b, include_static):
        """(rows, values, fn values) on whole segments of the equidistant
        train tau_j = j delta from one table: Gamma for ``fn`` = Gamma0
        with ``include_static``, dGamma/dt for Gamma0' without.

        ``rows`` indexes the segments (a[r], b[r]) that are [tau_n,
        tau_(n+1)], n < N (tau_0 = 0), read off the layout, never off
        sample times; it is empty off the train.  Row i holds one-sided
        values inside segment rows[i] at t = tau_n + x delta; with
        u = x delta, Gamma_n(tau_n + u) = (-1)^n Gamma0(u + n delta)
        + 2 sum_(k<n) (-1)^k Gamma0(u + k delta) + S_n, so one table
        fn(u + k delta) and its alternating cumulative sum serve every
        segment at O(N) terms per fraction.
        """
        delta = self._spacing
        if delta is None:
            empty = np.zeros((0, len(x)))
            return np.zeros(0, dtype=int), empty, empty
        taus = np.concatenate(([0.0], self._taus))
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        n = np.minimum(np.searchsorted(taus, a), len(taus) - 2)
        rows = np.flatnonzero((taus[n] == a) & (taus[n + 1] == b))
        n = n[rows]
        k = np.arange(n.max() + 1 if n.size else 0)
        table = fn(np.asarray(x, dtype=float)[:, None] * delta + delta * k)
        alt = np.where(k % 2, -table, table)
        prefix = np.zeros_like(table)
        np.cumsum(2.0 * alt[:, :-1], axis=1, out=prefix[:, 1:])
        values = (alt + prefix)[:, n].T
        if include_static:
            values += self._static[n][:, None]
        return rows, values, table[:, n].T

    def on_grid(self, t, x):
        """Gamma at ``t``, where t[k p + m] samples segment k at the
        fractions x[m], p = len(x) - 1, segments end to end as on a trace
        grid: the train's segments (but t = 0) from :meth:`train_table`,
        every other point from the exact route."""
        p = len(x) - 1
        ends = t[:(len(t) - 1) // p * p + 1:p]
        rows, values, _ = self.train_table(self.base, x[1:], ends[:-1],
                                           ends[1:], include_static=True)
        at = (rows * p)[:, None] + np.arange(1, p + 1)
        exact = np.ones(len(t), dtype=bool)
        exact[at] = False
        out = np.empty(len(t))
        out[at], out[exact] = values, self(t[exact])
        return out


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
