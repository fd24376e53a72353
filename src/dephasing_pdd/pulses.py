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
train).  Each time point then costs O(N) terms on the exact route, summed
in blocks of whole points of at most ``_BLOCK_TERMS`` = 2**16 (point,
pulse) terms.  On the equidistant train one table of Gamma0 or Gamma0'
over the pulse lattice serves whole segments sampled at common fractions
(:meth:`ControlledDecoherence.on_segments`).  The oracles are the exact
per-point route for the table and the bath integral of the pulse-train
filter (:func:`controlled_gamma_quadrature`): one phase recurrence over
the pulses, one exponential per frequency node on the train.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralParams, bath_integral, gamma0_analytic

_BLOCK_TERMS = 2 ** 16  # exact route: (point, pulse) terms held at once


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

    @property
    def spacing(self):
        """delta if the instants are tau_j = j delta bit for bit, else None."""
        taus = np.fromiter(self.instants, float, len(self.instants))
        on_train = (taus == taus[:1] * np.arange(1, taus.size + 1)).all()
        return float(taus[0]) if taus.size and on_train else None


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
        # on the train the instants are delta * j bit for bit
        self._spacing = delta = schedule.spacing
        n = schedule.n_pulses
        self._taus = taus = (np.asarray(schedule.instants, dtype=float)
                             if delta is None else delta * np.arange(1, n + 1))
        # (-1)^n leads Gamma_n; the term of the j-th pulse (j from 0) carries
        # 2 (-1)^(j+1+n), read at j + n < 2N
        self._lead = np.ones(n + 1)
        self._lead[1::2] = -1.0
        self._pair_sign = np.full(2 * n, -2.0)
        self._pair_sign[1::2] = 2.0
        # S_j - S_(j-1) = 2 D(tau_j), D the dynamic part of Gamma_(j-1),
        # by continuity at tau_j; on the train D(tau_j) = A_j + A_(j-1),
        # A_j = sum_(m<=j) (-1)^(m+1) Gamma0(tau_m)
        if delta is not None:
            dynamic = (-self._lead[1:] * base(taus)).cumsum()
            dynamic[1:] += dynamic[:-1]
        else:
            dynamic = self._evaluate(base, taus, self._lead, False)
        self._static = np.concatenate(([0.0], (2.0 * dynamic).cumsum()))

    def _evaluate(self, fn, t, lead, include_static):
        """lead[n] fn(t) + 2 sum_(j<n) (-1)^(j+1+n) fn(t - tau_j), plus S_n
        with ``include_static``, n the pulses before t."""
        tt = np.asarray(t, dtype=float)
        if (tt < 0).any():
            raise ValueError("t must be nonnegative")
        # n pulses strictly before t; t == tau_j stays on the left
        # branch, which Gamma_n continuity makes equivalent
        flat = tt.ravel()
        n = np.searchsorted(self._taus, flat, side="left")
        out = np.empty(flat.size)
        # one fn call per block of whole points keeps memory flat
        rows = max(1, _BLOCK_TERMS // (len(self._taus) + 1))
        for lo in range(0, flat.size, rows):
            tb, nb = flat[lo:lo + rows], n[lo:lo + rows]
            # point-major (point i, pulse j < n_i) pairs
            i = np.repeat(np.arange(nb.size), nb)
            j = np.arange(i.size) - (np.cumsum(nb) - nb)[i]
            vals = fn(np.concatenate((tb, tb[i] - self._taus[j])))
            block = lead[nb] * vals[:tb.size]
            if include_static:
                block = block + self._static[nb]
            # terms 2 (-1)^(j+1+n) fn(t - tau_j), added in pulse order
            np.add.at(block, i, self._pair_sign[j + nb[i]] * vals[tb.size:])
            out[lo:lo + rows] = block
        return float(out[0]) if tt.ndim == 0 else out.reshape(tt.shape)

    def __call__(self, t):
        return self._evaluate(self.base, t, self._lead, True)

    def derivative(self, t, plus_base=False):
        """dGamma/dt between pulses (the schedule-only sums are constant).
        With ``plus_base``, dGamma/dt + dGamma0/dt, the rates of a pulsed
        and a free qubit together, with Gamma0' evaluated once per point:
        it leads with the coefficient (-1)^n + 1."""
        if self.base_derivative is None:
            raise ValueError("no base derivative supplied")
        return self._evaluate(self.base_derivative, t,
                              self._lead + 1.0 if plus_base else self._lead,
                              False)

    def on_segments(self, ts, x, a, b, rate=False, plus_base=False):
        """Gamma, or with ``rate`` dGamma/dt (plus dGamma0/dt with
        ``plus_base``), at ``ts``, whose row k samples segment (a[k], b[k])
        at the fractions ``x``.

        Rows that are the equidistant train's segments [tau_n, tau_(n+1)],
        n < N (tau_0 = 0), read off the layout, never off sample times,
        come from one table at t = tau_n + x delta: with u = x delta,
        Gamma_n(tau_n + u) = (-1)^n Gamma0(u + n delta) + 2 sum_(k<n)
        (-1)^k Gamma0(u + k delta) + S_n, so one table of Gamma0 (or
        Gamma0') at u + k delta and its alternating cumulative sum serve
        every segment at O(N) terms per fraction.  Every other row takes
        the exact route at its ``ts``.
        """
        out = np.empty(ts.shape)
        exact = np.ones(len(out), dtype=bool)
        delta = self._spacing
        if delta is not None:
            taus = np.concatenate(([0.0], self._taus))
            a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
            n = np.minimum(np.searchsorted(taus, a), len(taus) - 2)
            rows = np.flatnonzero((taus[n] == a) & (taus[n + 1] == b))
            n = n[rows]
            k = np.arange(n.max() + 1 if n.size else 0)
            fn = self.base_derivative if rate else self.base
            table = fn(np.asarray(x, dtype=float)[:, None] * delta + delta * k)
            alt = np.where(k % 2, -table, table)
            prefix = np.zeros_like(table)
            np.cumsum(2.0 * alt[:, :-1], axis=1, out=prefix[:, 1:])
            values = (alt + prefix)[:, n].T
            if not rate:
                values += self._static[n][:, None]
            if plus_base:
                values += table[:, n].T
            out[rows], exact[rows] = values, False
        if exact.any():
            out[exact] = (self.derivative(ts[exact], plus_base) if rate
                          else self(ts[exact]))
        return out


def controlled_gamma_quadrature(p: SpectralParams, schedule: PulseSchedule,
                                t, tol=1e-9):
    """Gamma(t) via the filter-function integral (independent oracle).

    Evaluates

        Gamma(t) = int_0^inf  J(w) / (2 w^2) * |f_n(w, t)|^2 dw,
        f_n(w,t) = 1 + (-1)^(n+1) e^(iwt) + 2 sum_{j<=n} (-1)^j e^(iw tau_j),

    with n the number of pulses before t: the bath integral of the weight
    |f_n|^2 / 2, at most W = 2 (n + 1)^2 as |f_n| <= 2n + 2.  Its pulse sum
    p_0 = 2, p_j = -p_(j-1) e^(iw (tau_j - tau_(j-1))), f_n += p_j takes one
    exponential per run of equal gaps: two per node on the train.
    """
    t = float(t)
    taus = [x for x in schedule.instants if x < t]
    delta = schedule.spacing  # a prefix of the train is a train
    gaps = p.omega_c * (np.full(len(taus), delta) if delta is not None
                        else np.diff(taus, prepend=0.0))

    def weight(x):
        f = 1.0 + (-1.0) ** (len(taus) + 1) * np.exp(1j * p.omega_c * t * x)
        phase = np.full(x.shape, 2.0 + 0j)
        for gap, run in itertools.groupby(gaps):  # one step per equal run
            step = -np.exp(1j * gap * x)
            for _ in run:
                phase *= step
                f += phase
        return 0.5 * np.abs(f) ** 2

    return bath_integral(p, t, weight, 2.0 * (len(taus) + 1) ** 2, tol)


def free_decoherence(p: SpectralParams):
    """Gamma0 for the given bath as a vectorized callable of time."""
    def base(t):
        return gamma0_analytic(p, t)
    return base
