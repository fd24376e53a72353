"""Exact dephasing evolution for one and two qubits, and the attenuation
factor Q(t) under the four control protocols.

Each qubit sees its own bath; pure dephasing leaves populations fixed and
multiplies coherences by exp(-Gamma(t)).  For two qubits the element-wise
rule is (basis order |00>, |01>, |10>, |11>): entries (1,2) and (2,4) pick
up P1 = exp(-Gamma_1), entries (1,3) and (3,4) pick up P2 = exp(-Gamma_2),
and the anti-diagonal entries (1,4), (2,3) pick up Q = P1 * P2.  A qubit's
exponent is the controlled Gamma when it receives pulses, the free Gamma0
otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pulses import ControlledDecoherence, PulseSchedule, free_decoherence
from .spectral import SpectralParams, gamma0_derivative, rate_scale

_HERMITICITY_ATOL = 1e-10
TRACE_ATOL = 1e-12  # |trace - 1| of a state, |sum d - 1| of an X-state
_PSD_FLOOR = -1e-10
_X_STATE_ATOL = 1e-12


def _is_hermitian(m):
    """|m - m^H| <= _HERMITICITY_ATOL entrywise; a NaN entry, or an inf
    that meets its conjugate (inf - inf), fails."""
    with np.errstate(invalid="ignore"):
        return np.abs(m - m.conj().T).max() <= _HERMITICITY_ATOL


@dataclass(frozen=True)
class TwoQubitState:
    """Validated 4x4 density matrix, basis |00>, |01>, |10>, |11>."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not _is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        if abs(m.trace().real - 1.0) > TRACE_ATOL or abs(m.trace().imag) > TRACE_ATOL:
            raise ValueError(f"trace must be 1, got {m.trace()}")
        if np.linalg.eigvalsh(m).min() < _PSD_FLOOR:
            raise ValueError("density matrix is not positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def is_x_state(self):
        off = self.matrix.copy()
        off[np.eye(4, dtype=bool)] = 0
        off[0, 3] = off[3, 0] = off[1, 2] = off[2, 1] = 0
        return bool(np.all(np.abs(off) <= _X_STATE_ATOL))


def singlet() -> TwoQubitState:
    """(|01> - |10>)/sqrt(2) as a density matrix."""
    psi = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return TwoQubitState(np.outer(psi, psi.conj()))


def bell_phi_plus() -> TwoQubitState:
    """(|00> + |11>)/sqrt(2) as a density matrix."""
    psi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    return TwoQubitState(np.outer(psi, psi.conj()))


class ProtocolTag(Enum):
    """Which qubits receive the pulse train."""

    Q00 = "Q00"
    Q10 = "Q10"
    Q01 = "Q01"
    Q11 = "Q11"

    @property
    def pulsed(self):
        return self.value[1] == "1", self.value[2] == "1"


@dataclass(frozen=True)
class ControlProtocol:
    """Protocol tag plus the schedule shared by every pulsed qubit."""

    tag: ProtocolTag
    schedule: PulseSchedule | None = None

    def __post_init__(self):
        if self.tag is not ProtocolTag.Q00 and self.schedule is None:
            raise ValueError(f"protocol {self.tag.value} requires a schedule")


@dataclass(frozen=True)
class Attenuation:
    """Per-qubit coherence factors P1, P2 and their product Q."""

    p1: float
    p2: float

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not 0.0 < p <= 1.0 + 1e-12:
                raise ValueError(f"{name} must lie in (0, 1], got {p}")

    @property
    def q(self):
        return self.p1 * self.p2


class Dephasing:
    """Free and controlled exponents of one (bath, schedule) pair.

    The controlled Gamma's schedule sums are set up at most once per
    instance (on first use), so a trace or a sweep point builds one and
    shares it between its Q columns, its trajectory and its extrema
    search.  The protocol rule lives in :meth:`pulsed` and
    :meth:`exponent_sum`, and for rates in :class:`SignRate`'s scale.
    """

    def __init__(self, p: SpectralParams, schedule: PulseSchedule | None):
        self.free = free_decoherence(p)
        self.schedule = schedule
        self.rate_exponent, prefactor = rate_scale(p)

        def free_dot(t):  # dGamma0/dt / 2^k: sums over 10^6 pulses are finite
            return gamma0_derivative(p, t, prefactor)
        self.free_dot = free_dot

    @functools.cached_property
    def controlled(self):
        """The controlled Gamma, or None for an empty schedule."""
        if not self.pulsed(ProtocolTag.Q11):
            return None
        return ControlledDecoherence(self.free, self.schedule, self.free_dot)

    def pulsed(self, tag: ProtocolTag):
        """How many qubits of ``tag`` take the controlled exponent: its
        pulsed qubits, or 0 for an empty schedule."""
        if self.schedule is None or not self.schedule.n_pulses:
            return 0
        return tag.pulsed.count(True)

    def exponent_sum(self, tag: ProtocolTag, free, controlled):
        """Gamma_1 + Gamma_2 of ``tag`` from the values of the free and the
        controlled exponent: 2 free, free + controlled or 2 controlled for
        0, 1 or 2 :meth:`pulsed` qubits; the value it does not read may be
        None."""
        pulsed = self.pulsed(tag)
        if pulsed == 1:
            return free + controlled
        return 2.0 * (controlled if pulsed else free)

    def q_columns(self, t, x=None):
        """Q(t) for all four protocol tags, keyed by :class:`ProtocolTag`,
        from one evaluation of Gamma0 and one of the controlled Gamma.

        Without ``x`` each column is bit-identical to the ``q_of_t`` of
        :meth:`functions`; with ``x``, ``t`` holds one row per segment
        sampled at the fractions ``x``, and the controlled Gamma of the
        pulse train's segments comes from one table
        (:meth:`ControlledDecoherence.on_segments`).

        Raises FloatingPointError where an exponent is not finite (it
        overflows, or meets inf - inf or 0 * inf) or below -1e-12, a Q > 1
        that only rounding makes (Gamma0's cancellation as s -> 0).  Q = 0
        from underflow is a value."""
        with np.errstate(over="ignore", invalid="ignore"):
            free = self.free(t)
            controlled = (None if self.controlled is None
                          else self.controlled(t) if x is None
                          else self.controlled.on_segments(
                              t, x, t[:, 0], t[:, -1]))
            gammas = {tag: self.exponent_sum(tag, free, controlled)
                      for tag in ProtocolTag}
        for tag, gamma in gammas.items():
            bad = ~(np.isfinite(gamma) & (gamma >= -1e-12))
            if bad.any():
                g = np.asarray(gamma)[bad][0]
                raise FloatingPointError(
                    f"the decoherence exponent of {tag.value} is "
                    f"{'negative (Q > 1)' if np.isfinite(g) else 'not finite'}"
                    f" at t = {np.asarray(t)[bad][0]:.9g}")
        return {tag: np.exp(-gamma) for tag, gamma in gammas.items()}

    def functions(self, tag: ProtocolTag):
        """(Q(t), dQ/dt) as a pair of vectorized callables; dQ/dt is
        :class:`SignRate` times Q times 2^``rate_exponent`` and carries the
        rate as ``sign_rate``."""
        pulsed, rate = self.pulsed(tag), SignRate(self, tag)

        def q_of_t(t):
            free = self.free(t) if pulsed < 2 else None
            controlled = self.controlled(t) if pulsed else None
            with np.errstate(over="ignore"):  # Q = 0 where 2 Gamma overflows
                return np.exp(-self.exponent_sum(tag, free, controlled))

        def qdot_of_t(t):
            return np.ldexp(rate(t) * q_of_t(t), self.rate_exponent)

        qdot_of_t.sign_rate = rate
        return q_of_t, qdot_of_t


class SignRate:
    """-(dGamma_1/dt + dGamma_2/dt) = (dQ/dt) / Q: a positive multiple of
    dQ/dt with its zeros, all the extrema finder needs, at no Gamma and no
    exp per probe.  It is a scale times one rate: -2 Gamma0', -(Gamma' +
    Gamma0') or -2 Gamma' for 0, 1 or 2 :meth:`Dephasing.pulsed` qubits,
    where one pulsed qubit takes both rates from one evaluation of Gamma0'
    (:meth:`ControlledDecoherence.derivative` with ``plus_base``).  A call
    takes the exact route; ``scan`` reads the equidistant train's segments
    off the rate table of :meth:`ControlledDecoherence.on_segments`.
    ``nodes``: the nodes of each window searched on this rate, filled by
    ``qsl._nodes``; each :meth:`Dephasing.functions` call makes a new rate.
    """

    def __init__(self, dephasing: Dephasing, tag: ProtocolTag):
        pulsed = dephasing.pulsed(tag)
        self._scale = -1.0 if pulsed == 1 else -2.0
        self._plus_base = pulsed == 1
        self._gamma = dephasing.controlled if pulsed else None
        self._free_dot = dephasing.free_dot
        self.nodes = {}

    def __call__(self, t):
        if self._gamma is None:
            return self._scale * self._free_dot(t)
        return self._scale * self._gamma.derivative(t, self._plus_base)

    def scan(self, ts, x, a, b):
        """Rates at ``ts``, whose row k samples segment (a[k], b[k]) at
        t ~ a[k] + x (b[k] - a[k]) for the fractions ``x`` (ends nudged
        inward)."""
        if self._gamma is None:
            return self(ts)
        return self._scale * self._gamma.on_segments(
            ts, x, a, b, rate=True, plus_base=self._plus_base)


def q_factor(protocol: ControlProtocol, p: SpectralParams, t):
    """Q(t) = P1(t) P2(t), scalar or array."""
    return attenuation_functions(protocol, p)[0](t)


def attenuation_functions(protocol: ControlProtocol, p: SpectralParams):
    """(Q(t), dQ/dt) as a pair of vectorized callables.

    The schedule-dependent sums are precomputed once, so prefer this over
    repeated :func:`q_factor` calls when a root finder or integrator will
    evaluate the trajectory many times.
    """
    return Dephasing(p, protocol.schedule).functions(protocol.tag)


def dephasing_kraus(gamma_factor: float):
    """Kraus pair E1 = sqrt((1+g)/2) I, E2 = sqrt((1-g)/2) sigma_z for the
    single-qubit channel with coherence factor g = exp(-Gamma)."""
    if not 0.0 <= gamma_factor <= 1.0:
        raise ValueError("coherence factor must lie in [0, 1]")
    e1 = np.sqrt((1.0 + gamma_factor) / 2.0) * np.eye(2)
    e2 = np.sqrt((1.0 - gamma_factor) / 2.0) * np.diag([1.0, -1.0])
    return e1, e2


def single_qubit_evolve(rho0: np.ndarray, gamma: float) -> np.ndarray:
    """Apply the dephasing channel with exponent Gamma to a 2x2 state.

    Diagonal untouched, off-diagonal scaled by exp(-Gamma); identical to
    the Kraus-sum construction (checked by the test suite).
    """
    m = np.asarray(rho0, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError("expected a 2x2 density matrix")
    if not _is_hermitian(m):
        raise ValueError("density matrix is not Hermitian")
    if abs(m.trace() - 1.0) > 1e-10:
        raise ValueError("trace must be 1")
    if np.linalg.eigvalsh(m).min() < _PSD_FLOOR:
        raise ValueError("density matrix is not positive semidefinite")
    if gamma < 0:
        raise ValueError("decoherence exponent must be nonnegative")
    g = np.exp(-gamma)
    out = m.copy()
    out[0, 1] *= g
    out[1, 0] *= g
    return out


def _scale_matrix(p1: float, p2: float) -> np.ndarray:
    s = np.ones((4, 4))
    for i, j in ((0, 1), (1, 3)):
        s[i, j] = s[j, i] = p1
    for i, j in ((0, 2), (2, 3)):
        s[i, j] = s[j, i] = p2
    for i, j in ((0, 3), (1, 2)):
        s[i, j] = s[j, i] = p1 * p2
    return s


def two_qubit_evolve(rho0: TwoQubitState, att: Attenuation) -> TwoQubitState:
    """Element-wise two-qubit dephasing map for independent baths."""
    return TwoQubitState(rho0.matrix * _scale_matrix(att.p1, att.p2))
