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

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .pulses import ControlledDecoherence, PulseSchedule, free_decoherence
from .spectral import SpectralParams, gamma0_derivative

_HERMITICITY_ATOL = 1e-10
_TRACE_ATOL = 1e-12
_PSD_FLOOR = -1e-10


@dataclass(frozen=True)
class TwoQubitState:
    """Validated 4x4 density matrix, basis |00>, |01>, |10>, |11>."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        if not np.allclose(m, m.conj().T, atol=_HERMITICITY_ATOL, rtol=0):
            raise ValueError("density matrix is not Hermitian")
        if abs(m.trace().real - 1.0) > _TRACE_ATOL or abs(m.trace().imag) > _TRACE_ATOL:
            raise ValueError(f"trace must be 1, got {m.trace()}")
        if np.linalg.eigvalsh(m).min() < _PSD_FLOOR:
            raise ValueError("density matrix is not positive semidefinite")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def is_x_state(self, atol=1e-12):
        off = self.matrix.copy()
        off[np.eye(4, dtype=bool)] = 0
        off[0, 3] = off[3, 0] = off[1, 2] = off[2, 1] = 0
        return bool(np.all(np.abs(off) <= atol))


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
        return {"Q00": (False, False), "Q10": (True, False),
                "Q01": (False, True), "Q11": (True, True)}[self.value]


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


def _exponents(tag: ProtocolTag, p: SpectralParams, schedule):
    """Each qubit's (Gamma, dGamma/dt) callables: the controlled exponent
    when the qubit is pulsed, the free Gamma0 otherwise.  The protocol
    rule lives here and nowhere else."""
    free = free_decoherence(p)

    def free_dot(t):
        return gamma0_derivative(p, t)

    pair = {False: (free, free_dot)}
    if any(tag.pulsed):
        controlled = ControlledDecoherence(free, schedule, free_dot)
        pair[True] = (controlled, controlled.derivative)
    return [pair[pulsed] for pulsed in tag.pulsed]


def q_columns(p: SpectralParams, schedule: PulseSchedule, t):
    """Q(t) for all four protocol tags, keyed by :class:`ProtocolTag`,
    from one evaluation of Gamma0 and one of the controlled Gamma.  Each
    column is exp(-(Gamma_1 + Gamma_2)), bit-identical to the ``q_of_t``
    of :func:`attenuation_functions` for the same tag."""
    (gc, _), (g0, _) = _exponents(ProtocolTag.Q10, p, schedule)
    gamma = {True: gc(t), False: g0(t)}
    return {tag: np.exp(-(gamma[tag.pulsed[0]] + gamma[tag.pulsed[1]]))
            for tag in ProtocolTag}


def q_factor(protocol: ControlProtocol, p: SpectralParams, t):
    """Q(t) = P1(t) P2(t), scalar or array."""
    return attenuation_functions(protocol, p)[0](t)


def attenuation_functions(protocol: ControlProtocol, p: SpectralParams):
    """(Q(t), dQ/dt) as a pair of vectorized callables.

    The schedule-dependent sums are precomputed once, so prefer this over
    repeated :func:`q_factor` calls when a root finder or integrator will
    evaluate the trajectory many times.  When both qubits share an
    exponent (Q00, Q11) it is evaluated once per call and doubled, which
    is bit-identical to adding it to itself.
    """
    (g1, d1), (g2, d2) = _exponents(protocol.tag, p, protocol.schedule)
    shared = g1 is g2

    def gamma(t):
        return 2.0 * g1(t) if shared else g1(t) + g2(t)

    def gamma_dot(t):
        return 2.0 * d1(t) if shared else d1(t) + d2(t)

    def q_of_t(t):
        return np.exp(-gamma(t))

    def qdot_of_t(t):
        return -gamma_dot(t) * np.exp(-gamma(t))

    return q_of_t, qdot_of_t


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
    if not np.allclose(m, m.conj().T, atol=_HERMITICITY_ATOL, rtol=0):
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
