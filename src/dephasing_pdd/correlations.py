"""Quantum correlation measures along dephasing trajectories.

For X-shaped initial states the anti-diagonal coherences are the only
entries touched by the two-qubit dephasing map, so concurrence, consonance
and (for the singlet) discord reduce to closed forms in the attenuation
factor Q(t).  A full Wootters eigenvalue computation is kept alongside as
the independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import TRACE_ATOL, TwoQubitState

_BLOCK_RTOL = 1e-12  # relative, so zero populations need zero coherence
_SY = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(_SY, _SY)


@dataclass(frozen=True)
class XStateSummary:
    """Initial X-state data plus the current attenuation Q(t), a float or
    an array of values along a trajectory.

    ``d`` are the four diagonals, ``a14``/``a23`` the initial anti-diagonal
    coherences.  Construction enforces the one X-state rule the closed
    forms need: every d >= 0, |sum d - 1| <= ``TRACE_ATOL`` and
    |a14|^2 <= d1 d4 (1 + 1e-12), |a23|^2 <= d2 d3 (1 + 1e-12); NaN fails.
    """

    d: tuple
    a14: complex
    a23: complex
    q: float = 1.0

    def __post_init__(self):
        d = tuple(float(x) for x in self.d)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "a14", complex(self.a14))
        object.__setattr__(self, "a23", complex(self.a23))
        if len(d) != 4 or not all(x >= 0.0 for x in d):
            raise ValueError("diagonals must be four nonnegative numbers")
        if not abs(sum(d) - 1.0) <= TRACE_ATOL:
            raise ValueError(f"diagonals must sum to 1, got {sum(d)}")
        for name, a, block in (("rho14", self.a14, d[0] * d[3]),
                               ("rho23", self.a23, d[1] * d[2])):
            if not abs(a) ** 2 <= block * (1.0 + _BLOCK_RTOL):
                raise ValueError(f"|{name}| violates block positivity: "
                                 f"|{name}|^2 = {abs(a) ** 2} > {block}")

    @classmethod
    def from_state(cls, state: TwoQubitState, q: float = 1.0):
        if not state.is_x_state():
            raise ValueError("state is not X-shaped")
        m = state.matrix
        return cls(tuple(m.diagonal().real), m[0, 3], m[1, 2], q)


def concurrence_x(x: XStateSummary):
    """Closed-form concurrence of the evolved X-state:

        C_t = 2 max{0, |rho14(0)| |Q| - sqrt(rho22 rho33),
                       |rho23(0)| |Q| - sqrt(rho11 rho44)}.

    Agrees with the Wootters eigenvalue computation on every X-state.  For
    states whose competing square-root terms vanish (Bell states, the
    singlet) this reduces to C_0 |Q|.  Elementwise when ``x.q`` is an
    array of attenuations.
    """
    return 2.0 * np.maximum(0.0, np.maximum(
        abs(x.a14) * np.abs(x.q) - np.sqrt(x.d[1] * x.d[2]),
        abs(x.a23) * np.abs(x.q) - np.sqrt(x.d[0] * x.d[3])))


def concurrence_wootters(rho: TwoQubitState) -> float:
    """Wootters concurrence from the eigenvalues of rho (sy x sy) rho* (sy x sy)."""
    m = rho.matrix
    r = m @ _YY @ m.conj() @ _YY
    lam = np.linalg.eigvals(r)
    # tiny negative/imaginary parts are eigen-solver noise on a PSD spectrum
    lam = np.sqrt(np.abs(np.sort(lam.real)[::-1]))
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def consonance(x: XStateSummary) -> float:
    """Quantum consonance QC_t = 2 Re(rho14(0) + rho23(0)) * Q(t), signed."""
    return 2.0 * (x.a14 + x.a23).real * x.q


def discord_singlet(q):
    """Quantum discord of the dephased singlet: 1 - H2((1 + |Q|)/2).

    H2 is the binary entropy in base 2, so the fresh singlet has discord
    exactly 1.  Valid only when the initial state is the singlet.
    Elementwise when ``q`` is an array of attenuations.
    """
    tol = 1e-12
    qq = np.asarray(q, dtype=float)
    if np.any((qq < -tol) | (qq > 1.0 + tol)):
        raise ValueError(f"attenuation must lie in [0, 1], got {q}")
    p = (1.0 + np.clip(np.abs(qq), 0.0, 1.0)) / 2.0
    h = 0.0
    for w in (p, 1.0 - p):
        h = h - np.where(w > 0.0, w * np.log2(np.where(w > 0.0, w, 1.0)), 0.0)
    return float(1.0 - h) if np.ndim(q) == 0 else 1.0 - h


def purity(rho: TwoQubitState) -> float:
    return float(np.trace(rho.matrix @ rho.matrix).real)


def relative_purity(rho_initial: TwoQubitState, rho_final: TwoQubitState) -> float:
    """tr(rho_final rho_initial) / tr(rho_initial^2); equals 1 at t = 0."""
    num = np.trace(rho_final.matrix @ rho_initial.matrix).real
    return float(num / purity(rho_initial))
