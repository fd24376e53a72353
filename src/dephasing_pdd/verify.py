"""Self-contained invariant report: the oracle equivalences and protocol
identities the test suite relies on, runnable from the CLI (`verify`).

Each check returns its worst measured error next to the threshold it must
stay under, so a report line reads like
``spectral_oracle: PASS (measured 3.1e-09 < 1e-06)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import XStateSummary, concurrence_wootters, concurrence_x
from .dynamics import (Attenuation, ControlProtocol, ProtocolTag,
                       TwoQubitState, attenuation_functions, q_factor, singlet,
                       two_qubit_evolve)
from .pulses import (ControlledDecoherence, PulseSchedule,
                     controlled_gamma_quadrature, free_decoherence,
                     pdd_schedule)
from .qsl import QslInputs, phi0, qslt_ratio, qslt_upper_bound
from .spectral import SpectralParams, gamma0_analytic, gamma0_quadrature


@dataclass
class CheckResult:
    name: str
    measured: float
    threshold: float

    @property
    def passed(self):
        return self.measured < self.threshold

    def line(self):
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: {verdict} "
                f"(measured {self.measured:.3e} < {self.threshold:g})")


def _rel_err(a, b, floor=1e-12):
    return abs(a - b) / max(abs(b), floor)


def check_spectral_oracle(n_points=12):
    worst = 0.0
    for s in (0.5, 1.0, 3.0):
        for eta in (0.1, 0.5):
            p = SpectralParams(s, eta)
            for t in np.linspace(0.0, 30.0, n_points):
                ref = gamma0_quadrature(p, t)
                worst = max(worst, _rel_err(gamma0_analytic(p, t), ref))
    return CheckResult("spectral_oracle", worst, 1e-6)


def check_filter_oracle(n_values=(1, 5), t_points=7):
    worst = 0.0
    tau_f = 10.0
    for s in (1.0, 3.0):
        p = SpectralParams(s, 0.5)
        for n in n_values:
            sched = pdd_schedule(n, tau_f)
            gamma = ControlledDecoherence(free_decoherence(p), sched)
            for t in np.linspace(0.5, 2 * tau_f, t_points):
                ref = controlled_gamma_quadrature(p, sched, t)
                worst = max(worst, _rel_err(gamma(t), ref))
    return CheckResult("filter_oracle", worst, 1e-5)


def check_hand_anchor():
    p = SpectralParams(1.0, 0.5)
    sched = PulseSchedule((5.0,), 10.0)
    got = ControlledDecoherence(free_decoherence(p), sched)(10.0)
    expected = np.log(26.0) - 0.25 * np.log(101.0)
    return CheckResult("hand_anchor", abs(got - expected), 1e-6)


def check_continuity(n_schedules=8, seed=20240117):
    rng = np.random.default_rng(seed)
    p = SpectralParams(1.0, 0.5)
    eps = 1e-6
    worst = 0.0
    for _ in range(n_schedules):
        n = int(rng.integers(1, 9))
        taus = np.sort(rng.uniform(0.5, 9.5, size=n))
        taus = taus[np.concatenate(([True], np.diff(taus) > 1e-3))]
        gamma = ControlledDecoherence(free_decoherence(p), PulseSchedule(tuple(taus), 10.0),
                                      base_derivative=None)
        for tau in taus:
            jump = abs(gamma(tau - eps) - gamma(tau + eps))
            slope = abs(gamma(tau + 10 * eps) - gamma(tau + eps)) / (9 * eps)
            worst = max(worst, jump / (1e-4 * max(1.0, slope)))
    return CheckResult("pulse_instant_continuity", worst, 1.0)


def check_protocol_identities():
    sched = pdd_schedule(6, 10.0)
    ts = np.linspace(0.0, 20.0, 101)
    worst_sq = worst_sym = 0.0
    for s in (1.0, 3.0):
        p = SpectralParams(s, 0.5)
        q = {tag: q_factor(ControlProtocol(ProtocolTag(tag), sched), p, ts)
             for tag in ("Q00", "Q10", "Q01", "Q11")}
        worst_sq = max(worst_sq, np.max(np.abs(q["Q10"] ** 2 - q["Q00"] * q["Q11"])))
        worst_sym = max(worst_sym, np.max(np.abs(q["Q10"] - q["Q01"])))
    return [CheckResult("protocol_square_identity", worst_sq, 1e-12),
            CheckResult("protocol_symmetry", worst_sym, 1e-15)]


def random_x_state(rng):
    d = rng.dirichlet(np.ones(4))
    a14 = (rng.uniform() * np.sqrt(d[0] * d[3])
           * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    a23 = (rng.uniform() * np.sqrt(d[1] * d[2])
           * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    m = np.diag(d).astype(complex)
    m[0, 3], m[3, 0] = a14, a14.conjugate()
    m[1, 2], m[2, 1] = a23, a23.conjugate()
    return TwoQubitState(m)


def check_concurrence_oracle(n_states=50, seed=7):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_states):
        rho0 = random_x_state(rng)
        for qv in (0.0, 0.3, 0.7, 1.0):
            closed = concurrence_x(XStateSummary.from_state(rho0, qv))
            evolved = two_qubit_evolve(rho0, Attenuation(max(qv, 1e-300), 1.0))
            worst = max(worst, abs(closed - concurrence_wootters(evolved)))
    return CheckResult("concurrence_oracle", worst, 1e-10)


def check_qslt_bounds():
    """ratio <= upper bound and ratio <= 1 across sample trajectories."""
    sched = pdd_schedule(5, 10.0)
    pref = phi0(singlet())
    worst = 0.0
    for s in (1.0, 3.0):
        p = SpectralParams(s, 0.5)
        for tag in ("Q00", "Q10", "Q11"):
            # derivative-free route: the finder probes differences of Q
            q_of_t, _ = attenuation_functions(
                ControlProtocol(ProtocolTag(tag), sched), p)
            inputs = QslInputs(pref, q_of_t, tau_d=20.0,
                               breakpoints=sched.instants)
            for t in (2.0, 10.0, 20.0):
                r = qslt_ratio(inputs, t, rel_tol=1e-11)
                u = qslt_upper_bound(inputs, t)
                worst = max(worst, r - u, r - 1.0)
    return CheckResult("qslt_inequalities", worst, 1e-9)


def check_baseline_degeneracy():
    p = SpectralParams(1.0, 0.5)
    q_of_t, _ = attenuation_functions(ControlProtocol(ProtocolTag.Q00), p)
    inputs = QslInputs(phi0(singlet()), q_of_t, tau_d=30.0)
    worst = max(abs(qslt_ratio(inputs, t) - 1.0)
                for t in (0.5, 3.0, 10.0, 30.0))
    return CheckResult("baseline_degeneracy", worst, 1e-6)


def run_checks(inject_failure=False):
    results = [
        check_spectral_oracle(),
        check_filter_oracle(),
        check_hand_anchor(),
        check_continuity(),
        *check_protocol_identities(),
        check_concurrence_oracle(),
        check_qslt_bounds(),
        check_baseline_degeneracy(),
    ]
    if inject_failure:
        # self-test hook: an impossible tolerance must turn the exit red
        results.append(CheckResult("injected_failure", 1.0, 0.0))
    return results
