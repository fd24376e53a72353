"""Dephasing channels, protocol attenuation factors, state validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasing_pdd import dynamics, pulses
from dephasing_pdd.dynamics import (Attenuation, ControlProtocol, Dephasing,
                                    ProtocolTag, SignRate, TwoQubitState,
                                    attenuation_functions, bell_phi_plus,
                                    dephasing_kraus, q_factor,
                                    single_qubit_evolve, singlet,
                                    two_qubit_evolve)
from dephasing_pdd.pulses import (ControlledDecoherence, free_decoherence,
                                  pdd_schedule)
from dephasing_pdd.qsl import cumulative_total_variation, total_variation
from dephasing_pdd.spectral import (SpectralParams, gamma0_analytic,
                                    gamma0_derivative)
from dephasing_pdd.verify import random_x_state

OHMIC = SpectralParams(1.0, 0.5)
SCHED = pdd_schedule(4, 10.0)


def qubit_states():
    """Random single-qubit density matrices via Bloch vectors."""
    return st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi),
                     st.floats(-1.0, 1.0)).map(_bloch)


def _bloch(rzphi):
    r, phi, z = rzphi
    rho = 0.5 * np.eye(2, dtype=complex)
    xy = r * np.sqrt(max(0.0, 1.0 - z * z)) / 2.0
    rho[0, 0] += z / 2.0
    rho[1, 1] -= z / 2.0
    rho[0, 1] = xy * np.exp(-1j * phi)
    rho[1, 0] = rho[0, 1].conjugate()
    return rho


class TestTwoQubitState:
    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="4x4"):
            TwoQubitState(np.eye(3))

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.5
        with pytest.raises(ValueError, match="Hermitian"):
            TwoQubitState(m)

    def test_rejects_conjugate_infinite_coherences(self):
        # inf - inf is no agreement between an entry and its conjugate
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 3] = m[3, 0] = np.inf
        with pytest.raises(ValueError, match="not Hermitian"):
            TwoQubitState(m)
        with pytest.raises(ValueError, match="not Hermitian"):
            single_qubit_evolve(m[::3, ::3] + np.diag([0.25, 0.25]), 1.0)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            TwoQubitState(np.eye(4) / 2.0)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.75, 0.75, -0.25, -0.25]).astype(complex)
        with pytest.raises(ValueError, match="positive semidefinite"):
            TwoQubitState(m)

    def test_matrix_is_read_only(self):
        state = singlet()
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_x_state_detection(self):
        assert singlet().is_x_state()
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.1
        assert not TwoQubitState(m).is_x_state()

    def test_bell_states(self):
        s = singlet().matrix
        assert s[1, 1] == s[2, 2] == pytest.approx(0.5)
        assert s[1, 2] == pytest.approx(-0.5)
        b = bell_phi_plus().matrix
        assert b[0, 0] == b[3, 3] == pytest.approx(0.5)
        assert b[0, 3] == pytest.approx(0.5)


class TestProtocol:
    def test_pulsed_mapping(self):
        assert ProtocolTag.Q00.pulsed == (False, False)
        assert ProtocolTag.Q10.pulsed == (True, False)
        assert ProtocolTag.Q01.pulsed == (False, True)
        assert ProtocolTag.Q11.pulsed == (True, True)

    def test_pulsed_protocol_requires_schedule(self):
        with pytest.raises(ValueError, match="requires a schedule"):
            ControlProtocol(ProtocolTag.Q11)
        ControlProtocol(ProtocolTag.Q00)  # free decay needs none

    def test_attenuation_validation(self):
        with pytest.raises(ValueError):
            Attenuation(0.0, 0.5)
        with pytest.raises(ValueError):
            Attenuation(0.5, 1.5)
        assert Attenuation(0.5, 0.25).q == pytest.approx(0.125)


class TestAttenuationFactors:
    def test_symmetry_q01_equals_q10(self):
        ts = np.linspace(0.0, 20.0, 41)
        q10 = q_factor(ControlProtocol(ProtocolTag.Q10, SCHED), OHMIC, ts)
        q01 = q_factor(ControlProtocol(ProtocolTag.Q01, SCHED), OHMIC, ts)
        assert np.array_equal(q10, q01)

    def test_square_identity(self):
        ts = np.linspace(0.0, 20.0, 41)
        q = {tag: q_factor(ControlProtocol(ProtocolTag(tag), SCHED), OHMIC, ts)
             for tag in ("Q00", "Q10", "Q11")}
        assert np.max(np.abs(q["Q10"] ** 2 - q["Q00"] * q["Q11"])) < 1e-13

    def test_starts_at_one(self):
        for tag in ProtocolTag:
            q_of_t, _ = attenuation_functions(ControlProtocol(tag, SCHED), OHMIC)
            assert q_of_t(0.0) == 1.0

    @pytest.mark.parametrize("n", [0, 6])
    def test_columns_match_attenuation_functions(self, n):
        sched = pdd_schedule(n, 10.0)
        ts = np.linspace(0.0, 20.0, 81)
        cols = Dephasing(OHMIC, sched).q_columns(ts)
        for tag in ProtocolTag:
            q_of_t, _ = attenuation_functions(ControlProtocol(tag, sched), OHMIC)
            assert np.array_equal(cols[tag], q_of_t(ts))
        assert np.array_equal(cols[ProtocolTag.Q01], cols[ProtocolTag.Q10])

    @pytest.mark.parametrize("t", [0.1, np.array([0.0, 0.05, 0.1, 5.0])])
    def test_negative_exponent_names_tag_and_time(self, t):
        # at s = 1e-16 Gamma0's closed form cancels: it reads 0 at t = 0.05,
        # -0.5 at 0.1 (Q00 = e) and 3 at 5
        dephasing = Dephasing(SpectralParams(1e-16, 0.5),
                              pdd_schedule(2, 10.0))
        with pytest.raises(FloatingPointError, match=(
                r"^the decoherence exponent of Q00 is negative \(Q > 1\) "
                r"at t = 0.1$")):
            dephasing.q_columns(t)

    def test_columns_evaluate_gamma0_once_without_pulses(self, monkeypatch):
        points = []

        def counting(p, t):
            points.append(np.size(t))
            return gamma0_analytic(p, t)

        monkeypatch.setattr(pulses, "gamma0_analytic", counting)
        ts = np.linspace(0.0, 20.0, 2001)
        Dephasing(OHMIC, pdd_schedule(0, 10.0)).q_columns(ts)
        assert sum(points) == ts.size

    def test_cached_functions_match_direct(self):
        proto = ControlProtocol(ProtocolTag.Q11, SCHED)
        q_of_t, qdot_of_t = attenuation_functions(proto, OHMIC)
        ts = np.linspace(0.0, 15.0, 31)
        assert q_of_t(ts) == pytest.approx(q_factor(proto, OHMIC, ts),
                                           abs=1e-15)
        gamma = ControlledDecoherence(free_decoherence(OHMIC), SCHED,
                                      lambda t: gamma0_derivative(OHMIC, t))
        direct = -2.0 * gamma.derivative(ts) * np.exp(-2.0 * gamma(ts))
        assert qdot_of_t(ts) == pytest.approx(direct, abs=1e-15)

    def test_q00_functions_build_no_controlled_gamma(self, monkeypatch):
        monkeypatch.setattr(dynamics, "ControlledDecoherence", None)
        q_of_t, qdot_of_t = Dephasing(OHMIC, SCHED).functions(ProtocolTag.Q00)
        ts = np.linspace(0.0, 15.0, 31)
        assert np.array_equal(qdot_of_t(ts), -2.0 * gamma0_derivative(
            OHMIC, ts) * q_of_t(ts))

    def test_q_derivative_matches_finite_difference(self):
        for tag in (ProtocolTag.Q10, ProtocolTag.Q11):
            proto = ControlProtocol(tag, SCHED)
            _, qdot_of_t = attenuation_functions(proto, OHMIC)
            h = 1e-6
            for t in (1.3, 5.2, 9.1, 13.0):  # between pulse instants
                fd = (q_factor(proto, OHMIC, t + h)
                      - q_factor(proto, OHMIC, t - h)) / (2.0 * h)
                assert qdot_of_t(t) == pytest.approx(fd, rel=1e-6, abs=1e-10)


class TestSignRate:
    @pytest.mark.parametrize("s", [1.0, 3.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
    def test_table_matches_exact_derivative(self, n, s, monkeypatch):
        # every train segment at interior and nudged end offsets, plus the
        # free tail past the train, against the protocol rule applied to
        # the exact ControlledDecoherence.derivative, for every tag
        p = SpectralParams(s, 0.5)
        sched = pdd_schedule(n, 10.0)
        edges = np.array([0.0, *sched.instants, 30.0])
        a, b = edges[:-1], edges[1:]
        x = np.array([0.0, 1 / 64, 0.3, 0.5, 63 / 64, 1.0])
        ts = a[:, None] + x * (b - a)[:, None]
        ts[:, 0], ts[:, -1] = np.nextafter(a, b), np.nextafter(b, a)
        dephasing = Dephasing(p, sched)
        exact = ControlledDecoherence(free_decoherence(p), sched,
                                      lambda t: gamma0_derivative(p, t))
        per_qubit = {True: exact.derivative(ts),
                     False: gamma0_derivative(p, ts)}
        for tag in ProtocolTag:
            got = SignRate(dephasing, tag).scan(ts, x, a, b)
            want = -(per_qubit[tag.pulsed[0]] + per_qubit[tag.pulsed[1]])
            assert (np.max(np.abs(got - want))
                    <= 1e-12 * np.max(np.abs(want))), tag
        # the table covers exactly the N train segments, not the tail:
        # only the tail's row takes the exact route
        exact_rows = []
        derivative = ControlledDecoherence.derivative

        def recording(self, t, *args):
            exact_rows.append(t)
            return derivative(self, t, *args)

        monkeypatch.setattr(ControlledDecoherence, "derivative", recording)
        SignRate(dephasing, ProtocolTag.Q10).scan(ts, x, a, b)
        assert len(exact_rows) == 1
        assert np.array_equal(exact_rows[0], ts[n:])

    def test_call_is_a_positive_multiple_of_qdot(self):
        ts = np.linspace(0.1, 20.0, 157)
        for n in (0, 4):  # an empty schedule, and SCHED
            dephasing = Dephasing(SpectralParams(3.0, 0.5),
                                  pdd_schedule(n, 10.0))
            for tag in ProtocolTag:
                q_of_t, qdot_of_t = dephasing.functions(tag)
                assert np.allclose(SignRate(dephasing, tag)(ts) * q_of_t(ts),
                                   qdot_of_t(ts), rtol=1e-13, atol=0.0)

    def test_one_pulsed_qubit_evaluates_gamma0_rate_once(self, monkeypatch):
        # the free qubit's Gamma0' is the controlled rate's leading term
        # at the same t, folded into it; Q11 doubles one controlled rate
        calls = []
        original = dynamics.gamma0_derivative

        def counting(p, t, *prefactor):
            calls.append(t)
            return original(p, t, *prefactor)

        monkeypatch.setattr(dynamics, "gamma0_derivative", counting)
        dephasing = Dephasing(OHMIC, pdd_schedule(5, 10.0))
        ts = np.array([0.5, 2.0, 4.1, 9.0, 12.0])
        for tag in (ProtocolTag.Q10, ProtocolTag.Q01):
            calls.clear()
            got = SignRate(dephasing, tag)(ts)
            assert len(calls) == 1
            want = -(dephasing.free_dot(ts)
                     + dephasing.controlled.derivative(ts))
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert np.array_equal(SignRate(dephasing, ProtocolTag.Q11)(ts),
                              -2.0 * dephasing.controlled.derivative(ts))

    def test_pulsed_probes_reach_the_one_rate_method(self, monkeypatch):
        # a refinement probe of every tag with a pulsed qubit, Q10 and
        # Q01 included, goes through ControlledDecoherence.derivative
        probes = []
        derivative = ControlledDecoherence.derivative

        def counting(self, t, *args):
            if np.ndim(t) == 1:
                probes.append(np.size(t))
            return derivative(self, t, *args)

        monkeypatch.setattr(ControlledDecoherence, "derivative", counting)
        dephasing = Dephasing(OHMIC, SCHED)
        for tag in (ProtocolTag.Q10, ProtocolTag.Q01, ProtocolTag.Q11):
            probes.clear()
            q_of_t, _ = dephasing.functions(tag)
            total_variation(q_of_t, 15.0, SCHED.instants,
                            qdot_of_t=SignRate(dephasing, tag))
            assert probes, tag

    def test_non_equidistant_schedule_never_enters_table(self, monkeypatch):
        # each scan fills its rows from the table or, row by row, through
        # the exact route; the uneven train fills every row exactly
        calls = []
        on_segments = ControlledDecoherence.on_segments
        derivative = ControlledDecoherence.derivative

        def counting(self, ts, *args, **kwargs):
            calls.append([self.schedule, len(ts), 0])
            return on_segments(self, ts, *args, **kwargs)

        def filling(self, t, *args):
            if np.ndim(t) == 2:
                calls[-1][2] += len(t)
            return derivative(self, t, *args)

        monkeypatch.setattr(ControlledDecoherence, "on_segments", counting)
        monkeypatch.setattr(ControlledDecoherence, "derivative", filling)
        uneven = pulses.PulseSchedule((1.0, 2.5, 3.0, 7.0), 10.0)
        for sched in (uneven, pdd_schedule(5, 10.0)):
            dephasing = Dephasing(OHMIC, sched)
            q_of_t, qdot_of_t = dephasing.functions(ProtocolTag.Q11)
            ts = np.linspace(0.0, 15.0, 31)
            signs = cumulative_total_variation(
                q_of_t, ts, q_of_t(ts), sched.instants,
                SignRate(dephasing, ProtocolTag.Q11))
            # dQ/dt without the SignRate it carries: the exact route
            exact = cumulative_total_variation(q_of_t, ts, q_of_t(ts),
                                               sched.instants,
                                               lambda t: qdot_of_t(t))
            assert signs == pytest.approx(exact, rel=1e-12, abs=0.0)
        # the uneven train asks for the table and gets no rows
        assert {s is uneven for s, _, _ in calls} == {True, False}
        assert all((rows == filled) == (s is uneven)
                   for s, rows, filled in calls)


class TestSingleQubitChannel:
    def test_kraus_pair_is_trace_preserving(self):
        for g in (0.0, 0.4, 1.0):
            e1, e2 = dephasing_kraus(g)
            total = e1.conj().T @ e1 + e2.conj().T @ e2
            assert total == pytest.approx(np.eye(2), abs=1e-14)

    def test_kraus_domain(self):
        with pytest.raises(ValueError):
            dephasing_kraus(1.5)

    @settings(max_examples=50, deadline=None)
    @given(rho=qubit_states(), gamma=st.floats(0.0, 5.0))
    def test_matches_kraus_sum(self, rho, gamma):
        e1, e2 = dephasing_kraus(float(np.exp(-gamma)))
        kraus = e1 @ rho @ e1.conj().T + e2 @ rho @ e2.conj().T
        direct = single_qubit_evolve(rho, gamma)
        assert direct == pytest.approx(kraus, abs=1e-12)

    def test_rejects_invalid_inputs(self):
        rho = np.eye(2) / 2.0
        with pytest.raises(ValueError):
            single_qubit_evolve(rho, -1.0)
        with pytest.raises(ValueError):
            single_qubit_evolve(np.eye(3) / 3.0, 1.0)


class TestTwoQubitChannel:
    @settings(max_examples=50, deadline=None)
    @given(g1=st.floats(0.0, 4.0), g2=st.floats(0.0, 4.0),
           seed=st.integers(0, 10_000))
    def test_matches_kraus_product_channel(self, g1, g2, seed):
        # element-wise scale map == sum over (Ei x Fj) rho (Ei x Fj)^dag
        rho0 = random_x_state(np.random.default_rng(seed))
        att = Attenuation(float(np.exp(-g1)), float(np.exp(-g2)))
        pair1 = dephasing_kraus(att.p1)
        pair2 = dephasing_kraus(att.p2)
        expect = np.zeros((4, 4), dtype=complex)
        for e in pair1:
            for f in pair2:
                k = np.kron(e, f)
                expect += k @ rho0.matrix @ k.conj().T
        out = two_qubit_evolve(rho0, att)
        assert out.matrix == pytest.approx(expect, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(g1=st.floats(0.0, 4.0), g2=st.floats(0.0, 4.0),
           seed=st.integers(0, 10_000))
    def test_preserves_state_validity(self, g1, g2, seed):
        # TwoQubitState re-validates trace, Hermiticity and positivity
        rho0 = random_x_state(np.random.default_rng(seed))
        att = Attenuation(float(np.exp(-g1)), float(np.exp(-g2)))
        out = two_qubit_evolve(rho0, att)
        assert out.is_x_state()
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_populations_untouched(self):
        rho0 = random_x_state(np.random.default_rng(1))
        out = two_qubit_evolve(rho0, Attenuation(0.3, 0.6))
        assert np.diag(out.matrix) == pytest.approx(np.diag(rho0.matrix))
