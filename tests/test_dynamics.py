"""Dephasing channels, protocol attenuation factors, state validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasing_pdd.dynamics import (Attenuation, ControlProtocol, ProtocolTag,
                                    TwoQubitState, attenuation_functions,
                                    bell_phi_plus, dephasing_kraus, q_columns,
                                    q_factor, single_qubit_evolve, singlet,
                                    two_qubit_evolve)
from dephasing_pdd.pulses import (ControlledDecoherence, free_decoherence,
                                  pdd_schedule)
from dephasing_pdd.spectral import SpectralParams, gamma0_derivative
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
        cols = q_columns(OHMIC, sched, ts)
        for tag in ProtocolTag:
            q_of_t, _ = attenuation_functions(ControlProtocol(tag, sched), OHMIC)
            assert np.array_equal(cols[tag], q_of_t(ts))
        assert np.array_equal(cols[ProtocolTag.Q01], cols[ProtocolTag.Q10])

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

    def test_q_derivative_matches_finite_difference(self):
        for tag in (ProtocolTag.Q10, ProtocolTag.Q11):
            proto = ControlProtocol(tag, SCHED)
            _, qdot_of_t = attenuation_functions(proto, OHMIC)
            h = 1e-6
            for t in (1.3, 5.2, 9.1, 13.0):  # between pulse instants
                fd = (q_factor(proto, OHMIC, t + h)
                      - q_factor(proto, OHMIC, t - h)) / (2.0 * h)
                assert qdot_of_t(t) == pytest.approx(fd, rel=1e-6, abs=1e-10)


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
