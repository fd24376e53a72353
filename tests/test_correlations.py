"""Concurrence, consonance, discord and purity measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephasing_pdd.correlations import (XStateSummary, concurrence_wootters,
                                        concurrence_x, consonance,
                                        discord_singlet, purity,
                                        relative_purity)
from dephasing_pdd.dynamics import (Attenuation, TwoQubitState, bell_phi_plus,
                                    singlet, two_qubit_evolve)
from dephasing_pdd.verify import random_x_state


class TestXStateSummary:
    def test_from_state_roundtrip(self):
        x = XStateSummary.from_state(singlet(), q=0.5)
        assert x.d == pytest.approx((0.0, 0.5, 0.5, 0.0))
        assert x.a23 == pytest.approx(-0.5)
        assert x.q == 0.5

    def test_rejects_non_x_state(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(ValueError, match="X-shaped"):
            XStateSummary.from_state(TwoQubitState(m))

    def test_rejects_bad_diagonals(self):
        with pytest.raises(ValueError, match="sum to 1"):
            XStateSummary((0.3, 0.3, 0.3, 0.3), 0.0, 0.0)
        with pytest.raises(ValueError, match="nonnegative"):
            XStateSummary((-0.1, 0.5, 0.5, 0.1), 0.0, 0.0)

    def test_rejects_block_positivity_violation(self):
        with pytest.raises(ValueError, match="block positivity"):
            XStateSummary((0.25, 0.25, 0.25, 0.25), 0.3, 0.0)


class TestConcurrence:
    def test_singlet_scales_linearly_with_q(self):
        for qv in (0.0, 0.3, 1.0):
            x = XStateSummary.from_state(singlet(), q=qv)
            assert concurrence_x(x) == pytest.approx(qv)

    def test_bell_phi_plus_fresh(self):
        x = XStateSummary.from_state(bell_phi_plus())
        assert concurrence_x(x) == pytest.approx(1.0)

    def test_separable_diagonal_state(self):
        x = XStateSummary((0.25, 0.25, 0.25, 0.25), 0.0, 0.0)
        assert concurrence_x(x) == 0.0

    def test_wootters_on_bell_states(self):
        assert concurrence_wootters(singlet()) == pytest.approx(1.0)
        assert concurrence_wootters(bell_phi_plus()) == pytest.approx(1.0)

    def test_sudden_death(self):
        # competing sqrt term kills entanglement at finite attenuation
        d = (0.3, 0.2, 0.2, 0.3)
        a14 = 0.25
        x1 = XStateSummary(d, a14, 0.0, q=1.0)
        assert concurrence_x(x1) > 0.0
        x2 = XStateSummary(d, a14, 0.0, q=0.5)
        assert concurrence_x(x2) == 0.0

    def test_array_matches_scalar_calls(self):
        # attenuations on both sides of the sudden-death point
        d = (0.3, 0.2, 0.2, 0.3)
        qs = np.linspace(0.0, 1.0, 21)
        vec = concurrence_x(XStateSummary(d, 0.25, 0.1j, q=qs))
        assert np.array_equal(
            vec, [concurrence_x(XStateSummary(d, 0.25, 0.1j, q=float(qv)))
                  for qv in qs])
        assert vec[0] == 0.0 < vec[-1]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), qv=st.floats(0.0, 1.0))
    def test_closed_form_matches_wootters(self, seed, qv):
        rho0 = random_x_state(np.random.default_rng(seed))
        closed = concurrence_x(XStateSummary.from_state(rho0, qv))
        evolved = two_qubit_evolve(rho0, Attenuation(max(qv, 1e-300), 1.0))
        assert closed == pytest.approx(concurrence_wootters(evolved),
                                       abs=1e-10)


class TestConsonance:
    def test_singlet_is_signed(self):
        x = XStateSummary.from_state(singlet(), q=0.5)
        assert consonance(x) == pytest.approx(-0.5)

    def test_bell_phi_plus(self):
        x = XStateSummary.from_state(bell_phi_plus(), q=0.8)
        assert consonance(x) == pytest.approx(0.8)


class TestDiscordSinglet:
    def test_endpoints(self):
        assert discord_singlet(1.0) == pytest.approx(1.0)
        assert discord_singlet(0.0) == pytest.approx(0.0)

    def test_monotone_in_q(self):
        qs = np.linspace(0.0, 1.0, 50)
        vals = [discord_singlet(float(q)) for q in qs]
        assert np.all(np.diff(vals) > 0)

    def test_half_value(self):
        # 1 - H2(3/4) in bits
        h2 = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert discord_singlet(0.5) == pytest.approx(1.0 - h2)

    def test_domain(self):
        with pytest.raises(ValueError):
            discord_singlet(1.5)
        with pytest.raises(ValueError):
            discord_singlet(np.array([0.5, -0.1]))
        discord_singlet(1.0 + 1e-13)  # rounding slack is tolerated

    def test_array_matches_scalar_calls(self):
        def reference(q):
            # the entropy summed term by term, in the order of the formula
            p = (1.0 + min(abs(q), 1.0)) / 2.0
            h = 0.0
            for w in (p, 1.0 - p):
                if w > 0.0:
                    h -= w * np.log2(w)
            return 1.0 - h

        qs = np.concatenate(([0.0, 1.0, 1.0 + 1e-13],
                             np.random.default_rng(3).uniform(0.0, 1.0, 500)))
        vec = discord_singlet(qs)
        assert np.array_equal(vec, [reference(float(q)) for q in qs])
        assert np.array_equal(vec, [discord_singlet(float(q)) for q in qs])
        assert type(discord_singlet(0.5)) is float


class TestPurity:
    def test_pure_state(self):
        assert purity(singlet()) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        mixed = TwoQubitState(np.eye(4) / 4.0)
        assert purity(mixed) == pytest.approx(0.25)

    def test_relative_purity_starts_at_one(self):
        rho0 = random_x_state(np.random.default_rng(3))
        assert relative_purity(rho0, rho0) == pytest.approx(1.0)

    def test_relative_purity_decays_with_attenuation(self):
        rho0 = singlet()
        f = [relative_purity(rho0, two_qubit_evolve(rho0, Attenuation(p, p)))
             for p in (1.0, 0.7, 0.4)]
        assert f[0] > f[1] > f[2]
