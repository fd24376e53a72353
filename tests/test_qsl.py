"""QSLT bounds: prefactor, total variation, ratio and the general bound."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from dephasing_pdd.dynamics import (ControlProtocol, Dephasing, ProtocolTag,
                                    SignRate, TwoQubitState,
                                    attenuation_functions,
                                    bell_phi_plus, singlet)
from dephasing_pdd.errors import (FrozenDynamicsError, NoCoherenceError,
                                  QuadratureError)
from dephasing_pdd.pulses import pdd_schedule
from dephasing_pdd.qsl import (QslInputs, _extrema, _nodes,
                               cumulative_total_variation, phi0, qslt_cells,
                               qslt_general, qslt_ratio, qslt_upper_bound,
                               total_variation)
from dephasing_pdd.spectral import SpectralParams

OHMIC = SpectralParams(1.0, 0.5)
SCHED = pdd_schedule(4, 10.0)


def protocol_functions(tag, params, sched=SCHED):
    return attenuation_functions(ControlProtocol(ProtocolTag(tag), sched),
                                 params)


class TestPhi0:
    def test_bell_states(self):
        # single coherence of 1/2 on a pure Bell state gives exactly 1
        assert phi0(singlet()) == pytest.approx(1.0)
        assert phi0(bell_phi_plus()) == pytest.approx(1.0)

    def test_requires_coherence(self):
        diag = TwoQubitState(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex))
        with pytest.raises(NoCoherenceError):
            phi0(diag)

    def test_requires_x_state(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(ValueError, match="X-shaped"):
            phi0(TwoQubitState(m))


class TestTotalVariation:
    def test_monotone_function_telescopes(self):
        q = lambda t: np.exp(-np.asarray(t))
        assert total_variation(q, 3.0) == pytest.approx(1.0 - np.exp(-3.0),
                                                        rel=1e-9)

    def test_zero_window(self):
        assert total_variation(lambda t: np.exp(-np.asarray(t)), 0.0) == 0.0
        with pytest.raises(ValueError):
            total_variation(lambda t: t, -1.0)

    def test_oscillation_counted_with_derivative(self):
        q = lambda t: np.cos(np.asarray(t))
        qd = lambda t: -np.sin(np.asarray(t))
        tv = total_variation(q, 4.0 * np.pi, qdot_of_t=qd)
        assert tv == pytest.approx(8.0, rel=1e-10)

    def test_derivative_route_matches_dense_grid(self):
        # oracle: sum |dQ| on a fine grid per segment, which misses each
        # extremum by at most Q'' h^2 / 8 with h = 1e-5
        q, qd = protocol_functions("Q11", OHMIC)
        exact = total_variation(q, 8.0, breakpoints=SCHED.instants,
                                qdot_of_t=qd)
        edges = [0.0, *(x for x in SCHED.instants if x < 8.0), 8.0]
        grid = np.unique(np.concatenate(
            [np.linspace(a, b, 200_001) for a, b in zip(edges[:-1], edges[1:])]))
        dense = float(np.abs(np.diff(q(grid))).sum())
        assert dense == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("s", [1.0, 3.0])
    def test_large_n_matches_dense_grid(self, s):
        # the last 20 segments of a 200-pulse train and the free tail
        # after it, where Q has one sharp extremum per segment; oracle as
        # above on a grid of spacing 1e-5 (each segment is 0.05 long)
        sched = pdd_schedule(200, 10.0)
        q, qd = protocol_functions("Q11", SpectralParams(s, 0.5), sched)
        t_start, t_end = 9.5, 10.5
        exact = total_variation(q, t_end, breakpoints=sched.instants,
                                t_start=t_start, qdot_of_t=qd)
        edges = [t_start, *(x for x in sched.instants if x > t_start), t_end]
        grid = np.unique(np.concatenate(
            [np.linspace(a, b, int(np.ceil((b - a) / 1e-5)) + 1)
             for a, b in zip(edges[:-1], edges[1:])]))
        dense = float(np.abs(np.diff(q(grid))).sum())
        assert dense == pytest.approx(exact, rel=1e-8)

    def test_refined_extrema_match_brentq(self):
        sched = pdd_schedule(12, 10.0)
        q, qd = protocol_functions("Q11", SpectralParams(3.0, 0.5), sched)
        edges = np.array([0.0, *sched.instants, 20.0])
        roots = np.sort(_extrema(q, qd, edges[:-1], edges[1:], 0.0))
        ref = []
        for a, b in zip(edges[:-1], edges[1:]):
            ts = np.linspace(a, b, 4097)[1:-1]
            sign = np.sign(qd(ts))
            for k in np.flatnonzero(sign[1:] != sign[:-1]):
                ref.append(brentq(lambda t: float(qd(t)), ts[k], ts[k + 1],
                                  xtol=1e-13, rtol=4 * np.finfo(float).eps))
        assert len(ref) > 10
        assert np.max(np.abs(roots - np.sort(ref))) <= 1e-12

    def test_scan_probes_only_new_midpoints(self):
        # a scan that stabilizes after two rounds: one probe of 129
        # samples per segment covers both, then one probe per bracket
        sizes = []

        def qd(t):
            sizes.append(np.size(t))
            return -np.sin(np.asarray(t))

        edges = np.array([0.0, 2.5, 5.0, 7.5, 10.0])
        roots = _extrema(None, qd, edges[:-1], edges[1:], 0.0)
        assert sizes[:2] == [4 * 129, 3]
        assert np.sort(roots) == pytest.approx(np.pi * np.arange(1, 4),
                                               abs=1e-12)

    def test_scan_third_round_probes_only_new_midpoints(self):
        # zeros pi/100 apart outnumber the 64 intervals of a segment, so
        # the counts first repeat at 256 intervals: that round probes only
        # the 128 new midpoints per segment
        sizes = []

        def qd(t):
            sizes.append(np.size(t))
            return np.sin(100.0 * np.asarray(t))

        edges = np.array([0.0, 2.5, 5.0, 7.5, 10.0])
        roots = _extrema(None, qd, edges[:-1], edges[1:], 0.0)
        assert sizes[:3] == [4 * 129, 4 * 128, 318]
        assert np.sort(roots) == pytest.approx(
            np.pi / 100.0 * np.arange(1, 319), abs=1e-12)

    def test_unconverged_refinement_raises(self):
        # a sign step is never interpolated, so its bracket of width
        # 1.6e298 would take ~1,000 bisections to reach 1e-13
        with pytest.raises(QuadratureError, match="did not converge"):
            total_variation(lambda t: np.abs(t - 0.1), 1e300,
                            qdot_of_t=lambda t: np.sign(t - 0.1))

    def test_resolves_shallow_ripples(self):
        # beyond the pulse train Q10 carries ripples whose contributions
        # telescope away on coarse grids; the extrema route must agree
        # with an adaptive quadrature of |dQ/dt|
        q, qd = protocol_functions("Q10", OHMIC)
        tv = total_variation(q, 20.0, breakpoints=SCHED.instants,
                             qdot_of_t=qd)
        ref = 0.0
        edges = [0.0, *SCHED.instants, 20.0]
        for a, b in zip(edges[:-1], edges[1:]):
            val, _ = quad(lambda t: abs(float(np.asarray(qd(t)))),
                          a + 1e-9, b - 1e-9, limit=400, epsrel=1e-12)
            ref += val
        assert tv == pytest.approx(ref, rel=1e-8)

    def test_unresolved_oscillation_raises(self):
        # zeros of sin(1/t) crowd towards t = 0, so every doubling of the
        # scan resolves more of them and the count never repeats
        qd = lambda t: np.sin(1.0 / np.asarray(t))
        with pytest.raises(QuadratureError, match="did not stabilize"):
            total_variation(lambda t: np.asarray(t), 1.0, t_start=1e-4,
                            qdot_of_t=qd)

    @pytest.mark.parametrize("n,s,tag", [(7, 1.0, "Q11"), (7, 3.0, "Q10"),
                                         (100, 3.0, "Q11"), (100, 1.0, "Q10")])
    def test_sign_route_matches_qdot_route(self, n, s, tag):
        # the scan and refinement on -(Gamma_1' + Gamma_2'), with the
        # train table, find the nodes of the dQ/dt route
        sched = pdd_schedule(n, 10.0)
        dephasing = Dephasing(SpectralParams(s, 0.5), sched)
        q, qd = dephasing.functions(ProtocolTag(tag))
        rate = SignRate(dephasing, ProtocolTag(tag))
        signs = _nodes(q, rate, 0.0, 30.0, sched.instants, 0.0)
        exact = _nodes(q, qd, 0.0, 30.0, sched.instants, 0.0)
        assert len(signs) == len(exact) >= n + 2
        assert np.max(np.abs(signs - exact)) <= 1e-12
        ts = np.linspace(0.0, 30.0, 61)
        assert cumulative_total_variation(
            q, ts, q(ts), sched.instants, qdot_of_t=rate) == pytest.approx(
            cumulative_total_variation(q, ts, q(ts), sched.instants,
                                       qdot_of_t=qd),
            rel=1e-12, abs=0.0)

    def test_cumulative_matches_pointwise(self):
        q, qd = protocol_functions("Q11", SpectralParams(3.0, 0.5))
        ts = np.array([1.0, 5.0, 10.0, 16.0])
        cum = cumulative_total_variation(q, ts, q(ts),
                                         breakpoints=SCHED.instants,
                                         qdot_of_t=qd)
        for t, c in zip(ts, cum):
            ref = total_variation(q, float(t), breakpoints=SCHED.instants,
                                  qdot_of_t=qd)
            assert c == pytest.approx(ref, rel=1e-9)


class TestQsltRatio:
    def test_free_ohmic_baseline_is_one(self):
        # monotone Q: numerator Phi0 (1 - Q) equals the total variation
        q, qd = protocol_functions("Q00", OHMIC, pdd_schedule(0, 10.0))
        inputs = QslInputs(phi0(singlet()), q, tau_d=30.0, qdot_of_t=qd)
        for t in (0.5, 3.0, 12.0, 30.0):
            assert qslt_ratio(inputs, t) == pytest.approx(1.0, abs=1e-9)

    def test_ratio_below_upper_bound(self):
        q, qd = protocol_functions("Q11", SpectralParams(3.0, 0.5))
        inputs = QslInputs(phi0(singlet()), q, tau_d=20.0,
                           breakpoints=SCHED.instants, qdot_of_t=qd)
        for t in (2.0, 10.0, 20.0):
            r = qslt_ratio(inputs, t)
            assert r <= qslt_upper_bound(inputs, t) + 1e-12
            assert r <= 1.0 + 1e-12

    @pytest.mark.parametrize("tag,state,s,eta,tau_f,n,t", [
        # one extremum of Q11, 0.14 after the pulse instant
        ("Q11", singlet, 0.9829, 0.5272, 10.2434, 2, 5.63387),
        # extrema of Q10 0.0056 after two pulse instants, which a scan of
        # the signs of Q differences misses
        ("Q10", bell_phi_plus, 3.0632, 0.4032, 9.8015, 5, 5.390825),
    ], ids=["q11_singlet", "q10_bell_phi_plus"])
    def test_derivative_free_route_matches_derivative(self, tag, state, s,
                                                      eta, tau_f, n, t):
        sched = pdd_schedule(n, tau_f)
        q, qd = protocol_functions(tag, SpectralParams(s, eta), sched)
        pref = phi0(state())
        with_qdot = QslInputs(pref, q, tau_d=t, breakpoints=sched.instants,
                              qdot_of_t=qd)
        without = QslInputs(pref, q, tau_d=t, breakpoints=sched.instants)
        assert qslt_ratio(without, t) == pytest.approx(
            qslt_ratio(with_qdot, t), rel=1e-10)

    def test_t_eval_validation(self):
        q, qd = protocol_functions("Q00", OHMIC)
        inputs = QslInputs(1.0, q, tau_d=10.0, qdot_of_t=qd)
        for bound in (qslt_ratio, qslt_upper_bound):
            with pytest.raises(ValueError, match="t_eval"):
                bound(inputs, 0.0)
            with pytest.raises(ValueError, match="t_eval"):
                bound(inputs, 11.0)

    def test_frozen_dynamics_raises(self):
        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        inputs = QslInputs(1.0, one, tau_d=10.0, qdot_of_t=zero)
        with pytest.raises(FrozenDynamicsError):
            qslt_ratio(inputs, 5.0)
        with pytest.raises(FrozenDynamicsError):
            qslt_upper_bound(inputs, 5.0)

    def test_upper_bound_zero_at_exact_revival(self):
        # Q returns to 1 at the evaluation time but varied before it
        q = lambda t: 0.5 * (1.0 + np.cos(np.asarray(t, dtype=float)))
        qd = lambda t: -0.5 * np.sin(np.asarray(t, dtype=float))
        inputs = QslInputs(1.0, q, tau_d=4.0 * np.pi, qdot_of_t=qd)
        assert qslt_upper_bound(inputs, 2.0 * np.pi) == 0.0

    def test_upper_bound_near_revival_is_the_cell_bound(self):
        # 1e-14 < |1 - Q| <= 1e-14 / Phi0 at t = pi: Phi0 |1 - Q| alone
        # would call this a revival, the CSV cell rule does not
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        m[0, 3] = m[3, 0] = 0.25
        pref = phi0(TwoQubitState(m))
        assert pref == 0.5
        q = lambda t: (1.0 - 0.2 * np.sin(np.asarray(t, dtype=float)) ** 2
                       - 1.5e-14 * np.asarray(t, dtype=float) / np.pi)
        inputs = QslInputs(pref, q, tau_d=np.pi)
        assert 1e-14 < 1.0 - q(np.pi) <= 1e-14 / pref
        tv = total_variation(q, np.pi)
        _, bound, defined = qslt_cells(pref, q(np.pi), tv)
        assert defined and bound == pref
        assert qslt_upper_bound(inputs, np.pi) == bound

    def test_bounds_share_the_frozen_rule(self):
        # Q dips by 1e-13 64 times, each dip ending on an equidistant
        # 65-point probe of [0, 1]: the total variation is 1.28e-11, so
        # neither bound calls Q frozen, and Q(1) rounds to 1
        q = lambda t: 1.0 - 1e-13 * np.sin(64 * np.pi * np.asarray(t)) ** 2
        qd = lambda t: -6.4e-12 * np.pi * np.sin(128 * np.pi * np.asarray(t))
        assert total_variation(q, 1.0, qdot_of_t=qd) == pytest.approx(
            1.28e-11, rel=1e-6)
        inputs = QslInputs(1.0, q, tau_d=1.0, qdot_of_t=qd)
        assert qslt_ratio(inputs, 1.0) == 0.0
        assert qslt_upper_bound(inputs, 1.0) == 0.0


class TestQsltGeneral:
    def test_requires_coherence(self):
        diag = TwoQubitState(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex))
        q, qd = protocol_functions("Q00", OHMIC)
        with pytest.raises(NoCoherenceError):
            qslt_general(diag, q, qd, 5.0)

    def test_matches_closed_form_for_singlet(self):
        # the general ML/MT pipeline divided by tau_d equals the X-state
        # closed-form ratio (running window)
        rho0 = singlet()
        pref = phi0(rho0)
        q, qd = protocol_functions("Q11", SpectralParams(3.0, 0.5))
        inputs = QslInputs(pref, q, tau_d=20.0, breakpoints=SCHED.instants,
                           qdot_of_t=qd)
        for te in (2.0, 10.0):
            general = qslt_general(rho0, q, qd, te,
                                   breakpoints=SCHED.instants,
                                   rel_tol=1e-9)
            assert general / te == pytest.approx(qslt_ratio(inputs, te),
                                                 rel=1e-7)

    def test_frozen_dynamics_raises(self):
        one = lambda t: np.ones_like(np.asarray(t, dtype=float))
        zero = lambda t: np.zeros_like(np.asarray(t, dtype=float))
        with pytest.raises(FrozenDynamicsError):
            qslt_general(singlet(), one, zero, 5.0)
