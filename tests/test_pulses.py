"""Pulse schedules and the controlled decoherence exponent."""

import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_quadrature import gamma0_mp
from test_spectral import full_domain

from dephasing_pdd import pulses
from dephasing_pdd.pulses import (ControlledDecoherence, PulseSchedule,
                                  controlled_gamma_quadrature,
                                  free_decoherence, pdd_schedule)
from dephasing_pdd.spectral import (SpectralParams, bath_integral,
                                    gamma0_analytic, gamma0_derivative)

OHMIC = SpectralParams(1.0, 0.5)


def per_pulse_reference(gamma, fn, t, include_static):
    """Gamma or dGamma/dt of ``gamma`` summed one pulse at a time."""
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    taus = np.asarray(gamma.schedule.instants, dtype=float)
    n = np.searchsorted(taus, tt, side="left")
    out = (-1.0) ** n * fn(tt)
    if include_static:
        out = out + gamma._static[n]
    for j in range(1, len(taus) + 1):
        mask = n >= j
        out[mask] += 2.0 * (-1.0) ** (j + n[mask]) * fn(tt[mask] - taus[j - 1])
    return float(out[0]) if np.ndim(t) == 0 else out


def static_double_loop(base, taus):
    """S_0..S_N pair by pair, one array call per pulse: the O(N^2) form
    of the schedule-only sums, the reference of the continuity rule."""
    n = len(taus)
    static = np.zeros(n + 1)
    g_tau = base(taus) if n else np.zeros(0)
    for j in range(1, n + 1):
        signs = (-1.0) ** (j + np.arange(1, j) + 1)
        inner = 4.0 * float(np.dot(signs, base(taus[j - 1] - taus[: j - 1])))
        static[j] = static[j - 1] + 2.0 * (-1.0) ** (j + 1) * g_tau[j - 1] + inner
    return static


@mpmath.workdps(40)
def train_static_mp(s, n, delta):
    """S_0..S_n on the lattice tau_j = j delta (delta taken exactly), pair
    by pair: S_j - S_(j-1) = 2 (-1)^(j+1) Gamma0(tau_j)
    + 4 sum_(k<j) (-1)^(j+k+1) Gamma0(tau_j - tau_k), every Gamma0 value
    to 40 digits and the pairs summed exactly in units of 2^-200.
    Returned in those units, as ints."""
    scale = mpmath.mpf(2) ** 200
    # (-1)^(j+k+1) Gamma0((j - k) delta) depends on d = j - k alone
    signed = [0] + [(-1) ** (d + 1) * int(mpmath.nint(
        gamma0_mp(s, d * mpmath.mpf(delta)) * scale)) for d in range(1, n + 1)]
    static = [0]
    for j in range(1, n + 1):
        static.append(static[-1] + 2 * signed[j] + 4 * sum(signed[1:j]))
    return static


def schedules(max_pulses=8, tau_f=10.0):
    """Strictly increasing, well-separated instants inside (0, tau_f)."""
    return st.lists(st.floats(0.3, tau_f - 0.3), min_size=1,
                    max_size=max_pulses, unique=True).map(
        lambda xs: tuple(np.sort(xs))).filter(
        lambda xs: np.all(np.diff(xs) > 1e-2) if len(xs) > 1 else True)


class TestPulseSchedule:
    def test_rejects_unsorted_instants(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            PulseSchedule((3.0, 2.0), 10.0)

    def test_rejects_out_of_range_instants(self):
        with pytest.raises(ValueError, match="inside"):
            PulseSchedule((0.0, 2.0), 10.0)
        with pytest.raises(ValueError, match="inside"):
            PulseSchedule((2.0, 10.0), 10.0)

    def test_rejects_nonpositive_tau_f(self):
        with pytest.raises(ValueError, match="tau_f"):
            PulseSchedule((), 0.0)

    def test_empty_schedule_is_free_decay(self):
        sched = PulseSchedule((), 10.0)
        assert sched.n_pulses == 0
        gamma = ControlledDecoherence(free_decoherence(OHMIC), sched)
        for t in (0.0, 3.0, 12.0):
            assert gamma(t) == pytest.approx(gamma0_analytic(OHMIC, t))

    def test_pdd_instants(self):
        sched = pdd_schedule(10, 10.0)
        expected = [10.0 * n / 11.0 for n in range(1, 11)]
        assert sched.instants == pytest.approx(expected)

    @pytest.mark.parametrize("n", [2, 20, 1000])
    def test_spacing_names_the_train_and_its_prefixes(self, n):
        sched = pdd_schedule(n, 10.0)
        assert sched.spacing == 10.0 / (n + 1)
        assert PulseSchedule(sched.instants[:n // 2], 10.0).spacing == (
            sched.spacing)
        nudged = (*sched.instants[:-1], np.nextafter(sched.instants[-1], 0))
        assert PulseSchedule(nudged, 10.0).spacing is None
        assert PulseSchedule((), 10.0).spacing is None

    def test_pdd_rejects_negative_count(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pdd_schedule(-1, 10.0)


class TestControlledDecoherence:
    def test_free_before_first_pulse(self):
        sched = pdd_schedule(4, 10.0)
        gamma = ControlledDecoherence(free_decoherence(OHMIC), sched)
        for t in (0.0, 0.5, 1.99):
            assert gamma(t) == pytest.approx(gamma0_analytic(OHMIC, t),
                                             abs=1e-14)

    def test_hand_anchor(self):
        # single pulse at tau_1 = 5, evaluated at t = 10, s = 1, eta = 0.5:
        # Gamma = Gamma0(10) - 2 Gamma0(5) + 2 Gamma0(5) - Gamma0(10) ...
        # expands to ln 26 - 0.25 ln 101
        sched = PulseSchedule((5.0,), 10.0)
        gamma = ControlledDecoherence(free_decoherence(OHMIC), sched)
        assert gamma(10.0) == pytest.approx(
            np.log(26.0) - 0.25 * np.log(101.0), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        sched = pdd_schedule(5, 10.0)
        gamma = ControlledDecoherence(free_decoherence(OHMIC), sched)
        ts = np.linspace(0.0, 20.0, 37)
        vec = gamma(ts)
        assert vec.shape == ts.shape
        assert vec == pytest.approx([gamma(float(t)) for t in ts])

    @pytest.mark.parametrize("n", [0, 1, 7, 100])
    def test_matches_per_pulse_reference(self, n, monkeypatch):
        if n == 100:  # 40 points per block
            monkeypatch.setattr(pulses, "_BLOCK_TERMS", 2 ** 12)
        sched = pdd_schedule(n, 10.0)
        rng = np.random.default_rng(n)
        ts = np.concatenate(([0.0], sched.instants, rng.uniform(0.0, 25.0, 300)))
        rng.shuffle(ts)
        for p in (OHMIC, SpectralParams(3.0, 0.5)):
            base = free_decoherence(p)
            base_dot = lambda t: gamma0_derivative(p, t)
            gamma = ControlledDecoherence(base, sched, base_dot)
            for t in (ts, float(ts[1]), 10.0 / (n + 1) * (n // 2 + 1)):
                assert np.array_equal(gamma(t),
                                      per_pulse_reference(gamma, base, t, True))
                assert np.array_equal(
                    gamma.derivative(t),
                    per_pulse_reference(gamma, base_dot, t, False))
        if n == 100:  # the points of ts fill several blocks
            assert ts.size > 3 * (pulses._BLOCK_TERMS // (n + 1))

    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_one_block_matches_many_blocks(self, n, monkeypatch):
        # points in one block match one point per block, bit for bit
        sched = pdd_schedule(n, 10.0)
        ts = np.random.default_rng(n).uniform(0.0, 12.0, 30)
        assert ts.size <= pulses._BLOCK_TERMS // (n + 1)
        p = SpectralParams(3.0, 0.5)
        gamma = ControlledDecoherence(free_decoherence(p), sched,
                                      lambda t: gamma0_derivative(p, t))
        one = [gamma(ts), gamma.derivative(ts), gamma(float(ts[0]))]
        monkeypatch.setattr(pulses, "_BLOCK_TERMS", 3)
        many = [gamma(ts), gamma.derivative(ts), gamma(float(ts[0]))]
        for a, b in zip(one, many):
            assert np.array_equal(a, b)

    @staticmethod
    def counted_gamma(n, calls):
        def base_dot(t):
            calls.append(t.size)
            return gamma0_derivative(OHMIC, t)
        return ControlledDecoherence(free_decoherence(OHMIC),
                                     pdd_schedule(n, 10.0), base_dot)

    @pytest.mark.parametrize("points, n", [(4000, 2000), (1000, 100), (3, 7)])
    def test_one_base_call_per_block_of_whole_points(self, points, n):
        # the call count follows the point count, wherever the points fall
        calls = []
        gamma = self.counted_gamma(n, calls)
        gamma.derivative(np.random.default_rng(n).uniform(0.0, 12.0, points))
        rows = pulses._BLOCK_TERMS // (n + 1)
        assert len(calls) == -(-points // rows)

    def test_exact_route_memory_is_bounded_at_large_n(self):
        gamma = self.counted_gamma(2000, [])
        ts = np.random.default_rng(0).uniform(0.0, 12.0, 4000)
        tracemalloc.start()
        try:
            gamma.derivative(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    def test_rejects_negative_time(self):
        gamma = ControlledDecoherence(free_decoherence(OHMIC),
                                      pdd_schedule(2, 10.0))
        with pytest.raises(ValueError, match="nonnegative"):
            gamma(-1.0)

    def test_derivative_requires_base_derivative(self):
        gamma = ControlledDecoherence(free_decoherence(OHMIC),
                                      pdd_schedule(2, 10.0))
        with pytest.raises(ValueError, match="derivative"):
            gamma.derivative(1.0)

    def test_derivative_matches_finite_difference(self):
        p = SpectralParams(3.0, 0.5)
        sched = pdd_schedule(4, 10.0)
        gamma = ControlledDecoherence(
            lambda t: gamma0_analytic(p, t), sched,
            base_derivative=lambda t: gamma0_derivative(p, t))
        h = 1e-6
        for t in (1.3, 3.1, 7.7, 12.0):  # away from pulse instants
            fd = (gamma(t + h) - gamma(t - h)) / (2.0 * h)
            assert gamma.derivative(t) == pytest.approx(fd, rel=1e-6,
                                                        abs=1e-9)

    @pytest.mark.parametrize("s", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("n", [20, 100, 1000])
    def test_train_static_sums_match_mpmath_pair_sum(self, n, s):
        # max_n |S_n - reference| of the O(N) lattice sum, and of the
        # double loop it replaced:
        #             s = 0.5            s = 1              s = 3
        #   N = 20    3.2e-14, 2.1e-14   1.2e-15, 6.0e-15   8.5e-15, 3.0e-15
        #   N = 100   1.9e-13, 2.2e-13   2.1e-14, 7.3e-14   8.6e-14, 2.3e-13
        #   N = 1000  7.3e-12, 1.7e-11   2.3e-12, 1.4e-11   4.4e-13, 1.8e-11
        # The lattice reuses each rounded Gamma0(tau_m) with a weight of up
        # to 4 N, where the loop rounds every pair apart: at N = 20 the
        # lattice sits at Gamma0's rounding (1.5e-14 and 3.2e-15 even for
        # correctly rounded values at s = 0.5 and 3); from N = 100 on the
        # loop's accumulation dominates.  The instants are j delta rounded,
        # which moves the exact sums by at most 1.4e-15 at N <= 100.
        sched = pdd_schedule(n, 10.0)
        taus = np.asarray(sched.instants)
        base = free_decoherence(SpectralParams(s, 0.5))
        reference = train_static_mp(s, n, taus[0])

        def error(static):
            return max(abs(int(x * 2.0 ** 200) - r)
                       for x, r in zip(static, reference)) / 2.0 ** 200

        lattice = error(ControlledDecoherence(base, sched)._static)
        # every Gamma0(tau_m) off by one ulp, each weighted 4 N
        assert lattice <= 4 * n * np.finfo(float).eps * base(taus).sum()
        if n >= 100:
            assert lattice <= error(static_double_loop(base, taus))

    @settings(max_examples=25, deadline=None)
    @given(instants=schedules(), s=st.sampled_from([0.5, 1.0, 3.0]))
    def test_static_sums_off_the_train_match_double_loop(self, instants, s):
        # the continuity rule sums the loop's pair terms in another order;
        # at most 8 pulses give at most 36 pairs, each term below 10
        base = free_decoherence(SpectralParams(s, 0.5))
        gamma = ControlledDecoherence(base, PulseSchedule(instants, 10.0))
        assert np.allclose(gamma._static,
                           static_double_loop(base, np.asarray(instants)),
                           rtol=0.0, atol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(instants=schedules())
    def test_continuity_at_pulse_instants(self, instants):
        eps = 1e-6
        gamma = ControlledDecoherence(free_decoherence(OHMIC),
                                      PulseSchedule(instants, 10.0))
        for tau in instants:
            jump = abs(gamma(tau - eps) - gamma(tau + eps))
            slope = abs(gamma(tau + 10 * eps) - gamma(tau + eps)) / (9 * eps)
            assert jump <= 1e-4 * max(1.0, slope)

    @settings(max_examples=15, deadline=None)
    @given(instants=schedules(max_pulses=5))
    def test_nonnegative_exponent(self, instants):
        # Gamma(t) = int J/(2 w^2) |f|^2 >= 0 for any schedule
        gamma = ControlledDecoherence(free_decoherence(OHMIC),
                                      PulseSchedule(instants, 10.0))
        assert np.all(gamma(np.linspace(0.0, 15.0, 120)) >= -1e-12)


class TestFilterFunctionOracle:
    @pytest.mark.parametrize("s", [1.0, 3.0])
    def test_matches_expansion(self, s):
        p = SpectralParams(s, 0.5)
        sched = pdd_schedule(3, 10.0)
        gamma = ControlledDecoherence(free_decoherence(p), sched)
        for t in (1.0, 4.0, 8.5, 13.0):
            ref = controlled_gamma_quadrature(p, sched, t)
            assert gamma(t) == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("n,s,tau_f", [
        (2, 0.5, 10.0), (2, 3.0, 10.0), (20, 1.0, 10.0), (20, 3.0, 10.0),
        (1000, 1.0, 10.0), (1000, 3.0, 10.0), (1000, 3.0, 1001 * np.pi / 40)],
        ids=["n2_s0.5", "n2_s3", "n20_s1", "n20_s3", "n1000_s1", "n1000_s3",
             "n1000_s3_resonance_at_x40"])
    def test_truncated_oracle_matches_the_full_domain(self, n, s, tau_f,
                                                      monkeypatch):
        # the last train puts the filter's first resonance, pi/delta, at
        # x = 40: |f_n|^2 / 2 there nears its bound 2 (n + 1)^2, and a
        # bound that took the weight for 2 would end the domain before it
        p, sched, tol = SpectralParams(s, 0.5), pdd_schedule(n, tau_f), 1e-9
        delta = tau_f / (n + 1)
        for t in (tau_f / 2 + delta / 4, tau_f - delta / 2, 2 * tau_f):
            full = full_domain(monkeypatch, controlled_gamma_quadrature, p,
                               sched, t, tol=tol)
            assert controlled_gamma_quadrature(p, sched, t, tol=tol) == \
                pytest.approx(full, rel=2.0 * tol, abs=0.0)

    def test_trivial_cases(self):
        sched = pdd_schedule(2, 10.0)
        assert controlled_gamma_quadrature(OHMIC, sched, 0.0) == 0.0
        frozen = SpectralParams(1.0, 0.0)
        assert controlled_gamma_quadrature(frozen, sched, 5.0) == 0.0
        with pytest.raises(ValueError, match="nonnegative"):
            controlled_gamma_quadrature(OHMIC, sched, -1.0)

    def test_memory_is_bounded_at_large_n(self):
        # one (point, pulse) phase array per round held 133 MiB here
        sched = pdd_schedule(1000, 10.0)
        tracemalloc.start()
        try:
            controlled_gamma_quadrature(OHMIC, sched, 9.99)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20

    @staticmethod
    def per_pulse_oracle(p, schedule, t):
        """The filter-function integral with one np.exp per (node, pulse)."""
        taus = np.array([x for x in schedule.instants if x < t])
        signs = 2.0 * (-1.0) ** np.arange(1, taus.size + 1)

        def weight(x):
            w = p.omega_c * x
            f = 1.0 + (-1.0) ** (taus.size + 1) * np.exp(1j * t * w)
            for lo in range(0, x.size, 256):
                phases = np.exp(1j * np.outer(w[lo:lo + 256], taus))
                f[lo:lo + 256] += (phases * signs).sum(axis=1)
            return 0.5 * np.abs(f) ** 2

        return bath_integral(p, t, weight, 2.0 * (taus.size + 1) ** 2, 1e-9)

    @pytest.mark.parametrize("n", [1, 2, 20, 1000])
    def test_recurrence_matches_per_pulse_exponentials_on_the_train(self, n):
        sched = pdd_schedule(n, 10.0)
        delta = 10.0 / (n + 1)
        times = (5.0 + delta / 4, 10.0 - delta / 2)
        # at N = 1000 each route rounds to about 1e-12 of Gamma (against a
        # long-double evaluation of the same integrand), so they differ by
        # up to twice that; at smaller N they agree to a few 1e-15
        rel, cases = ((3e-12, [(1.0, t) for t in times]) if n == 1000 else
                      (1e-12, [(s, t) for s in (1.0, 3.0)
                               for t in (delta / 2, *times, 20.0)]))
        for s, t in cases:
            p = SpectralParams(s, 0.5)
            assert controlled_gamma_quadrature(p, sched, t) == pytest.approx(
                self.per_pulse_oracle(p, sched, t), rel=rel, abs=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_recurrence_matches_per_pulse_exponentials_off_the_train(self,
                                                                     seed):
        rng = np.random.default_rng(seed)
        sched = PulseSchedule(tuple(np.sort(rng.uniform(
            0.05, 9.95, int(rng.integers(1, 301))))), 10.0)
        assert sched.spacing is None
        for s in (1.0, 3.0):
            p = SpectralParams(s, 0.5)
            t = float(rng.uniform(0.2, 20.0))
            assert controlled_gamma_quadrature(p, sched, t) == pytest.approx(
                self.per_pulse_oracle(p, sched, t), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [1, 20, 1000])
    def test_two_exponentials_per_weight_call_on_the_train(self, n,
                                                           monkeypatch):
        class CountingNumpy:
            exp_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def exp(self, *args, **kwargs):
                self.exp_calls += 1
                return np.exp(*args, **kwargs)

        counting, per_call = CountingNumpy(), []

        def counted_integral(p, t, weight, weight_sup, tol):
            def counted(x):
                before = counting.exp_calls
                out = weight(x)
                per_call.append(counting.exp_calls - before)
                return out
            return bath_integral(p, t, counted, weight_sup, tol)

        monkeypatch.setattr(pulses, "np", counting)
        monkeypatch.setattr(pulses, "bath_integral", counted_integral)
        controlled_gamma_quadrature(OHMIC, pdd_schedule(n, 10.0), 12.0)
        assert per_call and set(per_call) == {2}
