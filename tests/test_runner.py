"""Dataset assembly: grids, trace and sweep rows, CSV rendering."""

from dataclasses import replace

import numpy as np
import pytest

from dephasing_pdd.config import ScenarioConfig
from dephasing_pdd.correlations import concurrence_wootters
from dephasing_pdd.dynamics import Attenuation, two_qubit_evolve
from dephasing_pdd.pulses import pdd_schedule
from dephasing_pdd.runner import (FROZEN_FOOTNOTE, NO_COHERENCE_FOOTNOTE,
                                  SWEEP_COLUMNS, TRACE_COLUMNS, initial_state,
                                  render_csv, run_sweep_n, run_trace,
                                  time_grid)


def small_cfg(**kwargs):
    base = dict(n_pulses=4, tau_f=10.0, tau_d=15.0,
                points_per_interval=4, min_points=30)
    base.update(kwargs)
    return ScenarioConfig(**base)


def data_rows(rows):
    return [r for r in rows if len(r) > 1]


class TestTimeGrid:
    def test_contains_pulse_instants_and_edges(self):
        cfg = small_cfg()
        instants = pdd_schedule(cfg.n_pulses, cfg.tau_f).instants
        ts = time_grid(cfg, instants)
        for edge in (0.0, cfg.tau_f, cfg.tau_d, *instants):
            assert np.min(np.abs(ts - edge)) == 0.0

    def test_respects_min_points(self):
        cfg = small_cfg(min_points=500)
        ts = time_grid(cfg, pdd_schedule(cfg.n_pulses, cfg.tau_f).instants)
        assert len(ts) >= 500
        assert np.all(np.diff(ts) > 0)


class TestInitialState:
    def test_named_states(self):
        assert initial_state(small_cfg(initial_state="singlet")).matrix[
            1, 2] == pytest.approx(-0.5)
        assert initial_state(small_cfg(initial_state="bell_phi_plus")).matrix[
            0, 3] == pytest.approx(0.5)

    def test_custom_state(self):
        cfg = small_cfg(initial_state="custom", rho11=0.4, rho22=0.3,
                        rho33=0.2, rho44=0.1, re_rho14=0.1, im_rho14=0.05,
                        re_rho23=0.0, im_rho23=0.0)
        m = initial_state(cfg).matrix
        assert m[0, 3] == pytest.approx(0.1 + 0.05j)
        assert m[3, 0] == pytest.approx(0.1 - 0.05j)


class TestRunTrace:
    def test_header_echoes_config(self):
        cfg = small_cfg(s=3.0)
        header, _ = run_trace(cfg)
        assert header[-1] == ",".join(TRACE_COLUMNS)
        assert "# s=3.0" in header
        assert "# n_pulses=4" in header

    def test_first_row_has_empty_qslt_cells(self):
        _, rows = run_trace(small_cfg())
        first = data_rows(rows)[0]
        assert first[0] == "0"
        assert first[-2:] == ["", ""]
        later = data_rows(rows)[5]
        assert later[-2] != ""

    def test_discord_only_for_singlet(self):
        _, rows = run_trace(small_cfg(initial_state="bell_phi_plus"))
        qd_col = TRACE_COLUMNS.index("QD_t")
        assert all(r[qd_col] == "" for r in data_rows(rows))

    def test_frozen_dynamics_footnote(self):
        # at eta = 1e-20 Q rounds to 1 everywhere: the ratio would be 0/0
        for eta in (0.0, 1e-20):
            _, rows = run_trace(small_cfg(eta=eta))
            assert rows[-1] == [FROZEN_FOOTNOTE]
            assert all(r[-2:] == ["", ""] for r in data_rows(rows))

    def test_no_coherence_footnote(self):
        cfg = small_cfg(initial_state="custom", rho11=0.4, rho22=0.3,
                        rho33=0.2, rho44=0.1, re_rho14=0.0, im_rho14=0.0,
                        re_rho23=0.0, im_rho23=0.0)
        _, rows = run_trace(cfg)
        assert rows[-1] == [NO_COHERENCE_FOOTNOTE]

    def test_concurrence_column_matches_wootters(self):
        cfg = small_cfg(initial_state="custom", rho11=0.3, rho22=0.25,
                        rho33=0.25, rho44=0.2, re_rho14=0.1, im_rho14=0.0,
                        re_rho23=0.05, im_rho23=0.1, protocol="Q11")
        header, rows = run_trace(cfg)
        rho0 = initial_state(cfg)
        c_col = TRACE_COLUMNS.index("C_t")
        q11_col = TRACE_COLUMNS.index("Q11")
        for row in data_rows(rows)[::7]:
            p1 = p2 = np.sqrt(float(row[q11_col]))
            evolved = two_qubit_evolve(rho0, Attenuation(p1, p2))
            assert float(row[c_col]) == pytest.approx(
                concurrence_wootters(evolved), abs=1e-8)

    def test_running_ratio_is_one_for_free_singlet(self):
        cfg = small_cfg(n_pulses=0, protocol="Q00")
        _, rows = run_trace(cfg)
        ratio_col = TRACE_COLUMNS.index("qslt_ratio")
        vals = [float(r[ratio_col]) for r in data_rows(rows)[1:]]
        assert np.max(np.abs(np.array(vals) - 1.0)) < 1e-6


class TestRunSweepN:
    def test_rows_per_n_and_regime(self):
        cfg = small_cfg()
        header, rows = run_sweep_n(cfg, (0, 2))
        assert header[-1] == ",".join(SWEEP_COLUMNS)
        body = data_rows(rows)
        assert [r[:2] for r in body] == [["0", "short"], ["0", "long"],
                                         ["2", "short"], ["2", "long"]]
        te_col = SWEEP_COLUMNS.index("t_eval")
        assert float(body[0][te_col]) == cfg.tau_f
        assert float(body[1][te_col]) == cfg.tau_d

    def test_q_column_tracks_protocol(self):
        cfg = small_cfg(protocol="Q10")
        _, rows = run_sweep_n(cfg, (3,))
        body = data_rows(rows)
        q_col = SWEEP_COLUMNS.index("Q")
        q10_col = SWEEP_COLUMNS.index("Q10")
        assert all(r[q_col] == r[q10_col] for r in body)

    def test_empty_n_values_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            run_sweep_n(small_cfg(), ())

    def test_frozen_footnote(self):
        for eta in (0.0, 1e-20):
            _, rows = run_sweep_n(small_cfg(eta=eta), (0, 1))
            assert rows[-1] == [FROZEN_FOOTNOTE]
            assert all(r[-2:] == ["", ""] for r in data_rows(rows))

    @pytest.mark.parametrize("cfg", [
        small_cfg(protocol="Q11"),
        small_cfg(protocol="Q10", s=3.0, initial_state="custom", rho11=0.3,
                  rho22=0.25, rho33=0.25, rho44=0.2, re_rho14=0.1,
                  im_rho14=0.05, re_rho23=0.08, im_rho23=0.1),
    ], ids=["q11_singlet", "q10_custom"])
    def test_window_modes_give_identical_rows(self, cfg):
        # each regime's window ends at its own evaluation time
        _, running = run_sweep_n(cfg, (0, 3, 8))
        _, fixed = run_sweep_n(replace(cfg, qsl_window="fixed"), (0, 3, 8))
        assert running == fixed
        assert all(r[-1] != "" for r in data_rows(running))


class TestRenderCsv:
    def test_round_trip_stability(self):
        cfg = small_cfg()
        text1 = render_csv(*run_trace(cfg))
        text2 = render_csv(*run_trace(cfg))
        assert text1 == text2

    def test_footnote_rendered_verbatim(self):
        text = render_csv(["# h", "a,b"], [["1", "2"], ["# note: x"]])
        assert text.splitlines()[-1] == "# note: x"
