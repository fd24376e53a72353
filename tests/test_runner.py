"""Dataset assembly: grids, trace and sweep rows, CSV rendering."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from dephasing_pdd import runner
from dephasing_pdd.config import ScenarioConfig, load_config
from dephasing_pdd.correlations import concurrence_wootters
from dephasing_pdd.dynamics import (Attenuation, Dephasing, ProtocolTag,
                                    SignRate, two_qubit_evolve)
from dephasing_pdd.errors import ConfigError
from dephasing_pdd.pulses import ControlledDecoherence, pdd_schedule
from dephasing_pdd.qsl import QslInputs, phi0, qslt_ratio, qslt_upper_bound
from dephasing_pdd.runner import (FROZEN_FOOTNOTE, NO_COHERENCE_FOOTNOTE,
                                  SWEEP_COLUMNS, TRACE_COLUMNS, Table,
                                  render_csv, run_sweep_n, run_trace,
                                  time_grid)
from dephasing_pdd.spectral import SpectralParams

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def small_cfg(**kwargs):
    base = dict(n_pulses=4, tau_f=10.0, tau_d=15.0,
                points_per_interval=4, min_points=30)
    base.update(kwargs)
    return ScenarioConfig(**base)


def csv_rows(header, table):
    """The rendered lines below the header, each split into its cells (a
    footnote is a 1-tuple)."""
    lines = render_csv(header, table).splitlines()[len(header):]
    return [tuple(line.split(",")) for line in lines]


def data_rows(rows):
    return [r for r in rows if len(r) > 1]


class TestTimeGrid:
    def test_contains_pulse_instants_and_edges(self):
        cfg = small_cfg()
        instants = pdd_schedule(cfg.n_pulses, cfg.tau_f).instants
        ts, _ = time_grid(cfg, instants)
        for edge in (0.0, cfg.tau_f, cfg.tau_d, *instants):
            assert np.min(np.abs(ts - edge)) == 0.0

    def test_respects_min_points(self):
        cfg = small_cfg(min_points=500)
        ts, _ = time_grid(cfg, pdd_schedule(cfg.n_pulses, cfg.tau_f).instants)
        assert len(ts) >= 500
        assert np.all(np.diff(ts) > 0)

    def test_matches_per_segment_linspace(self):
        # the one batched linspace is bit-identical to one per segment
        rng = np.random.default_rng(7)
        for _ in range(300):
            tau_f = rng.uniform(0.1, 50.0)
            cfg = small_cfg(n_pulses=int(rng.integers(0, 201)), tau_f=tau_f,
                            tau_d=tau_f * rng.uniform(1.0, 4.0),
                            points_per_interval=int(rng.integers(2, 40)),
                            min_points=2)
            instants = pdd_schedule(cfg.n_pulses, cfg.tau_f).instants
            edges = sorted({0.0, cfg.tau_f, cfg.tau_d, *instants})
            ts, x = time_grid(cfg, instants)
            ref = np.unique(np.concatenate(
                [np.linspace(a, b, len(x)) for a, b in zip(edges[:-1],
                                                           edges[1:])]))
            assert ts.tobytes() == ref.tobytes()


class TestInitialState:
    def test_named_states(self):
        assert small_cfg(initial_state="singlet").state().matrix[
            1, 2] == pytest.approx(-0.5)
        assert small_cfg(initial_state="bell_phi_plus").state().matrix[
            0, 3] == pytest.approx(0.5)

    def test_custom_state(self):
        cfg = small_cfg(initial_state="custom", rho11=0.4, rho22=0.3,
                        rho33=0.2, rho44=0.1, re_rho14=0.1, im_rho14=0.05,
                        re_rho23=0.0, im_rho23=0.0)
        m = cfg.state().matrix
        assert m[0, 3] == pytest.approx(0.1 + 0.05j)
        assert m[3, 0] == pytest.approx(0.1 - 0.05j)

    def test_named_state_is_built_once_and_read_only(self):
        state = small_cfg(initial_state="singlet").state()
        assert small_cfg(initial_state="singlet", s=3.0).state() is state
        with pytest.raises(ValueError):
            state.matrix[1, 2] = 0.0


class TestRunTrace:
    def test_header_echoes_config(self):
        cfg = small_cfg(s=3.0)
        header, _ = run_trace(cfg)
        assert header[-1] == ",".join(TRACE_COLUMNS)
        assert "# s=3.0" in header
        assert "# n_pulses=4" in header

    def test_first_row_has_empty_qslt_cells(self):
        rows = csv_rows(*run_trace(small_cfg()))
        first = data_rows(rows)[0]
        assert first[0] == "0"
        assert first[-2:] == ("", "")
        later = data_rows(rows)[5]
        assert later[-2] != ""

    def test_discord_only_for_singlet(self):
        rows = csv_rows(*run_trace(small_cfg(initial_state="bell_phi_plus")))
        qd_col = TRACE_COLUMNS.index("QD_t")
        assert all(r[qd_col] == "" for r in data_rows(rows))

    def test_frozen_dynamics_footnote(self):
        # at eta = 1e-20 Q rounds to 1 everywhere: the ratio would be 0/0
        for eta in (0.0, 1e-20):
            rows = csv_rows(*run_trace(small_cfg(eta=eta)))
            assert rows[-1] == (FROZEN_FOOTNOTE,)
            assert all(r[-2:] == ("", "") for r in data_rows(rows))

    def test_no_coherence_footnote(self):
        cfg = small_cfg(initial_state="custom", rho11=0.4, rho22=0.3,
                        rho33=0.2, rho44=0.1, re_rho14=0.0, im_rho14=0.0,
                        re_rho23=0.0, im_rho23=0.0)
        rows = csv_rows(*run_trace(cfg))
        assert rows[-1] == (NO_COHERENCE_FOOTNOTE,)

    def test_concurrence_column_matches_wootters(self):
        cfg = small_cfg(initial_state="custom", rho11=0.3, rho22=0.25,
                        rho33=0.25, rho44=0.2, re_rho14=0.1, im_rho14=0.0,
                        re_rho23=0.05, im_rho23=0.1, protocol="Q11")
        rows = csv_rows(*run_trace(cfg))
        rho0 = cfg.state()
        c_col = TRACE_COLUMNS.index("C_t")
        q11_col = TRACE_COLUMNS.index("Q11")
        for row in data_rows(rows)[::7]:
            p1 = p2 = np.sqrt(float(row[q11_col]))
            evolved = two_qubit_evolve(rho0, Attenuation(p1, p2))
            assert float(row[c_col]) == pytest.approx(
                concurrence_wootters(evolved), abs=1e-8)

    def test_running_ratio_is_one_for_free_singlet(self):
        cfg = small_cfg(n_pulses=0, protocol="Q00")
        rows = csv_rows(*run_trace(cfg))
        ratio_col = TRACE_COLUMNS.index("qslt_ratio")
        vals = [float(r[ratio_col]) for r in data_rows(rows)[1:]]
        assert np.max(np.abs(np.array(vals) - 1.0)) < 1e-6


class TestRunSweepN:
    def test_rows_per_n_and_regime(self):
        cfg = small_cfg(n_values=(0, 2))
        header, table = run_sweep_n(cfg)
        rows = csv_rows(header, table)
        assert header[-1] == ",".join(SWEEP_COLUMNS)
        body = data_rows(rows)
        assert [r[:2] for r in body] == [("0", "short"), ("0", "long"),
                                         ("2", "short"), ("2", "long")]
        te_col = SWEEP_COLUMNS.index("t_eval")
        assert float(body[0][te_col]) == cfg.tau_f
        assert float(body[1][te_col]) == cfg.tau_d

    def test_q_column_tracks_protocol(self):
        rows = csv_rows(*run_sweep_n(small_cfg(protocol="Q10",
                                               n_values=(3,))))
        body = data_rows(rows)
        q_col = SWEEP_COLUMNS.index("Q")
        q10_col = SWEEP_COLUMNS.index("Q10")
        assert all(r[q_col] == r[q10_col] for r in body)

    def test_empty_n_values_rejected(self):
        with pytest.raises(ConfigError, match="nonempty") as err:
            run_sweep_n(replace(small_cfg(), n_values=()))
        assert err.value.field == "n_values"

    def test_frozen_footnote(self):
        for eta in (0.0, 1e-20):
            rows = csv_rows(*run_sweep_n(small_cfg(eta=eta, n_values=(0, 1))))
            assert rows[-1] == (FROZEN_FOOTNOTE,)
            assert all(r[-2:] == ("", "") for r in data_rows(rows))

    @pytest.mark.parametrize("cfg", [
        small_cfg(protocol="Q11"),
        small_cfg(protocol="Q10", s=3.0, initial_state="custom", rho11=0.3,
                  rho22=0.25, rho33=0.25, rho44=0.2, re_rho14=0.1,
                  im_rho14=0.05, re_rho23=0.08, im_rho23=0.1),
    ], ids=["q11_singlet", "q10_custom"])
    def test_window_modes_give_identical_rows(self, cfg):
        # each regime's window ends at its own evaluation time
        cfg = replace(cfg, n_values=(0, 3, 8))
        running = csv_rows(*run_sweep_n(cfg))
        fixed = csv_rows(*run_sweep_n(replace(cfg, qsl_window="fixed")))
        assert running == fixed
        assert all(r[-1] != "" for r in data_rows(running))


class TestControlledBuilds:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = ControlledDecoherence.__init__

        def counting(self, *args, **kwargs):
            calls.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ControlledDecoherence, "__init__", counting)
        return calls

    @pytest.mark.parametrize("protocol", ["Q00", "Q10", "Q11"])
    def test_one_controlled_gamma_per_sweep_point(self, builds, protocol):
        # shared by the Q columns and the extrema search
        run_sweep_n(small_cfg(protocol=protocol, n_values=(3, 7, 0)))
        assert len(builds) == 2

    def test_one_controlled_gamma_per_trace(self, builds):
        run_trace(small_cfg(protocol="Q10"))
        assert len(builds) == 1


class TestTrainTable:
    @pytest.fixture
    def tables(self, monkeypatch):
        calls = []
        original = ControlledDecoherence.train_table

        def recording(self, fn, x, a, b, include_static):
            calls.append(include_static)
            return original(self, fn, x, a, b, include_static)

        monkeypatch.setattr(ControlledDecoherence, "train_table", recording)
        return calls

    @pytest.mark.parametrize("name", ["fig3_trace_markovian_n100",
                                      "fig4_trace_nonmarkovian_n100"])
    def test_table_gamma_matches_exact_route_on_trace_grid(self, name):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        schedule = pdd_schedule(cfg.n_pulses, cfg.tau_f)
        ts, x = time_grid(cfg, schedule.instants)
        p = len(x) - 1
        dephasing = Dephasing(SpectralParams(cfg.s, cfg.eta, cfg.omega_c),
                              schedule)
        gamma = dephasing.controlled
        rows, values, base_values = gamma.train_table(
            gamma.base, x, ts[:-1:p], ts[p::p], include_static=True)
        # every train segment, not [tau_N, tau_f] or the tail
        assert np.array_equal(rows, np.arange(cfg.n_pulses))
        at = (rows * p)[:, None] + np.arange(p + 1)
        assert np.max(np.abs(values - gamma(ts[at]))) <= 1e-13
        assert np.max(np.abs(base_values - gamma.base(ts[at]))) <= 1e-14
        # the columns put each table value at its own grid time
        table, exact = dephasing.q_columns(ts, x), dephasing.q_columns(ts)
        for tag in ProtocolTag:
            assert np.allclose(table[tag], exact[tag], rtol=1e-13, atol=0.0)
        assert np.array_equal(table[ProtocolTag.Q00], exact[ProtocolTag.Q00])

    def test_q00_trace_builds_no_rate_table_unpulsed_none(self, tables):
        # a Q00 trace prints Q10 and Q11 too, so its columns take the
        # Gamma table; its extrema search takes no rate
        run_trace(small_cfg(protocol="Q00"))
        assert tables == [True]
        tables.clear()
        run_trace(small_cfg(protocol="Q11"))
        assert tables[0] and len(tables) > 1 and not any(tables[1:])
        tables.clear()
        run_trace(small_cfg(n_pulses=0))
        assert tables == []


def reference_lines(table):
    """Row-by-row rendering: ``format(v, ".9g")`` of each float cell, the
    string itself in a string column, "" where the cell is not live."""
    rows = len(table) - (table.footnote is not None)
    live = [np.broadcast_to(on, rows) for on in table.live]
    lines = [",".join(
        (values[i] if isinstance(values, list)
         else format(float(values[i]), ".9g")) if on[i] else ""
        for values, on in zip(table.columns, live)) for i in range(rows)]
    return lines + ([table.footnote] if table.footnote is not None else [])


class TestCells:
    HARD = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e16,
            1e-5, 123456789.5, -123456789.5, 0.1, 1.0 / 3.0, 1.0]

    def test_matches_format_of_each_value(self):
        rng = np.random.default_rng(5)
        # arbitrary bit patterns: every exponent, subnormals, nan payloads
        bits = rng.integers(0, 2 ** 64, 20_000, dtype=np.uint64)
        values = np.concatenate((self.HARD, bits.view(np.float64),
                                 rng.random(20_000)))
        # one column, then the same values as four columns of a table
        one = render_csv([], Table([values], [True])).splitlines()
        assert one == [format(float(v), ".9g") for v in values]
        table = Table(list(values[:40_012].reshape(4, -1)), [True] * 4)
        assert render_csv([], table).splitlines() == reference_lines(table)

    def test_cells_outside_live_are_empty(self):
        table = Table([np.array([0.5, 2.0, np.nan, 3.0])],
                      [np.array([True, False, False, True])])
        assert render_csv([], table).splitlines() == ["0.5", "", "", "3"]
        assert render_csv(["# h"], Table([np.zeros(0)], [True])) == "# h\n"

    def test_live_masks_change_mid_table(self, monkeypatch):
        # runs of equal empty cells of every length, cut by short chunks
        rng = np.random.default_rng(7)
        n = 2_000
        values = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
                  for _ in range(5)]
        masks = [rng.random(n) < 0.5, np.repeat(rng.random(40) < 0.5, 50),
                 np.arange(n) > 0]
        table = Table(values, [True, *masks, False], "# note: x")
        expected = reference_lines(table)
        assert render_csv(["a"], table).splitlines() == ["a", *expected]
        monkeypatch.setattr(runner, "_CHUNK_ROWS", 7)
        assert render_csv(["a"], table).splitlines() == ["a", *expected]
        assert len(table) == n + 1

    def test_string_columns(self):
        table = Table([["0", "0", "12", "12"], ["short", "long"] * 2,
                       np.array([10.0, 30.0, 10.0, 30.0]),
                       np.array([np.nan, 0.25, 1e-300, -0.0])],
                      [True, True, True, np.array([False, True, True, True])])
        assert render_csv([], table).splitlines() == [
            "0,short,10,", "0,long,30,0.25", "12,short,10,1e-300",
            "12,long,30,-0"]


class TestRenderCsv:
    def test_round_trip_stability(self):
        cfg = small_cfg()
        text1 = render_csv(*run_trace(cfg))
        text2 = render_csv(*run_trace(cfg))
        assert text1 == text2

    def test_footnote_rendered_verbatim(self):
        table = Table([np.array([1.0]), np.array([2.0])], [True, True],
                      "# note: x")
        text = render_csv(["# h", "a,b"], table)
        assert text == "# h\na,b\n1,2\n# note: x\n"
        assert len(table) == 2

    @pytest.mark.parametrize("cfg", [
        small_cfg(),
        small_cfg(initial_state="bell_phi_plus", qsl_window="fixed"),
        small_cfg(initial_state="custom", rho11=0.4, rho22=0.3, rho33=0.2,
                  rho44=0.1, re_rho14=0.0, im_rho14=0.0, re_rho23=0.0,
                  im_rho23=0.0),
        small_cfg(eta=0.0),
    ], ids=["singlet", "bell_fixed", "no_coherence", "frozen"])
    def test_trace_matches_row_by_row_rendering(self, cfg):
        # the t = 0 row, empty QD for a non-singlet, all-empty QSLT cells
        header, table = run_trace(cfg)
        lines = render_csv(header, table).splitlines()
        assert lines == [*header, *reference_lines(table)]
        assert len(lines) == len(header) + len(table)

    def test_sweep_matches_row_by_row_rendering(self):
        header, table = run_sweep_n(small_cfg(n_values=(0, 3, 12)))
        lines = render_csv(header, table).splitlines()
        assert lines == [*header, *reference_lines(table)]
        assert [line.split(",")[:2] for line in lines[len(header):]] == [
            [n, regime] for n in ("0", "3", "12")
            for regime in ("short", "long")]


class TestQsltCellsMatchScalarApi:
    """The vectorized QSLT cells (one cumulative total variation per run,
    with its own ratio and bound formulas) agree with the scalar
    ``qslt_ratio`` and ``qslt_upper_bound`` at the exact grid times; a
    cell carries 9 significant digits.  Both locate extrema on the same
    sign rate, which ``test_qsl`` checks against dQ/dt."""

    @staticmethod
    def scalar_api(cfg):
        schedule = pdd_schedule(cfg.n_pulses, cfg.tau_f)
        dephasing = Dephasing(SpectralParams(cfg.s, cfg.eta, cfg.omega_c),
                              schedule)
        tag = ProtocolTag(cfg.protocol)
        q_of_t, _ = dephasing.functions(tag)
        inputs = QslInputs(phi0(cfg.state()), q_of_t, cfg.tau_d,
                           schedule.instants, SignRate(dephasing, tag))
        return (lambda t: qslt_ratio(inputs, t),
                lambda t: qslt_upper_bound(inputs, t))

    @staticmethod
    def assert_close(cells, ts, ratio, upper):
        for (r_cell, u_cell), t in zip(cells, ts):
            assert float(r_cell) == pytest.approx(ratio(t), rel=1e-8, abs=0)
            assert float(u_cell) == pytest.approx(upper(t), rel=1e-8, abs=0)

    @pytest.mark.parametrize("protocol", ["Q00", "Q10", "Q11"])
    @pytest.mark.parametrize("name", ["fig5_trace_markovian",
                                      "fig5_trace_nonmarkovian",
                                      "fig3_trace_markovian_n100"])
    def test_trace_rows(self, name, protocol):
        cfg = replace(load_config(CONFIGS / f"{name}.cfg"), protocol=protocol)
        rows = csv_rows(*run_trace(cfg))
        ts, _ = time_grid(cfg, pdd_schedule(cfg.n_pulses, cfg.tau_f).instants)
        pick = slice(97, None, 97)
        self.assert_close([r[-2:] for r in data_rows(rows)[pick]], ts[pick],
                          *self.scalar_api(cfg))

    @pytest.mark.parametrize("name", ["fig1_sweep_markovian",
                                      "fig2_sweep_nonmarkovian"])
    def test_sweep_rows(self, name):
        cfg = load_config(CONFIGS / f"{name}.cfg")
        rows = csv_rows(*run_sweep_n(cfg))
        for n in cfg.n_values:
            body = [r for r in data_rows(rows) if r[0] == str(n)]
            self.assert_close([r[-2:] for r in body], (cfg.tau_f, cfg.tau_d),
                              *self.scalar_api(replace(cfg, n_pulses=n)))
