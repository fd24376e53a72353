"""Config parsing round-trips and the command-line front end."""

import cmath
import contextlib
import functools
import io
import json
import math
import warnings
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dephasing_pdd import cli
from dephasing_pdd.config import ScenarioConfig, load_config
from dephasing_pdd.errors import ConfigError, QuadratureError
from dephasing_pdd.runner import Table
from dephasing_pdd.verify import CheckResult

# what a stubbed run returns: no header, no rows
EMPTY_RUN = ([], Table([[]], [True]))
# `verify`'s checks in report order
VERIFY_CHECKS = [
    "spectral_oracle", "filter_oracle", "hand_anchor",
    "pulse_instant_continuity", "train_table", "protocol_square_identity",
    "protocol_symmetry", "concurrence_oracle", "qslt_inequalities",
    "baseline_degeneracy"]
# every numeric ScenarioConfig field that `trace` takes as a flag
NUMERIC_FIELDS = [f.name for f in fields(ScenarioConfig)
                  if f.type in ("float", "int", "float | None")]


class TestScenarioConfig:
    def test_round_trip_is_identity(self):
        cfg = ScenarioConfig(s=3.0, eta=0.2, tau_f=8.0, tau_d=25.0,
                             n_pulses=7, protocol="Q10",
                             n_values=(1, 5, 10), out="x.csv")
        again = ScenarioConfig.from_text(cfg.to_text())
        assert again == cfg
        assert ScenarioConfig.from_text(again.to_text()) == again

    def test_comments_and_blank_lines_ignored(self):
        cfg = ScenarioConfig.from_text(
            "# a comment\n\ns = 3.0  # trailing\nprotocol=Q00\n")
        assert cfg.s == 3.0
        assert cfg.protocol == "Q00"

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            ScenarioConfig.from_text("s=1.0\nbogus=3\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="key=value"):
            ScenarioConfig.from_text("just some words\n")

    def test_bad_value_reports_field(self):
        with pytest.raises(ConfigError, match="field 's'"):
            ScenarioConfig.from_text("s=fast\n")

    def test_pulse_spacing_overrides_n_pulses(self):
        cfg = ScenarioConfig(tau_f=10.0, pulse_spacing=0.5, n_pulses=3)
        assert cfg.n_pulses == 19  # round(10 / 0.5) - 1

    @pytest.mark.parametrize("kwargs,field", [
        (dict(s=-1.0), "s"),
        (dict(eta=-0.5), "eta"),
        (dict(tau_f=40.0, tau_d=30.0), "tau_f"),
        (dict(protocol="Q22"), "protocol"),
        (dict(initial_state="ghz"), "initial_state"),
        (dict(qsl_window="sliding"), "qsl_window"),
        (dict(points_per_interval=1), "points_per_interval"),
        (dict(initial_state="custom", rho11=0.9), "initial_state"),
        (dict(pulse_spacing=float("inf")), "pulse_spacing"),
        (dict(initial_state="custom", rho11=0.1, rho22=0.4, rho33=0.4,
              rho44=0.1, re_rho23=-0.45), "initial_state"),
    ])
    def test_validation_failures(self, kwargs, field):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig(**kwargs)
        assert err.value.field == field

    def test_load_config(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("s=3.0\nn_pulses=4\n", encoding="utf-8")
        assert load_config(path).n_pulses == 4


class TestCli:
    def test_trace_writes_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main(["trace", "--s", "1", "--n-pulses", "2",
                         "--tau-f", "10", "--tau-d", "12",
                         "--min-points", "50", "--points-per-interval", "4",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#")
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header.split(",")[:4] == ["t", "Q00", "Q10", "Q11"]

    def test_rewrite_leaves_exactly_the_new_bytes(self, tmp_path, capsys):
        argv = ["trace", "--n-pulses", "1", "--tau-d", "10",
                "--min-points", "20", "--points-per-interval", "4"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "x.csv"
        out.write_bytes(b"stale,row\n" * 10 ** 4)  # longer than the CSV
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected
        assert cli.main([*argv, "--out", "/dev/null"]) == 0

    def test_trace_to_stdout(self, capsys):
        code = cli.main(["trace", "--n-pulses", "1", "--tau-d", "10",
                         "--min-points", "20", "--points-per-interval", "4"])
        assert code == 0
        assert "qslt_ratio" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "base.cfg"
        cfgfile.write_text("s=3.0\nn_pulses=2\ntau_d=12\nmin_points=20\n"
                           "points_per_interval=4\n", encoding="utf-8")
        out = tmp_path / "o.csv"
        code = cli.main(["trace", "--config", str(cfgfile),
                         "--s", "1.0", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# s=1.0" in text
        assert "# n_pulses=2" in text

    def test_flags_repair_config_file(self, tmp_path, capsys):
        # the file alone breaks tau_f <= tau_d; the flag mends it
        cfgfile = tmp_path / "long.cfg"
        cfgfile.write_text("tau_f=40\nn_pulses=2\nmin_points=20\n"
                           "points_per_interval=4\n", encoding="utf-8")
        assert cli.main(["trace", "--config", str(cfgfile),
                         "--tau-d", "50"]) == 0
        assert "# tau_d=50.0" in capsys.readouterr().out

    @pytest.mark.parametrize("text,flags,message", [
        ("tau_f=40\n", ["--tau-d", "35"],
         "tau_f must not exceed tau_d (field 'tau_f')"),
        ("tau_f=40\nbogus=3\n", ["--tau-d", "50"],
         "unknown key (field 'bogus', line 2)"),
        ("tau_f=40\ns=fast\n", ["--tau-d", "50", "--s", "1"],
         "could not convert string to float: 'fast' (field 's', line 2)"),
    ], ids=["still_invalid", "unknown_key", "bad_value_under_flag"])
    def test_flags_do_not_hide_config_file_errors(self, text, flags, message,
                                                  tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(text, encoding="utf-8")
        assert cli.main(["trace", "--config", str(cfgfile), *flags]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_sweep_requires_n_values(self, capsys):
        assert cli.main(["sweep-n"]) == 2
        assert "n-values" in capsys.readouterr().err

    def test_sweep_writes_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep-n", "--n-values", "1,2", "--tau-d", "15",
                         "--out", str(out)])
        assert code == 0
        rows = [ln for ln in out.read_text().splitlines()
                if ln and not ln.startswith("#")]
        assert rows[0].split(",")[:3] == ["n", "regime", "t_eval"]
        assert len(rows) == 1 + 2 * 2  # header + (short, long) per n

    def test_config_error_exit_code(self, capsys):
        assert cli.main(["trace", "--protocol", "Q22"]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        pytest.param(["--tau-d", "inf"], id="tau_d_inf"),
        pytest.param(["--eta", "nan"], id="eta_nan"),
        pytest.param(["--s", "nan"], id="s_nan"),
        pytest.param(["--initial-state", "custom", "--im-rho14", "nan"],
                     id="im_rho14_nan"),
        pytest.param(["--initial-state", "custom", "--rho11", ".1",
                      "--rho22", ".4", "--rho33", ".4", "--rho44", ".1",
                      "--re-rho14", ".3", "--re-rho23", "0"],
                     id="rho14_exceeds_block"),
        # flags parse like config-file values: a return code, no SystemExit
        *(pytest.param(["--" + name.replace("_", "-"), "abc"],
                       id=f"{name}_abc") for name in NUMERIC_FIELDS),
    ])
    def test_bad_input_is_config_error(self, argv, capsys):
        assert cli.main(["trace", *argv]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        lambda tmp: ["--config", str(tmp / "missing.cfg")],
        lambda tmp: ["--config", str(tmp)],
        lambda tmp: ["--config", str(tmp / "latin1.cfg")],
        lambda tmp: ["--out", str(tmp / "missing_dir" / "x.csv")],
        lambda tmp: ["--out", str(tmp)],
    ], ids=["config_missing", "config_is_directory", "config_not_utf8",
            "out_dir_missing", "out_is_directory"])
    def test_bad_path_is_config_error(self, argv, tmp_path, monkeypatch,
                                      capsys):
        (tmp_path / "latin1.cfg").write_bytes("# r\xe9sum\xe9\neta=0.5\n"
                                              .encode("latin-1"))
        runs = []
        monkeypatch.setattr(cli, "run_trace",
                            lambda cfg: runs.append(cfg) or EMPTY_RUN)
        assert cli.main(["trace", *argv(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert runs == []  # rejected before any computation

    def test_unwritable_output_is_config_error(self, tmp_path, monkeypatch,
                                               capsys):
        def refuse(*args, **kwargs):
            raise PermissionError("read-only")
        monkeypatch.setattr(cli, "open", refuse, raising=False)
        monkeypatch.setattr(cli, "run_trace", lambda cfg: EMPTY_RUN)
        assert cli.main(["trace", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_pulse_spacing_none_flag(self, capsys):
        assert cli.main(["trace", "--pulse-spacing", "none", "--tau-d", "12",
                         "--min-points", "20"]) == 0
        assert "qslt_ratio" in capsys.readouterr().out

    @pytest.mark.parametrize("command,omit", [("trace", {"n_values"}),
                                              ("sweep-n", set())],
                             ids=["trace", "sweep-n"])
    def test_one_flag_per_config_field(self, command, omit):
        args = vars(cli.build_parser().parse_args([command]))
        assert set(args) == {"command", "config"} | {
            f.name for f in fields(ScenarioConfig) if f.name not in omit}

    def test_bad_n_values_is_config_error(self, capsys):
        assert cli.main(["sweep-n", "--n-values", "5,abc"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def boom(cfg):
            raise QuadratureError("synthetic")
        monkeypatch.setattr(cli, "run_trace", boom)
        assert cli.main(["trace"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["trace", "--omega-c", "1e300", "--tau-d", "12", "--min-points", "20",
         "--n-pulses", "2"],
        ["sweep-n", "--n-values", "0,1,5", "--omega-c", "1e300"],
        ["trace", "--s", "173", "--n-pulses", "0", "--tau-d", "12",
         "--min-points", "20"],
        # Gamma0 = +inf gives Q = exp(-inf) = 0 at n = 0, where the true
        # Q00(tau_f) is 1.0e-301
        ["sweep-n", "--n-values", "0", "--omega-c", "1e300"],
    ], ids=["gamma0_overflows", "sweep_gamma0_overflows",
            "euler_gamma_overflows", "sweep_unpulsed_gamma0_overflows"])
    def test_non_finite_q_is_numerical_failure(self, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            # the failure is the exit code and its line, not a warning
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main([*argv, "--out", str(out)]) == 3
        assert "numerical failure: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("state", ["bell_phi_plus", "singlet"])
    def test_negative_exponent_is_numerical_failure(self, state, tmp_path,
                                                    capsys):
        # Gamma0's closed form cancels as s -> 0: at s = 1e-16 the free
        # Gamma_1 + Gamma_2 is about -1 from t = 0.02 on, so Q00 = e
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["trace", "--s", "1e-16", "--n-pulses", "2",
                             "--initial-state", state,
                             "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure: the decoherence exponent of Q00 is negative "
            "(Q > 1) at t = 0.02\n")
        assert not out.exists()

    def test_underflowing_q_is_a_value(self, capsys):
        # Q = exp(-Gamma) rounds to 0 at a huge coupling: a finite value
        assert cli.main(["trace", "--eta", "1e300", "--tau-d", "12",
                         "--min-points", "20", "--n-pulses", "2"]) == 0
        assert "nan" not in capsys.readouterr().out

    @pytest.mark.parametrize("argv,field", [
        (["trace", "--pulse-spacing", "1e-320"], "pulse_spacing"),
        (["trace", "--pulse-spacing", "1e-300"], "pulse_spacing"),
        (["trace", "--n-pulses", "10000000000"], "n_pulses"),
        (["sweep-n", "--n-values", "1,10000000000"], "n_values"),
    ], ids=["spacing_overflows", "spacing_tiny", "n_pulses", "n_values"])
    def test_pulse_count_is_bounded(self, argv, field, capsys):
        # each would ask pdd_schedule for 1e10 or more instants
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"(field '{field}')" in err

    @pytest.mark.parametrize("argv", [
        ["--min-points", str(10 ** 13)],
        ["--points-per-interval", str(10 ** 13)],
        ["--min-points", str(10 ** 400)],
        ["--n-pulses", "30000"],
    ], ids=["min_points", "points_per_interval", "min_points_beyond_float",
            "n_pulses"])
    def test_time_grid_is_bounded(self, argv, capsys):
        # refused before any array is made: 10**13 points would take 73 TiB
        assert cli.main(["trace", "--n-pulses", "1", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        for name in ("min_points", "points_per_interval", "n_pulses"):
            assert name in err

    def test_euler_gamma_pole_names_s(self, capsys):
        # s > 0 passes the config, but s - 1 rounds to -1, a pole of
        # Euler's Gamma: the bath refuses it by name
        assert cli.main(["trace", "--s", "1e-300"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Ohmicity exponent")
        assert "got s=1e-300" in err

    def test_underflowing_pulse_spacing_is_numerical_failure(self, capsys):
        # at tau_f = 5e-324 the pulse instants underflow to equal values
        assert cli.main(["trace", "--tau-f", "5e-324",
                         "--tau-d", "5e-324"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_reused_parser_does_not_leak_flags(self, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "run_trace",
                            lambda cfg: seen.append(cfg) or EMPTY_RUN)
        assert cli.main(["trace", "--eta", "0.7"]) == 0
        assert cli.main(["trace"]) == 0
        assert cli.build_parser() is cli.build_parser()
        assert seen[0].eta == 0.7
        assert seen[1].eta == ScenarioConfig().eta

    def test_verify_exit_codes(self, monkeypatch, capsys):
        results = [CheckResult("ok", 0.0, 1.0)]
        monkeypatch.setattr(cli.verify_mod, "run_checks", lambda: results)
        assert cli.main(["verify"]) == 0
        results.append(CheckResult("bad", 1.0, 0.0))
        assert cli.main(["verify"]) == 1
        out = capsys.readouterr().out
        assert "ok: PASS" in out
        assert "bad: FAIL" in out
        assert cli.main(["verify", "--json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["passed"] for c in checks] == [True, False]

    def test_verify_runs_every_check(self, monkeypatch, capsys):
        # the suite runs once; the second call reports the same results
        monkeypatch.setattr(cli.verify_mod, "run_checks",
                            functools.cache(cli.verify_mod.run_checks))
        assert cli.main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == VERIFY_CHECKS
        assert all(": PASS (measured " in line for line in lines)

        assert cli.main(["verify", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["checks"]
        assert [c["name"] for c in report["checks"]] == VERIFY_CHECKS
        for c in report["checks"]:
            assert set(c) == {"name", "measured", "threshold", "passed",
                              "elapsed_s"}
            assert c["passed"] is True
            assert 0.0 <= c["measured"] < c["threshold"]
            assert 0.0 < c["elapsed_s"] < 60.0


# the edges of the custom-state rule: population sums off by nothing, by
# less than the trace tolerance or by more; coherences at zero, inside
# sqrt(d_i d_j), on it and just outside it
_SUM_OFFSETS = (0.0, 1e-13, -1e-13, 5e-10, -5e-10)
_COHERENCE_SCALES = (0.0, 0.5, 1.0, 1.0 + 1e-9, 1.0 + 1e-6)


@st.composite
def custom_entries(draw):
    """(rho11, rho22, rho33, rho44, re_rho14, im_rho14, re_rho23, im_rho23)
    near the boundary of the valid X-states, zero populations included."""
    raw = [draw(st.just(0.0) | st.floats(0.0, 1.0)) for _ in range(4)]
    if not any(raw):
        raw[0] = 1.0
    d = [x / sum(raw) for x in raw]
    d[draw(st.integers(0, 3))] += draw(st.sampled_from(_SUM_OFFSETS))
    coherences = []
    for i, j in ((0, 3), (1, 2)):
        scale = draw(st.sampled_from(_COHERENCE_SCALES) | st.floats(0.0, 1.0))
        size = (scale * math.sqrt(max(d[i] * d[j], 0.0))
                + draw(st.sampled_from((0.0, 1e-12))))
        a = size * cmath.exp(1j * draw(st.sampled_from((0.0, math.pi / 2))
                                       | st.floats(0.0, 2 * math.pi)))
        coherences += [a.real, a.imag]
    return (*d, *coherences)


_ENTRY_FLAGS = ("--rho11", "--rho22", "--rho33", "--rho44", "--re-rho14",
                "--im-rho14", "--re-rho23", "--im-rho23")


@settings(max_examples=150, deadline=None)
@given(custom_entries())
# the four entries that passed validation and then failed at the parent:
# a sum 5e-10 off (exit 3), |rho14|^2 above rho11 rho44 by 1e-12 (exit 3),
# a coherence between zero populations (inf cells) and a population of
# -5e-13 (nan cells)
@example((0.25, 0.25, 0.25, 0.2500000005, 0.0, 0.0, 0.0, 0.0))
@example((1e-6, 0.499999, 0.499999, 1e-6, 1.4e-6, 0.0, 0.0, 0.0))
@example((0.0, 0.5, 0.5, 0.0, 1e-12, 0.0, 0.0, 0.0))
@example((-5e-13, 0.5, 0.5, 5e-13, 0.0, 0.0, -0.4, 0.0))
def test_custom_state_exits_cleanly(entries):
    """Every custom state is refused with exit 2 or traced with finite
    cells only."""
    argv = ["trace", "--initial-state", "custom", "--n-pulses", "2",
            "--tau-d", "12", "--min-points", "20", "--points-per-interval",
            "4", *(f"{flag}={value!r}" for flag, value in zip(_ENTRY_FLAGS,
                                                               entries))]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert "(field 'initial_state')" in err.getvalue()
    else:
        cells = {c for line in out.getvalue().splitlines()
                 if not line.startswith("#") for c in line.split(",")}
        assert not cells & {"nan", "inf", "-inf"}


# the sign rate's prefactor eta w_c Gamma(s) passes the float range near
# s = 171.6 (at eta = 0.5), before Gamma0's eta Gamma(s - 1) does near 172.6
LARGE_S_FLAGS = [
    ["--s", "171.5"], ["--s", "171.5", "--n-pulses", "2"],
    ["--s", "171", "--eta", "100", "--n-pulses", "2"],
    ["--s", "171.7", "--n-pulses", "2"], ["--s", "171.5", "--eta", "1e-10"],
    ["--s", "172.5"],
    *(["--s", s, "--n-pulses", n] for s in ("171.3", "171.6", "172.0", "172.4")
      for n in ("2", "10"))]


@pytest.mark.parametrize("command", ["trace", "sweep-n"])
@pytest.mark.parametrize("flags", LARGE_S_FLAGS, ids=" ".join)
def test_large_s_ends_cleanly(command, flags):
    """No warning, exit 0 with finite cells or exit 3 naming the exponent
    that is not finite; a sweep takes the pulse count (10 by default) as
    --n-values."""
    if command == "sweep-n":
        flags = ["--n-values" if f == "--n-pulses" else f for f in flags]
        flags += [] if "--n-values" in flags else ["--n-values", "10"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main([command, *flags])
    assert not caught, [str(w.message) for w in caught]
    assert "Warning" not in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert code in (0, 3), err.getvalue()
    if code == 3:
        assert err.getvalue().startswith(
            "numerical failure: the decoherence exponent of Q")
        assert "is not finite at t = " in err.getvalue()
    else:
        cells = {c for line in out.getvalue().splitlines()
                 if not line.startswith("#") for c in line.split(",")}
        assert not cells & {"nan", "inf", "-inf"}


class TestCheckResult:
    def test_line_format(self):
        passing = CheckResult("alpha", 1e-9, 1e-6)
        failing = CheckResult("beta", 2.0, 1e-6)
        assert passing.passed
        assert "alpha: PASS" in passing.line()
        assert not failing.passed
        assert "beta: FAIL" in failing.line()
