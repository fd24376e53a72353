"""The pairing, win count, label refusal and case list of scripts/bench.py.

No test here starts a process: ``bench.run`` or ``subprocess.Popen`` and
``os.wait4`` are replaced by stubs, and a refused label must exit before a
process is started.
"""

import hashlib
import importlib.util
import io
import signal
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SCRIPTS = HERE.parent / "scripts"


@pytest.fixture
def bench(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench",
                                                  SCRIPTS / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)

    def no_process(*args, **kwargs):
        raise AssertionError("a test started a process")

    monkeypatch.setattr(module.subprocess, "run", no_process)
    monkeypatch.setattr(module.subprocess, "Popen", no_process)
    return module


def stub_process(bench, monkeypatch, wait4):
    """Popen returns a process that printed "out" and os.wait4 is ``wait4``;
    os.kill only records its arguments."""
    class Process:
        pid, returncode, stdout = 4242, None, io.StringIO("out\n")

    kills = []
    monkeypatch.setattr(bench.subprocess, "Popen",
                        lambda cmd, **kwargs: Process())
    monkeypatch.setattr(bench.os, "wait4", wait4)
    monkeypatch.setattr(bench.os, "kill", lambda *args: kills.append(args))
    return kills


def test_run_reads_the_peak_rss_from_wait4(bench, monkeypatch):
    usage = types.SimpleNamespace(ru_maxrss=51200)  # KiB
    kills = stub_process(bench, monkeypatch,
                         lambda pid, options: (pid, 0, usage))
    wall, stdout, digest, rss_mb = bench.run(["-c", "pass"], "src",
                                             timeout=60)
    assert (stdout, digest, rss_mb) == ("out\n", None, 50.0)
    assert wall >= 0.0 and kills == []


def test_run_kills_at_the_timeout_and_returns_none(bench, monkeypatch):
    killed = threading.Event()

    def wait4(pid, options):  # the process ends only when killed
        assert killed.wait(10)
        return pid, signal.SIGKILL, types.SimpleNamespace(ru_maxrss=1024)

    kills = stub_process(bench, monkeypatch, wait4)
    monkeypatch.setattr(bench.os, "kill",
                        lambda *args: kills.append(args) or killed.set())
    assert bench.run(["-c", "pass"], "src", timeout=0.01) is None
    assert kills == [(4242, signal.SIGKILL)]


def test_pairs_alternate_with_the_src_side_first(bench, monkeypatch):
    order = []

    def run(argv, src, timeout=None):
        order.append(src)
        return 1.0, "", None

    monkeypatch.setattr(bench, "run", run)
    runs = bench.measure(["-c", "pass"], {"checkout": "here", "other": "src"},
                         4)
    assert order == ["src", "here", "here", "src", "src", "here", "here",
                     "src"]
    assert {side: len(side_runs) for side, side_runs in runs.items()} == {
        "checkout": 4, "other": 4}


def test_a_timeout_ends_the_case_after_its_pair(bench, monkeypatch):
    results = iter([(1.0, "", None), None, (1.0, "", None)])
    monkeypatch.setattr(bench, "run",
                        lambda argv, src, timeout=None: next(results))
    runs = bench.measure(["-c", "pass"], {"checkout": "here", "other": "src"},
                         10, timeout=1)
    assert runs == {"checkout": [None], "other": [(1.0, "", None)]}


def test_a_tie_is_a_win_for_neither_side(bench):
    checkout, other = [1.0, 2.0, 3.0], [1.0, 2.5, 2.0]
    assert bench.wins(checkout, other) == 1
    assert bench.wins(other, checkout) == 1
    record = bench.compare({"checkout": checkout, "other": other})
    assert (record["checkout_wins"], record["other_wins"]) == ("1/3", "1/3")
    assert record["checkout"]["median_s"] == 2.0


@pytest.mark.parametrize("label", ["quadrature", "../x", "a b", ""])
def test_a_taken_or_unplain_label_is_refused_before_any_process(bench, label):
    record = HERE.parent / "BENCH_quadrature.json"
    before = record.read_bytes()
    with pytest.raises(SystemExit) as exit_info:
        bench.main(["--label", label])
    assert exit_info.value.code != 0
    assert record.read_bytes() == before


def test_the_cases_hold_every_config(bench, monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    cases = dict(bench.cli_cases())
    for cfg in (HERE.parent / "configs").glob("*.cfg"):
        argv = cases[cfg.stem]
        assert argv[2] in ("trace", "sweep-n")
        assert argv[3:] == ["--config", f"configs/{cfg.name}", "--out", "OUT"]
    assert "generate_figure_data" in cases
    assert cases["import"] == ["-c", "import dephasing_pdd"]
    assert "fig2_sweep_nonmarkovian_n5000" in cases
    assert "fig2_sweep_nonmarkovian_n10000" in cases


def test_oracle_repeats_are_normalized_by_the_kernel(bench, monkeypatch):
    # the kernel runs before a group's repeats and after each one, and
    # each repeat's per-call time is scaled by the kernel runs around it
    monkeypatch.setattr(bench.sys, "path", list(bench.sys.path))
    monkeypatch.syspath_prepend(str(HERE.parent / "perfbench"))
    import bench_speed
    runs = []
    monkeypatch.setattr(bench_speed, "kernel", lambda: runs.append(1))
    monkeypatch.setattr(bench, "ORACLE_REPEATS", {"a": 3, "b": 2})
    monkeypatch.setattr(bench, "oracle_calls",
                        lambda dp: {"a": [lambda: 1.0, lambda: 2.0],
                                    "b": [lambda: 3.0]})
    report = bench.oracle_report()
    assert len(runs) == (1 + 3) + (1 + 2)
    assert report["a"]["values"] == [1.0, 2.0]
    for group in ("a", "b"):
        assert report[group]["time_per_call_s"] > 0.0
        assert report[group]["time_per_call_norm_s"] > 0.0


def test_each_qsl_call_searches_on_a_fresh_pair(bench, monkeypatch):
    # a pair's SignRate keeps the nodes it searched, so a repeated call on
    # one pair would time the quadrature alone; qslt_pair's ratio and
    # general bound share one search, as in a perfbench qslt item
    import dephasing_pdd as dp
    scans, scan = [], dp.dynamics.SignRate.scan
    monkeypatch.setattr(dp.dynamics.SignRate, "scan", lambda self, *args: (
        scans.append(self) or scan(self, *args)))
    calls = bench.oracle_calls(dp)
    per_call = {}
    for group in ("mlmt", "qslt_pair"):
        assert len(calls[group]) == 4
        start = len(scans)
        values = [calls[group][0]() for _ in range(2)]
        assert values[0] == values[1]
        per_call[group] = (len(scans) - start) / 2
        assert len(set(scans[start:])) == 2  # one rate per call
    assert per_call["mlmt"] == per_call["qslt_pair"] >= 1


def test_the_render_group_times_each_table_built_once(bench, monkeypatch):
    # small traces stand in for the N = 100 ones; each table is built
    # once, and the group records the SHA-256 of each rendered text
    from dephasing_pdd import runner
    monkeypatch.setattr(bench.sys, "path", list(bench.sys.path))
    monkeypatch.syspath_prepend(str(HERE.parent / "perfbench"))
    import bench_speed
    monkeypatch.setattr(bench_speed, "kernel", lambda: None)
    small = {"n_pulses": 2, "min_points": 30, "points_per_interval": 4}
    monkeypatch.setattr(bench, "RENDER_TRACES", (
        ("fig3_trace_markovian_n10", small),
        ("fig3_trace_markovian_n10", {**small, **bench.RENDER_TRACES[2][1]})))
    monkeypatch.setattr(bench, "ORACLE_REPEATS", {"render": 3})
    built, run_trace = [], runner.run_trace
    monkeypatch.setattr(runner, "run_trace",
                        lambda cfg: built.append(cfg) or run_trace(cfg))
    report = bench.oracle_report()["render"]
    assert len(built) == 2 and built[1].initial_state == "custom"
    assert report["values"] == [
        hashlib.sha256(runner.render_csv(*run_trace(cfg)).encode())
        .hexdigest() for cfg in built]
    assert report["time_per_call_norm_s"] > 0.0
    assert report["points"] == report["rounds"] == 0
