#!/usr/bin/env python3
"""Before/after timings of the package import, the figure commands, the
controlled Gamma, the quadrature oracles, the two QSL bounds of one
trajectory (``qslt_pair``) and the CSV rendering of three N = 100 traces
(``render``), in pairs of fresh processes.

Each run is a fresh process with PYTHONPATH set to one source tree.  With
``--src OTHER/src`` every case runs as pairs, the ``--src`` tree first on
odd pairs and this checkout first on even pairs, so a drift of the host's
speed falls on both sides alike; without it only this checkout is timed.
For each side the record holds the samples, median and quartiles, each
run's peak RSS and the CSV digests; with two sides also the share of pairs
each wins (a tie counts for neither).  Each oracle and render group's
per-call time is also recorded normalized by perfbench's host-speed kernel
(``perfbench/bench_speed.py``, imported, not copied), timed around every
repeat, so a drift of the host's speed between the two sides' processes
cancels.  It names the machine, this
checkout's commit and whether its tree is dirty, and the ``--src`` path as
given, and goes to a new BENCH_<label>.json: a label that is not a plain
name, or whose file exists, is refused before anything runs.

Usage:
    python3 scripts/bench.py --label NAME [--src OTHER/src]
"""

import argparse
import collections
import functools
import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import mpmath
import numpy as np

REPO = Path(__file__).resolve().parent.parent
PAIRS = 10
SWEEP_CASES = (("fig1_sweep_markovian", (500, 1000, 2000)),
               ("fig2_sweep_nonmarkovian", (500, 1000, 2000, 5000, 10000)))
CONSTRUCTION_NS = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
CONSTRUCTION_TIMEOUT_S = 300
WORKER = (f"import sys; sys.path.append({str(REPO / 'scripts')!r}); "
          "import bench, json; print(json.dumps(bench.{}))")
ORACLE_REPEATS = {"gamma0": 15, "filter": 15, "mlmt": 15, "qslt_pair": 15,
                  "filter_n1000": 3, "render": 15}
# the traces whose tables the render group renders, each built once per
# process: (config, overrides); the custom state has no coherence, so its
# C_t and QC_t cells hold 0 and its QSLT cells are empty
RENDER_TRACES = (("fig3_trace_markovian_n100", {}),
                 ("fig4_trace_nonmarkovian_n100", {}),
                 ("fig3_trace_markovian_n100", {
                     "initial_state": "custom", "rho11": 0.4, "rho22": 0.3,
                     "rho33": 0.2, "rho44": 0.1, "re_rho23": 0.0}))
ETA = 0.5
TAU_F = 10.0
S_VALUES = (1.0, 3.0)
N1000_T = 9.99


def wins(mine, theirs):
    """Pairs in which mine took less time; a tie counts for neither side."""
    return sum(a < b for a, b in zip(mine, theirs))


def run(argv, src, timeout=None):
    """(wall s, stdout, SHA-256 of what it wrote to OUT or None, peak RSS
    in MB) of one fresh process ``python3 *argv`` with PYTHONPATH=src, or
    None past timeout.  The process is reaped by ``os.wait4``, whose
    ``ru_maxrss`` (KiB on Linux) is its peak resident set."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        cmd = [sys.executable, *(str(out) if a == "OUT" else a for a in argv)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=REPO, stdout=subprocess.PIPE,
                                text=True,
                                env=dict(os.environ, PYTHONPATH=str(src)))
        killed = []

        def kill():  # os.kill, not proc.kill, which may reap the process
            killed.append(True)
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, kill) if timeout else None
        if timer:
            timer.start()
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if timer:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed:
            return None
        if proc.returncode:
            raise subprocess.CalledProcessError(proc.returncode, cmd, stdout)
        return (wall, stdout, digest(out) if out.exists() else None,
                usage.ru_maxrss / 1024)


def digest(path):
    if path.is_dir():
        return hashlib.sha256("".join(
            f"{p.name} {digest(p)}\n" for p in sorted(path.glob("*.csv"))
        ).encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure(argv, srcs, pairs, timeout=None):
    """{side: [run(...), ...]} over pairs of processes: the --src side first
    on odd pairs k, this checkout first on even ones; a pair with a timeout
    is the last one."""
    runs, sides = {side: [] for side in srcs}, tuple(srcs)
    for k in range(1, pairs + 1):
        for side in sides[::-1] if k % 2 else sides:
            runs[side].append(run(argv, srcs[side], timeout))
        if any(side_runs[-1] is None for side_runs in runs.values()):
            break
    return runs


def compare(samples):
    """{side: samples, median and quartiles (s)}, and with two sides the
    share of pairs each one wins."""
    out = {}
    for side, values in samples.items():
        out[side] = {"samples_s": [_sig(v) for v in values]}
        if values:
            q1, median, q3 = np.percentile(values, [25, 50, 75])
            out[side].update(median_s=_sig(median),
                             quartiles_s=[_sig(q1), _sig(q3)])
    if len(samples) == 2:
        mine, theirs = samples["checkout"], samples["other"]
        pairs = min(len(mine), len(theirs))
        out["checkout_wins"] = f"{wins(mine, theirs)}/{pairs}"
        out["other_wins"] = f"{wins(theirs, mine)}/{pairs}"
    return out


def peak_rss(side_runs):
    """The peak RSS (MB) of each run that did not time out."""
    return [_sig(r[3]) for r in side_runs if r]


def _sig(x):
    return float(f"{x:.4g}")


def cli_cases():
    """(name, argv) of every timed command line, the bare package import
    first; OUT stands for the path it writes."""
    from generate_figure_data import runs

    def cli(name, *args):
        return name, ["-m", "dephasing_pdd", *args, "--out", "OUT"]

    yield "import", ["-c", "import dephasing_pdd"]
    for cfg, verb, extra, _ in runs(Path()):
        if not extra:
            yield cli(cfg.stem, verb, "--config", f"configs/{cfg.name}")
    yield ("generate_figure_data",
           ["scripts/generate_figure_data.py", "--out-dir", "OUT"])
    for name, n_values in SWEEP_CASES:
        for n in n_values:
            yield cli(f"{name}_n{n}", "sweep-n", "--n-values", str(n),
                      "--config", f"configs/{name}.cfg")


def oracle_calls(dp):
    """{group: [zero-argument call, ...]}, like perfbench's oracle items,
    and ``render_csv`` of each of the ``RENDER_TRACES`` tables."""
    from dephasing_pdd.runner import render_csv, run_trace
    out = collections.defaultdict(list)
    for name, overrides in RENDER_TRACES:
        cfg = dp.load_config(REPO / "configs" / f"{name}.cfg", overrides)
        out["render"].append(functools.partial(render_csv, *run_trace(cfg)))
    for s in S_VALUES:
        p = dp.spectral.SpectralParams(s, ETA)
        for t in (3.7, 24.3):
            out["gamma0"].append(functools.partial(
                dp.spectral.gamma0_quadrature, p, t, tol=1e-9))
        for n in (2, 5, 10, 20):
            sched = dp.pulses.pdd_schedule(n, TAU_F)
            for t in (4.3, 12.7):
                out["filter"].append(functools.partial(
                    dp.pulses.controlled_gamma_quadrature, p, sched, t,
                    tol=1e-8))
        for tag, n in (("Q10", 5), ("Q11", 2)):
            for group, ratio_first in (("mlmt", False), ("qslt_pair", True)):
                out[group].append(functools.partial(
                    qslt_on_fresh_pair, dp, p, tag, n, ratio_first))
        out["filter_n1000"].append(functools.partial(
            dp.pulses.controlled_gamma_quadrature, p,
            dp.pulses.pdd_schedule(1000, TAU_F), N1000_T))
    return out


def qslt_on_fresh_pair(dp, p, tag, n, ratio_first):
    """qslt_general of the singlet on [0, 5.5] on a new
    ``attenuation_functions`` pair, after qslt_ratio on the same pair when
    ``ratio_first`` (a perfbench qslt item's shape).  A pair's sign rate
    keeps the nodes it searched, so a repeat on one pair would time the
    quadrature alone."""
    sched = dp.pulses.pdd_schedule(n, TAU_F)
    q_of_t, qdot_of_t = dp.dynamics.attenuation_functions(
        dp.dynamics.ControlProtocol(dp.dynamics.ProtocolTag(tag), sched), p)
    rho0 = dp.dynamics.singlet()
    if ratio_first:
        dp.qsl.qslt_ratio(dp.qsl.QslInputs(
            dp.qsl.phi0(rho0), q_of_t, tau_d=5.5, breakpoints=sched.instants,
            qdot_of_t=qdot_of_t), 5.5, rel_tol=1e-9)
    return dp.qsl.qslt_general(rho0, q_of_t, qdot_of_t, 5.5,
                               breakpoints=sched.instants, rel_tol=1e-9)


def construction(n):
    """Best time of building the controlled Gamma at N = n (s = 1), of 3
    or of fewer once they add up to 10 s."""
    from dephasing_pdd import (ControlledDecoherence, SpectralParams,
                               free_decoherence, pdd_schedule)
    base = free_decoherence(SpectralParams(1.0, ETA))
    schedule, walls = pdd_schedule(n, TAU_F), []
    while len(walls) < 3 and sum(walls) < 10.0:
        start = time.perf_counter()
        ControlledDecoherence(base, schedule)
        walls.append(time.perf_counter() - start)
    return min(walls)


def oracle_report():
    """{group: time per call (median of the repeats), the same normalized
    by the host-speed kernel, values (the SHA-256 of a rendered text),
    integrand points and rounds per call} for the groups in
    ``ORACLE_REPEATS`` of the package on sys.path; the counting pass wraps
    quadrature._panel_estimates and is the warm-up.  The kernel runs once
    before a group's repeats and after each one (``SpeedProbe``), and each
    repeat is normalized by the kernel runs around it."""
    import dephasing_pdd as dp
    sys.path.insert(0, str(REPO / "perfbench"))
    from bench_speed import SpeedProbe
    quad, estimates = dp.quadrature, dp.quadrature._panel_estimates
    probe = SpeedProbe()

    def counted(f, lo_edges, hi_edges):
        def integrand(x):
            tally["points"] += np.size(x)
            return f(x)
        tally["rounds"] += 1
        return estimates(integrand, lo_edges, hi_edges)

    report, all_calls = {}, oracle_calls(dp)
    for group, repeats in ORACLE_REPEATS.items():
        calls, tally = all_calls[group], {"points": 0, "rounds": 0}
        quad._panel_estimates = counted
        try:
            values = [hashlib.sha256(v.encode()).hexdigest()
                      if isinstance(v, str) else float(v)
                      for v in (call() for call in calls)]
        finally:
            quad._panel_estimates = estimates
        walls, norms, before = [], [], probe.sample()
        for _ in range(repeats):
            start = time.perf_counter()
            for call in calls:
                call()
            end = time.perf_counter()
            after = probe.after_item(end - start)
            walls.append((end - start) / len(calls))
            norms.append(probe.normalized(before, after, start, end)
                         / len(calls))
            before = after
        report[group] = {"time_per_call_s": float(np.median(walls)),
                         "time_per_call_norm_s": float(np.median(norms)),
                         "values": values, **{key: value / len(calls)
                                              for key, value in tally.items()}}
    return report


@mpmath.workdps(40)
def controlled_gamma_mp(s, instants, t):
    """Gamma(t) = -sum_{a<b} c_a c_b Gamma0(t_b - t_a) over the points 0,
    the float instants before t, and t (weights 1, 2(-1)^j, (-1)^(n+1))."""
    n = sum(x < t for x in instants)
    pts = [mpmath.mpf(x) for x in (0.0, *instants[:n], t)]
    c = [1, *(2 * (-1) ** j for j in range(1, n + 1)), (-1) ** (n + 1)]
    a = mpmath.mpf(s) - 1
    scale = ETA * mpmath.gamma(a) if s != 1.0 else ETA / 2

    def gamma0(u):
        if s == 1.0:
            return mpmath.log1p(u * u)
        return 1 - mpmath.cos(a * mpmath.atan(u)) * (1 + u * u) ** (-a / 2)

    return -scale * mpmath.fsum(c[i] * c[j] * gamma0(pts[j] - pts[i])
                                for j in range(len(pts)) for i in range(j))


def git(*args):
    return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                          text=True, check=True).stdout.strip()


def machine():
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {"cpu": cpu, "cores": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="names the new record BENCH_<label>.json")
    parser.add_argument("--src", help="source directory of the other tree, "
                        "timed in pairs against this checkout's src")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.label):
        parser.error(f"--label {args.label!r} is not a plain name "
                     "([A-Za-z0-9_-]+)")
    out = REPO / f"BENCH_{args.label}.json"
    if out.exists():
        parser.error(f"{out.name} exists; a record is never overwritten")
    srcs = {"checkout": REPO / "src"}
    sides = {"checkout": {"src": "src", "commit": git("rev-parse", "HEAD"),
                          "dirty": bool(git("status", "--porcelain"))}}
    if args.src is not None:
        srcs["other"] = Path(args.src).resolve()
        if not (srcs["other"] / "dephasing_pdd").is_dir():
            parser.error(f"--src {args.src} holds no dephasing_pdd package")
        sides["other"] = {"src": args.src}
    sys.path.insert(0, str(REPO / "src"))

    record = {"sides": sides, "machine": machine(), "pairs": PAIRS,
              "cases": {}, "construction": {}, "oracles": {}}
    for name, case in cli_cases():
        runs = measure(case, srcs, PAIRS)
        result = record["cases"][name] = {
            "command": " ".join(["python3", *case]),
            **compare({side: [r[0] for r in side_runs]
                       for side, side_runs in runs.items()})}
        for side, side_runs in runs.items():
            result[side].update(csv_sha256=side_runs[-1][2],
                                peak_rss_mb=peak_rss(side_runs))
        print(name, result, flush=True)

    for n in CONSTRUCTION_NS:
        runs = measure(["-c", WORKER.format(f"construction({n})")], srcs,
                       PAIRS, timeout=CONSTRUCTION_TIMEOUT_S)
        result = record["construction"][str(n)] = compare(
            {side: [float(r[1]) for r in side_runs if r]
             for side, side_runs in runs.items()})
        for side, side_runs in runs.items():
            result[side]["peak_rss_mb"] = peak_rss(side_runs)
            if None in side_runs:
                result[side]["timed_out_after_s"] = CONSTRUCTION_TIMEOUT_S
        print(f"construction at N = {n}", result, flush=True)

    runs = measure(["-c", WORKER.format("oracle_report()")], srcs, PAIRS)
    reports = {side: [json.loads(r[1]) for r in side_runs]
               for side, side_runs in runs.items()}
    record["oracle_peak_rss_mb"] = {side: peak_rss(side_runs)
                                    for side, side_runs in runs.items()}
    for group in ORACLE_REPEATS:
        result = record["oracles"][group] = compare(
            {side: [r[group]["time_per_call_s"] for r in reps]
             for side, reps in reports.items()})
        result["normalized"] = compare(
            {side: [r[group]["time_per_call_norm_s"] for r in reps]
             for side, reps in reports.items()})
        for side, reps in reports.items():
            result[side].update(points=reps[0][group]["points"],
                                rounds=reps[0][group]["rounds"])
            if group == "render":
                result[side]["sha256"] = reps[0][group]["values"]
    from dephasing_pdd import pdd_schedule
    reference = [controlled_gamma_mp(s, pdd_schedule(1000, TAU_F).instants,
                                     N1000_T) for s in S_VALUES]
    for side, reps in reports.items():
        record["oracles"]["filter_n1000"][side]["mpmath_rel_err"] = {
            f"s={s:g}": float(abs((value - ref) / ref)) for s, value, ref
            in zip(S_VALUES, reps[0]["filter_n1000"]["values"], reference)}
    print("oracles", record["oracles"], flush=True)

    with out.open("x") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
