#!/usr/bin/env python3
"""Wall time of large-N pulse-number sweeps and of the pulse-train traces,
each run as a fresh process, and of building the controlled Gamma.

Times ``python -m dephasing_pdd sweep-n --n-values N --config <cfg>`` for
the fig1 and fig2 sweep configs at N = 500, 1000 and 2000, and fig2 at
N = 10000 (3 processes each), plus the fig3 N = 10 and the fig3 and fig4
N = 100 traces (7 processes each; start-up dominates them), with
``time.perf_counter`` around the whole subprocess.  The median, range and
samples of each case, the SHA-256 of its CSV, the command line and the
machine go under ``--label`` in BENCH_lattice_table.json, next to the
labels already there, so one file holds a before and an after
measurement of the same machine.  Then it times
``ControlledDecoherence(free_decoherence(p), pdd_schedule(N, 10))`` at
N = 10^3 ... 10^6 (s = 1, the best of 3 in one fresh process per N, or
of fewer once they add up to 10 s); a process that runs past
``CONSTRUCTION_TIMEOUT_S`` is recorded as timed out.
BENCH_train_table.json holds the earlier record of this script.

Usage:
    python3 scripts/bench_train_table.py --label after
    python3 scripts/bench_train_table.py --label before --src OTHER/src
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SWEEP_CASES = (("fig1_sweep_markovian", (500, 1000, 2000)),
               ("fig2_sweep_nonmarkovian", (500, 1000, 2000, 10000)))
TRACE_CONFIGS = ("fig3_trace_markovian_n10", "fig3_trace_markovian_n100",
                 "fig4_trace_nonmarkovian_n100")
REPEATS = 3
TRACE_REPEATS = 7
CONSTRUCTION_NS = (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)
CONSTRUCTION_TIMEOUT_S = 300
CONSTRUCTION_CODE = """
import time
from dephasing_pdd.pulses import (ControlledDecoherence, free_decoherence,
                                  pdd_schedule)
from dephasing_pdd.spectral import SpectralParams
base = free_decoherence(SpectralParams(1.0, 0.5))
schedule = pdd_schedule({n}, 10.0)
walls = []
while len(walls) < 3 and sum(walls) < 10.0:
    start = time.perf_counter()
    ControlledDecoherence(base, schedule)
    walls.append(time.perf_counter() - start)
print(min(walls))
"""
OUT = REPO / "BENCH_lattice_table.json"


def machine():
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, sys; "
         "print(sys.version.split()[0], numpy.__version__)"],
        capture_output=True, text=True, check=True).stdout.split()
    return {"cpu": cpu, "cores": os.cpu_count(),
            "platform": platform.platform(), "python": versions[0],
            "numpy": versions[1]}


def cases():
    for name, n_values in SWEEP_CASES:
        for n in n_values:
            yield f"{name}_n{n}", ["sweep-n", "--n-values", str(n),
                                    "--config", f"configs/{name}.cfg"], REPEATS
    for name in TRACE_CONFIGS:
        yield name, ["trace", "--config", f"configs/{name}.cfg"], TRACE_REPEATS


def time_case(argv, src, repeats):
    env = dict(os.environ, PYTHONPATH=str(src))
    walls, digest = [], None
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-m", "dephasing_pdd", *argv,
                            "--out", str(out)], cwd=REPO, env=env, check=True)
            walls.append(time.perf_counter() - start)
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
    return {"median_s": round(statistics.median(walls), 4),
            "range_s": [round(min(walls), 4), round(max(walls), 4)],
            "samples_s": [round(w, 4) for w in walls], "csv_sha256": digest}


def time_construction(n, src):
    """Best construction time at N = n in a fresh process, or a timeout."""
    try:
        done = subprocess.run(
            [sys.executable, "-c", CONSTRUCTION_CODE.format(n=n)],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, check=True, timeout=CONSTRUCTION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"timed_out_after_s": CONSTRUCTION_TIMEOUT_S}
    return {"best_s": float(f"{float(done.stdout):.4g}")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key of this measurement in the JSON file")
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="source directory of the package to time")
    args = parser.parse_args(argv)

    src = Path(args.src).resolve()
    results = {}
    for name, case, repeats in cases():
        results[name] = {"command": " ".join(
            ["python3", "-m", "dephasing_pdd", *case, "--out", "OUT.csv"]),
            **time_case(case, src, repeats)}
        print(f"{name}: median {results[name]['median_s']:.3f} s "
              f"range {results[name]['range_s']}", flush=True)
    construction = {}
    for n in CONSTRUCTION_NS:
        construction[str(n)] = time_construction(n, src)
        print(f"ControlledDecoherence at N = {n}: {construction[str(n)]}",
              flush=True)

    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record[args.label] = {"machine": machine(), "cases": results,
                          "construction": construction}
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
