#!/usr/bin/env python3
"""Wall time of large-N pulse-number sweeps, each run as a fresh process.

Times ``python -m dephasing_pdd sweep-n --n-values N --config <cfg>`` for
the fig1 and fig2 sweep configs at N = 500, 1000 and 2000 (3 processes
each), plus the fig3 N = 10 trace (7 processes; start-up dominates it),
with ``time.perf_counter`` around the whole subprocess.  The median,
range and samples of each case, the SHA-256 of its CSV, the command line
and the machine go under ``--label`` in BENCH_train_table.json, next to
the labels already there, so one file holds a before and an after
measurement of the same machine.

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
SWEEP_CONFIGS = ("fig1_sweep_markovian", "fig2_sweep_nonmarkovian")
TRACE_CONFIG = "fig3_trace_markovian_n10"
N_VALUES = (500, 1000, 2000)
REPEATS = 3
TRACE_REPEATS = 7
OUT = REPO / "BENCH_train_table.json"


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
    for name in SWEEP_CONFIGS:
        for n in N_VALUES:
            yield f"{name}_n{n}", ["sweep-n", "--n-values", str(n),
                                    "--config", f"configs/{name}.cfg"]
    yield TRACE_CONFIG, ["trace", "--config", f"configs/{TRACE_CONFIG}.cfg"]


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


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key of this measurement in the JSON file")
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="source directory of the package to time")
    args = parser.parse_args(argv)

    results = {}
    for name, case in cases():
        repeats = TRACE_REPEATS if name == TRACE_CONFIG else REPEATS
        results[name] = {"command": " ".join(
            ["python3", "-m", "dephasing_pdd", *case, "--out", "OUT.csv"]),
            **time_case(case, Path(args.src).resolve(), repeats)}
        print(f"{name}: median {results[name]['median_s']:.3f} s "
              f"range {results[name]['range_s']}", flush=True)

    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record[args.label] = {"machine": machine(), "cases": results}
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
