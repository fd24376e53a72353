#!/usr/bin/env python3
"""dephasing-pdd benchmark: one command, three seeded workloads.

    python3 perfbench/run.py --workload {sweep,trace,oracle} --seed N \\
        --seconds S --trace {0,1}

Runs from the root of a source checkout and imports the package from its
``src/`` directory (nothing is installed).  One process, one thread: the
BLAS/OpenMP pools are pinned to one thread before numpy loads.

A run sets up (import, input generation, one warm-up call) several times
and reports the median, then repeats timed passes over the workload's
fixed item mix until ``--seconds`` would be exceeded (at least one pass),
then checks every output outside the timed region.  Pass and item times
are reported normalized to the host's speed, measured by a fixed kernel
timed between the items (see bench_speed.py), and raw beside them.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` every
item also runs a second time, traced, right after its untraced run and
into an output file of its own, recording spans around each layer from
outside the program (see bench_spans.py); the run checks that both runs
wrote the same output and prints the per-layer metrics and the tracing
overhead.  The last line of standard output is a JSON object with the
keys correct, attempted, failed and metrics.  perfbench/DESIGN.md
describes the workloads and what each metric should move.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T0 = time.perf_counter()  # set-up is timed from here: imports included

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
REFERENCE_DIR = HERE / "reference"
DEFAULT_SEED = 0
SETUP_PROBES = 6
MODULES = ("errors", "config", "quadrature", "spectral", "pulses", "dynamics",
           "correlations", "qsl", "runner", "cli")

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import bench_gate as gate  # noqa: E402
import bench_speed as speed  # noqa: E402
import bench_workloads as bw  # noqa: E402
from bench_spans import SpanRecorder, Tracer  # noqa: E402


class ItemFailed(Exception):
    pass


def import_package():
    """The package from this checkout's src/, never an installed copy."""
    init = SRC / "dephasing_pdd" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from "
                 "a source checkout")
    sys.path.insert(0, str(SRC))
    import dephasing_pdd as dp
    if Path(dp.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported {dp.__file__}, not the checkout")
    for name in MODULES:
        importlib.import_module(f"dephasing_pdd.{name}")
    return dp


def run_item(dp, item):
    if item.kind == "oracle":
        return bw.run_oracle_item(dp, item.scenario, item.route)
    code = dp.cli.main(item.argv)
    if code != 0:
        raise ItemFailed(f"exit code {code}")
    return None


def run_pass(dp, items, probe, tracer=None):
    """One pass over the mix: (per-item seconds, per-item (start, end,
    kernel batch before, kernel batch after), traced seconds, results,
    errors).

    The host-speed probe (bench_speed.py) runs its kernel before the first
    item and after every item, outside the item's time.  With a tracer,
    each item runs untraced and then again traced, back to back, under one
    root span per traced run.  The host's speed drifts over seconds, and
    pairing keeps that drift out of the overhead.
    """
    results, errors, times, spans = {}, {}, [], []
    traced = 0.0
    before = probe.sample()
    for item in items:
        t0 = time.perf_counter()
        try:
            results[item.name] = run_item(dp, item)
        except Exception as exc:  # an item that raises is a failed item
            errors[item.name] = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        after = probe.after_item(t1 - t0)
        times.append(t1 - t0)
        spans.append((t0, t1, before, after))
        before = after
        if tracer is not None:
            seconds, problem = traced_run(dp, item, tracer,
                                          results.get(item.name))
            traced += seconds
            if problem and item.name not in errors:
                errors[item.name] = problem
    return times, spans, traced, results, errors


def traced_run(dp, item, tracer, untraced_result):
    """Run ``item`` again under the tracer, writing to an output path of
    its own, so the untraced output stays in place for the gate.  Returns
    (traced seconds, problem): the problem is set when the traced run
    raises or its output differs from the untraced run's."""
    rec = tracer.rec
    again = item
    if item.out is not None:
        out = item.out.with_suffix(".traced" + item.out.suffix)
        again = replace(item, out=out, argv=[str(out) if a == str(item.out)
                                             else a for a in item.argv])
    problem = None
    with tracer:
        sid = rec.open(rec.intern("perfbench.item"))
        try:
            result = run_item(dp, again)
        except Exception as exc:
            problem = f"traced run: {type(exc).__name__}: {exc}"
        finally:
            rec.close(sid)
    if problem is None:
        if item.out is not None:
            same = (item.out.is_file()
                    and again.out.read_bytes() == item.out.read_bytes())
        else:
            same = repr(result) == repr(untraced_result)
        if not same:
            problem = "traced output differs from the untraced output"
    return rec.end[sid] - rec.start[sid], problem


def fingerprint(items, results):
    """Bytes of every output of a pass, hashed, to catch a pass whose
    output differs from the first."""
    digest = {}
    for item in items:
        if item.out is not None:
            data = item.out.read_bytes() if item.out.is_file() else b""
        else:
            data = repr(results.get(item.name)).encode()
        digest[item.name] = hashlib.sha256(data).hexdigest()
    return digest


class Passes:
    """Accumulates timed passes and every item failure seen in them."""

    def __init__(self, items):
        self.items = items
        self.probe = speed.SpeedProbe()
        self.walls = []
        self.norm_walls = []
        self.traced_walls = []
        self.item_times = [[] for _ in items]
        self.item_norm_times = [[] for _ in items]
        self.errors = {}
        self.first_digest = None
        self.results = {}

    def run(self, dp, budget_s, tracer=None):
        begin = time.perf_counter()
        spans = []
        while True:
            times, pass_spans, traced, results, errors = run_pass(
                dp, self.items, self.probe, tracer)
            self.walls.append(sum(times))
            self.traced_walls.append(traced)
            spans.append(pass_spans)
            for slot, t in zip(self.item_times, times):
                slot.append(t)
            for name, err in errors.items():
                self.errors.setdefault(name, err)
            digest = fingerprint(self.items, results)
            if self.first_digest is None:
                self.first_digest, self.results = digest, results
            for name, h in digest.items():
                if h != self.first_digest[name]:
                    self.errors.setdefault(name, "output differs between passes")
            elapsed = time.perf_counter() - begin
            if elapsed * (1 + 1 / len(self.walls)) > budget_s:
                break
        # normalized once every kernel run is in: a long item's window
        # reaches into the next pass
        for pass_spans in spans:
            norm = [self.probe.normalized(b0, b1, t0, t1)
                    for t0, t1, b0, b1 in pass_spans]
            self.norm_walls.append(sum(norm))
            for slot, t in zip(self.item_norm_times, norm):
                slot.append(t)


def probe_setups(args):
    """Set-up times of fresh interpreters (import, inputs, warm-up)."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(dp):
    import numpy
    import scipy
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "dephasing_pdd": getattr(dp, "__version__", "?"),
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


# -- correctness ------------------------------------------------------------

def reference_path(workload):
    return REFERENCE_DIR / f"seed{DEFAULT_SEED}-{workload}.json.gz"


def gate_items(dp, args, items, passes: Passes):
    """Item name -> list of problems, for every item that failed."""
    failed = {name: [err] for name, err in passes.errors.items()}
    reference = None
    if args.seed == DEFAULT_SEED and args.workload != "oracle":
        reference = gate.load_reference(reference_path(args.workload))
        if reference is None:
            sys.exit("perfbench: reference outputs for the default seed missing")
    largest_n = max(item.scenario.n for item in items)
    for item in items:
        if item.name in failed:
            continue
        if item.kind == "oracle":
            problems = gate.check_oracle_item(passes.results[item.name])
        elif reference is not None and item.name not in reference:
            problems = ["no reference output for this item"]
        else:
            problems = gate.check_cli_item(
                dp, item, item.out.read_text(encoding="utf-8"), largest_n,
                reference[item.name] if reference else None)
        if problems:
            failed[item.name] = problems
    return failed


def derivative_free_findings(dp, items, report):
    """Compare the derivative-free qslt_ratio with the derivative route on
    every oracle scenario.  A difference above 1e-6 is reported as a
    finding with its scenario, not counted as a failed item: when this
    benchmark was written the derivative-free route crossed 1e-6 on 12 of
    40 seeds, and a workload must be one on which no operation fails.
    Returns (worst relative difference, item name)."""
    worst = (0.0, None)
    for item in items:
        if item.route != "qslt":
            continue
        closed, free = bw.derivative_free_pair(dp, item.scenario)
        err = gate.rel_diff(free, closed)
        worst = max(worst, (err, item.name), key=lambda w: w[0])
        if err > gate.DERIVATIVE_FREE_TOL:
            report.append(f"finding: derivative-free qslt_ratio off the "
                          f"derivative route by {err:.3e} > "
                          f"{gate.DERIVATIVE_FREE_TOL:g} on {item.name}")
    return worst


# -- metrics ----------------------------------------------------------------

def harrell_davis(values, p):
    """Harrell-Davis estimate of the p-quantile: a weighted mean of all
    order statistics, weighted by a beta distribution centred on rank p."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), x))


def item_quantiles(values):
    """(median, tail, tail percentile) of the per-item times.  The tail is
    the highest percentile with at least ten items above it.  Both are
    Harrell-Davis estimates: the mixes have gaps between cost clusters (a
    Q10 item next to a Q11 item of the same N), and a plain order
    statistic jumps across such a gap when one item changes rank."""
    n = len(values)
    fraction = max(1, n - 10) / n
    return (harrell_davis(values, 0.5), harrell_davis(values, fraction),
            100.0 * fraction)


def end_to_end(passes: Passes, setups, report):
    """The end-to-end metrics.  Pass and item times are normalized to the
    host's speed (bench_speed.py); the raw times are reported beside them."""
    per_item = [statistics.median(t) for t in passes.item_norm_times]
    p50, tail_value, tail_pct = item_quantiles(per_item)
    raw_p50, raw_tail, _ = item_quantiles(
        [statistics.median(t) for t in passes.item_times])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report.append(f"setup_s: median of {len(setups)} set-ups "
                  f"{', '.join(f'{s:.3f}' for s in setups)}")
    report.append(f"wall_norm_s: median of {len(passes.norm_walls)} passes "
                  f"{', '.join(f'{w:.3f}' for w in passes.norm_walls)}")
    report.append(f"raw, not normalized: wall_s {statistics.median(passes.walls):.4f} "
                  f"(passes {', '.join(f'{w:.3f}' for w in passes.walls)}), "
                  f"item_p50_s {raw_p50:.5f}, item_tail_s {raw_tail:.5f}")
    took = passes.probe.took
    report.append(f"host-speed kernel: median {statistics.median(took) * 1e3:.3f} "
                  f"ms over {len(took)} runs, "
                  f"{min(took) * 1e3:.3f}-{max(took) * 1e3:.3f} ms "
                  f"(nominal {speed.NOMINAL_S * 1e3:g} ms)")
    report.append(f"item_tail_norm_s: p{tail_pct:.1f} of {len(per_item)} "
                  "items (per-item medians over passes)")
    return {"setup_s": statistics.median(setups),
            "wall_norm_s": statistics.median(passes.norm_walls),
            "item_p50_norm_s": p50,
            "item_tail_norm_s": tail_value,
            "peak_rss_mb": rss_mb}


def per_layer(rec: SpanRecorder, passes: Passes, worst_free, names):
    """Per-layer values per traced pass, plus the tracing overhead."""
    n = len(passes.traced_walls)
    agg = rec.aggregate()
    values = {}
    for name in names:
        label, quantity = name.rsplit(".", 1)
        values[name] = agg.get(label, {}).get(quantity, 0.0) / n
    traced = statistics.median(passes.traced_walls)
    untraced = statistics.median(passes.walls)
    special = {
        "qsl.tv_scan_rounds_per_segment":
            rec.tv_array_scans / rec.tv_segments if rec.tv_segments else 0.0,
        "qsl.total_variation.derivative_free_worst_rel_err": worst_free[0],
        "perfbench.trace.untraced_wall_s": untraced,
        "perfbench.trace.traced_wall_s": traced,
        "perfbench.trace.overhead_s": traced - untraced,
        "perfbench.trace.bookkeeping_s": rec.bookkeeping_s() / n,
    }
    for name, value in special.items():
        if name in values:
            values[name] = value
    return values


def load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# -- entry ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bw.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="timed budget (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up time and exit")
    parser.add_argument("--record-reference", action="store_true",
                        help="write the default-seed reference outputs")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    dp = import_package()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    workdir = OUT_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(dp, args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(dp, args, spec, workdir):
    if args.record_reference:
        args.seed = DEFAULT_SEED
    items = bw.build_items(args.workload, args.seed, workdir)
    run_item(dp, items[0])  # warm-up call
    setup_here = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_here}))
        return 0
    if args.record_reference:
        run_pass(dp, items, speed.SpeedProbe())
        gate.save_reference(reference_path(args.workload), {
            item.name: gate.reference_view(item.out.read_text(encoding="utf-8"))
            for item in items if item.out is not None})
        print(f"wrote {reference_path(args.workload).relative_to(ROOT)}")
        return 0
    setups = [setup_here] + probe_setups(args)

    report = [f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} items={len(items)}",
              f"env: {json.dumps(environment(dp), sort_keys=True)}"]
    untraced = Passes(items)
    rec = None
    if args.trace:
        rec = SpanRecorder()
        tracer = Tracer(rec)
        report.append(f"tracer call cost per span: "
                      f"{tracer.calibrate() * 1e6:.3f} us (calibrated)")
        untraced.run(dp, args.seconds, tracer)
        if tracer.missing:
            report.append(f"not traced (missing from the package): "
                          f"{', '.join(tracer.missing)}")
        OUT_DIR.mkdir(exist_ok=True)
        rec.save(OUT_DIR / f"spans-{args.workload}-{args.seed}.npz")
    else:
        untraced.run(dp, args.seconds)
    e2e = end_to_end(untraced, setups, report)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"items-{args.workload}-{args.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump({item.name: {"seconds": t, "normalized": n} for item, t, n
                   in zip(items, untraced.item_times, untraced.item_norm_times)},
                  fh, indent=1)

    failed_items = gate_items(dp, args, items, untraced)
    worst_free = (0.0, None)
    if args.workload == "oracle":
        worst_free = derivative_free_findings(dp, items, report)
    attempted = len(items) * len(untraced.walls)
    failed = len(failed_items) * len(untraced.walls)
    for name, problems in failed_items.items():
        report.append(f"FAILED {name}: {'; '.join(problems)}")
    report.append(f"failed_ratio: {failed}/{attempted} = {failed / attempted:g}")
    if args.workload == "oracle":
        report.append(f"derivative-free qslt_ratio: worst relative difference "
                      f"{worst_free[0]:.3e} ({worst_free[1]})")

    if args.trace:
        spec_metrics = spec["per_layer"]
        values = per_layer(rec, untraced, worst_free,
                           [m["name"] for m in spec_metrics])
    else:
        spec_metrics = spec["end_to_end"]
        values = e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics}
    for line in report:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed_items, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
