#!/usr/bin/env python3
"""Cost and accuracy of the three quadrature oracles, per call.

Runs each oracle on fixed cases shaped like the perfbench ``oracle`` items
(s = 1 and 3, eta = 0.5, tau_f = 10; the tolerances perfbench passes):

- ``gamma0``: ``spectral.gamma0_quadrature`` at t = 3.7 and 24.3;
- ``filter``: ``pulses.controlled_gamma_quadrature`` at N = 2, 5, 10, 20
  and t = 4.3, 12.7;
- ``mlmt``: ``qsl.qslt_general`` over [0, 5.5] for the singlet, Q10 at
  N = 5 and Q11 at N = 2;
- ``filter_n1000``: the filter oracle at N = 1000, t = 9.99 (default tol),
  with its relative error against a 40-digit mpmath evaluation of the
  closed-form sums over the float instants.

For each oracle it records the wall time per call (median of the repeats,
``time.perf_counter``, untraced), the integrand points and the rounds
(calls of ``quadrature._panel_estimates``) per call, counted in a separate
pass.  The result goes under ``--label`` in BENCH_quadrature.json, next to
the labels already there, so one file holds a before and an after
measurement of the same machine.  A run takes about 40 s, most of it in
the mpmath reference.

Usage:
    python3 scripts/bench_quadrature.py --label after
    python3 scripts/bench_quadrature.py --label before --src OTHER/src
"""

import argparse
import functools
import importlib
import json
import statistics
import sys
import time
from pathlib import Path

import mpmath
import numpy as np

from bench_train_table import machine

REPO = Path(__file__).resolve().parent.parent
OUT = REPO / "BENCH_quadrature.json"
ETA = 0.5
TAU_F = 10.0
REPEATS = 5
N1000_REPEATS = 3


@mpmath.workdps(40)
def controlled_gamma_mp(s, instants, t):
    """Gamma(t) = -sum_{a<b} c_a c_b Gamma0(t_b - t_a) over the points 0,
    the float instants before t, and t (weights 1, 2(-1)^j, (-1)^(n+1))."""
    taus = [x for x in instants if x < t]
    n = len(taus)
    pts = [mpmath.mpf(x) for x in (0.0, *taus, t)]
    c = [1, *(2 * (-1) ** j for j in range(1, n + 1)), (-1) ** (n + 1)]
    a = mpmath.mpf(s) - 1
    scale = ETA * mpmath.gamma(a) if s != 1.0 else ETA / 2

    def gamma0(u):
        if s == 1.0:
            return mpmath.log1p(u * u)
        return 1 - mpmath.cos(a * mpmath.atan(u)) * (1 + u * u) ** (-a / 2)

    return -scale * mpmath.fsum(c[i] * c[j] * gamma0(pts[j] - pts[i])
                                for j in range(len(pts)) for i in range(j))


def cases(dp):
    """{oracle: [zero-argument call, ...]}."""
    out = {"gamma0": [], "filter": [], "mlmt": [], "filter_n1000": []}
    for s in (1.0, 3.0):
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
            sched = dp.pulses.pdd_schedule(n, TAU_F)
            q_of_t, qdot_of_t = dp.dynamics.attenuation_functions(
                dp.dynamics.ControlProtocol(dp.dynamics.ProtocolTag(tag),
                                            sched), p)
            out["mlmt"].append(functools.partial(
                dp.qsl.qslt_general, dp.dynamics.singlet(), q_of_t,
                qdot_of_t, 5.5, breakpoints=sched.instants, rel_tol=1e-9))
        out["filter_n1000"].append(functools.partial(
            dp.pulses.controlled_gamma_quadrature, p,
            dp.pulses.pdd_schedule(1000, TAU_F), 9.99))
    return out


def counts(dp, calls):
    """(integrand points, rounds) per call, counted by wrapping the
    integrator where the oracles look it up."""
    quad = dp.quadrature
    tally = {"points": 0, "rounds": 0}
    estimates, integrate = quad._panel_estimates, quad.adaptive_panel_quad

    def counted_estimates(f, lo_edges, hi_edges):
        tally["rounds"] += 1
        return estimates(f, lo_edges, hi_edges)

    def counted_integrate(f, *args, **kwargs):
        def integrand(x):
            tally["points"] += np.size(x)
            return f(x)
        return integrate(integrand, *args, **kwargs)

    # only where the name lives: an older --src has it in pulses too
    users = [mod for mod in (dp.spectral, dp.pulses, dp.qsl)
             if hasattr(mod, "adaptive_panel_quad")]
    quad._panel_estimates = counted_estimates
    for mod in users:
        mod.adaptive_panel_quad = counted_integrate
    try:
        for call in calls:
            call()
    finally:
        quad._panel_estimates = estimates
        for mod in users:
            mod.adaptive_panel_quad = integrate
    return {key: value / len(calls) for key, value in tally.items()}


def time_per_call(calls, repeats):
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        for call in calls:
            call()
        walls.append((time.perf_counter() - start) / len(calls))
    return {"median_s": round(statistics.median(walls), 6),
            "range_s": [round(min(walls), 6), round(max(walls), 6)]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True,
                        help="key of this measurement in the JSON file")
    parser.add_argument("--src", default=str(REPO / "src"),
                        help="source directory of the package to time")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    dp = importlib.import_module("dephasing_pdd")

    results = {}
    oracles = cases(dp)
    for oracle, calls in oracles.items():
        calls[0]()  # warm up
        repeats = N1000_REPEATS if oracle == "filter_n1000" else REPEATS
        results[oracle] = {"calls": len(calls),
                           "time_per_call": time_per_call(calls, repeats),
                           **counts(dp, calls)}
        print(f"{oracle}: {results[oracle]}", flush=True)

    errors = {}
    for call in oracles["filter_n1000"]:
        p, sched, t = call.args
        ref = controlled_gamma_mp(p.s, sched.instants, t)
        errors[f"s={p.s:g}"] = float(abs((call() - ref) / ref))
    results["filter_n1000"]["mpmath_rel_err"] = errors
    print(f"filter_n1000 mpmath relative error: {errors}", flush=True)

    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record[args.label] = {"machine": machine(), "oracles": results}
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
