"""Command-line front end: trace, sweep-n and verify subcommands.

Exit codes: 0 success, 1 verify-check failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import verify as verify_mod
from .config import ScenarioConfig, load_config
from .errors import ConfigError, QuadratureError
from .runner import render_csv, run_sweep_n, run_trace

_SCENARIO_FLAGS = [
    ("--s", float, "Ohmicity exponent s"),
    ("--eta", float, "dimensionless coupling"),
    ("--omega-c", float, "cutoff frequency (time unit 1/omega_c)"),
    ("--tau-f", float, "pulse-train stop time"),
    ("--tau-d", float, "observation time"),
    ("--n-pulses", int, "number of equally spaced pi pulses"),
    ("--pulse-spacing", float, "inter-pulse interval (overrides --n-pulses)"),
    ("--protocol", str, "Q00 | Q10 | Q01 | Q11"),
    ("--initial-state", str, "singlet | bell_phi_plus | custom"),
    ("--points-per-interval", int, "grid points per inter-pulse interval"),
    ("--min-points", int, "minimum grid points over [0, tau_d]"),
    ("--qsl-window", str, "running | fixed QSLT window convention"),
    ("--rho11", float, None), ("--rho22", float, None),
    ("--rho33", float, None), ("--rho44", float, None),
    ("--re-rho14", float, None), ("--im-rho14", float, None),
    ("--re-rho23", float, None), ("--im-rho23", float, None),
]


def _add_scenario_flags(sub):
    sub.add_argument("--config", metavar="FILE",
                     help="load a key=value config; flags override it")
    sub.add_argument("--out", metavar="FILE",
                     help="output CSV path (default: stdout)")
    for flag, typ, help_text in _SCENARIO_FLAGS:
        sub.add_argument(flag, type=typ,
                         help=help_text or "custom X-state entry")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dephasing-pdd",
        description="Two-qubit dephasing with periodic dynamical decoupling: "
                    "attenuation traces, correlation measures and QSLT bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    trace = subs.add_parser("trace", help="trajectory dataset over [0, tau_d]")
    _add_scenario_flags(trace)

    sweep = subs.add_parser("sweep-n", help="pulse-number sweep dataset")
    _add_scenario_flags(sweep)
    sweep.add_argument("--n-values", type=str,
                       help="comma-separated pulse counts, e.g. 10,20,100")

    ver = subs.add_parser("verify", help="run the invariant report")
    ver.add_argument("--inject-failure", action="store_true",
                     help=argparse.SUPPRESS)
    return parser


def _build_config(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    for flag, _, _ in _SCENARIO_FLAGS:
        name = flag.lstrip("-").replace("-", "_")
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    n_values = getattr(args, "n_values", None)
    if n_values is not None:
        cfg.n_values = tuple(int(v) for v in n_values.split(",") if v.strip())
    if args.out is not None:
        cfg.out = args.out
    cfg.validate()
    return cfg


def _emit(cfg, text):
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "verify":
        results = verify_mod.run_checks(inject_failure=args.inject_failure)
        for result in results:
            print(result.line())
        return 0 if all(r.passed for r in results) else 1

    try:
        cfg = _build_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "trace":
            header, rows = run_trace(cfg)
        else:
            if not cfg.n_values:
                print("config error: sweep-n requires --n-values or an "
                      "n_values config entry", file=sys.stderr)
                return 2
            header, rows = run_sweep_n(cfg, cfg.n_values)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    _emit(cfg, render_csv(header, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
