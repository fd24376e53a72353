"""Command-line front end: trace, sweep-n and verify subcommands.

Exit codes: 0 success, 1 verify-check failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import fields

from . import verify as verify_mod
from .config import ScenarioConfig, _parse_value, load_config
from .errors import ConfigError, QuadratureError
from .runner import render_csv, run_sweep_n, run_trace

# help text of the flag of each ScenarioConfig field
_FLAG_HELP = {
    "s": "Ohmicity exponent s",
    "eta": "dimensionless coupling",
    "omega_c": "cutoff frequency (time unit 1/omega_c)",
    "tau_f": "pulse-train stop time",
    "tau_d": "observation time",
    "n_pulses": "number of equally spaced pi pulses",
    "pulse_spacing": "inter-pulse interval (overrides --n-pulses)",
    "protocol": "Q00 | Q10 | Q01 | Q11",
    "initial_state": "singlet | bell_phi_plus | custom",
    **dict.fromkeys(("rho11", "rho22", "rho33", "rho44", "re_rho14",
                     "im_rho14", "re_rho23", "im_rho23"),
                    "custom X-state entry"),
    "points_per_interval": "grid points per inter-pulse interval",
    "min_points": "minimum grid points over [0, tau_d]",
    "qsl_window": "running | fixed QSLT window convention",
    "n_values": "comma-separated pulse counts, e.g. 10,20,100",
    "out": "output CSV path (default: stdout)",
}


def _add_scenario_flags(sub, omit):
    """--config plus one flag per ScenarioConfig field except ``omit``;
    the values stay text until :func:`_build_config` parses them like
    config-file values."""
    sub.add_argument("--config", metavar="FILE",
                     help="load a key=value config; flags override it")
    for f in fields(ScenarioConfig):
        if f.name != omit:
            sub.add_argument("--" + f.name.replace("_", "-"),
                             metavar="FILE" if f.name == "out" else None,
                             help=_FLAG_HELP[f.name])


@functools.cache
def build_parser():
    """The argument parser, built once per process: each ``parse_args``
    call fills a fresh namespace, so calls do not share parsed values."""
    parser = argparse.ArgumentParser(
        prog="dephasing-pdd",
        description="Two-qubit dephasing with periodic dynamical decoupling: "
                    "attenuation traces, correlation measures and QSLT bounds.")
    subs = parser.add_subparsers(dest="command", required=True)

    _add_scenario_flags(subs.add_parser(
        "trace", help="trajectory dataset over [0, tau_d]"), omit="n_values")
    _add_scenario_flags(subs.add_parser(
        "sweep-n", help="pulse-number sweep dataset"), omit=None)
    subs.add_parser("verify", help="run the invariant report").add_argument(
        "--json", action="store_true", help="print it as one JSON object")
    return parser


def _build_config(args) -> ScenarioConfig:
    flags = {}
    for f in fields(ScenarioConfig):
        text = getattr(args, f.name, None)
        if text is not None:
            try:
                flags[f.name] = _parse_value(f.name, text)
            except ValueError as exc:
                raise ConfigError(str(exc), field=f.name) from exc
    cfg = (load_config(args.config, flags) if args.config
           else ScenarioConfig(**flags))
    if cfg.out and (os.path.isdir(cfg.out) or not os.path.isdir(
            os.path.dirname(os.path.abspath(cfg.out)))):
        # checked before the run, so a bad path costs no computation
        raise ConfigError(f"cannot write output {cfg.out!r}: not a file in "
                          "an existing directory", field="out")
    return cfg


def _emit(cfg, text):
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {cfg.out!r}: {exc}",
                              field="out") from exc
    else:
        sys.stdout.write(text)


def main(argv=None):
    args = build_parser().parse_args(argv)

    if args.command == "verify":
        import json  # here, so trace and sweep-n start without it (~1.4 ms)

        results = verify_mod.run_checks()
        print(json.dumps({"checks": [r.record() for r in results]})
              if args.json else "\n".join(r.line() for r in results))
        return 0 if all(r.passed for r in results) else 1

    try:
        cfg = _build_config(args)
        if args.command == "trace":
            header, rows = run_trace(cfg)
        else:
            header, rows = run_sweep_n(cfg)
        _emit(cfg, render_csv(header, rows))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, FloatingPointError, ValueError) as exc:
        # a ValueError past validation is a numerical one, e.g. pulse
        # instants that underflow to equal values at a tiny tau_f
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    return 0


if __name__ == "__main__":
    sys.exit(main())
