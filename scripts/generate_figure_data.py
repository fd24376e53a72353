#!/usr/bin/env python3
"""Regenerate every figure dataset from the checked-in configs.

Each config in configs/ maps to one CSV in the output directory; for the
QSLT figures (fig5, fig6) the Q00 and Q10 protocol variants are emitted
alongside the configured Q11 run so the per-scenario curves can be
compared, mirroring the multi-scenario panels.

Usage:
    python3 scripts/generate_figure_data.py [--out-dir data]
"""

import argparse
import sys
import time
from pathlib import Path

from dephasing_pdd.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
EXTRA_PROTOCOLS = ("Q00", "Q10")  # added for the QSLT scenario figures


def runs(out_dir: Path):
    for cfg in sorted((REPO / "configs").glob("*.cfg")):
        verb = "sweep-n" if "sweep" in cfg.stem else "trace"
        yield cfg, verb, [], out_dir / f"{cfg.stem}.csv"
        if cfg.stem.startswith(("fig5", "fig6")):
            for proto in EXTRA_PROTOCOLS:
                yield (cfg, verb, ["--protocol", proto],
                       out_dir / f"{cfg.stem}_{proto.lower()}.csv")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=str(REPO / "data"),
                        help="directory for the CSV datasets")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    begin = time.perf_counter()
    for cfg, verb, extra, out in runs(out_dir):
        start = time.perf_counter()
        code = cli_main([verb, "--config", str(cfg), *extra,
                         "--out", str(out)])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{out.name}: {status} ({time.perf_counter() - start:.1f}s)")
        failures += code != 0
    print(f"total: {time.perf_counter() - begin:.1f}s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
