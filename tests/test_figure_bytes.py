"""Byte guard for the figure datasets.

The 20 CSVs that ``scripts/generate_figure_data.py`` writes must keep the
SHA-256 digests recorded in ``figure_csv_sha256.json``, next to the numpy
version they were recorded with.  A change that moves a figure number
records the new digests there and lists the flipped cells in CHANGES.md.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from dephasing_pdd.cli import main
from dephasing_pdd.config import load_config
from dephasing_pdd.runner import TRACE_COLUMNS, run_trace

HERE = Path(__file__).resolve().parent
SCRIPT = HERE.parent / "scripts" / "generate_figure_data.py"
RECORD = json.loads((HERE / "figure_csv_sha256.json").read_text())
CONFIGS = HERE.parent / "configs"
# sweep-n --n-values 1000 of the fig1 and fig2 configs, as configured
# (Q11, recorded in BENCH_sweep_probes.json) and with one pulsed qubit
# (NAME-Q10): large-N rows that no figure CSV holds
LARGE_N_SHA256 = {
    "fig1_sweep_markovian":
        "39df96d1702624bd4d2cedcf1de77ec3d20e374ca10bd59b908eb956ef7a9830",
    "fig1_sweep_markovian-Q10":
        "7b4eb23eddba772125f70044b77ecbb78f6b5c2f079f4577fdd8c82c1d24cd39",
    "fig2_sweep_nonmarkovian":
        "e652cc1ac6ff41a4cbea48f9456cf6d4e7c6a46e5f7e571ff4a1c105d9c4e43c",
    "fig2_sweep_nonmarkovian-Q10":
        "262c1a6333c1078405c8ba1df3fd11434aa5fd8e7f545d04d140961e6c1fbcc5",
}


def test_figure_csvs_keep_their_bytes(tmp_path):
    spec = importlib.util.spec_from_file_location("generate_figure_data",
                                                  SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--out-dir", str(tmp_path)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.glob("*.csv")}
    assert sorted(digests) == sorted(RECORD["sha256"])
    changed = [name for name, digest in sorted(RECORD["sha256"].items())
               if digests[name] != digest]
    assert not changed, (
        f"figure CSV bytes changed: {', '.join(changed)} (digests recorded "
        f"with numpy {RECORD['numpy']}, this run uses numpy {np.__version__})")


@pytest.mark.parametrize("case", sorted(LARGE_N_SHA256))
def test_large_n_sweep_keeps_its_bytes(tmp_path, case):
    name, *protocol = case.split("-")
    out = tmp_path / f"{case}.csv"
    assert main(["sweep-n", "--n-values", "1000", "--config",
                 str(HERE.parent / "configs" / f"{name}.cfg"),
                 *(["--protocol", *protocol] if protocol else []),
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == LARGE_N_SHA256[case]


# Printed cells whose raw value sits within rounding noise of the edge
# where their 9th digit turns: (config, t as printed, column, 40-digit
# mpmath reference).  The fig3 cell's raw value, 0.006401808404999994, is
# 6e-18 below ...405; the reference is Phi0 |1 - Q| / TV with Q from a
# 40-digit pair sum at the same nodes.  A change that moves a node within
# its tolerance can flip such a cell away from its reference.
KNIFE_EDGE_CELLS = [
    ("fig3_trace_markovian_n100", "8.58415842", "qslt_ratio",
     "0.006401808404982133719"),
]


@pytest.mark.parametrize("name,t,column,reference", KNIFE_EDGE_CELLS,
                         ids=[cell[0] for cell in KNIFE_EDGE_CELLS])
def test_knife_edge_cells_print_their_reference_digits(name, t, column,
                                                       reference):
    _, table = run_trace(load_config(str(CONFIGS / f"{name}.cfg")))
    row = ["%.9g" % v for v in table.columns[0]].index(t)
    raw = float(table.columns[TRACE_COLUMNS.index(column)][row])
    printed, want = "%.9g" % raw, "%.9g" % float(reference)
    assert printed == want, (
        f"{name}.csv at t = {t}, {column}: prints {printed} from the raw "
        f"value {raw!r}; its 40-digit reference {reference} prints {want}")
