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

HERE = Path(__file__).resolve().parent
SCRIPT = HERE.parent / "scripts" / "generate_figure_data.py"
RECORD = json.loads((HERE / "figure_csv_sha256.json").read_text())
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
