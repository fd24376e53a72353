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

HERE = Path(__file__).resolve().parent
SCRIPT = HERE.parent / "scripts" / "generate_figure_data.py"
RECORD = json.loads((HERE / "figure_csv_sha256.json").read_text())


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
