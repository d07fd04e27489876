"""Golden output digests: every output byte of three CLI runs is pinned.

The sha256 of each file written by ``run`` on the geographic fixture
(with and without station metadata) and by ``compare-metrics`` on the
committed suite is stored in ``data/golden_digests.json``. A change that
claims byte-identical outputs proves it here. The digests were recorded
with Python 3.11 and numpy 2.4 (OpenBLAS); the spectral cluster files
depend on the LAPACK eigenvectors, so another numpy build may need a
fresh recording, made with the parent commit of the change under test.
"""

import hashlib
import json
from pathlib import Path

import pytest

from stepdist.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "golden_digests.json").read_text())
RUNS = {
    "run": ["run", "--series", str(DATA / "geo_fixture_series.csv")],
    "run_metadata": [
        "run",
        "--series",
        str(DATA / "geo_fixture_series.csv"),
        "--metadata",
        str(DATA / "geo_fixture_stations.csv"),
    ],
    "compare_metrics": ["compare-metrics"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(tmp_path, name):
    out = tmp_path / name
    assert main([*RUNS[name], "--out", str(out)]) == 0
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    assert got == GOLDEN[name]
