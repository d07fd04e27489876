"""Golden output digests: every output byte of three CLI runs is pinned.

The sha256 of each file written by ``run`` on the geographic fixture
(with and without station metadata, and with every option set to a
non-default value) and by ``compare-metrics`` on the committed suite is
stored in ``data/golden_digests.json``. A change that
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
    "run_every_option": [
        "run",
        "--series",
        str(DATA / "geo_fixture_series.csv"),
        "--metadata",
        str(DATA / "geo_fixture_stations.csv"),
        "--attribute",
        "variance",
        "--p",
        "inf",
        "--significance",
        "0.1",
        "--min-segment",
        "25",
        "--permutations",
        "99",
        "--linkage",
        "complete",
        "--k",
        "2",
        "--seed",
        "7",
    ],
}


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(tmp_path, name):
    out = tmp_path / name
    assert main([*RUNS[name], "--out", str(out)]) == 0
    assert _digests(out) == GOLDEN[name]


def test_config_file_matches_flags(tmp_path):
    # The every-option run again, with each setting taken from a config
    # file: an underscore key and mixed-case values.
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"series = {DATA / 'geo_fixture_series.csv'}\n"
        f"metadata = {DATA / 'geo_fixture_stations.csv'}\n"
        "attribute = Variance\n"
        "p = Inf\n"
        "significance = 0.1\n"
        "min_segment = 25\n"
        "permutations = 99\n"
        "linkage = Complete\n"
        "k = 2\n"
        "seed = 7\n"
        f"out = {out}\n"
    )
    assert main(["run", "--config", str(cfg)]) == 0
    assert _digests(out) == GOLDEN["run_every_option"]


@pytest.mark.parametrize("bom_file", ["series", "metadata", "config"])
def test_byte_order_mark_ignored(tmp_path, bom_file):
    # Excel's "CSV UTF-8" export and Windows Notepad start a file with a UTF-8
    # byte-order mark; each input reads as if the mark were absent.
    out = tmp_path / "out"
    paths = {"series": DATA / "geo_fixture_series.csv", "metadata": DATA / "geo_fixture_stations.csv"}
    if bom_file in paths:
        paths[bom_file] = tmp_path / paths[bom_file].name
        paths[bom_file].write_bytes(b"\xef\xbb\xbf" + (DATA / paths[bom_file].name).read_bytes())
    cfg = tmp_path / "run.cfg"
    text = f"series = {paths['series']}\nmetadata = {paths['metadata']}\nout = {out}\n"
    cfg.write_bytes((b"\xef\xbb\xbf" if bom_file == "config" else b"") + text.encode())
    assert main(["run", "--config", str(cfg)]) == 0
    assert _digests(out) == GOLDEN["run_metadata"]
