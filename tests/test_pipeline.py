import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stepdist
from stepdist import (
    Attribute,
    DetectionParams,
    MatrixKind,
    TimeSeries,
    detect_change_points,
    embed,
    ingest,
    read_matrix_csv,
)
from stepdist.cli import main
from stepdist.clustering import Linkage
from stepdist.errors import (
    AllMissingColumn,
    BadK,
    DuplicateStation,
    EmptySet,
    IdMismatch,
    InputError,
    UnparseableCell,
    ZeroFunction,
)
from stepdist.pipeline import PipelineConfig, _embed_all, compare_metrics, run_analysis
from tests.helpers import random_collection, random_series_csv, reference_ingest

DATA = Path(__file__).parent / "data"
FIXTURE_SERIES = DATA / "geo_fixture_series.csv"
FIXTURE_STATIONS = DATA / "geo_fixture_stations.csv"

MATRIX_KINDS = {
    "distance_unscaled": MatrixKind.DISTANCE,
    "distance_normalized": MatrixKind.DISTANCE,
    "alignment": MatrixKind.ALIGNMENT,
    "affinity_unscaled": MatrixKind.AFFINITY,
    "affinity_normalized": MatrixKind.AFFINITY,
    "geo_distance": MatrixKind.DISTANCE,
    "affinity_geo": MatrixKind.AFFINITY,
    "consistency_unscaled": MatrixKind.CONSISTENCY,
    "consistency_normalized": MatrixKind.CONSISTENCY,
    "consistency_alignment": MatrixKind.CONSISTENCY,
}


def write_series_csv(path, ids, columns, n=160):
    rows = [",".join(["t", *ids])]
    for t in range(n):
        rows.append(",".join([str(t), *[str(col[t]) for col in columns]]))
    path.write_text("\n".join(rows) + "\n")


def three_series_csv(path, duplicate=False):
    rng = np.random.default_rng(0)
    a = np.concatenate([rng.normal(0, 1, 80), rng.normal(6, 1, 80)])
    b = np.concatenate([rng.normal(3, 1, 80), rng.normal(-3, 1, 80)])
    c = rng.normal(1.0, 1, 160)
    ids = ["a", "b", "c", "d"] if duplicate else ["a", "b", "c"]
    cols = [a, b, c, a.copy()] if duplicate else [a, b, c]
    write_series_csv(path, ids, cols)


class TestIngest:
    def test_forward_fill(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,x\n0,1\n1,\n2,\n3,4\n")
        series, _ = ingest(p)
        assert list(series[0].values) == [1.0, 1.0, 1.0, 4.0]

    def test_leading_missing_backfilled(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,x\n0,\n1,2\n2,3\n")
        series, _ = ingest(p)
        assert list(series[0].values) == [2.0, 2.0, 3.0]

    def test_columnwise_fill(self, tmp_path):
        # Each column has its own leading gap; row 2 is short, row 4 has trailing gaps.
        p = tmp_path / "s.csv"
        p.write_text("t,x,y\n0,,1\n1,2,\n2\n3,5,6\n4,,\n")
        series, _ = ingest(p)
        assert [list(ts.values) for ts in series] == [[2.0, 2.0, 2.0, 5.0, 5.0], [1.0, 1.0, 1.0, 6.0, 6.0]]

    def test_shape_contract(self, tmp_path):
        p = tmp_path / "s.csv"
        three_series_csv(p)
        series, stations = ingest(p)
        assert [ts.id for ts in series] == ["a", "b", "c"]
        assert all(ts.values.size == 160 for ts in series)
        assert stations is None

    def test_unparseable_cell(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,x\n0,1\n1,froth\n")
        with pytest.raises(UnparseableCell, match="froth"):
            ingest(p)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,a,b\n0,1,2\n\n\n1,x,3\n", "row 5, column 'a': cannot parse 'x'"),
            ("t,a,b\n\n0,1,2\n\n1,1,2,3\n", "row 5 has 4 cells"),
        ],
        ids=["bad_cell", "long_row"],
    )
    def test_error_rows_are_file_lines(self, tmp_path, text, message):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(UnparseableCell, match=re.escape(message)):
            ingest(p)

    def test_all_missing_column(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,x,y\n0,1,\n1,2,\n")
        with pytest.raises(AllMissingColumn, match="y"):
            ingest(p)

    def test_first_all_missing_column_named(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,x,y,z\n0,1,,\n1,2,,na\n")
        with pytest.raises(AllMissingColumn, match="'y'"):
            ingest(p)

    def test_series_without_station_fatal(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("t,x,y\n0,1,1\n1,2,2\n")
        meta = tmp_path / "m.csv"
        meta.write_text("id,lat_deg,lon_deg\nx,0.0,0.0\n")
        with pytest.raises(IdMismatch, match="y"):
            ingest(p, meta)

    def test_extra_station_warns_only(self, tmp_path, caplog):
        p = tmp_path / "s.csv"
        p.write_text("t,x\n0,1\n1,2\n")
        meta = tmp_path / "m.csv"
        meta.write_text("id,lat_deg,lon_deg\nx,0.0,0.0\nunused,1.0,1.0\n")
        with caplog.at_level("WARNING"):
            series, stations = ingest(p, meta)
        assert [s.id for s in stations] == ["x"]
        assert "unused" in caplog.text

    @pytest.mark.parametrize(
        "text, columns",
        [
            ("t,a,b\n0, 1.5 ,\t2\n1,3 , -4e2 \n", [[1.5, 3.0], [2.0, -400.0]]),
            ("t,a,b\n0,1,NA\n1,,2\n2,nan,None\n3,4,null\n4,N/a,\n", [[1, 1, 1, 4, 4], [2, 2, 2, 2, 2]]),
            ("t,a,b\n0,1,2\n1,3\n2\n3,5,6\n", [[1, 3, 3, 5], [2, 2, 2, 6]]),
            ("t,a,b\n0,1e308,1e308\n1,-1e308,1e308\n", [[1e308, -1e308], [1e308, 1e308]]),
            (" ,\nt,a,b\n0,1,2\n   \n,,\n \t, ,\n1,3,4\n2,,\n", [[1, 3, 3], [2, 4, 4]]),
        ],
        ids=["padded", "missing_tokens", "short_rows", "sum_overflows", "blank_rows"],
    )
    def test_row_tables(self, tmp_path, text, columns):
        p = tmp_path / "s.csv"
        p.write_text(text)
        series, _ = ingest(p)
        assert [ts.values.tolist() for ts in series] == columns

    @pytest.mark.parametrize(
        "text, message",
        [
            ("t,a,b\n0,1,2\n1,3,inf\n", "row 3, column 'b': cannot parse 'inf'"),
            ("t,a,b\n0,1,2\n1, -Infinity ,3\n", "row 3, column 'a': cannot parse '-Infinity'"),
            ("t,a,b\n0,1,2\n1,3,1e999\n", "row 3, column 'b': cannot parse '1e999'"),
            ("t,a,b\n0,1,2\n1,3,x\n2,inf,4\n", "row 3, column 'b': cannot parse 'x'"),
            ("t,a,b\n0,1,2\n1,inf,x\n", "row 3, column 'a': cannot parse 'inf'"),
            ("t,a,b\n0,1,2\n1,x\n", "row 3, column 'a': cannot parse 'x'"),
        ],
        ids=["inf", "padded_negative_inf", "overflow", "bad_token_first", "inf_before_bad_token", "short_row"],
    )
    def test_first_bad_cell_named(self, tmp_path, text, message):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(UnparseableCell, match=re.escape(message)):
            ingest(p)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("t,a\n0,x\n", UnparseableCell, "need a header plus >= 2 data rows"),
            ("t,a,a\n0,x,1\n1,2,3\n", IdMismatch, "duplicate series ids in header"),
            ("t,a\n0,1\n1,x\n2,3,4\n", UnparseableCell, "row 3, column 'a': cannot parse 'x'"),
        ],
        ids=["row_count_before_cell", "header_before_cell", "bad_cell_before_long_row"],
    )
    def test_error_precedence(self, tmp_path, text, error, message):
        p = tmp_path / "s.csv"
        p.write_text(text)
        with pytest.raises(error, match=re.escape(message)):
            ingest(p)

    def test_matches_reference_parser(self, tmp_path):
        rng = np.random.default_rng(20)
        for k in range(50):
            p = tmp_path / f"s{k}.csv"
            p.write_text(random_series_csv(rng), encoding="utf-8", newline="")
            ids, columns = reference_ingest(p)
            series, _ = ingest(p)
            assert [ts.id for ts in series] == ids, k
            assert [ts.values.tobytes() for ts in series] == [np.array(c).tobytes() for c in columns], k

    @pytest.mark.parametrize("gaps, bound", [(False, 24), (True, 48)], ids=["all_present", "some_missing"])
    def test_traced_peak_per_cell(self, tmp_path, gaps, bound):
        # Rows are converted into one float buffer as they are read, so the
        # peak is that buffer plus one copy per series (and the fill's index
        # arrays when a cell is missing), not the file's text as strings.
        n_rows, n_cols = 20_000, 30
        values = np.random.default_rng(30).normal(0.0, 1.0, (n_rows, n_cols)).round(6).tolist()
        lines = [",".join(["t", *(f"s{j}" for j in range(n_cols))])]
        for t, row in enumerate(values):
            cells = list(map(repr, row))
            if gaps and t % 10 == 5:
                cells[t % n_cols] = ""
            lines.append(f"{t}," + ",".join(cells))
        p = tmp_path / "wide.csv"
        p.write_text("\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            series, _ = ingest(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == n_cols and series[0].values.size == n_rows
        assert peak / (n_rows * n_cols) <= bound

    def test_fixture_dimensions(self):
        series, stations = ingest(FIXTURE_SERIES, FIXTURE_STATIONS)
        assert len(series) == 6
        assert all(ts.values.size == 600 for ts in series)
        assert [s.id for s in stations] == [ts.id for ts in series]

    def test_station_scale_wide_csv(self, tmp_path):
        # 52 columns x 2211 rows, the scale of an hourly multi-station export
        rng = np.random.default_rng(52)
        ids = [f"st{i:02d}" for i in range(52)]
        cols = [rng.normal(0, 1, 2211) for _ in ids]
        p = tmp_path / "wide.csv"
        write_series_csv(p, ids, cols, n=2211)
        series, _ = ingest(p)
        assert len(series) == 52
        assert all(ts.values.size == 2211 for ts in series)


class TestRunAnalysis:
    def test_outputs_without_metadata(self, tmp_path):
        src = tmp_path / "s.csv"
        three_series_csv(src)
        out = tmp_path / "out"
        summary = run_analysis(PipelineConfig(series_path=str(src), out_dir=str(out)))
        for name in ("distance_unscaled", "distance_normalized", "alignment", "affinity_unscaled", "affinity_normalized"):
            assert (out / f"{name}.csv").exists()
            assert (out / f"{name}_dendrogram.nwk").exists()
            assert (out / f"{name}_clusters.csv").exists()
        assert not (out / "geo_distance.csv").exists()
        assert "consistency_norms" not in summary
        assert set(summary["magnitudes"]) == {"a", "b", "c"}

    def test_duplicated_column_gives_zero_distance(self, tmp_path):
        src = tmp_path / "s.csv"
        three_series_csv(src, duplicate=True)
        out = tmp_path / "out"
        run_analysis(PipelineConfig(series_path=str(src), out_dir=str(out)))
        d = read_matrix_csv(out / "distance_unscaled.csv", MatrixKind.DISTANCE)
        i, j = d.labels.index("a"), d.labels.index("d")
        assert d.entries[i, j] == 0.0

    def test_emitted_matrices_reingest_with_invariants(self, tmp_path):
        out = tmp_path / "out"
        run_analysis(
            PipelineConfig(
                series_path=str(FIXTURE_SERIES),
                metadata_path=str(FIXTURE_STATIONS),
                out_dir=str(out),
            )
        )
        for name, kind in MATRIX_KINDS.items():
            m = read_matrix_csv(out / f"{name}.csv", kind)  # constructor re-validates
            assert m.labels[-1] == "foxtrot"

    def test_rerun_byte_identical(self, tmp_path):
        src = tmp_path / "s.csv"
        three_series_csv(src)
        outs = []
        for sub in ("out1", "out2"):
            out = tmp_path / sub
            run_analysis(PipelineConfig(series_path=str(src), out_dir=str(out)))
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        assert files == sorted(p.name for p in outs[1].iterdir())
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_single_series_rejected(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("t,x\n" + "\n".join(f"{t},{t % 3}" for t in range(100)) + "\n")
        with pytest.raises(InputError):
            run_analysis(PipelineConfig(series_path=str(src), out_dir=str(tmp_path / "o")))

    def test_power_of_two_scaling(self, tmp_path):
        # Scaling the input by 2^k scales the distances and magnitudes exactly,
        # leaves every other output unchanged and the alignment within rounding,
        # even where squares and products of the values leave the float range.
        rng = np.random.default_rng(0)
        levels = [(0.0, 5.0), (3.0, -2.0), (1.0, 4.0), (-4.0, 2.0)]
        cols = [np.concatenate([rng.normal(a, 1, 200), rng.normal(b, 1, 200)]) for a, b in levels]
        scaled = {"distance_unscaled.csv", "distance_unscaled_dendrogram.nwk", "summary.json", "alignment.csv"}

        def run(k):
            src, out = tmp_path / f"s{k}.csv", tmp_path / f"o{k}"
            write_series_csv(src, list("abcd"), [np.ldexp(c, k) for c in cols], n=400)
            assert main(["run", "--series", str(src), "--out", str(out)]) == 0
            return out

        base = run(0)
        summary = json.loads((base / "summary.json").read_text())
        d = read_matrix_csv(base / "distance_unscaled.csv", MatrixKind.DISTANCE).entries
        omega = read_matrix_csv(base / "alignment.csv", MatrixKind.ALIGNMENT).entries
        for k in (500, -500, 530, -530, 990, -990):
            out = run(k)
            assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in base.iterdir())
            for path in base.iterdir():
                if path.name not in scaled:
                    assert (out / path.name).read_bytes() == path.read_bytes(), (k, path.name)
            scaled_d = read_matrix_csv(out / "distance_unscaled.csv", MatrixKind.DISTANCE).entries
            assert np.array_equal(scaled_d, np.ldexp(d, k))
            got = json.loads((out / "summary.json").read_text())
            assert got.pop("magnitudes") == {x: math.ldexp(v, k) for x, v in summary["magnitudes"].items()}
            assert got == {key: v for key, v in summary.items() if key != "magnitudes"}
            scaled_omega = read_matrix_csv(out / "alignment.csv", MatrixKind.ALIGNMENT).entries
            assert np.abs(scaled_omega - omega).max() <= 1e-15


    @pytest.mark.parametrize("overflow", ["segment_sum", "difference"])
    def test_values_near_float_max(self, tmp_path, overflow):
        # segment_sum: the sums inside the segment means overflow. difference:
        # a - b overflows on the last 30 rows although ||a - b||_1 is finite.
        t = np.arange(120)
        if overflow == "segment_sum":
            levels = [(1.0e308, 1.2e308, 60), (1.1e308, 1.0e308, 60), (1.0e308, 1.15e308, 30)]
            noise = 1 + 1e-3 * np.random.default_rng(0).normal(size=(120, 3))
        else:
            levels = [(0.0, 1e308, 90), (0.0, -1e308, 90), (0.0, 5.0, 60)]
            noise = np.ones((120, 3))
        cols = [np.where(t < at, before, after) * noise[:, j] for j, (before, after, at) in enumerate(levels)]
        src, out = tmp_path / "s.csv", tmp_path / "o"
        write_series_csv(src, ["a", "b", "c"], cols, n=120)
        assert main(["run", "--series", str(src), "--out", str(out)]) == 0
        d = read_matrix_csv(out / "distance_unscaled.csv", MatrixKind.DISTANCE).entries
        assert np.isfinite(d).all()
        if overflow == "difference":
            assert d[0, 1] == pytest.approx(58 / 119 * 1e308, rel=1e-15, abs=0.0)

    def test_traced_peak_per_cell(self, tmp_path):
        # Each matrix family is written and clustered before the next one is
        # built, so only the three step-function matrices and the family at
        # hand are live. Building every matrix and affinity view of the run
        # before the first write peaks at 87 B per cell, above the bound.
        n = 200
        rng = np.random.default_rng(200)
        levels = rng.normal(0.0, 5.0, (20, 2))
        cols = [np.repeat(levels[i % 20], 60) + rng.normal(0.0, 1.0, 120) for i in range(n)]
        src = tmp_path / "s.csv"
        write_series_csv(src, [f"s{i}" for i in range(n)], cols, n=120)
        config = PipelineConfig(series_path=str(src), out_dir=str(tmp_path / "o"), permutations=19)
        tracemalloc.start()
        try:
            run_analysis(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n**2 <= 78


class TestNoOutputOnError:
    # Every check that can fail runs before the first family is written, so a
    # run that fails on its data exits 2, names the culprit and leaves no
    # output directory behind.
    def check_rejected(self, tmp_path, capsys, src, metadata, error, message, **options):
        out = tmp_path / "o"
        paths = {"series_path": str(src), "metadata_path": metadata and str(metadata), "out_dir": str(out)}
        with pytest.raises(error, match=re.escape(message)):
            run_analysis(PipelineConfig(**paths, **options))
        assert not out.exists()
        argv = ["run", "--series", str(src), "--out", str(out)] + (["--metadata", str(metadata)] if metadata else [])
        argv += [arg for key, value in options.items() for arg in (f"--{key.replace('_', '-')}", str(value))]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("metadata", [False, True], ids=["plain", "metadata"])
    def test_zero_series(self, tmp_path, capsys, metadata):
        rng = np.random.default_rng(6)
        cols = [np.concatenate([rng.normal(0, 1, 80), rng.normal(6, 1, 80)]), np.zeros(160), rng.normal(2, 1, 160)]
        src = tmp_path / "s.csv"
        write_series_csv(src, ["a", "z", "c"], cols)
        stations = tmp_path / "stations.csv"
        stations.write_text("id,lat_deg,lon_deg\na,0.0,0.0\nz,0.0,0.5\nc,1.0,0.0\n")
        message = "series 'z' embeds to the zero function"
        self.check_rejected(tmp_path, capsys, src, stations if metadata else None, ZeroFunction, message)

    def test_overflowing_distance(self, tmp_path, capsys):
        # Every value is finite, but ||s0 - s1||_1 is about 1.8 * 1.7e308.
        cols = [np.repeat([0.8 * 1.7e308, 0.95 * 1.7e308], 50), np.repeat([-0.85 * 1.7e308, -0.9 * 1.7e308], 50)]
        src = tmp_path / "s.csv"
        write_series_csv(src, ["s0", "s1"], cols, n=100)
        message = "L^1 distance between 's0' and 's1' exceeds the double range"
        self.check_rejected(tmp_path, capsys, src, None, ValueError, message)

    def test_overflowing_variance(self, tmp_path, capsys):
        # Every value is finite, but the variance of 'big' is about 2.3e616.
        cols = [np.random.default_rng(8).normal(0, 1, 80), np.tile([-1.5e308, 1.5e308], 40)]
        src = tmp_path / "s.csv"
        write_series_csv(src, ["gauss", "big"], cols, n=80)
        message = "variance of series 'big' on segment [0, 80) exceeds the double range"
        self.check_rejected(tmp_path, capsys, src, None, ValueError, message, attribute="variance", permutations=19)


# What an error of a seeded collection names: its file and line, a series, a
# pair or an option. No collection-level message, one that names none of
# these, is allowed; none has been seen in 2,000 seeded collections.
CULPRITS = (
    r"^{src}: row \d+",
    r"\b(series|column) '{sid}'",
    r"\bbetween '{sid}' and '{sid}'",
    r"^(p|k|min_segment) must be",
)


class TestSeededCollections:
    """``run`` on collections from ``random_collection`` keeps the README contract of exit codes and outputs."""

    @pytest.mark.parametrize("seed", range(100))
    def test_contract(self, tmp_path, capsys, seed):
        text, ids, options = random_collection(np.random.default_rng((83, seed)))
        src = tmp_path / "series.csv"
        src.write_text(text, encoding="utf-8")

        def run(out):
            code = main(["run", "--series", str(src), "--out", str(out), *options])  # no exception escapes
            files = sorted(out.iterdir()) if out.exists() else []
            return code, capsys.readouterr().err, {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

        code, err, digests = run(tmp_path / "a")
        assert run(tmp_path / "b") == (code, err, digests)
        if code == 0:
            written = [name for name in MATRIX_KINDS if f"{name}.csv" in digests]
            assert len(written) == 5
            for name in written:
                assert read_matrix_csv(tmp_path / "a" / f"{name}.csv", MATRIX_KINDS[name]).labels == tuple(ids)
            return
        assert not (tmp_path / "a").exists()
        # The collections' only input error is a column without observations.
        rows = [line.split(",")[1:] for line in text.splitlines()[1:]]
        empty_column = any(all(not row[j] for row in rows) for j in range(len(ids)))
        family, message = err.strip().split(": ", 1)
        assert (code, family) == ((1, "input error") if empty_column else (2, "error")), err
        sid = "(" + "|".join(ids) + ")"
        assert any(re.search(p.format(src=re.escape(str(src)), sid=sid), message) for p in CULPRITS), message


class TestCompareMetrics:
    def test_default_suite_outputs(self, tmp_path):
        out = tmp_path / "cmp"
        res = compare_metrics(PipelineConfig(out_dir=str(out)))
        assert res["labels"][0] == "s01"
        for name in ("hausdorff", "modified_hausdorff", "mj1", "dp"):
            assert (out / f"{name}.csv").exists()
            assert (out / f"{name}_dendrogram.nwk").exists()
        d = read_matrix_csv(out / "hausdorff.csv", MatrixKind.DISTANCE)
        assert d.n == 10

    def test_single_series_rejected(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("t,x\n" + "\n".join(f"{t},{t % 5}" for t in range(100)) + "\n")
        with pytest.raises(InputError):
            compare_metrics(PipelineConfig(series_path=str(src), out_dir=str(tmp_path / "o")))


class TestDetectionOrder:
    """Series are detected in order of their whole-window split, and results come back in input order."""

    def test_results_in_input_order(self, monkeypatch):
        rng = np.random.default_rng(19)
        # Jumps planted ever earlier, so the split order is the reverse of the input order.
        series = [
            TimeSeries(f"s{i}", rng.standard_normal(240) + np.repeat([0.0, 6.0], [200 - 20 * i, 40 + 20 * i]))
            for i in range(6)
        ]
        config = PipelineConfig(min_segment=15, seed=2)
        expected = [detect_change_points(ts, config) for ts in series]
        calls = []

        def detect(ts, params):
            calls.append(ts.id)
            return detect_change_points(ts, params)

        monkeypatch.setattr("stepdist.pipeline.detect_change_points", detect)
        labels, cps, fs = _embed_all(series, config)
        assert calls == [ts.id for ts in reversed(series)]
        assert labels == tuple(ts.id for ts in series)
        assert cps == expected
        assert [f.breakpoints for f in fs] == [(0, *c.points, 239) for c in expected]


class TestConfig:
    # A run's config is itself the detector's parameters: PipelineConfig
    # extends DetectionParams instead of converting to one.
    SETTINGS = {
        Attribute.MEAN: dict(significance=0.1, min_segment=25, permutations=99, seed=7),
        Attribute.VARIANCE: dict(significance=0.05, min_segment=30, permutations=199, seed=3),
    }

    def test_config_is_detection_params(self):
        config = PipelineConfig()
        assert isinstance(config, DetectionParams)
        assert {f: getattr(config, f) for f in vars(DetectionParams())} == vars(DetectionParams())

    @pytest.mark.parametrize("attribute", list(Attribute))
    def test_config_detects_like_detection_params(self, attribute):
        rng = np.random.default_rng(5)
        if attribute is Attribute.MEAN:
            x = np.concatenate([rng.normal(0, 1, 150), rng.normal(4, 1, 150), rng.normal(-1, 1, 150)])
        else:
            x = np.concatenate([rng.normal(0, 1, 200), rng.normal(0, 6, 200)])
        ts = TimeSeries("x", x)
        settings = dict(attribute=attribute, **self.SETTINGS[attribute])
        config = PipelineConfig(p=2.0, k=3, **settings)
        params = DetectionParams(**settings)
        cps = detect_change_points(ts, params)
        assert len(cps) > 0
        assert detect_change_points(ts, config) == cps
        assert embed(ts, config) == embed(ts, params)

    @pytest.mark.parametrize("attribute", list(Attribute))
    def test_analysis_detects_with_the_config_itself(self, tmp_path, monkeypatch, attribute):
        seen = []

        def detect(series, params):
            seen.append(params)
            return detect_change_points(series, params)

        monkeypatch.setattr("stepdist.pipeline.detect_change_points", detect)
        config = PipelineConfig(
            attribute=attribute, series_path=str(FIXTURE_SERIES), out_dir=str(tmp_path / "o"), k=2
        )
        run_analysis(config)
        assert len(seen) == 6 and all(params is config for params in seen)

    def test_settings_stored_in_their_own_types(self):
        config = PipelineConfig(p="2", linkage="complete", k=2.0, attribute="variance", min_segment=np.int64(30))
        assert config == PipelineConfig(
            p=2.0, linkage=Linkage.COMPLETE, k=2, attribute=Attribute.VARIANCE, min_segment=30
        )
        assert [type(v) for v in (config.p, config.linkage, config.k, config.min_segment)] == [float, Linkage, int, int]

    def test_typed_settings_write_the_canonical_outputs(self, tmp_path):
        # Strings and numpy numbers give the bytes of the Python values they stand for.
        common = dict(series_path=str(FIXTURE_SERIES), metadata_path=str(FIXTURE_STATIONS))
        canonical = dict(
            attribute=Attribute.VARIANCE,
            p=2.0,
            significance=0.1,
            min_segment=25,
            permutations=99,
            linkage=Linkage.COMPLETE,
            k=2,
            seed=7,
        )
        typed = dict(
            attribute="variance",
            p="2",
            significance=np.float64(0.1),
            min_segment=np.int64(25),
            permutations=99.0,
            linkage="complete",
            k=np.float64(2.0),
            seed=np.uint8(7),
        )
        outputs = []
        for name, settings in (("canonical", canonical), ("typed", typed)):
            out = tmp_path / name
            run_analysis(PipelineConfig(out_dir=str(out), **common, **settings))
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 31
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (dict(p=0.5, k=0, significance=2.0), ValueError, "p must be"),
            (dict(k=0, significance=2.0), BadK, "k must be"),
            (dict(significance=2.0, min_segment=1), ValueError, "significance must be"),
            (dict(attribute="variance", min_segment=2), ValueError, "min_segment must be >= 3"),
            (dict(k=2.5), BadK, "k must be an integer"),
            (dict(k=True), BadK, "k must be an integer"),
            (dict(linkage="median"), ValueError, "median"),
            (dict(p="two"), ValueError, "two"),
            (dict(min_segment=30.5), ValueError, "min_segment must be an integer"),
        ],
    )
    def test_first_bad_setting_reported(self, bad, error, message):
        with pytest.raises(error, match=message):
            PipelineConfig(**bad)


class TestCli:
    def test_run_and_exit_codes(self, tmp_path):
        src = tmp_path / "s.csv"
        three_series_csv(src)
        out = tmp_path / "out"
        assert main(["run", "--series", str(src), "--out", str(out)]) == 0
        assert (out / "summary.json").exists()

    def test_outputs_do_not_depend_on_the_locale(self, tmp_path):
        rng = np.random.default_rng(5)
        columns = [np.r_[rng.normal(0, 1, 80), rng.normal(5, 1, 80)], rng.normal(0, 1, 160), rng.normal(2, 1, 160)]
        rows = ["t,Zürich,Genève,Bern", *(",".join([str(t), *(str(c[t]) for c in columns)]) for t in range(160))]
        src = tmp_path / "s.csv"
        src.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert main(["run", "--series", str(src), "--out", str(tmp_path / "here")]) == 0
        # An ASCII locale, with neither locale coercion nor UTF-8 mode to hide it.
        env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(stepdist.__file__).parents[1]), env.get("PYTHONPATH")]))
        code = "import sys; from stepdist.cli import main; sys.exit(main(sys.argv[1:]))"
        argv = ["run", "--series", str(src), "--out", str(tmp_path / "ascii")]
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        here = sorted(p.name for p in (tmp_path / "here").iterdir())
        assert here == sorted(p.name for p in (tmp_path / "ascii").iterdir())
        for name in here:
            assert (tmp_path / "ascii" / name).read_bytes() == (tmp_path / "here" / name).read_bytes(), name

    def test_missing_series_file_is_input_error(self, tmp_path):
        code = main(["run", "--series", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 1

    def test_non_finite_cell_is_input_error(self, tmp_path):
        src = tmp_path / "s.csv"
        rows = [f"{t},{t % 7},{'inf' if t == 50 else t % 5}" for t in range(100)]
        src.write_text("\n".join(["t,x,y", *rows]) + "\n")
        assert main(["run", "--series", str(src), "--out", str(tmp_path / "o")]) == 1

    def test_malformed_station_csv_is_input_error(self, tmp_path):
        stations = tmp_path / "stations.csv"
        lines = FIXTURE_STATIONS.read_text().splitlines()
        stations.write_text("\n".join([lines[0], "alpha,xx,0.4", *lines[2:]]) + "\n")
        code = main(
            ["run", "--series", str(FIXTURE_SERIES), "--metadata", str(stations), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    @pytest.mark.parametrize("row", ["alpha,95,0.4", "alpha,nan,0.4"])
    def test_invalid_coordinate_is_input_error(self, tmp_path, row):
        stations = tmp_path / "stations.csv"
        lines = FIXTURE_STATIONS.read_text().splitlines()
        stations.write_text("\n".join([lines[0], row, *lines[2:]]) + "\n")
        code = main(
            ["run", "--series", str(FIXTURE_SERIES), "--metadata", str(stations), "--out", str(tmp_path / "o")]
        )
        assert code == 1

    def test_duplicate_station_is_input_error(self, tmp_path, capsys):
        stations = tmp_path / "stations.csv"
        stations.write_text(FIXTURE_STATIONS.read_text() + "alpha,10.0,0.4\n")
        with pytest.raises(DuplicateStation, match="'alpha'"):
            ingest(FIXTURE_SERIES, stations)
        out = tmp_path / "o"
        assert main(["run", "--series", str(FIXTURE_SERIES), "--metadata", str(stations), "--out", str(out)]) == 1
        assert "input error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "unreadable", ["series_dir", "metadata_dir", "series_not_utf8", "config_not_utf8", "out_is_file"]
    )
    def test_unreadable_input_is_input_error(self, tmp_path, capsys, unreadable):
        argv = {"series": str(FIXTURE_SERIES), "metadata": str(FIXTURE_STATIONS), "out": str(tmp_path / "o")}
        if unreadable == "series_dir":
            argv["series"] = str(tmp_path)
        elif unreadable == "metadata_dir":
            argv["metadata"] = str(tmp_path)
        elif unreadable == "series_not_utf8":
            src = tmp_path / "s.csv"
            src.write_bytes(FIXTURE_SERIES.read_bytes().replace(b"\n", b"\xff\n", 1))
            argv["series"] = str(src)
        elif unreadable == "config_not_utf8":
            (tmp_path / "c.cfg").write_bytes(b"seed = 3\n# \xff\n")
            argv["config"] = str(tmp_path / "c.cfg")
        else:
            (tmp_path / "o").write_text("a file, not a directory\n")
        assert main(["run", *(f"--{key}={value}" for key, value in argv.items())]) == 1
        assert "input error:" in capsys.readouterr().err
        assert unreadable == "out_is_file" or not (tmp_path / "o").exists()

    @pytest.mark.parametrize("unreadable", ["series", "metadata"])
    def test_csv_line_too_long_to_read_is_input_error(self, tmp_path, capsys, unreadable):
        # A field over csv.field_size_limit() stops the csv module at its line.
        src = {"series": FIXTURE_SERIES, "metadata": FIXTURE_STATIONS}[unreadable]
        lines = src.read_text().splitlines()
        lines[2] = lines[2].split(",", 1)[0] + "," + "1" * 200_000
        path = tmp_path / src.name
        path.write_text("\n".join(lines) + "\n")
        argv = {"series": str(FIXTURE_SERIES), "metadata": str(FIXTURE_STATIONS), "out": str(tmp_path / "o")}
        argv[unreadable] = str(path)
        assert main(["run", *(f"--{key}={value}" for key, value in argv.items())]) == 1
        err = capsys.readouterr().err
        assert "input error:" in err
        assert f"{path}: row 3: field larger than field limit" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, write, error, message",
        [
            ("run", lambda path: path.write_text("t,x,y\n"), UnparseableCell, "need a header plus data rows"),
            (
                "run",
                lambda path: path.write_text("t,a\n0,1\n"),
                UnparseableCell,
                r"s\.csv: need a header plus >= 2 data rows",
            ),
            ("run", lambda path: path.write_text("t,x,\n0,1,2\n1,1,2\n"), UnparseableCell, "empty series id"),
            ("run", lambda path: path.write_text("t,x,x\n0,1,2\n1,1,2\n"), IdMismatch, "duplicate series ids"),
            ("run", lambda path: path.write_text("t,x,y\n0,1,2\n1,1,2,3\n"), UnparseableCell, "row 3 has 4 cells"),
            ("compare-metrics", three_series_csv, EmptySet, r"without change points .*\['c'\]"),
        ],
        ids=["header_only", "one_data_row", "empty_id", "duplicate_ids", "long_row", "no_change_point"],
    )
    def test_rejected_series_csv(self, tmp_path, capsys, command, write, error, message):
        src = tmp_path / "s.csv"
        write(src)
        out = tmp_path / "o"
        analysis = run_analysis if command == "run" else compare_metrics
        with pytest.raises(error, match=message):
            analysis(PipelineConfig(series_path=str(src), out_dir=str(out)))
        code = 1 if issubclass(error, InputError) else 2
        assert main([command, "--series", str(src), "--out", str(out)]) == code
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()

    def test_short_series_name_the_first_series(self, tmp_path, capsys):
        # Every series is shorter than 2 * min_segment = 60; s0 splits last, s2 first.
        rng = np.random.default_rng(4)
        cols = [rng.standard_normal(40) + np.repeat([0.0, 5.0], [35 - 10 * i, 5 + 10 * i]) for i in range(3)]
        src = tmp_path / "s.csv"
        write_series_csv(src, ["s0", "s1", "s2"], cols, n=40)
        out = tmp_path / "o"
        assert main(["run", "--series", str(src), "--out", str(out)]) == 2
        assert "series 's0': 40 observations < 2 * min_segment = 60" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_cosine_with_metadata(self, tmp_path):
        # Opposite-signed levels give a cosine near -1, so alignment minus
        # geographic affinity falls below -1.
        rng = np.random.default_rng(0)
        levels = [(5.0, 8.0), (-5.0, -8.0), (4.0, 1.0)]
        cols = [np.concatenate([rng.normal(a, 1, 80), rng.normal(b, 1, 80)]) for a, b in levels]
        src = tmp_path / "s.csv"
        write_series_csv(src, ["a", "b", "c"], cols)
        stations = tmp_path / "stations.csv"
        stations.write_text("id,lat_deg,lon_deg\na,0.0,0.0\nb,0.0,0.5\nc,1.0,0.0\n")
        out = tmp_path / "o"
        assert main(["run", "--series", str(src), "--metadata", str(stations), "--out", str(out)]) == 0
        cons = read_matrix_csv(out / "consistency_alignment.csv", MatrixKind.CONSISTENCY)
        assert cons.entries.min() < -1.0

    def test_missing_required_option_is_config_error(self, tmp_path):
        assert main(["run", "--out", str(tmp_path / "o")]) == 2

    def test_bad_parameter_is_config_error(self, tmp_path):
        src = tmp_path / "s.csv"
        three_series_csv(src)
        code = main(["run", "--series", str(src), "--out", str(tmp_path / "o"), "--p", "0.5"])
        assert code == 2

    @pytest.mark.parametrize("via_config", [False, True])
    def test_unparseable_value_names_its_option(self, tmp_path, capsys, via_config):
        argv = ["run", "--series", str(FIXTURE_SERIES), "--out", str(tmp_path / "o")]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("p = abc\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--p", "abc"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: bad value 'abc' for p: could not convert string to float: 'abc'\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "compare-metrics"])
    @pytest.mark.parametrize("via_config", [False, True])
    def test_empty_out_is_config_error(self, tmp_path, monkeypatch, command, via_config):
        # Path("") is the working directory, so an empty out must not be used.
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        argv = [command, "--series", str(FIXTURE_SERIES)]
        if via_config:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("out =\n")
            argv += ["--config", str(cfg)]
        else:
            argv += ["--out", ""]
        assert main(argv) == 2
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--k", "0"],
            ["run", "--k", "99"],
            ["run", "--p", "0.5"],
            ["run", "--significance", "0.001"],
            ["compare-metrics", "--k", "0"],
        ],
    )
    def test_bad_setting_rejected_before_detection(self, tmp_path, monkeypatch, argv):
        calls = []
        for module in ("stepdist.pipeline", "stepdist.stepfn"):  # stepfn.embed detects through its own binding
            monkeypatch.setattr(f"{module}.detect_change_points", lambda *args: calls.append(args))
        out = tmp_path / "o"
        assert main([*argv, "--series", str(FIXTURE_SERIES), "--out", str(out)]) == 2
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "compare-metrics"])
    @pytest.mark.parametrize("below_file", [False, True])
    def test_unusable_out_rejected_before_detection(self, tmp_path, monkeypatch, capsys, command, below_file):
        calls = []
        for module in ("stepdist.pipeline", "stepdist.stepfn"):  # stepfn.embed detects through its own binding
            monkeypatch.setattr(f"{module}.detect_change_points", lambda *args: calls.append(args))
        blocker = tmp_path / "f"
        blocker.write_text("a file, not a directory\n")
        out = blocker / "sub" if below_file else blocker
        assert main([command, "--series", str(FIXTURE_SERIES), "--out", str(out)]) == 1
        assert calls == []
        code = errno.ENOTDIR if below_file else errno.EEXIST
        assert f"input error: [Errno {code}] {os.strerror(code)}: '{out}'" in capsys.readouterr().err
        assert blocker.read_text() == "a file, not a directory\n"

    def test_config_file_with_flag_override(self, tmp_path):
        src = tmp_path / "s.csv"
        three_series_csv(src)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"# analysis settings\nseries = {src}\nout = {tmp_path / 'from_cfg'}\np = 2\nmin-segment = 25\n"
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "cli_out")]) == 0
        assert not (tmp_path / "from_cfg").exists()
        summary = json.loads((tmp_path / "cli_out" / "summary.json").read_text())
        assert summary["p"] == 2.0
        assert summary["min_segment"] == 25

    def test_unknown_config_key_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("wibble = 3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_config_line_without_equals_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# settings\nwibble 3\n")
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: expected 'key = value', got 'wibble 3'\n"
        assert not (tmp_path / "o").exists()

    def test_metadata_config_key_rejected_by_compare_metrics(self, tmp_path):
        # compare-metrics has no --metadata flag, so the config key is unknown.
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(f"metadata = {tmp_path / 'nope.csv'}\n")
        assert main(["compare-metrics", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_config_k_auto_matches_default(self, tmp_path):
        src = tmp_path / "s.csv"
        three_series_csv(src)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("k = Auto\n")
        assert main(["run", "--config", str(cfg), "--series", str(src), "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--series", str(src), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()

    def test_export_suite(self, tmp_path):
        out = tmp_path / "suite"
        assert main(["export-suite", "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert (out / "s01.csv").exists()

    def test_exported_suite_reads_back_as_the_built_in_suite(self, tmp_path):
        # export-suite's wide CSV, read by compare-metrics --series, gives the
        # same bytes as compare-metrics on the suite it generates itself.
        assert main(["export-suite", "--out", str(tmp_path / "suite")]) == 0
        wide = tmp_path / "suite" / "suite_wide.csv"
        assert main(["compare-metrics", "--series", str(wide), "--out", str(tmp_path / "read")]) == 0
        assert main(["compare-metrics", "--out", str(tmp_path / "built")]) == 0
        read = {p.name: p.read_bytes() for p in (tmp_path / "read").iterdir()}
        built = {p.name: p.read_bytes() for p in (tmp_path / "built").iterdir()}
        assert read.keys() == built.keys() and len(read) > 1
        assert read == built

    def test_compare_metrics_cli(self, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare-metrics", "--out", str(out)]) == 0
        assert (out / "dp_dendrogram.nwk").exists()


class TestGeoFixturePipeline:
    def test_consistency_outputs_and_anomaly(self, tmp_path):
        out = tmp_path / "out"
        summary = run_analysis(
            PipelineConfig(
                series_path=str(FIXTURE_SERIES),
                metadata_path=str(FIXTURE_STATIONS),
                out_dir=str(out),
            )
        )
        assert set(summary["consistency_norms"]) == {
            "consistency_unscaled",
            "consistency_normalized",
            "consistency_alignment",
        }
        for name in summary["consistency_norms"]:
            newick = (out / f"{name}_dendrogram.nwk").read_text().strip()
            # the planted anomaly is the last leaf to merge: a direct child of the root
            assert newick.startswith("(foxtrot:")

    @pytest.mark.parametrize("metadata, passes", [(False, 3), (True, 7)])
    def test_one_spectral_pass_per_distinct_affinity_view(self, tmp_path, monkeypatch, metadata, passes):
        # A distance matrix and its affinity have the same affinity view, so
        # they share one clustering and one automatic k.
        calls = {"spectral_cluster": 0, "eigengap_k": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(stepdist.pipeline, "spectral_cluster")
        counted(stepdist.clustering, "eigengap_k")
        out = tmp_path / "out"
        summary = run_analysis(
            PipelineConfig(
                series_path=str(FIXTURE_SERIES),
                metadata_path=str(FIXTURE_STATIONS) if metadata else None,
                out_dir=str(out),
            )
        )
        assert calls == {"spectral_cluster": passes, "eigengap_k": passes}
        assert sorted(summary["spectral_k"]) == sorted(list(MATRIX_KINDS)[: 10 if metadata else 5])
        pairs = [("distance_unscaled", "affinity_unscaled"), ("distance_normalized", "affinity_normalized")]
        for dist, aff in pairs + ([("geo_distance", "affinity_geo")] if metadata else []):
            assert summary["spectral_k"][dist] == summary["spectral_k"][aff]
            assert (out / f"{dist}_clusters.csv").read_bytes() == (out / f"{aff}_clusters.csv").read_bytes()
