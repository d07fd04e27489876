import errno
import json
import math
import os
import re
import subprocess
import sys
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
from stepdist.errors import AllMissingColumn, BadK, DuplicateStation, EmptySet, IdMismatch, InputError, UnparseableCell
from stepdist.pipeline import PipelineConfig, compare_metrics, run_analysis

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

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            (dict(p=0.5, k=0, significance=2.0), ValueError, "p must be"),
            (dict(k=0, significance=2.0), BadK, "k must be"),
            (dict(significance=2.0, min_segment=1), ValueError, "significance must be"),
            (dict(attribute="variance", min_segment=2), ValueError, "min_segment must be >= 3"),
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

    @pytest.mark.parametrize("unreadable", ["series_dir", "metadata_dir", "series_not_utf8", "out_is_file"])
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
        else:
            (tmp_path / "o").write_text("a file, not a directory\n")
        assert main(["run", *(f"--{key}={value}" for key, value in argv.items())]) == 1
        assert "input error:" in capsys.readouterr().err
        assert unreadable == "out_is_file" or not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, write, error, message",
        [
            ("run", lambda path: path.write_text("t,x,y\n"), UnparseableCell, "need a header plus data rows"),
            ("run", lambda path: path.write_text("t,x,\n0,1,2\n1,1,2\n"), UnparseableCell, "empty series id"),
            ("run", lambda path: path.write_text("t,x,x\n0,1,2\n1,1,2\n"), IdMismatch, "duplicate series ids"),
            ("run", lambda path: path.write_text("t,x,y\n0,1,2\n1,1,2,3\n"), UnparseableCell, "row 3 has 4 cells"),
            ("compare-metrics", three_series_csv, EmptySet, r"without change points .*\['c'\]"),
        ],
        ids=["header_only", "empty_id", "duplicate_ids", "long_row", "no_change_point"],
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
