"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import WARMUP, WORKLOADS, generate, match_change_points, write_wide_csv  # noqa: E402

import stepdist.cli as cli  # noqa: E402
from stepdist import Attribute, ChangePointSet, TimeSeries, from_changepoints, lp_distance, lp_norm  # noqa: E402
from stepdist import changepoint as changepoint_module  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_csv(tmp_path, name):
    w = WORKLOADS[name]
    paths = []
    for k, seed in enumerate((7, 7, 8)):
        series, planted = generate(w, seed)
        paths.append(tmp_path / f"{k}.csv")
        write_wide_csv(series, paths[-1])
        assert len(series) == w.n_series and all(ts.values.size == w.length for ts in series)
        for p in planted:
            assert w.min_breaks <= len(p.breaks) <= w.max_breaks
            bounds = (0, *p.breaks, w.length)
            assert min(b - a for a, b in zip(bounds, bounds[1:])) >= w.min_gap
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_bytes() != paths[2].read_bytes()


def test_segments_fit_when_there_is_no_slack():
    # Three breaks with 60-sample gaps fill L = 240 exactly: the only
    # placement is forced, and the generator must find it without retrying.
    w = replace(WORKLOADS["wide_short"], length=240, min_breaks=3, max_breaks=3, min_gap=60)
    _, planted = generate(w, 1)
    assert {p.breaks for p in planted} == {(60, 120, 180)}
    with pytest.raises(ValueError):
        replace(w, min_gap=61)


@pytest.mark.parametrize("attribute", ["mean", "variance"])
def test_unit_cell_oracle_matches_lp_distance(attribute):
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(8, 60))
        fs, cells = [], []
        for sid in ("a", "b"):
            values = rng.normal(0.0, 3.0, n)
            k = int(rng.integers(0, 4))
            cps = sorted(set(rng.integers(2, n - 2, size=k).tolist()))
            cps = [c for i, c in enumerate(cps) if i == 0 or c - cps[i - 1] >= 2]
            ts = TimeSeries(sid, values)
            fs.append(from_changepoints(ts, ChangePointSet(tuple(cps)), Attribute(attribute)))
            cells.append(checks.cell_values(values, cps, attribute))
        h = n - 1
        assert np.abs(cells[0] - cells[1]).sum() / h == pytest.approx(lp_distance(fs[0], fs[1], 1.0), rel=1e-12)
        assert np.abs(cells[0]).sum() / h == pytest.approx(lp_norm(fs[0], 1.0), rel=1e-12)


def test_every_layer_function_is_found_and_wrapped():
    targets = list(spans.SPAN_FUNCTIONS.values())
    targets += [t for group in spans.AGGREGATE_FUNCTIONS.values() for t in group]
    originals = {t: spans.bindings(*t) for t in targets}
    tracer = spans.Tracer()
    with tracer.instrument():
        for target, (fn, where) in originals.items():
            for mod, key in where:
                assert getattr(mod, key) is not fn, f"{mod.__name__}.{key} not wrapped"
                assert getattr(mod, key).__wrapped__ is fn
    for target, (fn, where) in originals.items():
        assert all(getattr(mod, key) is fn for mod, key in where)
    # The pipeline calls detection through its own binding, not the home module's.
    assert any(mod.__name__ == "stepdist.pipeline" for mod, _ in originals[spans.SPAN_FUNCTIONS["changepoint.detect"]][1])


def test_missing_layer_function_fails_loudly():
    with pytest.raises(LookupError):
        spans.bindings("stepdist.changepoint", "no_such_function")


def _job(tmp_path, command="run", workload=WARMUP, seed=3):
    series, planted = generate(workload, seed)
    csv_path = tmp_path / "in.csv"
    write_wide_csv(series, csv_path)
    jobs = []
    for k in range(2):
        cap = spans.ChangePointCapture()
        out = tmp_path / f"job{k}"
        with cap.instrument():
            rc = cli.main([command, "--series", str(csv_path), "--out", str(out)])
        jobs.append(json.loads(json.dumps({"rc": rc, "out": str(out), "cps": cap.calls})))
    return series, planted, jobs


def test_clean_jobs_pass_every_check(tmp_path):
    series, _, jobs = _job(tmp_path)
    failed, problems, digest = checks.verify_jobs(jobs, "run", series, "mean", 0)
    assert (failed, problems) == (0, [])
    assert digest == checks.digest(jobs[1]["out"])


def test_compare_metrics_jobs_pass_every_check(tmp_path):
    w = replace(WORKLOADS["compare_wide"], n_series=6, n_groups=3)
    series, _, jobs = _job(tmp_path, "compare-metrics", w)
    assert checks.verify_jobs(jobs, "compare-metrics", series, "mean", 0)[:2] == (0, [])


@pytest.mark.parametrize("tamper", ["entry", "asymmetric", "label", "missing", "later_job", "magnitude"])
def test_tampered_output_counts_as_failed_job(tmp_path, tamper):
    series, _, jobs = _job(tmp_path)
    first, second = Path(jobs[0]["out"]), Path(jobs[1]["out"])
    matrix = first / "distance_unscaled.csv"
    rows = [line.split(",") for line in matrix.read_text().splitlines()]
    if tamper == "entry":  # a wrong distance, kept symmetric
        v = repr(float(rows[1][2]) * 1.001)
        rows[1][2] = rows[2][1] = v
    elif tamper == "asymmetric":
        rows[1][2] = repr(float(rows[1][2]) + 1.0)
    elif tamper == "label":
        rows[0][0] = "intruder"
    if tamper in ("entry", "asymmetric", "label"):
        matrix.write_text("\n".join(",".join(r) for r in rows) + "\n")
    elif tamper == "missing":
        (first / "alignment_dendrogram.nwk").unlink()
    elif tamper == "later_job":
        (second / "summary.json").write_text((second / "summary.json").read_text() + " ")
    else:
        summary = json.loads((first / "summary.json").read_text())
        label = series[0].id
        summary["magnitudes"][label] *= 1.0 + 1e-6
        (first / "summary.json").write_text(json.dumps(summary))
    failed, problems, _ = checks.verify_jobs(jobs, "run", series, "mean", 0)
    assert failed >= 1 and problems


def test_failed_exit_code_counts_as_failed_job(tmp_path):
    series, _, jobs = _job(tmp_path)
    jobs[1]["rc"] = 2
    assert checks.verify_jobs(jobs, "run", series, "mean", 0)[0] == 1


def test_window_count_replay_matches_the_detector(monkeypatch):
    # Every tested window makes two scans (observed, then permuted rows).
    scans = []
    real = changepoint_module._scan_profile

    def counting(rows, min_segment, attribute):
        scans.append(rows.shape)
        return real(rows, min_segment, attribute)

    monkeypatch.setattr(changepoint_module, "_scan_profile", counting)
    for name, seed in (("reference", 1), ("long_variance", 2)):
        w = replace(WORKLOADS[name], n_series=3, n_groups=3)
        series, _ = generate(w, seed)
        params = changepoint_module.DetectionParams(attribute=w.attribute, min_segment=w.min_segment)
        for ts in series:
            scans.clear()
            cps = changepoint_module.detect_change_points(ts, params)
            tested = [shape[1] for shape in scans if shape[0] == 1]
            replayed = worker._tested_windows(ts.values, cps.points, w.min_segment, w.attribute)
            assert sorted(replayed) == sorted(tested)


def test_traced_job_attributes_all_time(tmp_path):
    w = replace(WORKLOADS["compare_wide"], n_series=6, n_groups=3)
    for command, workload in (("run", WARMUP), ("compare-metrics", w)):
        series, _ = generate(workload, 2)
        csv_path = tmp_path / f"{command}.csv"
        write_wide_csv(series, csv_path)
        tracer = spans.Tracer()
        with tracer.instrument(), tracer.span("job") as job:
            assert cli.main([command, "--series", str(csv_path), "--out", str(tmp_path / command)]) == 0
        assert sum(tracer.self_seconds().values()) == pytest.approx(job.duration, abs=1e-9)
        assert tracer.missing_layers(command) == []
        layers = worker.layer_metrics(tracer, job)
        assert layers["changepoint.detect.calls"] == len(series)
        assert layers["ingest.cells"] == workload.n_series * workload.length
        if command == "run":
            assert tracer.missing_layers("compare-metrics") == ["set_metrics"]
            assert layers["clustering.linkage.calls"] == 5
            assert layers["matrices.pairs"] == 3 * len(series) * (len(series) - 1) // 2
        else:
            assert layers["set_metrics.calls"] == 3 * len(series) * (len(series) - 1) // 2
            assert "set_metrics" not in {s.name for s in tracer.spans}


def test_matching_is_one_to_one():
    from workloads import Planted

    planted = [Planted("a", 0, (100, 200))]
    assert match_change_points([(101, 102, 199)], planted, 5) == (2, 3, 2)
    assert match_change_points([(150,)], planted, 5) == (0, 1, 2)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert [m["name"] for m in spec["end_to_end"]] == ["job_s", "setup_s", "peak_rss_mb", "cp_recall"]
    produced = {"cp_precision", "output.files", "output.bytes"}
    produced |= {"trace.job_s", "trace.untraced_job_s", "trace.overhead_s"}
    tracer = spans.Tracer()
    with tracer.span("job") as job:
        pass
    produced |= set(worker.layer_metrics(tracer, job))
    assert per_layer == produced
