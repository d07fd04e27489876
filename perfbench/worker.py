"""The job process: imports the program, warms it up, runs jobs.

Started by ``run.py`` as ``python3 worker.py REQUEST.json`` in a fresh
interpreter, so the import and one-time initialisation it times are the
program's real set-up cost. Jobs call the public CLI entry in-process
(``stepdist.cli.main``), one at a time (a closed loop with one client).
The result, including per-job wall times and the captured change points,
goes to the JSON file named in the request.

Modes:
  setup   import and warm up only
  timed   jobs with only the change-point capture active, until the
          measurement window is used up (at least MIN_JOBS)
  traced  pairs of one untraced job and one job with every layer
          function wrapped, until the window is used up (at least one
          pair); reports per-layer metrics and the tracing overhead
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import ChangePointCapture, Tracer

# Nothing here imports numpy or the program at module level: both load
# inside main(), after the set-up clock has started.

MIN_JOBS = 2


def _captured_job(cli, argv: list[str], out: Path) -> dict:
    """One timed job; only the change-point capture is active."""
    cap = ChangePointCapture()
    with cap.instrument():
        t0 = time.perf_counter()
        rc = cli.main([*argv, "--out", str(out)])
        seconds = time.perf_counter() - t0
    return {"rc": rc, "seconds": seconds, "out": str(out), "cps": cap.calls}


def _traced_job(cli, argv: list[str], out: Path):
    """One job with every layer function wrapped: (job, tracer, root span)."""
    tracer = Tracer()
    with tracer.instrument(), tracer.span("job") as root:
        rc = cli.main([*argv, "--out", str(out)])
    cps = [(s.args[0].id, tuple(s.result.points)) for s in tracer.spans if s.name == "changepoint.detect"]
    return {"rc": rc, "seconds": root.duration, "out": str(out), "cps": cps}, tracer, root


def _tested_windows(x, cps: tuple[int, ...], ms: int, attribute: str) -> list[int]:
    """Lengths of the windows the detector tested, replayed from its output.

    A window of at least 2 * ms samples is tested; it was accepted iff a
    returned change point lies inside it, and then it split at the inside
    point with the largest observed statistic (smallest on ties), exactly
    as the detector's argmax does.
    """
    import numpy as np

    def stat(w, s: int) -> float:
        left, right = w[:s], w[s:]
        if attribute == "mean":
            pooled = (((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()) / (w.size - 2)
            se = np.sqrt(pooled * (1.0 / left.size + 1.0 / right.size))
            diff = abs(left.mean() - right.mean())
            return float(diff / se) if se > 0 else (np.inf if diff > 0 else 0.0)
        vl, vr = left.var(ddof=1), right.var(ddof=1)
        hi, lo = max(vl, vr), min(vl, vr)
        return float(hi / lo) if lo > 0 else (np.inf if hi > 0 else 1.0)

    lengths: list[int] = []

    def visit(lo: int, hi: int) -> None:
        if hi - lo < 2 * ms:
            return
        lengths.append(hi - lo)
        inside = [c for c in cps if lo < c < hi]
        if inside:
            w = x[lo:hi]
            split = max(inside, key=lambda c: stat(w, c - lo))
            visit(lo, split)
            visit(split, hi)

    visit(0, x.size)
    return lengths


def _merged_cells(fs) -> int:
    """Sum over pairs i < j of the size of the merged breakpoint partition."""
    bps = [frozenset(f.breakpoints) for f in fs]
    total = 0
    for i, a in enumerate(bps):
        for b in bps[i + 1 :]:
            total += len(a) + len(b) - len(a & b) - 1
    return total


def _dir_bytes(path: Path) -> tuple[int, int]:
    files = [p for p in path.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def layer_metrics(tracer, job_span) -> dict:
    """Per-layer busy (self) times and work counts of one traced job."""
    selfs = tracer.self_seconds()
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def busy(name: str) -> float:
        return selfs.get(name, 0.0)

    m: dict[str, float] = {}
    detect = by_name.get("changepoint.detect", [])
    windows: list[int] = []
    permutations = 0
    for s in detect:
        series, params = s.args
        permutations = params.permutations
        windows += _tested_windows(series.values, s.result.points, params.min_segment, params.attribute.value)
    window_samples = sum(windows)
    m["changepoint.detect.busy_s"] = busy("changepoint.detect")
    m["changepoint.detect.calls"] = len(detect)
    m["changepoint.detect.cps"] = sum(len(s.result) for s in detect)
    m["changepoint.windows"] = len(windows)
    m["changepoint.window_samples"] = window_samples
    m["changepoint.ns_per_perm_sample"] = (
        1e9 * busy("changepoint.detect") / (window_samples * (permutations + 1)) if window_samples else 0.0
    )
    longest = max((s.args[0].values.size for s in detect), default=0)
    m["changepoint.perm_matrix_mb"] = permutations * longest * 8 / 1e6

    embeds = by_name.get("stepfn.embed", [])
    m["stepfn.embed.busy_s"] = busy("stepfn.embed")
    m["stepfn.lp_norm.busy_s"] = busy("stepfn.lp_norm")
    m["stepfn.segments"] = sum(len(s.result.values) for s in embeds)

    kernels = ("matrices.distance_unscaled", "matrices.distance_normalized", "matrices.alignment")
    pairs = cells = 0
    cells_of: dict[int, int] = {}
    for name in kernels:
        m[f"{name}.busy_s"] = busy(name)
        for s in by_name.get(name, []):
            fs = s.args[0]
            pairs += len(fs) * (len(fs) - 1) // 2
            if id(fs) not in cells_of:
                cells_of[id(fs)] = _merged_cells(fs)
            cells += cells_of[id(fs)]
    kernel_s = sum(busy(name) for name in kernels)
    m["matrices.pairs"] = pairs
    m["matrices.us_per_pair"] = 1e6 * kernel_s / pairs if pairs else 0.0
    m["matrices.merged_cells"] = cells
    m["matrices.write_csv.busy_s"] = busy("matrices.write_csv")
    m["matrices.write_csv.bytes"] = sum(
        Path(s.args[1]).stat().st_size for s in by_name.get("matrices.write_csv", [])
    )

    agg = tracer.aggregates.get("set_metrics")
    calls = agg.calls if agg else 0
    m["set_metrics.busy_s"] = busy("set_metrics")
    m["set_metrics.calls"] = calls
    m["set_metrics.us_per_call"] = 1e6 * busy("set_metrics") / calls if calls else 0.0

    linkage = by_name.get("clustering.linkage", [])
    m["clustering.linkage.busy_s"] = busy("clustering.linkage")
    m["clustering.linkage.calls"] = len(linkage)
    m["clustering.linkage.merges"] = sum(len(s.result.merges) for s in linkage)
    m["clustering.eigengap.busy_s"] = busy("clustering.eigengap")
    m["clustering.spectral.busy_s"] = busy("clustering.spectral")
    m["clustering.newick.busy_s"] = busy("clustering.newick")

    ingests = by_name.get("ingest", [])
    m["ingest.busy_s"] = busy("ingest")
    m["ingest.cells"] = sum(ts.values.size for s in ingests for ts in s.result[0])
    m["ingest.bytes"] = sum(Path(s.args[0]).stat().st_size for s in ingests)

    m["pipeline.self_s"] = job_span.self_s
    return m


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text())
    t0 = time.perf_counter()
    sys.path.insert(0, req["src"])
    import stepdist.cli as cli

    warm_rc = cli.main(["run", "--series", req["warmup_csv"], "--out", req["warmup_out"]])
    result: dict = {"setup_s": time.perf_counter() - t0, "warmup_rc": warm_rc, "jobs": []}

    if req["mode"] != "setup":
        argv = [
            req["command"], "--series", req["series_csv"],
            "--attribute", req["attribute"], "--min-segment", str(req["min_segment"]),
        ]
        out_root = Path(req["out_root"])
        traced_mode = req["mode"] == "traced"
        min_rounds = 1 if traced_mode else MIN_JOBS
        deadline = time.perf_counter() + req["max_seconds"]
        start = time.perf_counter()
        jobs, traced, plain_s, round_s = result["jobs"], [], [], []
        # A round is one job, or in traced mode one untraced and one traced
        # job in alternating order, so that the overhead compares jobs from
        # the same stretch of time and neither side always runs first.
        while True:
            order = ("plain", "traced") if len(round_s) % 2 == 0 else ("traced", "plain")
            seconds = 0.0
            for kind in order if traced_mode else ("plain",):
                out = out_root / f"job{len(jobs)}"
                if kind == "plain":
                    jobs.append(_captured_job(cli, argv, out))
                    plain_s.append(jobs[-1]["seconds"])
                else:
                    traced.append(_traced_job(cli, argv, out))
                    jobs.append(traced[-1][0])
                seconds += jobs[-1]["seconds"]
            round_s.append(seconds)
            now = time.perf_counter()
            typical = statistics.median(round_s)
            if now + typical > deadline:
                break
            if len(round_s) >= min_rounds and now - start + typical > req["seconds"]:
                break
        if traced_mode:
            # Layers come from the traced job of median length, one whole job.
            traced.sort(key=lambda t: t[0]["seconds"])
            job, tracer, root = traced[(len(traced) - 1) // 2]
            layers = layer_metrics(tracer, root)
            layers["output.files"], layers["output.bytes"] = _dir_bytes(Path(job["out"]))
            layers["trace.job_s"] = root.duration
            layers["trace.untraced_job_s"] = statistics.median_low(plain_s)
            layers["trace.overhead_s"] = layers["trace.job_s"] - layers["trace.untraced_job_s"]
            result["layers"] = layers
            result["attribution_error_s"] = max(
                abs(sum(t.self_seconds().values()) - r.duration) for _, t, r in traced
            )
            result["missing_layers"] = tracer.missing_layers(req["command"])
            result["trace"] = tracer.to_json()

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
