#!/usr/bin/env python3
"""Outside-in benchmark of ``stepdist run`` and ``stepdist compare-metrics``.

Usage (from the repository root):

    python3 perfbench/run.py --workload reference --seed 1 --seconds 20 --trace 0

The seeded input CSV is written before anything is timed. Fresh worker
processes (``worker.py``) then import the program from ``src/`` and warm
it up, which gives the set-up time; one of them runs the jobs, one at a
time, each a call of the public CLI entry ``stepdist.cli.main``. Every
job's outputs are checked: exit code, expected files, parseable and
symmetric matrices with the right labels, an independent unit-cell oracle
for the distances and magnitudes, and one output digest for all jobs of
the run.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it runs one untraced and one
traced job and reports the per-layer metrics. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A fuller record (environment, sample counts, digest, spans)
is written to ``.perfbench_results/``.
"""

from __future__ import annotations

import os

# Fixed before numpy loads here or in a worker: OpenBLAS warm-up and
# thread contention on a small machine otherwise dominate the spectral
# layer's timings.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
from workloads import WARMUP, WORKLOADS, generate, match_change_points, write_wide_csv  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RESULTS = ROOT / ".perfbench_results"
SETUP_SAMPLES = 7  # fresh processes per run, the job process included
RUN_LIMIT_S = 170.0  # a run must end within 180 s
CHECK_RESERVE_S = 20.0  # kept free for the output checks after the jobs
SETUP_TIMEOUT_S = 20.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def environment() -> dict:
    """Interpreter, library and machine facts recorded with every result."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((ln.split(":", 1)[1].strip() for ln in cpuinfo.splitlines() if ln.startswith("model name")), None)
    caches = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(d / f)) for f in ("level", "type", "size"))
        if level and kind and size:
            caches[f"L{level.strip()}{kind.strip()[0].lower()}"] = size.strip()
    commit = None
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head and head.startswith("ref:"):
        commit = _read(str(ROOT / ".git" / head.split(":", 1)[1].strip()))
    elif head:
        commit = head
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "git_commit": commit.strip() if commit else "unknown (not a git checkout)",
    }


def _spawn(request: dict, workdir: Path, name: str, timeout: float) -> tuple[dict | None, str | None]:
    """Run one worker to completion; returns (result, None) or (None, problem)."""
    req_path = workdir / f"{name}.request.json"
    request = {**request, "result": str(workdir / f"{name}.result.json")}
    req_path.write_text(json.dumps(request))
    with open(workdir / f"{name}.log", "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(req_path)],
                stdout=log, stderr=log, timeout=max(timeout, 1.0), cwd=ROOT,
            )
        except subprocess.TimeoutExpired:
            return None, f"{name}: worker exceeded {timeout:.0f} s"
    if proc.returncode != 0:
        tail = (workdir / f"{name}.log").read_text()[-2000:]
        return None, f"{name}: worker exited with {proc.returncode}:\n{tail}"
    return json.loads(Path(request["result"]).read_text()), None


def main(argv=None) -> int:
    t_run = time.perf_counter()
    args = _parse_args(argv)
    if not (SRC / "stepdist" / "__init__.py").is_file():
        print(f"perfbench: no stepdist sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    workdir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        return _run(args, spec, w, workdir, t_run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, spec: dict, w, workdir: Path, t_run: float) -> int:
    series, planted = generate(w, args.seed)
    series_csv = workdir / "series.csv"
    write_wide_csv(series, series_csv)
    warm_series, _ = generate(WARMUP, 0)
    warm_csv = workdir / "warmup.csv"
    write_wide_csv(warm_series, warm_csv)

    def left() -> float:
        return RUN_LIMIT_S - (time.perf_counter() - t_run)

    base = {"src": str(SRC), "warmup_csv": str(warm_csv)}
    problems: list[str] = []
    setup_s: list[float] = []
    for k in range(SETUP_SAMPLES - 1):
        res, problem = _spawn(
            {**base, "mode": "setup", "warmup_out": str(workdir / f"warm{k}")},
            workdir, f"setup{k}", min(SETUP_TIMEOUT_S, left() - 2 * CHECK_RESERVE_S),
        )
        if problem:
            problems.append(problem)
            break
        setup_s.append(res["setup_s"])
        if res["warmup_rc"] != 0:
            problems.append(f"setup{k}: warm-up job exited with {res['warmup_rc']}")

    request = {
        **base,
        "mode": "traced" if args.trace else "timed",
        "warmup_out": str(workdir / "warm_job"),
        "command": w.command,
        "series_csv": str(series_csv),
        "attribute": w.attribute,
        "min_segment": w.min_segment,
        "out_root": str(workdir / "out"),
        "seconds": args.seconds,
        "max_seconds": left() - CHECK_RESERVE_S,
    }
    res, problem = _spawn(request, workdir, "jobs", left() - CHECK_RESERVE_S / 2)
    jobs = []
    if problem:
        problems.append(problem)
    else:
        setup_s.append(res["setup_s"])
        if res["warmup_rc"] != 0:
            problems.append(f"jobs: warm-up job exited with {res['warmup_rc']}")
        jobs = res["jobs"]

    failed, job_problems, first_digest = checks.verify_jobs(jobs, w.command, series, w.attribute, args.seed)
    problems += job_problems
    if res and args.trace:
        if res["attribution_error_s"] > 1e-6:
            problems.append(f"layer self times miss the traced job time by {res['attribution_error_s']:.3g} s")
        if res["missing_layers"]:
            problems.append(f"traced job never entered the layers {res['missing_layers']}")

    attempted = max(len(jobs), 1)
    if not jobs:
        failed = 1
    correct = not problems

    values: dict[str, float] = {}
    samples: dict[str, str] = {}
    if jobs:
        by_id = {sid: tuple(pts) for sid, pts in jobs[0]["cps"]}
        detected = [by_id.get(p.series_id, ()) for p in planted]
        matched, n_det, n_true = match_change_points(detected, planted, w.cp_tolerance)
        values["cp_recall"] = matched / n_true
        values["cp_precision"] = matched / n_det if n_det else 0.0
        samples["cp_recall"] = samples["cp_precision"] = (
            f"{matched} matched of {n_true} planted / {n_det} detected, tolerance {w.cp_tolerance}"
        )
        if args.trace:
            values.update(res["layers"])
        else:
            secs = [j["seconds"] for j in jobs]
            values["job_s"] = statistics.median(secs)
            samples["job_s"] = f"median of {len(secs)} jobs"
            values["peak_rss_mb"] = res["peak_rss_mb"]
            samples["peak_rss_mb"] = "the job process"
    if setup_s:
        values["setup_s"] = statistics.median(setup_s)
        samples["setup_s"] = f"median of {len(setup_s)} fresh processes"
    values["job_fail_ratio"] = failed / attempted
    samples["job_fail_ratio"] = f"{failed} failed of {attempted} jobs"
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    print(f"perfbench {w.name} seed={args.seed} trace={args.trace}: {w.command} N={w.n_series} L={w.length} "
          f"attribute={w.attribute} min_segment={w.min_segment}")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} was not measured")
            correct = False
    # Every metric, reported or not, with its unit and sample count or base.
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(values, key=lambda k: (k not in metrics, k)):
        print(f"  {name:<36} {values[name]:>14.6g} {units.get(name, 'ratio'):<11} {samples.get(name, '')}")
    if first_digest:
        print(f"  output digest sha256:{first_digest}")
    for p in problems:
        print(f"  FAILED CHECK: {p}")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": w.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
        "environment": env, "correct": correct, "problems": problems,
        "metrics": metrics, "values": values, "samples": samples, "digest": first_digest,
        "job_seconds": [j["seconds"] for j in jobs], "setup_seconds": setup_s,
    }
    if args.trace and jobs:
        record["trace"] = res["trace"]
    out_name = f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / out_name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
