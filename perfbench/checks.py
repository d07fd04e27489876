"""Per-job output checks and the independent unit-cell oracle.

Breakpoints are integers, so an embedding is constant on every unit cell
[t, t + 1) of [0, H]. The exact L^1 distance of two embeddings is then
(1/H) * sum_t |f_t - g_t|, computed here from the raw series and the
captured change points alone, without the library's merged-partition
arithmetic. Sampled matrix entries and the summary magnitudes must agree
with it. The break-set metrics are recomputed from the change points.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

RUN_MATRICES = (
    "distance_unscaled",
    "distance_normalized",
    "alignment",
    "affinity_unscaled",
    "affinity_normalized",
)
COMPARE_MATRICES = ("hausdorff", "modified_hausdorff", "mj1", "dp")
SAMPLED_PAIRS = 200
RTOL = 1e-9


def expected_files(command: str) -> list[str]:
    if command == "run":
        names = [f"{m}{suffix}" for m in RUN_MATRICES for suffix in (".csv", "_dendrogram.nwk", "_clusters.csv")]
        return sorted(names + ["summary.json"])
    return sorted(f"{m}{suffix}" for m in COMPARE_MATRICES for suffix in (".csv", "_dendrogram.nwk"))


def digest(out_dir) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    root = Path(out_dir)
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes() + b"\0")
    return h.hexdigest()


def cell_values(values: np.ndarray, cps, attribute: str) -> np.ndarray:
    """Value of the embedding on each unit cell [t, t + 1), t = 0 .. H - 1.

    Segment i holds observations [c_i, c_{i+1}); the last one includes H.
    """
    n = values.size
    bounds = [0, *cps, n]
    f = np.empty(n - 1)
    for a, b in zip(bounds, bounds[1:]):
        seg = values[a:b].tolist()
        mean = math.fsum(seg) / len(seg)
        stat = mean if attribute == "mean" else math.fsum((v - mean) ** 2 for v in seg) / (len(seg) - 1)
        f[a : min(b, n - 1)] = stat
    return f


def _close(got: float, want: float, scale: float) -> bool:
    return abs(got - want) <= RTOL * max(abs(want), scale)


def read_matrix(path: Path, labels: list[str]) -> tuple[np.ndarray | None, str | None]:
    """Parse a matrix CSV; returns (entries, None) or (None, problem)."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        return None, f"{path.name}: unreadable ({exc})"
    if not rows or rows[0] != labels:
        return None, f"{path.name}: header labels differ from the input series"
    if len(rows) != len(labels) + 1:
        return None, f"{path.name}: {len(rows) - 1} rows for {len(labels)} labels"
    m = np.empty((len(labels), len(labels)))
    for i, row in enumerate(rows[1:]):
        if len(row) != len(labels) + 1 or row[0] != labels[i]:
            return None, f"{path.name}: malformed row {i + 1}"
        try:
            m[i] = [float(tok) for tok in row[1:]]
        except ValueError:
            return None, f"{path.name}: unparseable entry in row {i + 1}"
    if not np.all(np.isfinite(m)):
        return None, f"{path.name}: non-finite entries"
    if not np.array_equal(m, m.T):
        return None, f"{path.name}: not symmetric"
    return m, None


def _check_newick(path: Path, labels: list[str]) -> str | None:
    text = path.read_text()
    if not text.endswith(";\n"):
        return f"{path.name}: not a Newick tree"
    leaves = re.findall(r"[(,]([^(),:;]+):", text)
    if sorted(leaves) != sorted(labels):
        return f"{path.name}: leaves differ from the input series"
    return None


def _check_clusters(path: Path, labels: list[str]) -> str | None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["label", "cluster"] or [r[0] for r in rows[1:]] != labels:
        return f"{path.name}: labels differ from the input series"
    if not all(len(r) == 2 and r[1].isdigit() for r in rows[1:]):
        return f"{path.name}: malformed cluster ids"
    return None


def _directed(a: list[int], b: list[int]) -> list[float]:
    return [float(min(abs(x - y) for y in b)) for x in a]


def set_metric_oracle(name: str, a: list[int], b: list[int]) -> float:
    ab, ba = _directed(a, b), _directed(b, a)
    if name == "hausdorff":
        return max(max(ab), max(ba))
    if name == "modified_hausdorff":
        return max(sum(ab) / len(ab), sum(ba) / len(ba))
    return sum(ba) / (2 * len(b)) + sum(ab) / (2 * len(a))  # mj1


def check_job(out_dir, command: str, series, cps: dict, attribute: str, seed: int) -> list[str]:
    """Every problem found in one job's output directory (empty if none).

    ``series`` are the generated inputs, ``cps`` maps series id to the
    change points the job detected.
    """
    out = Path(out_dir)
    labels = [ts.id for ts in series]
    if sorted(cps) != sorted(labels):
        return ["detected change points do not cover every input series"]
    present = sorted(p.name for p in out.iterdir()) if out.is_dir() else []
    missing = sorted(set(expected_files(command)) - set(present))
    if missing:
        return [f"missing outputs: {missing}"]
    problems: list[str] = []
    matrices = {}
    names = RUN_MATRICES if command == "run" else COMPARE_MATRICES
    for name in names:
        m, problem = read_matrix(out / f"{name}.csv", labels)
        if problem:
            problems.append(problem)
        else:
            matrices[name] = m
        problem = _check_newick(out / f"{name}_dendrogram.nwk", labels)
        if problem:
            problems.append(problem)
        if command == "run":
            problem = _check_clusters(out / f"{name}_clusters.csv", labels)
            if problem:
                problems.append(problem)
    if problems:
        return problems

    h = series[0].values.size - 1
    f = np.stack([cell_values(ts.values, cps[ts.id], attribute) for ts in series])
    l1 = np.abs(f).sum(axis=1) / h
    l2 = np.sqrt((f * f).sum(axis=1) / h)
    scale = float(l1.max())
    rng = np.random.default_rng(seed)
    n = len(labels)
    pairs = [tuple(sorted(rng.choice(n, size=2, replace=False))) for _ in range(SAMPLED_PAIRS)]

    def check_pairs(name: str, oracle, scale: float) -> None:
        m = matrices[name]
        bad = [(i, j) for i, j in pairs if not _close(m[i, j], oracle(i, j), scale)]
        if bad:
            i, j = bad[0]
            problems.append(
                f"{name}.csv: {len(bad)}/{len(pairs)} sampled entries disagree with the oracle, "
                f"e.g. ({labels[i]}, {labels[j]}) = {m[i, j]!r} vs {oracle(i, j)!r}"
            )

    l1_dist = lambda i, j: float(np.abs(f[i] - f[j]).sum() / h)  # noqa: E731
    if command == "run":
        check_pairs("distance_unscaled", l1_dist, scale)
        check_pairs(
            "distance_normalized", lambda i, j: float(np.abs(f[i] / l1[i] - f[j] / l1[j]).sum() / h), 1.0
        )
        check_pairs("alignment", lambda i, j: float((f[i] * f[j]).sum() / h / (l2[i] * l2[j])), 1.0)
        try:
            summary = json.loads((out / "summary.json").read_text())
        except ValueError:
            return problems + ["summary.json: not valid JSON"]
        if summary.get("labels") != labels:
            problems.append("summary.json: labels differ from the input series")
        else:
            mags = summary.get("magnitudes", {})
            bad = [k for i, k in enumerate(labels) if not _close(float(mags.get(k, math.nan)), l1[i], scale)]
            if bad:
                problems.append(f"summary.json: {len(bad)} magnitudes disagree with the oracle, e.g. {bad[0]}")
    else:
        check_pairs("dp", l1_dist, scale)
        for name in ("hausdorff", "modified_hausdorff", "mj1"):
            check_pairs(
                name, lambda i, j, name=name: set_metric_oracle(name, cps[labels[i]], cps[labels[j]]), 1.0
            )
    return problems


def verify_jobs(jobs: list[dict], command: str, series, attribute: str, seed: int) -> tuple[int, list[str], str | None]:
    """(failed jobs, problems, digest) for the jobs of one run.

    The first job is checked against the oracle; every later job must
    reproduce its output digest and its change points exactly.
    """
    failed, problems, first_digest = 0, [], None
    for k, job in enumerate(jobs):
        found = []
        if job["rc"] != 0:
            found.append(f"exit code {job['rc']}")
        elif k == 0:
            cps = {sid: list(pts) for sid, pts in job["cps"]}
            found += check_job(job["out"], command, series, cps, attribute, seed)
            first_digest = digest(job["out"])
        else:
            if digest(job["out"]) != first_digest:
                found.append("output digest differs from the first job of the run")
            if job["cps"] != jobs[0]["cps"]:
                found.append("change points differ from the first job of the run")
        if found:
            failed += 1
            problems += [f"job{k}: {p}" for p in found]
    return failed, problems, first_digest
