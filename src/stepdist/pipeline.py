"""End-to-end analyses: CSV ingestion, matrix suite, clustering outputs.

``run_analysis`` embeds every series of a wide CSV, writes the full set
of distance/alignment/affinity matrices (plus geographic and consistency
matrices when station metadata is provided), a dendrogram and a flat
cluster assignment per matrix, and a summary JSON with magnitudes and
consistency norms. ``compare_metrics`` runs the side-by-side comparison
of set-based break metrics against the step-function distance on a
series collection (the committed benchmark suite by default).

Re-running either analysis with identical inputs and configuration
produces byte-identical files.
"""

from __future__ import annotations

import csv
import errno
import json
import logging
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .changepoint import ChangePointSet, DetectionParams, TimeSeries, detect_change_points
from .clustering import (
    ClusterAssignment,
    Linkage,
    eigengap_k,
    hierarchical_cluster,
    spectral_cluster,
    to_newick,
)
from .errors import AllMissingColumn, BadK, EmptySet, IdMismatch, InputError, UnparseableCell
from .geo import StationMetadata, geo_distance_matrix, read_stations_csv
from .matrices import (
    LabeledSquareMatrix,
    MatrixKind,
    _pairwise,
    alignment_matrix,
    consistency_matrix,
    matrix_norm,
    normalized_distance_matrix,
    to_affinity,
    to_distance,
    unscaled_distance_matrix,
    write_matrix_csv,
)
from .set_metrics import hausdorff, mj_semi_metric, modified_hausdorff
from .stepfn import StepFunction, _check_p, from_changepoints, lp_norm
from .synthetic import benchmark_suite

log = logging.getLogger(__name__)

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


@dataclass(frozen=True)
class PipelineConfig(DetectionParams):
    """Everything a pipeline run depends on: the detection settings plus these."""

    p: float = 1.0
    linkage: Linkage = Linkage.AVERAGE
    k: int | None = None  # None selects k per matrix by eigengap
    series_path: str | None = None
    metadata_path: str | None = None
    out_dir: str | None = None

    def __post_init__(self):
        """Reject bad settings before any input is read."""
        _check_p(self.p)
        if self.k is not None and self.k < 1:
            raise BadK(f"k must be >= 1, got {self.k}")
        super().__post_init__()


def ingest(
    series_csv, metadata_csv=None
) -> tuple[list[TimeSeries], list[StationMetadata] | None]:
    """Parse a wide series CSV (and optionally station metadata).

    The first column is a timestamp or index and is ignored beyond row
    order; every other column is one series. Missing cells are filled
    from the most recent prior observation of the same column; a missing
    leading stretch is back-filled from the first present value. When
    metadata is given, stations are matched to series ids: a series
    without a station is fatal, an unused station only logs a warning.
    """
    with open(series_csv, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if len(rows) < 2 or len(rows[0]) < 2:
        raise UnparseableCell(f"{series_csv}: need a header plus data rows with >= 1 series column")
    ids = [c.strip() for c in rows[0][1:]]
    if any(not i for i in ids):
        raise UnparseableCell(f"{series_csv}: empty series id in header")
    if len(set(ids)) != len(ids):
        raise IdMismatch(f"{series_csv}: duplicate series ids in header")
    n_cols = len(ids)
    table = np.full((len(rows) - 1, n_cols), np.nan)  # nan marks a missing cell; stored cells are finite
    for r, row in enumerate(rows[1:], start=2):
        if len(row) > n_cols + 1:
            raise UnparseableCell(f"{series_csv}: row {r} has {len(row)} cells, expected {n_cols + 1}")
        for j, tok in enumerate(row[1:]):
            tok = tok.strip()
            if tok.lower() in _MISSING_TOKENS:
                continue
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise UnparseableCell(
                    f"{series_csv}: row {r}, column {ids[j]!r}: cannot parse {tok!r} as a finite number"
                )
            table[r - 2, j] = value
    present = ~np.isnan(table)
    observed = present.any(axis=0)
    if not observed.all():
        raise AllMissingColumn(f"{series_csv}: column {ids[int(np.argmin(observed))]!r} has no observations")
    # Each cell takes the row of its column's latest observation; rows before
    # the first observation take the first one (a back-filled leading stretch).
    source = np.where(present, np.arange(len(table))[:, None], present.argmax(axis=0))
    filled = np.take_along_axis(table, np.maximum.accumulate(source, axis=0), axis=0)
    series = [TimeSeries(sid, filled[:, j]) for j, sid in enumerate(ids)]
    stations = None
    if metadata_csv is not None:
        by_id = {s.id: s for s in read_stations_csv(metadata_csv)}
        missing = [ts.id for ts in series if ts.id not in by_id]
        if missing:
            raise IdMismatch(f"no station metadata for series: {missing}")
        extra = sorted(set(by_id) - {ts.id for ts in series})
        if extra:
            log.warning("ignoring metadata for stations without series: %s", extra)
        stations = [by_id[ts.id] for ts in series]
    return series, stations


def _write_assignment_csv(assignment: ClusterAssignment, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "cluster"])
        for label, c in zip(assignment.labels, assignment.assignments):
            w.writerow([label, c])


def _embed_all(
    series: list[TimeSeries], config: PipelineConfig
) -> tuple[tuple[str, ...], list[ChangePointSet], list[StepFunction]]:
    """Labels, change points and step-function embedding of every series."""
    if len(series) < 2:
        raise InputError(f"pairwise analysis needs >= 2 series, got {len(series)}")
    labels = tuple(ts.id for ts in series)
    cps = [detect_change_points(ts, config) for ts in series]
    fs = [from_changepoints(ts, c, config.attribute) for ts, c in zip(series, cps)]
    return labels, cps, fs


def _check_out_dir(out_dir: str) -> None:
    """Raise the OSError that creating ``out_dir`` would raise when a file blocks it.

    Called before detection, so an unusable output path fails at once. The
    directory itself is only created when there is something to write.
    """
    out = Path(out_dir)
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        code = errno.EEXIST if existing == out else errno.ENOTDIR
        raise OSError(code, os.strerror(code), out_dir)


def _write_matrices(matrices: dict[str, LabeledSquareMatrix], config: PipelineConfig) -> Path:
    """Write each matrix's CSV and Newick dendrogram into the output directory, and return it."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, m in matrices.items():
        write_matrix_csv(m, out / f"{name}.csv")
        dendro = hierarchical_cluster(to_distance(m), config.linkage)
        (out / f"{name}_dendrogram.nwk").write_text(to_newick(dendro) + "\n", encoding="utf-8", newline="")
    return out


def run_analysis(config: PipelineConfig) -> dict:
    """Full matrix/clustering analysis of a series collection.

    Writes matrix CSVs, Newick dendrograms, cluster assignment CSVs and a
    summary JSON into ``config.out_dir``; returns the summary dict.
    """
    if config.series_path is None or not config.out_dir:
        raise ValueError("a series CSV (series_path) and an output directory (out_dir) are required")
    series, stations = ingest(config.series_path, config.metadata_path)
    if config.k is not None and config.k > len(series):
        raise BadK(f"k must be in 1..{len(series)}, got {config.k}")
    _check_out_dir(config.out_dir)
    labels, _, fs = _embed_all(series, config)

    d_us = unscaled_distance_matrix(fs, config.p, labels)
    d_norm = normalized_distance_matrix(fs, config.p, labels)
    omega = alignment_matrix(fs, labels)
    matrices = {
        "distance_unscaled": d_us,
        "distance_normalized": d_norm,
        "alignment": omega,
        "affinity_unscaled": to_affinity(d_us),
        "affinity_normalized": to_affinity(d_norm),
    }
    consistency_norms = {}
    if stations is not None:
        g = geo_distance_matrix(stations)
        a_g = to_affinity(g)
        matrices["geo_distance"] = g
        matrices["affinity_geo"] = a_g
        cons = {
            "consistency_unscaled": consistency_matrix(matrices["affinity_unscaled"], a_g),
            "consistency_normalized": consistency_matrix(matrices["affinity_normalized"], a_g),
            "consistency_alignment": consistency_matrix(omega, a_g),
        }
        matrices.update(cons)
        consistency_norms = {name: matrix_norm(m) for name, m in cons.items()}

    out = _write_matrices(matrices, config)
    chosen_k = {}
    for name, m in matrices.items():
        affinity = to_affinity(m)
        k = config.k if config.k is not None else eigengap_k(affinity)
        assignment = spectral_cluster(affinity, k, config.seed)
        _write_assignment_csv(assignment, out / f"{name}_clusters.csv")
        chosen_k[name] = k
    summary = {
        **{f.name: getattr(config, f.name) for f in fields(DetectionParams)},
        "p": "inf" if config.p == float("inf") else config.p,
        "linkage": config.linkage.value,
        "labels": list(labels),
        "magnitudes": {label: lp_norm(f, config.p) for label, f in zip(labels, fs)},
        "spectral_k": chosen_k,
    }
    if consistency_norms:
        summary["consistency_norms"] = consistency_norms
    with open(out / "summary.json", "w", newline="", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def compare_metrics(config: PipelineConfig) -> dict:
    """Side-by-side break-set metrics vs the step-function distance.

    Emits four distance matrices (hausdorff, modified_hausdorff, mj1, dp)
    with one dendrogram each. Without a series path, the committed
    benchmark suite is analysed.
    """
    if not config.out_dir:
        raise ValueError("an output directory (out_dir) is required")
    if config.series_path is not None:
        series, _ = ingest(config.series_path)
    else:
        series = benchmark_suite()  # the committed suite; config.seed drives detection only
    _check_out_dir(config.out_dir)
    labels, cps, fs = _embed_all(series, config)
    empty = [label for label, c in zip(labels, cps) if len(c) == 0]
    if empty:
        raise EmptySet(f"series without change points (set metrics undefined): {empty}")

    def set_matrix(fn) -> LabeledSquareMatrix:
        m = _pairwise(len(cps), lambda i: [fn(cps[i], c) for c in cps[i + 1 :]])
        return LabeledSquareMatrix(labels, m, MatrixKind.DISTANCE)

    matrices = {
        "hausdorff": set_matrix(hausdorff),
        "modified_hausdorff": set_matrix(modified_hausdorff),
        "mj1": set_matrix(mj_semi_metric),
        "dp": unscaled_distance_matrix(fs, config.p, labels),
    }
    _write_matrices(matrices, config)
    return {"labels": list(labels), "matrices": sorted(matrices)}
