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
import json
import logging
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .changepoint import Attribute, DetectionParams, TimeSeries, detect_change_points
from .clustering import (
    ClusterAssignment,
    Linkage,
    eigengap_k,
    hierarchical_cluster,
    spectral_cluster,
    to_newick,
)
from .errors import AllMissingColumn, EmptySet, IdMismatch, InputError, UnparseableCell
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
    unscaled_distance_matrix,
    write_matrix_csv,
)
from .set_metrics import hausdorff, mj_semi_metric, modified_hausdorff
from .stepfn import embed, from_changepoints, lp_norm
from .synthetic import benchmark_suite

log = logging.getLogger(__name__)

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything a pipeline run depends on."""

    attribute: Attribute = DetectionParams.attribute
    p: float = 1.0
    significance: float = DetectionParams.significance
    min_segment: int = DetectionParams.min_segment
    permutations: int = DetectionParams.permutations
    linkage: Linkage = Linkage.AVERAGE
    k: int | None = None  # None selects k per matrix by eigengap
    seed: int = DetectionParams.seed
    series_path: str | None = None
    metadata_path: str | None = None
    out_dir: str | None = None

    def detection_params(self) -> DetectionParams:
        return DetectionParams(**{f.name: getattr(self, f.name) for f in fields(DetectionParams)})


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
    with open(series_csv, newline="") as fh:
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
    columns: list[list[float | None]] = [[] for _ in range(n_cols)]
    for r, row in enumerate(rows[1:], start=2):
        if len(row) > n_cols + 1:
            raise UnparseableCell(f"{series_csv}: row {r} has {len(row)} cells, expected {n_cols + 1}")
        cells = row[1:] + [""] * (n_cols + 1 - len(row))
        for j, tok in enumerate(cells):
            tok = tok.strip()
            if tok.lower() in _MISSING_TOKENS:
                columns[j].append(None)
                continue
            try:
                value = float(tok)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise UnparseableCell(
                    f"{series_csv}: row {r}, column {ids[j]!r}: cannot parse {tok!r} as a finite number"
                )
            columns[j].append(value)
    series = []
    for sid, col in zip(ids, columns):
        first = next((v for v in col if v is not None), None)
        if first is None:
            raise AllMissingColumn(f"{series_csv}: column {sid!r} has no observations")
        filled = []
        last = first  # back-fill a missing leading stretch
        for v in col:
            if v is not None:
                last = v
            filled.append(last)
        series.append(TimeSeries(sid, np.asarray(filled)))
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


def _as_dissimilarity(m: LabeledSquareMatrix) -> LabeledSquareMatrix:
    """Distance-matrix view of any matrix kind, for hierarchical clustering.

    Affinity-like matrices flip to 1 - A; consistency matrices use the
    absolute disagreement |c_ij| with a zeroed diagonal.
    """
    if m.kind is MatrixKind.DISTANCE:
        return m
    if m.kind in (MatrixKind.AFFINITY, MatrixKind.ALIGNMENT):
        return LabeledSquareMatrix(m.labels, 1.0 - m.entries, MatrixKind.DISTANCE)
    entries = np.abs(m.entries)
    np.fill_diagonal(entries, 0.0)
    return LabeledSquareMatrix(m.labels, entries, MatrixKind.DISTANCE)


def _as_affinity_like(m: LabeledSquareMatrix) -> LabeledSquareMatrix:
    """Affinity or alignment view of any matrix kind, for spectral methods."""
    if m.kind in (MatrixKind.AFFINITY, MatrixKind.ALIGNMENT):
        return m
    return to_affinity(_as_dissimilarity(m))


def _write_assignment_csv(assignment: ClusterAssignment, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["label", "cluster"])
        for label, c in zip(assignment.labels, assignment.assignments):
            w.writerow([label, c])


def _emit_matrix_products(matrices: dict[str, LabeledSquareMatrix], config: PipelineConfig, out: Path) -> dict:
    chosen_k = {}
    for name, m in matrices.items():
        write_matrix_csv(m, out / f"{name}.csv")
        dendro = hierarchical_cluster(_as_dissimilarity(m), config.linkage)
        (out / f"{name}_dendrogram.nwk").write_text(to_newick(dendro) + "\n")
        affinity = _as_affinity_like(m)
        k = config.k if config.k is not None else eigengap_k(affinity)
        assignment = spectral_cluster(affinity, k, config.seed)
        _write_assignment_csv(assignment, out / f"{name}_clusters.csv")
        chosen_k[name] = k
    return chosen_k


def run_analysis(config: PipelineConfig) -> dict:
    """Full matrix/clustering analysis of a series collection.

    Writes matrix CSVs, Newick dendrograms, cluster assignment CSVs and a
    summary JSON into ``config.out_dir``; returns the summary dict.
    """
    if config.series_path is None or config.out_dir is None:
        raise ValueError("a series CSV (series_path) and an output directory (out_dir) are required")
    series, stations = ingest(config.series_path, config.metadata_path)
    if len(series) < 2:
        raise InputError(f"pairwise analysis needs >= 2 series, got {len(series)}")
    params = config.detection_params()
    labels = tuple(ts.id for ts in series)
    fs = [embed(ts, params) for ts in series]

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

    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chosen_k = _emit_matrix_products(matrices, config, out)
    summary = {
        "attribute": config.attribute.value,
        "p": "inf" if config.p == float("inf") else config.p,
        "significance": config.significance,
        "min_segment": config.min_segment,
        "permutations": config.permutations,
        "linkage": config.linkage.value,
        "seed": config.seed,
        "labels": list(labels),
        "magnitudes": {label: lp_norm(f, config.p) for label, f in zip(labels, fs)},
        "spectral_k": chosen_k,
    }
    if consistency_norms:
        summary["consistency_norms"] = consistency_norms
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def compare_metrics(config: PipelineConfig) -> dict:
    """Side-by-side break-set metrics vs the step-function distance.

    Emits four distance matrices (hausdorff, modified_hausdorff, mj1, dp)
    with one dendrogram each. Without a series path, the committed
    benchmark suite is analysed.
    """
    if config.out_dir is None:
        raise ValueError("an output directory (out_dir) is required")
    if config.series_path is not None:
        series, _ = ingest(config.series_path)
    else:
        series = benchmark_suite()  # the committed suite; config.seed drives detection only
    if len(series) < 2:
        raise InputError(f"pairwise analysis needs >= 2 series, got {len(series)}")
    params = config.detection_params()
    labels = tuple(ts.id for ts in series)
    cps = [detect_change_points(ts, params) for ts in series]
    empty = [label for label, c in zip(labels, cps) if len(c) == 0]
    if empty:
        raise EmptySet(f"series without change points (set metrics undefined): {empty}")
    fs = [from_changepoints(ts, c, params.attribute) for ts, c in zip(series, cps)]

    def set_matrix(fn) -> LabeledSquareMatrix:
        m = _pairwise(len(cps), lambda i: [fn(cps[i], c) for c in cps[i + 1 :]])
        return LabeledSquareMatrix(labels, m, MatrixKind.DISTANCE)

    matrices = {
        "hausdorff": set_matrix(hausdorff),
        "modified_hausdorff": set_matrix(modified_hausdorff),
        "mj1": set_matrix(lambda a, b: mj_semi_metric(a, b, 1.0)),
        "dp": unscaled_distance_matrix(fs, config.p, labels),
    }
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, m in matrices.items():
        write_matrix_csv(m, out / f"{name}.csv")
        dendro = hierarchical_cluster(m, config.linkage)
        (out / f"{name}_dendrogram.nwk").write_text(to_newick(dendro) + "\n")
    return {"labels": list(labels), "matrices": sorted(matrices)}
