"""Pairwise matrices over a collection of embedded series.

Distance matrices hold exact pairwise L^p distances (unscaled or between
normalised functions), the alignment matrix holds L^2 cosines, affinity
matrices are affinely rescaled distances in [0, 1], and consistency
matrices are element-wise differences of two affinity-like matrices.
``to_distance`` and ``to_affinity`` give every kind the distance and the
affinity view that hierarchical and spectral clustering read.
Every constructor computes each unordered pair once, row by row through
``_pairwise``, so the outputs are exactly symmetric and independent of
evaluation order. The step-function rows come from the batched kernels in
``stepfn``, which reduce each pair exactly as the scalar calls do.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .changepoint import _unit_scaled
from .errors import LabelMismatch, ZeroFunction
from .stepfn import PackedSteps, StepFunction, inner_product_row, lp_distance_row, lp_norm, normalize, pack

_CLAMP_TOL = 1e-12


class MatrixKind(str, Enum):
    DISTANCE = "distance"
    AFFINITY = "affinity"
    ALIGNMENT = "alignment"
    CONSISTENCY = "consistency"


@dataclass(frozen=True, eq=False)
class LabeledSquareMatrix:
    """A symmetric n x n matrix over an indexed collection.

    Invariants checked at construction:
      distance:    zero diagonal, entries >= 0
      affinity:    unit diagonal, entries in [0, 1]
      alignment:   unit diagonal, entries in [-1, 1]
      consistency: entries in [-2, 1] (an alignment in [-1, 1] minus an
                   affinity in [0, 1])
    """

    labels: tuple[str, ...]
    entries: np.ndarray
    kind: MatrixKind

    def __post_init__(self):
        labels = tuple(str(x) for x in self.labels)
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        m = np.array(self.entries, dtype=float)
        n = len(labels)
        if m.shape != (n, n):
            raise ValueError(f"entries must be {n}x{n}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("entries must be finite")
        if not np.array_equal(m, m.T):
            raise ValueError("entries must be exactly symmetric")
        kind = MatrixKind(self.kind)
        diag = np.diag(m)
        if kind is MatrixKind.DISTANCE:
            if np.any(diag != 0.0) or np.any(m < 0.0):
                raise ValueError("distance matrix needs zero diagonal and nonnegative entries")
        elif kind is MatrixKind.AFFINITY:
            if np.any(diag != 1.0) or np.any(m < 0.0) or np.any(m > 1.0):
                raise ValueError("affinity matrix needs unit diagonal and entries in [0, 1]")
        elif kind is MatrixKind.ALIGNMENT:
            if np.any(diag != 1.0) or np.any(m < -1.0) or np.any(m > 1.0):
                raise ValueError("alignment matrix needs unit diagonal and entries in [-1, 1]")
        else:
            if np.any(m < -2.0) or np.any(m > 1.0):
                raise ValueError("consistency matrix needs entries in [-2, 1]")
        m.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "kind", kind)

    @property
    def n(self) -> int:
        return len(self.labels)


def _default_labels(fs, labels) -> tuple[str, ...]:
    if labels is None:
        return tuple(str(i) for i in range(len(fs)))
    if len(labels) != len(fs):
        raise ValueError("labels and functions must have equal length")
    return tuple(labels)


def _pairwise(n: int, row) -> np.ndarray:
    """Symmetric n x n matrix with zero diagonal; row(i) gives entries (i, j), j > i."""
    if n < 2:
        raise ValueError(f"need at least 2 functions, got {n}")
    m = np.zeros((n, n))
    for i in range(n - 1):
        m[i, i + 1 :] = row(i)
        m[i + 1 :, i] = m[i, i + 1 :]
    return m


def _lp_distances(fs: list[StepFunction], p: float) -> np.ndarray:
    packed = pack(fs)
    return _pairwise(len(fs), lambda i: lp_distance_row(packed, i, p))


def unscaled_distance_matrix(
    fs: list[StepFunction], p: float, labels=None
) -> LabeledSquareMatrix:
    """Pairwise ||f_i - f_j||_p."""
    labels = _default_labels(fs, labels)
    return LabeledSquareMatrix(labels, _lp_distances(fs, p), MatrixKind.DISTANCE)


def normalized_distance_matrix(
    fs: list[StepFunction], p: float, labels=None
) -> LabeledSquareMatrix:
    """Pairwise distances between the p-normalised functions f_i / ||f_i||_p."""
    labels = _default_labels(fs, labels)
    hats = []
    for label, f in zip(labels, fs):
        try:
            hats.append(normalize(f, p))
        except ZeroFunction:
            raise ZeroFunction(f"series {label!r} embeds to the zero function") from None
    return LabeledSquareMatrix(labels, _lp_distances(hats, p), MatrixKind.DISTANCE)


def alignment_matrix(fs: list[StepFunction], labels=None) -> LabeledSquareMatrix:
    """Pairwise L^2 cosines <f_i, f_j> / (||f_i||_2 ||f_j||_2).

    Each function and its norm are first scaled by the power of two that
    brings its largest magnitude into [0.5, 1) (``changepoint._unit_scaled``).
    The scaling is exact and cancels in every cosine, so ordinary data gets
    the same bits as unscaled sums, while the inner products neither
    overflow nor underflow at extreme magnitudes.
    """
    labels = _default_labels(fs, labels)
    norms = []
    for label, f in zip(labels, fs):
        nrm = lp_norm(f, 2.0)
        if nrm == 0.0:
            raise ZeroFunction(f"series {label!r} embeds to the zero function")
        norms.append(nrm)
    packed = pack(fs)
    values, e = _unit_scaled(packed.values)
    packed = PackedSteps(packed.breakpoints, values, packed.h)
    norms = np.ldexp(norms, -e[:, 0])

    def cosines(i: int) -> np.ndarray:
        c = np.asarray(inner_product_row(packed, i)) / (norms[i] * norms[i + 1 :])
        if np.any(c > 1.0 + _CLAMP_TOL):
            raise ValueError(f"cosine {c.max()} exceeds 1 beyond rounding tolerance")
        if np.any(c < -1.0 - _CLAMP_TOL):
            raise ValueError(f"cosine {c.min()} below -1 beyond rounding tolerance")
        return np.clip(c, -1.0, 1.0)

    m = _pairwise(len(fs), cosines)
    np.fill_diagonal(m, 1.0)
    return LabeledSquareMatrix(labels, m, MatrixKind.ALIGNMENT)


def to_distance(m: LabeledSquareMatrix) -> LabeledSquareMatrix:
    """Distance view of any matrix kind, for hierarchical clustering.

    A distance is returned as is, an affinity or alignment M becomes
    1 - M, and a consistency matrix C becomes |C| with a zero diagonal.
    """
    if m.kind is MatrixKind.DISTANCE:
        return m
    if m.kind is MatrixKind.CONSISTENCY:
        entries = np.abs(m.entries)
        np.fill_diagonal(entries, 0.0)
    else:
        entries = 1.0 - m.entries
    return LabeledSquareMatrix(m.labels, entries, MatrixKind.DISTANCE)


def to_affinity(m: LabeledSquareMatrix) -> LabeledSquareMatrix:
    """Affinity view of any matrix kind, for spectral clustering.

    An affinity is returned as is and an alignment W becomes (W + 1) / 2.
    Any other kind is rescaled from its distance view D (``to_distance``)
    as A = 1 - D / max(D); the all-zero distance maps to all ones.
    """
    if m.kind is MatrixKind.AFFINITY:
        return m
    if m.kind is MatrixKind.ALIGNMENT:
        a = (m.entries + 1.0) / 2.0
    else:
        d = to_distance(m).entries
        top = float(d.max())
        if top == 0.0:
            a = np.ones_like(d)
        else:
            a = 1.0 - d / top
            np.fill_diagonal(a, 1.0)
    return LabeledSquareMatrix(m.labels, a, MatrixKind.AFFINITY)


def consistency_matrix(a: LabeledSquareMatrix, a_g: LabeledSquareMatrix) -> LabeledSquareMatrix:
    """Element-wise difference A - A_G between two affinity-like matrices."""
    if a.kind not in (MatrixKind.AFFINITY, MatrixKind.ALIGNMENT):
        raise ValueError(f"first argument must be affinity or alignment, got {a.kind.value}")
    if a_g.kind is not MatrixKind.AFFINITY:
        raise ValueError(f"second argument must be an affinity matrix, got {a_g.kind.value}")
    if a.labels != a_g.labels:
        raise LabelMismatch(f"labels differ: {a.labels} vs {a_g.labels}")
    return LabeledSquareMatrix(a.labels, a.entries - a_g.entries, MatrixKind.CONSISTENCY)


def matrix_norm(c: LabeledSquareMatrix) -> float:
    """Mean absolute entry (diagonal included): (1/n^2) * sum |c_ij|."""
    return float(np.abs(c.entries).mean())


def write_matrix_csv(m: LabeledSquareMatrix, path) -> None:
    """Header row of labels, then one row per label: label,v1,...,vn.

    Values are rendered with repr so the decimal text round-trips to the
    exact same doubles. The values of a row are joined in one piece, since
    no float's repr needs csv quoting; labels go through the csv writer.
    A matrix is symmetric, so each value of the upper triangle is rendered
    once and mirrored below the diagonal; a value below it is rendered
    itself where it differs from its mirror image, in value or in sign bit
    (0.0 against -0.0, which compare equal but render differently).
    """
    entries = np.asarray(m.entries)
    upper = [list(map(repr, row[i:])) for i, row in enumerate(entries.tolist())]  # upper[i][k]: (i, i + k)
    apart = (entries != entries.T) | (np.signbit(entries) != np.signbit(entries.T))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(m.labels)
        field = io.StringIO()
        quoting = csv.writer(field)
        for i, label in enumerate(m.labels):
            cells = [upper[j][i - j] for j in range(i)] + upper[i]
            for j in np.flatnonzero(apart[i, :i]).tolist():
                cells[j] = repr(float(entries[i, j]))
            # The writer quotes the label as in a full row, then "," and "\r\n".
            quoting.writerow([label, ""])
            fh.write(field.getvalue()[:-2] + ",".join(cells) + "\r\n")
            field.seek(0)
            field.truncate()


def read_matrix_csv(path, kind: MatrixKind) -> LabeledSquareMatrix:
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    labels = tuple(rows[0])
    n = len(labels)
    if len(rows) != n + 1:
        raise ValueError(f"{path}: expected {n} data rows, got {len(rows) - 1}")
    entries = np.zeros((n, n))
    for i, row in enumerate(rows[1:]):
        if len(row) != n + 1 or row[0] != labels[i]:
            raise ValueError(f"{path}: malformed row {i + 1}")
        entries[i] = [float(tok) for tok in row[1:]]
    return LabeledSquareMatrix(labels, entries, kind)
