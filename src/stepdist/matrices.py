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
``_csv_rows`` reads every input CSV: series, station and matrix files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import LabelMismatch, UnparseableCell, ZeroFunction, not_utf8
from .stepfn import StepFunction, inner_product_row, lp_distance_row, lp_norm, normalize, pack, unit_pack

_CLAMP_TOL = 1e-12


class MatrixKind(str, Enum):
    DISTANCE = "distance"
    AFFINITY = "affinity"
    ALIGNMENT = "alignment"
    CONSISTENCY = "consistency"


@dataclass(frozen=True, eq=False)
class LabeledSquareMatrix:
    """A symmetric n x n matrix over an indexed collection.

    The entries are kept as a read-only, C-ordered float copy.
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
        m = np.array(self.entries, dtype=float, order="C")
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
    """Pairwise ||f_i - f_j||_p; a distance beyond the double range raises ValueError naming its first pair."""
    labels = _default_labels(fs, labels)
    d = _lp_distances(fs, p)
    over = np.argwhere(np.isinf(d))
    if over.size:
        i, j = over[0]  # row-major, so i < j
        raise ValueError(f"L^{float(p):g} distance between {labels[i]!r} and {labels[j]!r} exceeds the double range")
    return LabeledSquareMatrix(labels, d, MatrixKind.DISTANCE)


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
    brings its largest magnitude into [0.5, 1) (``stepfn.unit_pack``).
    The scaling is exact and cancels in every cosine, so ordinary data gets
    the same bits as unscaled sums, while the inner products neither
    overflow nor underflow at extreme magnitudes. A cosine outside [-1, 1]
    beyond rounding, or one that cannot be formed, raises ValueError naming
    its first pair.
    """
    labels = _default_labels(fs, labels)
    norms = []
    for label, f in zip(labels, fs):
        nrm = lp_norm(f, 2.0)
        if nrm == 0.0:
            raise ZeroFunction(f"series {label!r} embeds to the zero function")
        norms.append(nrm)
    packed, e = unit_pack(fs)
    norms = np.ldexp(norms, -e)

    def cosines(i: int) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.asarray(inner_product_row(packed, i)) / (norms[i] * norms[i + 1 :])
        bad = np.flatnonzero(~(np.abs(c) <= 1.0 + _CLAMP_TOL))  # nan (0 / 0) too
        if bad.size:
            j = bad[0]
            raise ValueError(
                f"L^2 cosine between {labels[i]!r} and {labels[i + 1 + j]!r} is {c[j]}, outside [-1, 1] beyond rounding"
            )
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
            a = 1.0 - d / top  # the diagonal of d is +-0, so that of a is exactly 1
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
    once, as its row is written, and mirrored below the diagonal. The
    constructor checked that the entries equal their transpose, so a value
    below the diagonal differs from its mirror image only in sign bit (0.0
    against -0.0, which compare equal but render differently); such a value
    is rendered itself. Each rendered value is kept only until the row that
    mirrors it is written, so at most a quarter of the matrix is held as
    text at once.
    """
    entries = np.asarray(m.entries)
    apart = np.signbit(entries) != np.signbit(entries.T)
    # Before row i, mirrors[j] holds the text of (j, i), ..., (j, n - 1), with (j, i) last.
    mirrors = []
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(m.labels)
        field = io.StringIO()
        quoting = csv.writer(field)
        for i, label in enumerate(m.labels):
            own = list(map(repr, entries[i, i:].tolist()))
            cells = list(map(list.pop, mirrors)) + own
            for j in np.flatnonzero(apart[i, :i]).tolist():
                cells[j] = repr(float(entries[i, j]))
            mirrors.append(own[:0:-1])
            # The writer quotes the label as in a full row, then "," and "\r\n".
            quoting.writerow([label, ""])
            fh.write(field.getvalue()[:-2] + ",".join(cells) + "\r\n")
            field.seek(0)
            field.truncate()


def _csv_rows(path):
    """Each non-blank row of a UTF-8 CSV file (byte-order mark optional) with its line, which errors name.

    Rows of only empty or whitespace cells (blank lines, a spreadsheet's ``,,``) are skipped.
    A line the csv module cannot read, such as an over-long field, raises ``UnparseableCell``,
    and a byte that is not UTF-8 an ``InputError`` naming its line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                if any(map(str.strip, row)):
                    yield reader.line_num, row
        except csv.Error as e:
            raise UnparseableCell(f"{path}: row {reader.line_num}: {e}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None


def read_matrix_csv(path, kind: MatrixKind) -> LabeledSquareMatrix:
    """The ``kind`` matrix in a file that ``write_matrix_csv`` wrote.

    A malformed file raises ``UnparseableCell`` naming the file and line; a
    matrix that breaks the invariants of ``kind`` raises ``ValueError``.
    """
    rows = _csv_rows(path)
    line, labels = next(rows, (0, None))
    if labels is None:
        raise UnparseableCell(f"{path}: empty matrix file")
    n = len(labels)
    entries = np.zeros((n, n))
    i = 0
    for i, (line, row) in enumerate(rows, start=1):
        if i > n:
            raise UnparseableCell(f"{path}: row {line}: more than {n} data rows")
        if len(row) != n + 1 or row[0] != labels[i - 1]:
            got = f"{row[0]!r} and {len(row) - 1} values"
            raise UnparseableCell(f"{path}: row {line}: expected label {labels[i - 1]!r} and {n} values, got {got}")
        try:
            entries[i - 1] = [float(tok) for tok in row[1:]]
        except ValueError as e:
            raise UnparseableCell(f"{path}: row {line}: {e}") from None
    if i < n:
        raise UnparseableCell(f"{path}: ends at row {line} after {i} of {n} data rows")
    return LabeledSquareMatrix(labels, entries, kind)
