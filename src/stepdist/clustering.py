"""Hierarchical and spectral clustering over labeled matrices.

Agglomerative clustering is implemented directly so tie-breaking is
pinned down (smallest node-id pair wins), which the determinism contract
needs; the live clusters keep one slot each in an n x n matrix, each slot
caches its nearest neighbour, and each merge is one vectorised
Lance-Williams row update. Spectral clustering embeds into the k smallest
eigenvectors of the symmetric normalised Laplacian, row-normalises, and
runs seeded k-means with farthest-point initialisation; without a given k
it chooses k itself by the eigengap heuristic (``eigengap_k``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .changepoint import _integral
from .errors import BadK
from .matrices import LabeledSquareMatrix, MatrixKind, to_affinity

# Lloyd iterations per k-means restart, unless the labels settle first.
_LLOYD_ITERATIONS = 300


class Linkage(str, Enum):
    SINGLE = "single"
    AVERAGE = "average"
    COMPLETE = "complete"


@dataclass(frozen=True)
class Dendrogram:
    """n - 1 merges over n labeled leaves.

    Leaves are nodes 0..n-1 in label order; merge t creates node n + t.
    Each merge is (left node, right node, height, size of merged cluster).
    """

    labels: tuple[str, ...]
    merges: tuple[tuple[int, int, float, int], ...]

    def __post_init__(self):
        if len(self.merges) != len(self.labels) - 1:
            raise ValueError(f"{len(self.labels)} leaves need {len(self.labels) - 1} merges")


@dataclass(frozen=True)
class ClusterAssignment:
    """Flat assignment of each label to a cluster index 0..k-1."""

    labels: tuple[str, ...]
    assignments: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.assignments) != len(self.labels):
            raise ValueError("one assignment per label required")
        used = set(self.assignments)
        if used != set(range(self.k)):
            raise ValueError(f"every cluster 0..{self.k - 1} must be nonempty, got {sorted(used)}")


def _check_k(k, n: int) -> int:
    """k as an int in 1..n; a k that is not integral or out of range raises BadK."""
    k = _integral(k, "k must be an integer", BadK)
    if not 1 <= k <= n:
        raise BadK(f"k must be in 1..{n}, got {k}")
    return k


def _numbered(labels: tuple[str, ...], keys, k: int) -> ClusterAssignment:
    """Assignment that numbers the groups of equal keys by first appearance in label order."""
    order: dict = {}
    return ClusterAssignment(labels, tuple(order.setdefault(key, len(order)) for key in keys), k)


def _nearest(dist: np.ndarray, rows: np.ndarray, order: np.ndarray, near: np.ndarray, low: np.ndarray) -> None:
    """Cache each row's smallest distance and its partner with the smallest node id there.

    ``order`` holds the live slots by node id, so the first minimum of a row
    read in that order is the partner. Rows are read 64 at a time, which
    bounds the gathered copy at 64 rows however many rows are read.
    """
    for lo in range(0, rows.size, 64):
        block = rows[lo : lo + 64]
        part = order[dist.take(block, axis=0).take(order, axis=1).argmin(axis=1)]
        near[block] = part
        low[block] = dist[block, part]


def hierarchical_cluster(
    d: LabeledSquareMatrix, linkage: Linkage = Linkage.AVERAGE
) -> Dendrogram:
    """Agglomerative clustering of a distance matrix.

    Ties in the minimum inter-cluster distance are broken by the smallest
    (i, j) node-id pair, so the result is fully deterministic. Linkage runs
    on the matrix scaled by 2^-e, the power of two that keeps n times its
    largest entry inside the double range, so no average overflows; each
    height is scaled back by 2^e. e is 0 unless that entry is within a
    factor 4n of the largest double, and entries below 2^(e - 1022) then
    lose low bits.

    The live clusters sit in the slots of an n x n matrix: a merge puts the
    new cluster in the lower of its two members' slots and retires the other.
    Each slot caches its smallest distance and its partner with the smallest
    node id at that distance. After a merge only the rows whose partner
    merged are read again; every other row compares its cached distance
    with its distance to the new cluster, which has the largest node id and
    so takes over only a strictly smaller distance.
    """
    if d.kind is not MatrixKind.DISTANCE:
        raise ValueError(f"hierarchical clustering expects a distance matrix, got {d.kind.value}")
    linkage = Linkage(linkage)
    n = d.n
    e = max(0, math.frexp(d.entries.max(initial=0.0))[1] + n.bit_length() - 1023)
    # inf marks the diagonal and the columns of retired slots, so they are
    # never the nearest of a row that has a live partner.
    dist = np.ldexp(d.entries, -e)
    np.fill_diagonal(dist, np.inf)
    node = list(range(n))
    size = [1] * n
    order = np.arange(n)  # live slots by node id
    near = np.empty(n, dtype=int)
    low = np.empty(n)
    _nearest(dist, order, order, near, low)
    closer = np.empty(n, dtype=bool)
    merges = []
    for step in range(n - 1):
        # The first minimum in node-id order is the slot with the smallest
        # node id among the closest pairs, and its cached partner completes
        # the smallest (i, j) pair.
        pa = int(low[order].argmin())
        a = int(order[pa])
        b = int(near[a])
        pb = int((order == b).argmax())
        sa, sb = size[a], size[b]
        merges.append((node[a], node[b], math.ldexp(dist[a, b], e), sa + sb))
        di, dj = dist[a], dist[b]
        # Lance-Williams update. Between equal values where() keeps the
        # first, as min() and max() do, so even the sign of a zero is fixed.
        if linkage is Linkage.SINGLE:
            row = np.where(dj < di, dj, di)
        elif linkage is Linkage.COMPLETE:
            row = np.where(dj > di, dj, di)
        else:
            row = (sa * di + sb * dj) / (sa + sb)
        c, r = (a, b) if a < b else (b, a)
        row[a] = row[b] = np.inf
        dist[c] = row
        dist[:, c] = row
        dist[:, r] = np.inf  # the retired row itself is never read again
        node[c] = n + step
        size[c] = sa + sb
        # a and b leave the node-id order and the new node joins at its end.
        order[pa : pb - 1] = order[pa + 1 : pb]
        order[pb - 1 : -2] = order[pb + 1 :]
        order[-2] = c
        order = order[:-1]
        low[r] = np.inf
        near[r] = -1
        near[c] = c  # read again below, with the rows whose partner merged
        stale = ((near == a) | (near == b)).nonzero()[0]
        np.less(row, low, out=closer)
        np.copyto(low, row, where=closer)
        np.copyto(near, c, where=closer)
        _nearest(dist, stale, order, near, low)
    return Dendrogram(d.labels, tuple(merges))


def cut_dendrogram(d: Dendrogram, k: int) -> ClusterAssignment:
    """Flat clusters from removing the k - 1 highest merges.

    Cluster indices follow first appearance in label order.
    """
    n = len(d.labels)
    k = _check_k(k, n)
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for t, (i, j, _, _) in enumerate(d.merges[: n - k]):
        members[n + t] = members.pop(i) + members.pop(j)
    node_of = {leaf: node for node, leaves in members.items() for leaf in leaves}
    return _numbered(d.labels, [node_of[leaf] for leaf in range(n)], k)


def _newick_label(label: str) -> str:
    """Newick text of a label: quoted, with ' doubled, if it holds whitespace or any of ()[]':;,"""
    if re.search(r"[\s()\[\]':;,]", label):
        return "'" + label.replace("'", "''") + "'"
    return label


def to_newick(d: Dendrogram) -> str:
    """Newick text with merge heights rendered as branch lengths and labels quoted where needed."""
    n = len(d.labels)
    height = {i: 0.0 for i in range(n)}
    text = {i: _newick_label(d.labels[i]) for i in range(n)}
    for t, (i, j, h, _) in enumerate(d.merges):
        node = n + t
        height[node] = h
        left = f"{text[i]}:{max(h - height[i], 0.0):.10g}"
        right = f"{text[j]}:{max(h - height[j], 0.0):.10g}"
        text[node] = f"({left},{right})"
    return text[2 * n - 2] + ";"


def _sym_laplacian(w: np.ndarray) -> np.ndarray:
    deg = w.sum(axis=1)  # at least 1: an affinity has a unit diagonal and no negative entry
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(w.shape[0]) - inv_sqrt[:, None] * w * inv_sqrt[None, :]
    return (lap + lap.T) / 2.0


def _farthest_point_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        nxt = int(np.argmax(d2))  # first occurrence on ties
        chosen.append(nxt)
        d2 = np.minimum(d2, ((points - points[nxt]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _lloyd(points: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, float]:
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(_LLOYD_ITERATIONS):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                # Re-seed an empty cluster with the worst-fit point.
                worst = int(np.argmax(d2[np.arange(n), new_labels]))
                new_labels[worst] = c
                d2[worst, :] = np.inf
                d2[worst, c] = 0.0
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    inertia = float(d2[np.arange(n), labels].sum())
    return labels, inertia


def spectral_cluster(a: LabeledSquareMatrix, k: int | None = None, seed: int = 0) -> ClusterAssignment:
    """Normalised-Laplacian spectral clustering into k groups.

    Reads the affinity view (``to_affinity``) of any matrix kind. Without
    a k, the count is ``eigengap_k`` of that view, and the result's ``k``
    reports it. Embeds into the k smallest eigenvectors of L_sym,
    row-normalises, and picks the best of 10 seeded k-means restarts
    (farthest-point init); ties go to the lowest restart index.
    Deterministic for fixed inputs.
    """
    a = to_affinity(a)
    if k is None:
        k = eigengap_k(a)
    w = a.entries
    k = _check_k(k, w.shape[0])
    _, vecs = np.linalg.eigh(_sym_laplacian(w))
    emb = vecs[:, :k]
    row_norms = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(row_norms == 0.0, 1.0, row_norms)[:, None]
    best_labels, best_inertia = None, np.inf
    for restart in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([seed % (2**63), restart]))
        centers = _farthest_point_init(emb, k, rng)
        labels, inertia = _lloyd(emb, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return _numbered(a.labels, best_labels.tolist(), k)


def eigengap_k(a: LabeledSquareMatrix) -> int:
    """Cluster count at the largest gap in the low Laplacian spectrum.

    Reads the affinity view (``to_affinity``) of any matrix kind.

    Returns the k in 1..min(10, n - 1) maximising eigenvalue_{k+1} -
    eigenvalue_k (smallest k on ties), and 1 for a single item.
    """
    w = to_affinity(a).entries
    k_max = min(10, w.shape[0] - 1)
    if k_max < 1:
        return 1
    vals = np.linalg.eigvalsh(_sym_laplacian(w))
    gaps = vals[1 : k_max + 1] - vals[:k_max]
    return int(np.argmax(gaps)) + 1
