"""Hierarchical and spectral clustering over labeled matrices.

Agglomerative clustering is implemented directly so tie-breaking is
pinned down (smallest node-id pair wins), which the determinism contract
needs; each merge is one masked argmin and one vectorised Lance-Williams
row update. Spectral clustering embeds into the k smallest eigenvectors of
the symmetric normalised Laplacian, row-normalises, and runs seeded
k-means with farthest-point initialisation.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BadK, DisconnectedDegenerate
from .matrices import LabeledSquareMatrix, MatrixKind, to_affinity


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


def _numbered(labels: tuple[str, ...], keys, k: int) -> ClusterAssignment:
    """Assignment that numbers the groups of equal keys by first appearance in label order."""
    order: dict = {}
    return ClusterAssignment(labels, tuple(order.setdefault(key, len(order)) for key in keys), k)


def hierarchical_cluster(
    d: LabeledSquareMatrix, linkage: Linkage = Linkage.AVERAGE
) -> Dendrogram:
    """Agglomerative clustering of a distance matrix.

    Ties in the minimum inter-cluster distance are broken by the smallest
    (i, j) node-id pair, so the result is fully deterministic.
    """
    if d.kind is not MatrixKind.DISTANCE:
        raise ValueError(f"hierarchical clustering expects a distance matrix, got {d.kind.value}")
    linkage = Linkage(linkage)
    n = d.n
    total = 2 * n - 1
    # Symmetric node-id matrix; inf marks the diagonal, merged-away nodes
    # and nodes not created yet, so they never win the argmin. Among equal
    # minima of a symmetric matrix the first in row-major order is the
    # smallest (i, j) pair with i < j.
    dist = np.full((total, total), np.inf)
    dist[:n, :n] = d.entries
    np.fill_diagonal(dist, np.inf)
    size = np.zeros(total, dtype=int)
    size[:n] = 1
    alive = size > 0
    merges = []
    for step in range(n - 1):
        new = n + step
        i, j = divmod(int(np.argmin(dist[:new])), total)
        if dist[i, j] == np.inf:  # every live pair overflowed: take the first one
            i, j = np.flatnonzero(alive)[:2].tolist()
        merges.append((i, j, float(dist[i, j]), int(size[i] + size[j])))
        size[new] = size[i] + size[j]
        di, dj = dist[i, :new], dist[j, :new]
        # Lance-Williams update. Between equal values where() keeps the
        # first, as min() and max() do, so even the sign of a zero is fixed.
        if linkage is Linkage.SINGLE:
            row = np.where(dj < di, dj, di)
        elif linkage is Linkage.COMPLETE:
            row = np.where(dj > di, dj, di)
        else:
            row = (size[i] * di + size[j] * dj) / (size[i] + size[j])
        row[[i, j]] = np.inf
        dist[new, :new] = row
        dist[:new, new] = row
        dist[[i, j], :] = np.inf
        dist[:, [i, j]] = np.inf
        alive[[i, j]] = False
        alive[new] = True
    return Dendrogram(d.labels, tuple(merges))


def cut_dendrogram(d: Dendrogram, k: int) -> ClusterAssignment:
    """Flat clusters from removing the k - 1 highest merges.

    Cluster indices follow first appearance in label order.
    """
    n = len(d.labels)
    if not 1 <= k <= n:
        raise BadK(f"k must be in 1..{n}, got {k}")
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
    deg = w.sum(axis=1)
    if np.any(deg == 0.0):
        raise DisconnectedDegenerate("affinity matrix has an all-zero row")
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


def _lloyd(points: np.ndarray, centers: np.ndarray, max_iter: int = 300) -> tuple[np.ndarray, float]:
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(max_iter):
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


def spectral_cluster(a: LabeledSquareMatrix, k: int, seed: int = 0) -> ClusterAssignment:
    """Normalised-Laplacian spectral clustering into k groups.

    Reads the affinity view (``to_affinity``) of any matrix kind. Embeds into the k smallest eigenvectors of L_sym, row-normalises, and
    picks the best of 10 seeded k-means restarts (farthest-point init);
    ties go to the lowest restart index. Deterministic for fixed inputs.
    """
    w = to_affinity(a).entries
    n = w.shape[0]
    if not 1 <= k <= n:
        raise BadK(f"k must be in 1..{n}, got {k}")
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


def eigengap_k(a: LabeledSquareMatrix, k_max: int | None = None) -> int:
    """Cluster count at the largest gap in the low Laplacian spectrum.

    Reads the affinity view (``to_affinity``) of any matrix kind.

    Returns the k in 1..k_max maximising eigenvalue_{k+1} - eigenvalue_k
    (smallest k on ties); k_max defaults to min(10, n - 1).
    """
    w = to_affinity(a).entries
    n = w.shape[0]
    if k_max is None:
        k_max = min(10, n - 1)
    k_max = max(1, min(k_max, n - 1))
    vals = np.linalg.eigvalsh(_sym_laplacian(w))
    gaps = vals[1 : k_max + 1] - vals[:k_max]
    return int(np.argmax(gaps)) + 1
