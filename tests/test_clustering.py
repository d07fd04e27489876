import tracemalloc

import numpy as np
import pytest

from stepdist import (
    ClusterAssignment,
    Dendrogram,
    LabeledSquareMatrix,
    Linkage,
    MatrixKind,
    cut_dendrogram,
    eigengap_k,
    hierarchical_cluster,
    spectral_cluster,
    to_affinity,
    to_newick,
)
from stepdist.clustering import _farthest_point_init, _lloyd
from stepdist.errors import BadK
from stepdist.matrices import consistency_matrix

from tests.helpers import reference_hierarchical_cluster


def distance(labels, entries):
    return LabeledSquareMatrix(tuple(labels), np.asarray(entries, dtype=float), MatrixKind.DISTANCE)


def two_block_matrix():
    # blocks {a, b} and {c, d}: within 0.1, across 10
    m = np.full((4, 4), 10.0)
    m[0, 1] = m[1, 0] = m[2, 3] = m[3, 2] = 0.1
    np.fill_diagonal(m, 0.0)
    return distance("abcd", m)


def block_affinity(labels, blocks):
    n = len(labels)
    m = np.zeros((n, n))
    for block in blocks:
        for i in block:
            for j in block:
                m[i, j] = 1.0
    return LabeledSquareMatrix(tuple(labels), m, MatrixKind.AFFINITY)


def partition(assignment):
    parts = {}
    for label, c in zip(assignment.labels, assignment.assignments):
        parts[c] = parts.get(c, frozenset()) | {label}
    return frozenset(parts.values())


def seeded_distance(rng, n, draw, symmetrise):
    """A seeded n x n distance matrix: draw(rng, shape) above the diagonal, mirrored by symmetrise."""
    m = draw(rng, (n, n))
    m = np.minimum(m, m.T) if symmetrise == "min" else m + m.T
    np.fill_diagonal(m, 0.0)
    return distance([f"s{i}" for i in range(n)], m)


DRAWS = {
    "integer": lambda rng, shape: rng.integers(0, 4, shape).astype(float),
    "half-integer": lambda rng, shape: rng.integers(0, 8, shape) / 2.0,
    "continuous": lambda rng, shape: rng.uniform(0.0, 10.0, shape),
    "signed zeros": lambda rng, shape: rng.choice([-0.0, 0.0, 1.0, 2.0], shape),
}


def near_max(rng, shape):
    """Upper-triangle distances up to 1.7e308, whose sums overflow."""
    return np.triu(rng.uniform(0.0, 1.7e308, shape), 1)


class TestHierarchical:
    def test_two_leaves(self):
        d = distance("ab", [[0.0, 3.5], [3.5, 0.0]])
        dend = hierarchical_cluster(d)
        assert dend.merges == ((0, 1, 3.5, 2),)

    @pytest.mark.parametrize("linkage", list(Linkage))
    def test_two_blocks_merge_last(self, linkage):
        dend = hierarchical_cluster(two_block_matrix(), linkage)
        # hand agglomeration: (a,b) at 0.1, (c,d) at 0.1, then the blocks at 10
        assert dend.merges[0] == (0, 1, 0.1, 2)
        assert dend.merges[1] == (2, 3, 0.1, 2)
        assert dend.merges[2][2] == pytest.approx(10.0, rel=1e-12)

    def test_label_permutation_preserves_heights(self):
        rng = np.random.default_rng(0)
        n = 6
        m = rng.uniform(1, 5, (n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        labels = tuple("abcdef")
        perm = rng.permutation(n)
        permuted = distance([labels[i] for i in perm], m[np.ix_(perm, perm)])
        heights = [round(h, 12) for _, _, h, _ in hierarchical_cluster(distance(labels, m)).merges]
        heights_p = [round(h, 12) for _, _, h, _ in hierarchical_cluster(permuted).merges]
        assert heights == heights_p

    def test_heights_nondecreasing(self):
        rng = np.random.default_rng(1)
        for linkage in Linkage:
            m = rng.uniform(0.1, 9, (8, 8))
            m = (m + m.T) / 2
            np.fill_diagonal(m, 0.0)
            dend = hierarchical_cluster(distance("abcdefgh", m), linkage)
            hs = [h for _, _, h, _ in dend.merges]
            assert all(b >= a - 1e-12 for a, b in zip(hs, hs[1:]))

    def test_requires_distance_kind(self):
        a = block_affinity("ab", [(0, 1)])
        with pytest.raises(ValueError):
            hierarchical_cluster(a)

    @pytest.mark.parametrize("linkage", list(Linkage))
    @pytest.mark.parametrize("symmetrise", ["min", "sum"])
    @pytest.mark.parametrize("draw", list(DRAWS))
    def test_same_merges_as_masked_argmin_bit_for_bit(self, draw, symmetrise, linkage):
        # Integer and half-integer distances tie everywhere, so every rule
        # of the smallest (i, j) node-id pair is exercised; 0.0 and -0.0
        # tie too, and the height keeps the sign the update left.
        rng = np.random.default_rng([list(DRAWS).index(draw), int(symmetrise == "min")])
        for n in np.tile(np.arange(2, 41), 2)[:50].tolist():
            d = seeded_distance(rng, n, DRAWS[draw], symmetrise)
            got = hierarchical_cluster(d, linkage).merges
            want = reference_hierarchical_cluster(d, linkage).merges
            assert got == want, n
            heights = np.array([[h for _, _, h, _ in got], [h for _, _, h, _ in want]])
            assert heights[0].tobytes() == heights[1].tobytes(), n

    @pytest.mark.parametrize(
        "n, want, overflowed",
        [
            (6, [(2, 4, 2), (1, 3, 2), (5, 6, 3), (0, 7, 3), (8, 9, 6)], 4),
            (9, [(1, 3, 2), (0, 8, 2), (4, 7, 2), (5, 6, 2), (2, 9, 3), (10, 11, 4), (12, 13, 5), (14, 15, 9)], 5),
        ],
    )
    def test_overflowed_average_merges_the_smallest_node_ids(self, n, want, overflowed):
        # Averages of distances near the largest double overflow to inf;
        # once every live pair is inf, the two smallest node ids merge.
        d = seeded_distance(np.random.default_rng(n), n, near_max, "sum")
        got = hierarchical_cluster(d, Linkage.AVERAGE).merges  # and raises no overflow warning
        with np.errstate(over="ignore"):
            assert got == reference_hierarchical_cluster(d, Linkage.AVERAGE).merges
        assert [(i, j, size) for i, j, _, size in got] == want
        assert [h == np.inf for _, _, h, _ in got] == [t >= overflowed for t in range(n - 1)]

    def test_traced_peak_per_cell(self):
        # One n x n working copy and a few rows, not a (2n - 1)^2 node matrix.
        n = 400
        d = seeded_distance(np.random.default_rng(40), n, DRAWS["continuous"], "sum")
        tracemalloc.start()
        try:
            hierarchical_cluster(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n) < 12


class TestCut:
    def test_k_one_and_k_n(self):
        dend = hierarchical_cluster(two_block_matrix())
        assert set(cut_dendrogram(dend, 1).assignments) == {0}
        assert cut_dendrogram(dend, 4).assignments == (0, 1, 2, 3)

    def test_two_blocks_recovered(self):
        dend = hierarchical_cluster(two_block_matrix())
        cut = cut_dendrogram(dend, 2)
        assert cut.assignments == (0, 0, 1, 1)

    @pytest.mark.parametrize("k", [0, 5, 2.5, True, "2"])
    def test_bad_k(self, k):
        dend = hierarchical_cluster(two_block_matrix())
        with pytest.raises(BadK):
            cut_dendrogram(dend, k)

    @pytest.mark.parametrize("k", [2.0, np.int64(2), np.float32(2.0)])
    def test_integral_k_is_an_int(self, k):
        dend = hierarchical_cluster(two_block_matrix())
        cut = cut_dendrogram(dend, k)
        assert cut == cut_dendrogram(dend, 2) and type(cut.k) is int

    def test_dendrogram_needs_one_merge_fewer_than_leaves(self):
        with pytest.raises(ValueError, match="^3 leaves need 2 merges$"):
            Dendrogram(("a", "b", "c"), ((0, 1, 1.0, 2),))

    @pytest.mark.parametrize(
        "assignments, k, message",
        [
            ((0, 1), 2, "one assignment per label required"),
            ((0, 0, 2), 3, r"every cluster 0..2 must be nonempty, got \[0, 2\]"),
        ],
    )
    def test_malformed_assignment_rejected(self, assignments, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClusterAssignment(("a", "b", "c"), assignments, k)


class TestNewick:
    def test_structure(self):
        dend = hierarchical_cluster(two_block_matrix())
        text = to_newick(dend)
        assert text.endswith(";")
        assert text.count("(") == text.count(")") == 3
        for label in "abcd":
            assert f"{label}:" in text

    def test_branch_lengths_are_height_differences(self):
        d = distance("ab", [[0.0, 2.0], [2.0, 0.0]])
        assert to_newick(hierarchical_cluster(d)) == "(a:2,b:2);"

    def test_labels_quoted_only_where_needed(self):
        labels = ["st(1)", "b:c", "it's", "a b", "x[2];y,z", "plain_1.5"]
        n = len(labels)
        m = np.arange(1.0, n * n + 1).reshape(n, n)
        m = m + m.T
        np.fill_diagonal(m, 0.0)
        text = to_newick(hierarchical_cluster(distance(labels, m)))
        for quoted in ["'st(1)':", "'b:c':", "'it''s':", "'a b':", "'x[2];y,z':", "plain_1.5:"]:
            assert quoted in text
        assert "'plain_1.5'" not in text


class TestSpectral:
    def test_exact_blocks_recovered(self):
        rng = np.random.default_rng(2)
        labels = tuple("abcdefgh")
        blocks = [(0, 3, 5), (1, 2), (4, 6, 7)]
        a = block_affinity(labels, blocks)
        got = partition(spectral_cluster(a, 3, seed=7))
        want = frozenset(frozenset(labels[i] for i in b) for b in blocks)
        assert got == want

    def test_all_ones_single_cluster(self):
        a = block_affinity("abc", [(0, 1, 2)])
        assert spectral_cluster(a, 1, seed=0).assignments == (0, 0, 0)

    def test_partition_invariant_under_relabeling(self):
        rng = np.random.default_rng(3)
        labels = tuple("abcdef")
        blocks = [(0, 1, 2), (3, 4, 5)]
        a = block_affinity(labels, blocks)
        perm = rng.permutation(6)
        permuted = LabeledSquareMatrix(
            tuple(labels[i] for i in perm), a.entries[np.ix_(perm, perm)], MatrixKind.AFFINITY
        )
        assert partition(spectral_cluster(a, 2, seed=1)) == partition(spectral_cluster(permuted, 2, seed=1))

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        m = rng.uniform(0.1, 1.0, (7, 7))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        a = to_affinity(distance("abcdefg", m))
        first = spectral_cluster(a, 3, seed=11)
        assert all(spectral_cluster(a, 3, seed=11) == first for _ in range(3))

    def test_bad_k(self):
        a = block_affinity("ab", [(0, 1)])
        with pytest.raises(BadK):
            spectral_cluster(a, 3, seed=0)

    @pytest.mark.parametrize("k", [1.5, np.float64(0.5), True, "1"])
    def test_non_integral_k(self, k):
        a = block_affinity("ab", [(0, 1)])
        with pytest.raises(BadK):
            spectral_cluster(a, k, seed=0)

    @pytest.mark.parametrize("k", [2.0, np.int64(2), np.float32(2.0)])
    def test_integral_k_is_an_int(self, k):
        a = block_affinity("abcd", [(0, 1), (2, 3)])
        got = spectral_cluster(a, k, seed=0)
        assert got == spectral_cluster(a, 2, seed=0) and type(got.k) is int

    def test_any_kind_clusters_through_its_affinity_view(self):
        d = two_block_matrix()
        a = to_affinity(d)
        assert spectral_cluster(d, 2, seed=3) == spectral_cluster(a, 2, seed=3)
        assert eigengap_k(d) == eigengap_k(a) == 2
        om = LabeledSquareMatrix(a.labels, 2.0 * a.entries - 1.0, MatrixKind.ALIGNMENT)
        assert spectral_cluster(om, 2, seed=3) == spectral_cluster(a, 2, seed=3)

    def test_clusters_numbered_by_first_appearance(self):
        a = block_affinity("abcde", [(1, 3), (0, 2, 4)])
        assert spectral_cluster(a, 2, seed=5).assignments == (0, 1, 0, 1, 0)

    def test_empty_kmeans_cluster_is_reseeded(self):
        # k is above the number of distinct points, so the farthest-point
        # start repeats a centre and a cluster starts out empty.
        points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        centers = _farthest_point_init(points, 3, np.random.default_rng(0))
        assert centers.tolist() == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        labels, inertia = _lloyd(points, centers)
        assert labels.tolist() == [2, 1, 0, 0]
        assert np.bincount(labels, minlength=3).min() > 0
        assert inertia == 0.0

    @pytest.mark.parametrize("kind", ["distance", "affinity", "alignment", "consistency"])
    def test_affinity_view_has_no_zero_degree(self, kind):
        # The Laplacian divides by the square root of each degree, which the
        # view's unit diagonal and nonnegative entries keep at 1 or more.
        assert (to_affinity(four_kinds()[kind]).entries.sum(axis=1) >= 1.0).all()


def four_kinds():
    """A distance, an affinity, an alignment and a consistency matrix over 9 points in 3 groups."""
    rng = np.random.default_rng(6)
    points = np.repeat(rng.normal(0.0, 5.0, (3, 2)), 3, axis=0) + rng.normal(0.0, 0.5, (9, 2))
    d = distance("abcdefghi", np.sqrt(((points[:, None] - points[None]) ** 2).sum(axis=2)))
    unit = points / np.linalg.norm(points, axis=1)[:, None]
    cosine = np.clip(unit @ unit.T, -1.0, 1.0)
    cosine = (cosine + cosine.T) / 2.0
    np.fill_diagonal(cosine, 1.0)
    a = to_affinity(d)
    om = LabeledSquareMatrix(d.labels, cosine, MatrixKind.ALIGNMENT)
    return {"distance": d, "affinity": a, "alignment": om, "consistency": consistency_matrix(om, a)}


class TestAutomaticK:
    @pytest.mark.parametrize("kind", ["distance", "affinity", "alignment", "consistency"])
    def test_no_k_clusters_into_the_eigengap_k(self, kind):
        m = four_kinds()[kind]
        k = eigengap_k(m)
        auto = spectral_cluster(m, None, seed=9)
        assert auto == spectral_cluster(m, k, seed=9)
        assert auto.k == k
        assert spectral_cluster(m, seed=9) == auto

    def test_zero_k_is_not_the_automatic_choice(self):
        with pytest.raises(BadK):
            spectral_cluster(four_kinds()["affinity"], 0, seed=0)


class TestEigengap:
    def test_three_blocks(self):
        a = block_affinity("abcdef", [(0, 1), (2, 3), (4, 5)])
        assert eigengap_k(a) == 3

    def test_all_ones(self):
        a = block_affinity("abcd", [(0, 1, 2, 3)])
        assert eigengap_k(a) == 1

    def test_two_blocks(self):
        a = block_affinity("abcde", [(0, 1, 2), (3, 4)])
        assert eigengap_k(a) == 2

    def test_single_label(self):
        assert eigengap_k(distance("a", [[0.0]])) == 1


def test_merge_tree_unchanged_by_affinity_reversal():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        m = rng.uniform(0.5, 8, (n, n))
        m = (m + m.T) / 2
        np.fill_diagonal(m, 0.0)
        d = distance([f"s{i}" for i in range(n)], m)
        a = to_affinity(d)
        rebuilt = distance(d.labels, (1.0 - a.entries) * d.entries.max())
        for linkage in Linkage:
            t1 = hierarchical_cluster(d, linkage)
            t2 = hierarchical_cluster(rebuilt, linkage)
            assert [mg[:2] for mg in t1.merges] == [mg[:2] for mg in t2.merges]
            assert np.allclose([mg[2] for mg in t1.merges], [mg[2] for mg in t2.merges], rtol=1e-12)
