import numpy as np
import pytest

from stepdist import (
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
from stepdist.clustering import _sym_laplacian
from stepdist.errors import BadK, DisconnectedDegenerate


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


class TestCut:
    def test_k_one_and_k_n(self):
        dend = hierarchical_cluster(two_block_matrix())
        assert set(cut_dendrogram(dend, 1).assignments) == {0}
        assert cut_dendrogram(dend, 4).assignments == (0, 1, 2, 3)

    def test_two_blocks_recovered(self):
        dend = hierarchical_cluster(two_block_matrix())
        cut = cut_dendrogram(dend, 2)
        assert cut.assignments == (0, 0, 1, 1)

    @pytest.mark.parametrize("k", [0, 5])
    def test_bad_k(self, k):
        dend = hierarchical_cluster(two_block_matrix())
        with pytest.raises(BadK):
            cut_dendrogram(dend, k)


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

    def test_zero_degree_rejected(self):
        with pytest.raises(DisconnectedDegenerate):
            _sym_laplacian(np.zeros((3, 3)))


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
