import math
from types import SimpleNamespace

import numpy as np
import pytest

from stepdist import (
    LabeledSquareMatrix,
    MatrixKind,
    StepFunction,
    alignment_matrix,
    consistency_matrix,
    lp_distance,
    matrix_norm,
    normalized_distance_matrix,
    read_matrix_csv,
    to_affinity,
    to_distance,
    unscaled_distance_matrix,
    write_matrix_csv,
)
from stepdist.errors import LabelMismatch, ZeroFunction

from tests.helpers import random_step_function, reference_write_matrix_csv


def random_collection(rng, n, h=1.0):
    return [random_step_function(rng, h=h) for _ in range(n)]


class TestKindInvariants:
    def test_distance_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError):
            LabeledSquareMatrix(("a", "b"), np.array([[1.0, 0.0], [0.0, 0.0]]), MatrixKind.DISTANCE)

    def test_affinity_rejects_out_of_range(self):
        m = np.array([[1.0, 1.2], [1.2, 1.0]])
        with pytest.raises(ValueError):
            LabeledSquareMatrix(("a", "b"), m, MatrixKind.AFFINITY)

    def test_asymmetry_rejected(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            LabeledSquareMatrix(("a", "b"), m, MatrixKind.DISTANCE)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            LabeledSquareMatrix(("a", "a"), np.zeros((2, 2)), MatrixKind.DISTANCE)


class TestUnscaledDistance:
    def test_identical_embeddings_zero_matrix(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 3.0))
        m = unscaled_distance_matrix([f, f, f], 1)
        assert np.all(m.entries == 0.0)

    def test_constants(self):
        m = unscaled_distance_matrix(
            [StepFunction.constant(2.0, 1.0), StepFunction.constant(-3.0, 1.0)], 1
        )
        assert m.entries[0, 1] == 5.0

    def test_matches_pairwise_calls(self):
        rng = np.random.default_rng(0)
        fs = random_collection(rng, 3)
        for p in (1.0, 2.0, math.inf):
            m = unscaled_distance_matrix(fs, p)
            for i in range(3):
                for j in range(3):
                    expected = 0.0 if i == j else lp_distance(fs[i], fs[j], p)
                    assert m.entries[i, j] == expected


class TestNormalizedDistance:
    def test_scaling_collapses(self):
        f = StepFunction((0.0, 0.4, 1.0), (1.0, 3.0))
        two_f = StepFunction((0.0, 0.4, 1.0), (2.0, 6.0))
        m = normalized_distance_matrix([f, two_f], 1)
        assert m.entries[0, 1] == pytest.approx(0.0, abs=1e-15)

    def test_p2_relates_to_alignment(self):
        rng = np.random.default_rng(1)
        fs = random_collection(rng, 5)
        d = normalized_distance_matrix(fs, 2)
        om = alignment_matrix(fs)
        assert np.allclose(d.entries**2, 2.0 - 2.0 * om.entries, atol=1e-10)

    def test_positive_constants_zero_matrix(self):
        fs = [StepFunction.constant(c, 2.0) for c in (1.0, 5.0, 9.0)]
        m = normalized_distance_matrix(fs, 1)
        assert np.all(m.entries == 0.0)

    def test_zero_function_identified_by_label(self):
        fs = [StepFunction.constant(1.0, 1.0), StepFunction.constant(0.0, 1.0)]
        with pytest.raises(ZeroFunction, match="zed"):
            normalized_distance_matrix(fs, 1, labels=("ok", "zed"))


class TestAlignment:
    def test_unit_diagonal(self):
        rng = np.random.default_rng(2)
        m = alignment_matrix(random_collection(rng, 4))
        assert np.all(np.diag(m.entries) == 1.0)

    def test_disjoint_supports_zero(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 0.0))
        g = StepFunction((0.0, 0.5, 1.0), (0.0, 1.0))
        assert alignment_matrix([f, g]).entries[0, 1] == 0.0

    def test_antipodal_minus_one(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, -2.0))
        g = StepFunction((0.0, 0.5, 1.0), (-1.0, 2.0))
        assert alignment_matrix([f, g]).entries[0, 1] == pytest.approx(-1.0, abs=1e-12)


class TestAffinity:
    def test_zero_distances_give_all_ones(self):
        d = LabeledSquareMatrix(("a", "b"), np.zeros((2, 2)), MatrixKind.DISTANCE)
        assert np.all(to_affinity(d).entries == 1.0)

    def test_two_points(self):
        d = LabeledSquareMatrix(("a", "b"), np.array([[0.0, 3.0], [3.0, 0.0]]), MatrixKind.DISTANCE)
        a = to_affinity(d)
        assert a.entries[0, 1] == 0.0
        assert a.entries[0, 0] == 1.0

    def test_affine_rescale_values(self):
        m = np.array([[0.0, 2.0, 4.0], [2.0, 0.0, 2.0], [4.0, 2.0, 0.0]])
        a = to_affinity(LabeledSquareMatrix(("a", "b", "c"), m, MatrixKind.DISTANCE))
        assert a.entries[0, 1] == 0.5
        assert a.entries[0, 2] == 0.0
        assert a.entries[1, 2] == 0.5

    def test_ordering_reversed(self):
        rng = np.random.default_rng(3)
        fs = random_collection(rng, 5)
        d = unscaled_distance_matrix(fs, 1)
        a = to_affinity(d)
        iu = np.triu_indices(5, 1)
        dv, av = d.entries[iu], a.entries[iu]
        for x in range(len(dv)):
            for y in range(len(dv)):
                if dv[x] < dv[y]:
                    assert av[x] > av[y]


class TestKindViews:
    LABELS = ("a", "b", "c")

    def matrix(self, entries, kind):
        return LabeledSquareMatrix(self.LABELS, np.array(entries), kind)

    def test_distance_and_affinity_are_their_own_views(self):
        d = self.matrix([[0.0, 2.0, 4.0], [2.0, 0.0, 1.0], [4.0, 1.0, 0.0]], MatrixKind.DISTANCE)
        a = to_affinity(d)
        assert to_distance(d) is d
        assert to_affinity(a) is a

    def test_affinity_and_alignment_distance_is_one_minus(self):
        om = self.matrix([[1.0, -0.5, 0.25], [-0.5, 1.0, 1.0], [0.25, 1.0, 1.0]], MatrixKind.ALIGNMENT)
        for m in (om, to_affinity(om)):
            d = to_distance(m)
            assert d.kind is MatrixKind.DISTANCE
            assert np.array_equal(d.entries, 1.0 - m.entries)

    def test_alignment_affinity_is_half_shifted(self):
        om = self.matrix([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.0], [0.5, 0.0, 1.0]], MatrixKind.ALIGNMENT)
        a = to_affinity(om)
        assert a.kind is MatrixKind.AFFINITY
        assert np.array_equal(a.entries, [[1.0, 0.0, 0.75], [0.0, 1.0, 0.5], [0.75, 0.5, 1.0]])

    def test_consistency_views(self):
        c = self.matrix([[0.5, -1.5, 0.5], [-1.5, -0.25, 1.0], [0.5, 1.0, 0.0]], MatrixKind.CONSISTENCY)
        d = to_distance(c)
        assert np.array_equal(d.entries, [[0.0, 1.5, 0.5], [1.5, 0.0, 1.0], [0.5, 1.0, 0.0]])
        assert np.array_equal(to_affinity(c).entries, to_affinity(d).entries)

    def test_zero_consistency_affinity_is_all_ones(self):
        c = self.matrix(np.zeros((3, 3)), MatrixKind.CONSISTENCY)
        assert np.all(to_affinity(c).entries == 1.0)


class TestConsistency:
    def test_self_difference_zero(self):
        rng = np.random.default_rng(4)
        a = to_affinity(unscaled_distance_matrix(random_collection(rng, 4), 1))
        con = consistency_matrix(a, a)
        assert np.all(con.entries == 0.0)

    def test_entries_bounded(self):
        rng = np.random.default_rng(5)
        fs = random_collection(rng, 4)
        a = to_affinity(unscaled_distance_matrix(fs, 1))
        g = to_affinity(unscaled_distance_matrix(random_collection(rng, 4), 2))
        con = consistency_matrix(a, g)
        assert np.all(con.entries >= -1.0) and np.all(con.entries <= 1.0)
        assert np.all(np.diag(con.entries) == 0.0)

    def test_elementwise_subtraction(self):
        rng = np.random.default_rng(6)
        fs = random_collection(rng, 4)
        a = to_affinity(unscaled_distance_matrix(fs, 1))
        g = to_affinity(unscaled_distance_matrix(random_collection(rng, 4), 1))
        con = consistency_matrix(a, g)
        assert np.array_equal(con.entries, a.entries - g.entries)

    def test_label_mismatch(self):
        rng = np.random.default_rng(7)
        a = to_affinity(unscaled_distance_matrix(random_collection(rng, 2), 1, labels=("a", "b")))
        g = to_affinity(unscaled_distance_matrix(random_collection(rng, 2), 1, labels=("a", "c")))
        with pytest.raises(LabelMismatch):
            consistency_matrix(a, g)


class TestMatrixNorm:
    def test_values(self):
        zero = LabeledSquareMatrix(("a", "b"), np.zeros((2, 2)), MatrixKind.CONSISTENCY)
        assert matrix_norm(zero) == 0.0
        ones = LabeledSquareMatrix(("a", "b", "c"), np.ones((3, 3)), MatrixKind.CONSISTENCY)
        assert matrix_norm(ones) == 1.0
        half = LabeledSquareMatrix(("a", "b"), np.array([[0.0, 0.5], [0.5, 0.0]]), MatrixKind.CONSISTENCY)
        assert matrix_norm(half) == 0.25


class TestCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        fs = random_collection(rng, 5)
        for kind_name, m in [
            ("distance", unscaled_distance_matrix(fs, 2, labels=tuple("abcde"))),
            ("alignment", alignment_matrix(fs, labels=tuple("abcde"))),
        ]:
            path = tmp_path / f"{kind_name}.csv"
            write_matrix_csv(m, path)
            back = read_matrix_csv(path, m.kind)
            assert back.labels == m.labels
            assert np.array_equal(back.entries, m.entries)

    def test_bytes_match_per_value_writer(self, tmp_path):
        # The writer reads only labels and entries; a stand-in carries inf,
        # which LabeledSquareMatrix rejects, to cover every float repr form.
        entries = np.array(
            [
                [0.0, math.inf, -0.0, 5e-324, 1e300],
                [math.inf, 0.0, 0.1, -2.5e-310, 1.0],
                [-0.0, 0.1, 0.0, 123456789.0, -1e-5],
                [5e-324, -2.5e-310, 123456789.0, 0.0, 1e16],
                [1e300, 1.0, -1e-5, 1e16, 0.0],
            ]
        )
        for labels in (("a", "b,c", 'say "hi"', "two\nlines", "é"), ("", "x", "y", "z", " w ")):
            m = SimpleNamespace(labels=labels, entries=entries)
            write_matrix_csv(m, tmp_path / "rows.csv")
            reference_write_matrix_csv(m, tmp_path / "values.csv")
            assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()

    def test_signed_zeros_opposite_each_other_keep_their_own_text(self, tmp_path):
        # Construction checks symmetry with ==, under which -0.0 equals 0.0,
        # but their reprs differ, so neither may be mirrored onto the other.
        entries = np.array(
            [
                [0.0, -0.0, 0.0, 0.5],
                [0.0, -0.0, 0.25, -0.0],
                [-0.0, 0.25, 0.0, -0.0],
                [0.5, 0.0, -0.0, -0.0],
            ]
        )
        m = LabeledSquareMatrix(("a", "b", "c", "d"), entries, MatrixKind.CONSISTENCY)
        write_matrix_csv(m, tmp_path / "rows.csv")
        reference_write_matrix_csv(m, tmp_path / "values.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()
        back = read_matrix_csv(tmp_path / "rows.csv", MatrixKind.CONSISTENCY).entries
        assert np.array_equal(np.signbit(back), np.signbit(entries))


def test_random_collections_satisfy_kind_invariants():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        fs = random_collection(rng, n, h=float(rng.uniform(0.5, 5)))
        p = float(rng.choice([1.0, 2.0, 3.0]))
        d = unscaled_distance_matrix(fs, p)
        a = to_affinity(d)
        om = alignment_matrix(fs)
        # constructors validate; re-validate explicitly through fresh construction
        LabeledSquareMatrix(d.labels, d.entries, MatrixKind.DISTANCE)
        LabeledSquareMatrix(a.labels, a.entries, MatrixKind.AFFINITY)
        LabeledSquareMatrix(om.labels, om.entries, MatrixKind.ALIGNMENT)
        con = consistency_matrix(a, to_affinity(unscaled_distance_matrix(fs, 1)))
        LabeledSquareMatrix(con.labels, con.entries, MatrixKind.CONSISTENCY)
