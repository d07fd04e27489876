import math
import re
import tracemalloc
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
from stepdist.errors import LabelMismatch, UnparseableCell, ZeroFunction

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

    @pytest.mark.parametrize(
        "kind, off, message",
        [
            (MatrixKind.ALIGNMENT, -1.5, "alignment matrix needs unit diagonal and entries in [-1, 1]"),
            (MatrixKind.CONSISTENCY, -2.5, "consistency matrix needs entries in [-2, 1]"),
            (MatrixKind.CONSISTENCY, 1.5, "consistency matrix needs entries in [-2, 1]"),
        ],
    )
    def test_signed_kinds_reject_out_of_range(self, kind, off, message):
        m = np.array([[1.0, off], [off, 1.0]])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LabeledSquareMatrix(("a", "b"), m, kind)

    @pytest.mark.parametrize(
        "entries, message",
        [
            (np.zeros((2, 3)), "entries must be 2x2, got (2, 3)"),
            (np.zeros((3, 3)), "entries must be 2x2, got (3, 3)"),
            (np.array([[0.0, math.inf], [math.inf, 0.0]]), "entries must be finite"),
            (np.array([[0.0, math.nan], [math.nan, 0.0]]), "entries must be finite"),
        ],
    )
    def test_malformed_entries_rejected(self, entries, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LabeledSquareMatrix(("a", "b"), entries, MatrixKind.DISTANCE)

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

    @pytest.mark.parametrize(
        "n, labels, message",
        [
            (2, ("a",), "labels and functions must have equal length"),
            (1, None, "need at least 2 functions, got 1"),
        ],
    )
    def test_malformed_collection_rejected(self, n, labels, message):
        fs = [StepFunction.constant(1.0, 1.0)] * n
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            unscaled_distance_matrix(fs, 1, labels=labels)

    @pytest.mark.parametrize("p, name", [(1, "L^1"), (2.5, "L^2.5"), (math.inf, "L^inf")])
    def test_overflowing_distance_names_its_pair(self, p, name):
        # Every value is finite; only the distance between b and c, 1.9e308,
        # lies beyond the double range.
        fs = [StepFunction.constant(v, 1.0) for v in (0.8e308, 1.0e308, -0.9e308)]
        message = f"{name} distance between 'b' and 'c' exceeds the double range"
        with pytest.raises(ValueError, match=re.escape(message)):
            unscaled_distance_matrix(fs, p, labels=("a", "b", "c"))

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

    def test_unformable_cosine_names_its_pair(self):
        # Each width 1e-300 over 4e23 underflows under the normalised
        # measure, so the cosine is 0 / 0; it names its pair.
        f = StepFunction((0.0, 1e-300, 4e23), (1.0, 0.0))
        g = StepFunction((0.0, 1e-300, 2e-300, 4e23), (1.0, 0.5, 0.0))
        message = re.escape("L^2 cosine between 'f' and 'g' is nan, outside [-1, 1] beyond rounding")
        with pytest.raises(ValueError, match=message):
            alignment_matrix([f, g], labels=("f", "g"))

    def test_zero_function_identified_by_label(self):
        # ``run`` stops at the same check in normalized_distance_matrix first.
        fs = [StepFunction.constant(1.0, 1.0), StepFunction.constant(0.0, 1.0)]
        with pytest.raises(ZeroFunction, match="^series 'zed' embeds to the zero function$"):
            alignment_matrix(fs, labels=("ok", "zed"))


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

    def test_kinds_checked(self):
        d = unscaled_distance_matrix(random_collection(np.random.default_rng(8), 2), 1)
        a = to_affinity(d)
        with pytest.raises(ValueError, match="^first argument must be affinity or alignment, got distance$"):
            consistency_matrix(d, a)
        alignment = LabeledSquareMatrix(d.labels, np.eye(2), MatrixKind.ALIGNMENT)
        with pytest.raises(ValueError, match="^second argument must be an affinity matrix, got alignment$"):
            consistency_matrix(a, alignment)


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


    @pytest.mark.parametrize("n", [2, 3, 40])
    def test_bytes_match_per_value_writer_with_scattered_signed_zeros(self, tmp_path, n):
        # Every row pops its mirrored values from the rows above it; signed
        # zeros below the diagonal must still be rendered themselves.
        rng = np.random.default_rng(n)
        entries = np.triu(rng.choice([0.0, -0.0, 0.5, 1.0 / 3.0, -1e-300], (n, n)), 1)
        entries = entries + entries.T
        flip = (rng.random((n, n)) < 0.3) & (entries == 0.0)
        entries[flip] = -entries[flip]
        m = LabeledSquareMatrix(tuple(f"s{i}" for i in range(n)), entries, MatrixKind.CONSISTENCY)
        write_matrix_csv(m, tmp_path / "rows.csv")
        reference_write_matrix_csv(m, tmp_path / "values.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "values.csv").read_bytes()

    def test_traced_peak_per_cell(self, tmp_path):
        # Rows are converted one at a time and each rendered value is freed
        # once its mirror is written, so about a quarter of the matrix is
        # held as text at the peak, not the whole matrix as floats and text.
        n = 400
        entries = np.triu(np.random.default_rng(41).uniform(0.0, 10.0, (n, n)), 1)
        m = LabeledSquareMatrix(tuple(f"s{i}" for i in range(n)), entries + entries.T, MatrixKind.DISTANCE)
        tracemalloc.start()
        try:
            write_matrix_csv(m, tmp_path / "m.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (n * n) < 32


class TestReadCsv:
    """Malformed matrix files raise UnparseableCell naming the file and line."""

    @staticmethod
    def two_by_two(path) -> list[str]:
        m = LabeledSquareMatrix(("a", "b"), np.array([[0.0, 1.5], [1.5, 0.0]]), MatrixKind.DISTANCE)
        write_matrix_csv(m, path)
        return path.read_bytes().decode().split("\r\n")[:-1]  # ["a,b", "a,0.0,1.5", "b,1.5,0.0"]

    def test_trailing_line_end(self, tmp_path):
        path = tmp_path / "m.csv"
        self.two_by_two(path)
        with open(path, "a", newline="") as fh:
            fh.write("\r\n")
        m = read_matrix_csv(path, MatrixKind.DISTANCE)
        assert m.labels == ("a", "b")
        assert np.array_equal(m.entries, [[0.0, 1.5], [1.5, 0.0]])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda lines: [lines[0], "a,0.0,x", lines[2]], "row 2: could not convert string to float: 'x'"),
            (lambda lines: [lines[0], lines[1], "b,1.5"], "row 3: expected label 'b' and 2 values, got 'b' and 1 values"),
            (lambda lines: [lines[0], "a,0.0," + "1" * 200_000, lines[2]], "row 2: field larger than field limit"),
            (lambda lines: [lines[0], lines[1], "c,1.5,0.0"], "row 3: expected label 'b' and 2 values, got 'c' and 2 values"),
            (lambda lines: [*lines, "c,1.5,0.0"], "row 4: more than 2 data rows"),
            (lambda lines: lines[:2], "ends at row 2 after 1 of 2 data rows"),
            (lambda lines: [], "empty matrix file"),
            (lambda lines: ["", " , ", ""], "empty matrix file"),
        ],
        ids=["bad_cell", "short_row", "huge_cell", "wrong_label", "extra_row", "missing_row", "empty", "only_blank"],
    )
    def test_malformed_file_names_file_and_line(self, tmp_path, edit, message):
        path = tmp_path / "m.csv"
        lines = edit(self.two_by_two(path))
        path.write_text("".join(line + "\r\n" for line in lines), newline="")
        with pytest.raises(UnparseableCell, match=f"^{re.escape(f'{path}: {message}')}"):
            read_matrix_csv(path, MatrixKind.DISTANCE)

    @pytest.mark.parametrize("labels", [("", " "), ("\t", "", "  ")], ids=["two", "three"])
    def test_blank_header_is_not_misread(self, tmp_path, labels):
        # A header whose every label is empty or whitespace is a blank row and
        # is skipped, so the first data row stands in for it; the next row is
        # then one cell short, and the file is rejected, not misread.
        n = len(labels)
        m = LabeledSquareMatrix(labels, np.ones((n, n)) - np.eye(n), MatrixKind.DISTANCE)
        path = tmp_path / "m.csv"
        write_matrix_csv(m, path)
        message = f"{path}: row 3: expected label {labels[0]!r} and {n + 1} values, got {labels[1]!r} and {n} values"
        with pytest.raises(UnparseableCell, match=f"^{re.escape(message)}$"):
            read_matrix_csv(path, MatrixKind.DISTANCE)

    def test_invalid_values_stay_value_errors(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\r\na,0.0,-1.5\r\nb,-1.5,0.0\r\n", newline="")
        with pytest.raises(ValueError, match="nonnegative") as info:
            read_matrix_csv(path, MatrixKind.DISTANCE)
        assert not isinstance(info.value, UnparseableCell)


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
