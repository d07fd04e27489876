import math

import numpy as np
import pytest

from stepdist import ChangePointSet, hausdorff, mj_semi_metric, modified_hausdorff
from stepdist.errors import EmptySet

from tests.test_exactness import reference_set_metrics, same_bits

# Index sets are shifted to positive values because change points are
# interior indices; all three metrics are translation invariant.


def cps(*points):
    return ChangePointSet(tuple(points))


class TestHausdorff:
    def test_self_distance_zero(self):
        s = cps(3, 8, 20)
        assert hausdorff(s, s) == 0.0

    def test_unmatched_point_dominates(self):
        assert hausdorff(cps(1, 11), cps(1)) == 10.0

    def test_enumerated_example(self):
        # d(2,{3,9})=1, d(5,{3,9})=2, d(3,{2,5})=1, d(9,{2,5})=4
        assert hausdorff(cps(2, 5), cps(3, 9)) == 4.0

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySet):
            hausdorff(cps(), cps(1))


@pytest.mark.parametrize("metric", [hausdorff, modified_hausdorff, mj_semi_metric])
@pytest.mark.parametrize("s, t", [((), (1, 5)), ((1, 5), ()), ((), ())])
def test_empty_set_rejected_by_every_metric(metric, s, t):
    with pytest.raises(EmptySet):
        metric(cps(*s), cps(*t))


def wide_pairs():
    """Hand-made edge cases, then random pairs of up to 400 points.

    Sizes cross numpy's pairwise-summation blocks at 8 and 128, which the
    table-based reference sums with.
    """
    pairs = [
        ((5,), (3, 7)),  # 5 is equidistant from both neighbours
        ((4, 10, 16), (7, 13)),  # every point between two neighbours is equidistant from them
        ((1, 2, 100, 200), (50, 60)),  # S before the first and after the last point of T
        ((7,), (7,)),
        ((7,), (20,)),
        ((3, 9, 27), (3, 9, 27)),
    ]
    rng = np.random.default_rng(12)
    for size_s, size_t in [(1, 400), (8, 9), (127, 129), (128, 128), (255, 3), (400, 400)]:
        s, t = (tuple(np.sort(rng.choice(5000, k, replace=False)) + 1) for k in (size_s, size_t))
        pairs += [(s, t), (s, s)]
    for _ in range(30):
        s, t = (tuple(np.sort(rng.choice(2000, rng.integers(1, 401), replace=False)) + 1) for _ in "st")
        pairs.append((s, t))
    return [(cps(*s), cps(*t)) for s, t in pairs]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
def test_exact_kernel_matches_table_reference_on_wide_sets(p):
    for s, t in wide_pairs():
        got = (hausdorff(s, t), modified_hausdorff(s, t), mj_semi_metric(s, t, p))
        assert same_bits(got, reference_set_metrics(s, t, p)), (s, t)
        assert all(type(v) is float for v in got)


def test_exact_kernel_p_inf_matches_reference_hausdorff():
    for s, t in wide_pairs():
        h = reference_set_metrics(s, t, 1.0)[0]
        assert same_bits(mj_semi_metric(s, t, math.inf), h)
        assert same_bits(mj_semi_metric(t, s, math.inf), h)


class TestModifiedHausdorff:
    def test_self_distance_zero(self):
        s = cps(4, 9)
        assert modified_hausdorff(s, s) == 0.0

    def test_directed_averages(self):
        # averages are (0 + 10)/2 = 5 and 0; max = 5
        assert modified_hausdorff(cps(1, 11), cps(1)) == 5.0

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = cps(*sorted(rng.choice(np.arange(1, 100), size=4, replace=False)))
            t = cps(*sorted(rng.choice(np.arange(1, 100), size=6, replace=False)))
            assert modified_hausdorff(s, t) == modified_hausdorff(t, s)


class TestMJSemiMetric:
    def test_self_distance_zero(self):
        s = cps(2, 7)
        assert mj_semi_metric(s, s, 1) == 0.0

    def test_p1_example(self):
        # (0 + (0 + 10)/2) / 2 = 2.5
        assert mj_semi_metric(cps(1, 11), cps(1), 1) == 2.5

    def test_coincides_with_mh_when_directed_averages_equal(self):
        s, t = cps(1, 5), cps(3, 7)
        a = np.abs(np.array(s.points)[:, None] - np.array(t.points)[None, :]).min(1).mean()
        b = np.abs(np.array(t.points)[:, None] - np.array(s.points)[None, :]).min(1).mean()
        assert a == b
        assert mj_semi_metric(s, t, 1) == pytest.approx(modified_hausdorff(s, t), abs=1e-12)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            mj_semi_metric(cps(1), cps(2), 0.5)

    def test_p_checked_by_the_package_rule(self):
        with pytest.raises(ValueError, match="p must be >= 1 or inf"):
            mj_semi_metric(cps(1), cps(2), math.nan)

    def test_p_inf_is_hausdorff(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = cps(*sorted(rng.choice(np.arange(1, 100), size=4, replace=False)))
            t = cps(*sorted(rng.choice(np.arange(1, 100), size=6, replace=False)))
            assert mj_semi_metric(s, s, math.inf) == 0.0
            assert mj_semi_metric(s, t, math.inf) == hausdorff(s, t)

    def test_large_p_stays_finite(self):
        # On a 1000-sample series d^p overflows from about p = 100; the sum
        # is then taken again with the largest distance factored out.
        s, t = cps(30, 400, 950), cps(60, 500, 700, 980)
        top = hausdorff(s, t)
        assert mj_semi_metric(s, t, 50.0) <= mj_semi_metric(s, t, 1000.0) <= top
        assert mj_semi_metric(s, t, 1e6) == pytest.approx(top, rel=1e-5)


def test_all_three_vanish_iff_sets_equal():
    rng = np.random.default_rng(5)
    metrics = [hausdorff, modified_hausdorff, lambda a, b: mj_semi_metric(a, b, 1)]
    for _ in range(100):
        s = cps(*sorted(rng.choice(np.arange(1, 60), size=3, replace=False)))
        t = cps(*sorted(rng.choice(np.arange(1, 60), size=3, replace=False)))
        for metric in metrics:
            if s == t:
                assert metric(s, t) == 0.0
            else:
                assert metric(s, t) > 0.0
        assert all(metric(s, s) == 0.0 for metric in metrics)
