import math

import numpy as np
import pytest

from stepdist import (
    Attribute,
    ChangePointSet,
    DetectionParams,
    StepFunction,
    TimeSeries,
    are_equivalent,
    embed,
    from_changepoints,
    inner_product,
    lp_distance,
    lp_norm,
    magnitude,
    normalize,
)
from stepdist.errors import DomainMismatch, ZeroFunction

from tests.helpers import add_bump, quadrature_lp_distance, random_step_function

P_GRID = [1.0, 2.0, 3.0, math.inf]


class TestConstruction:
    def test_adjacent_equal_values_merge(self):
        f = StepFunction((0.0, 0.3, 0.7, 1.0), (2.0, 2.0, 5.0))
        assert f.breakpoints == (0.0, 0.7, 1.0)
        assert f.values == (2.0, 5.0)

    def test_canonical_equality_is_field_equality(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
        g = StepFunction((0.0, 0.25, 0.5, 1.0), (1.0, 1.0, 2.0))
        assert f == g

    @pytest.mark.parametrize(
        "breakpoints,values",
        [
            ((0.0,), ()),
            ((0.1, 1.0), (1.0,)),
            ((0.0, 0.5, 0.5, 1.0), (1.0, 2.0, 3.0)),
            ((0.0, 1.0), (1.0, 2.0)),
            ((0.0, 1.0), (math.nan,)),
        ],
    )
    def test_invalid_constructions_rejected(self, breakpoints, values):
        with pytest.raises(ValueError):
            StepFunction(breakpoints, values)

    def test_pointwise_evaluation(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
        assert f(0.25) == 1.0
        assert f(0.75) == 2.0
        assert f(1.0) == 2.0

    def test_json_round_trip_lossless(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = random_step_function(rng, h=float(rng.uniform(1, 10)))
            assert StepFunction.from_json(f.to_json()) == f


class TestNorm:
    @pytest.mark.parametrize("p", P_GRID)
    def test_constant_norm_is_magnitude(self, p):
        assert lp_norm(StepFunction.constant(-3.0, 7.0), p) == pytest.approx(3.0, abs=1e-15)

    def test_half_indicator_p1(self):
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 0.0))
        assert lp_norm(f, 1) == pytest.approx(1.0, abs=1e-15)

    def test_half_indicator_p2_vs_quadrature(self):
        f = StepFunction((0.0, 0.5, 1.0), (2.0, 0.0))
        zero = StepFunction.constant(0.0, 1.0)
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
        assert lp_norm(f, 2) == pytest.approx(quadrature_lp_distance(f, zero, 2, 10**5), rel=1e-9)

    def test_sup_norm(self):
        f = StepFunction((0.0, 0.1, 1.0), (-9.0, 1.0))
        assert lp_norm(f, math.inf) == 9.0

    def test_norm_nondecreasing_in_p(self):
        rng = np.random.default_rng(4)
        ps = [1.0, 1.5, 2.0, 3.0, 10.0, math.inf]
        for _ in range(50):
            f = random_step_function(rng, h=float(rng.uniform(0.5, 20)))
            norms = [lp_norm(f, p) for p in ps]
            assert all(b >= a - 1e-12 for a, b in zip(norms, norms[1:]))

    @pytest.mark.parametrize("p", [50.0, 300.0, 1e4])
    def test_large_finite_p_closed_form(self, p):
        f = StepFunction((0.0, 1.0, 2.0), (10.0, 20.0))
        expected = 20.0 * ((1.0 + 0.5**p) / 2.0) ** (1.0 / p)
        assert lp_norm(f, p) == pytest.approx(expected, rel=1e-12)
        zero = StepFunction.constant(0.0, 2.0)
        assert lp_distance(f, zero, p) == pytest.approx(expected, rel=1e-12)

    def test_large_p_approaches_sup_norm(self):
        f = StepFunction((0.0, 1.0, 2.0), (10.0, 20.0))
        norms = [lp_norm(f, p) for p in (50.0, 300.0, 1e4)]
        assert norms == sorted(norms)
        assert 20.0 - norms[-1] < 20.0 * math.log(2.0) / 1e4
        assert norms[-1] < lp_norm(f, math.inf) == 20.0

    def test_underflowing_powers_rescaled(self):
        f = StepFunction((0.0, 1.0, 2.0), (1e-10, 2e-10))
        expected = 2e-10 * ((1.0 + 0.5**300) / 2.0) ** (1.0 / 300)
        assert lp_norm(f, 300.0) == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [-520, -530])
    def test_subnormal_sum_rescaled(self, k):
        # The squares are subnormal and, with full mantissas, rounded: summed
        # as they are, the total would lose digits.
        f = StepFunction((0.0, 1.0, 3.0, 4.0), (1 / 3, -2 / 7, 0.6180339887498949))
        g = StepFunction((0.0, 2.0, 4.0), (-0.1, 1 / 9))
        tiny_f, tiny_g = (StepFunction(u.breakpoints, np.ldexp(u.values, k)) for u in (f, g))
        norm, dist = math.ldexp(lp_norm(f, 2.0), k), math.ldexp(lp_distance(f, g, 2.0), k)
        assert lp_norm(tiny_f, 2.0) == pytest.approx(norm, rel=1e-15, abs=0.0)
        assert lp_distance(tiny_f, tiny_g, 2.0) == pytest.approx(dist, rel=1e-15, abs=0.0)

    def test_overflowing_sum_rescaled(self):
        f = StepFunction((0.0, 1.0, 2.0), (1e308, -1e308))
        assert lp_norm(f, 1.0) == 1e308

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(StepFunction.constant(1.0, 1.0), 0.5)


class TestDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        f = random_step_function(rng)
        for p in P_GRID:
            assert lp_distance(f, f, p) == 0.0

    def test_disjoint_indicators_p1(self):
        f = StepFunction((0.0, 1.0), (1.0,))
        g = StepFunction((0.0, 1.0), (0.0,))
        assert lp_distance(f, g, 1) == pytest.approx(1.0, abs=1e-15)

    def test_offset_indicators_p1(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 0.0))
        g = StepFunction((0.0, 0.25, 0.75, 1.0), (0.0, 1.0, 0.0))
        assert lp_distance(f, g, 1) == pytest.approx(0.5, abs=1e-15)
        assert lp_distance(f, g, 1) == pytest.approx(quadrature_lp_distance(f, g, 1, 10**5), rel=1e-9)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            lp_distance(StepFunction.constant(1.0, 1.0), StepFunction.constant(1.0, 2.0), 1)

    def test_triangle_inequality_sample(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            h = float(rng.uniform(0.5, 10))
            f, g, k = (random_step_function(rng, h=h) for _ in range(3))
            for p in P_GRID:
                assert lp_distance(f, k, p) <= (lp_distance(f, g, p) + lp_distance(g, k, p)) * (1 + 1e-9) + 1e-15


class TestInnerProduct:
    def test_matches_squared_l2_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            f = random_step_function(rng)
            assert inner_product(f, f) == pytest.approx(lp_norm(f, 2) ** 2, rel=1e-12, abs=1e-14)

    def test_disjoint_supports_orthogonal(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 0.0))
        g = StepFunction((0.0, 0.5, 1.0), (0.0, 1.0))
        assert inner_product(f, g) == 0.0

    def test_constants_multiply(self):
        assert inner_product(StepFunction.constant(3.0, 2.0), StepFunction.constant(-4.0, 2.0)) == -12.0

    def test_overflowing_sum_rescaled(self):
        # The terms 1e308, 1e308, -1e308 overflow as a partial sum; the mean does not.
        bps = (0.0, 1.0, 2.0, 3.0)
        f = StepFunction(bps, (1e154, 2e154, 1e154))
        g = StepFunction(bps, (1e154, 5e153, -1e154))
        small_f, small_g = (StepFunction(u.breakpoints, np.ldexp(u.values, -600)) for u in (f, g))
        expected = math.ldexp(inner_product(small_f, small_g), 1200)
        assert math.isfinite(expected)
        assert inner_product(f, g) == expected == pytest.approx(1e308 / 3, rel=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_beyond_float_range_is_signed_inf(self, sign):
        bps = (0.0, 1.0, 2.0)
        f = StepFunction(bps, (1e200, -3e200))
        g = StepFunction(bps, (sign * 1e200, -sign * 1e200))
        assert inner_product(f, g) == sign * math.inf
        # Terms inf and -inf whose true sum is still beyond the float range.
        assert inner_product(StepFunction(bps, (2e200, 1e200)), g) == sign * math.inf


class TestNormalize:
    def test_constant_five_becomes_one(self):
        assert normalize(StepFunction.constant(5.0, 3.0), 1) == StepFunction.constant(1.0, 3.0)

    def test_zero_function_rejected(self):
        with pytest.raises(ZeroFunction):
            normalize(StepFunction.constant(0.0, 1.0), 2)

    def test_unit_norm_after_normalizing(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            f = random_step_function(rng, h=float(rng.uniform(0.5, 5)))
            for p in P_GRID:
                assert abs(lp_norm(normalize(f, p), p) - 1.0) <= 1e-12


class TestEquivalence:
    def test_redundant_breakpoint_is_equivalent(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
        g = StepFunction((0.0, 0.2, 0.5, 1.0), (1.0, 1.0, 2.0))
        assert are_equivalent(f, g)
        assert lp_distance(f, g, 1) == 0.0

    def test_same_breaks_same_means_different_noise(self):
        # different noise realisations with exactly matching segment means
        # and breaks embed to the same step function
        wiggle = np.tile([0.5, -0.5], 100)
        base = np.concatenate([np.full(100, 1.0), np.full(100, 4.0)])
        a = TimeSeries("a", base + wiggle)
        b = TimeSeries("b", base - wiggle)
        params = DetectionParams()
        fa, fb = embed(a, params), embed(b, params)
        assert fa.breakpoints == fb.breakpoints == (0.0, 100.0, 199.0)
        assert are_equivalent(fa, fb)

    def test_tiny_value_difference_is_not_equivalent(self):
        f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
        g = StepFunction((0.0, 0.5, 1.0), (1.0 + 1e-6, 2.0))
        assert not are_equivalent(f, g)
        assert lp_distance(f, g, 1) > 0.0

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            are_equivalent(StepFunction.constant(1.0, 1.0), StepFunction.constant(1.0, 2.0))


class TestEmbedding:
    def test_constant_series(self):
        ts = TimeSeries("c", np.full(120, 2.5))
        assert embed(ts, DetectionParams()) == StepFunction((0.0, 119.0), (2.5,))

    def test_noiseless_two_level_series(self):
        values = np.concatenate([np.zeros(200), np.full(200, 10.0)])
        f = embed(TimeSeries("j", values), DetectionParams())
        assert len(f.breakpoints) == 3
        assert 195 <= f.breakpoints[1] <= 205
        assert f.values == pytest.approx((0.0, 10.0), abs=1e-9)

    def test_detected_equal_means_merge(self):
        values = np.concatenate([np.zeros(100), np.ones(200), np.zeros(100)])
        f = embed(TimeSeries("bump", values), DetectionParams())
        assert f == StepFunction((0.0, 100.0, 300.0, 399.0), (0.0, 1.0, 0.0))

    def test_from_changepoints_merges_equal_segments(self):
        ts = TimeSeries("sym", np.concatenate([np.full(50, 3.0), np.full(50, 3.0)]))
        f = from_changepoints(ts, ChangePointSet((50,)), Attribute.MEAN)
        assert f == StepFunction((0.0, 99.0), (3.0,))


class TestMagnitude:
    def test_constant_series(self):
        ts = TimeSeries("c", np.full(100, -4.0))
        for p in P_GRID:
            assert magnitude(ts, DetectionParams(), p) == pytest.approx(4.0, abs=1e-12)

    def test_magnitude_is_distance_to_zero_series(self):
        rng = np.random.default_rng(14)
        values = np.concatenate([rng.normal(0, 1, 150), rng.normal(8, 1, 150)])
        ts = TimeSeries("x", values)
        zero = TimeSeries("0", np.zeros(300))
        params = DetectionParams()
        assert embed(zero, params) == StepFunction.constant(0.0, 299.0)
        for p in (1.0, 2.0):
            assert magnitude(ts, params, p) == pytest.approx(
                lp_distance(embed(ts, params), embed(zero, params), p), rel=1e-12
            )

    def test_equal_embeddings_equal_magnitudes(self):
        a = TimeSeries("a", np.concatenate([np.zeros(80), np.full(80, 6.0)]))
        b = TimeSeries("b", np.concatenate([np.zeros(80), np.full(80, 6.0)]))
        params = DetectionParams()
        assert embed(a, params) == embed(b, params)
        assert magnitude(a, params, 1) == magnitude(b, params, 1)


class TestPerturbationBound:
    def test_bound_and_exactness_at_step_level(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            h = float(rng.uniform(1, 10))
            f = random_step_function(rng, h=h)
            g = random_step_function(rng, h=h)
            t0 = float(rng.uniform(0, 0.8 * h))
            delta = float(rng.uniform(1e-3, h - t0))
            eps = float(rng.uniform(-3, 3))
            fp = add_bump(f, t0, delta, eps)
            for p in P_GRID:
                bound = abs(eps) * (delta / h) ** (0.0 if p == math.inf else 1.0 / p)
                assert abs(lp_distance(fp, g, p) - lp_distance(f, g, p)) <= bound + 1e-9
                assert abs(lp_norm(fp, p) - lp_norm(f, p)) <= bound + 1e-9
            assert lp_distance(fp, f, 1) == pytest.approx(abs(eps) * delta / h, rel=1e-12)

    def test_normalized_l2_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            h = float(rng.uniform(0.5, 4))
            u = random_step_function(rng, h=h)
            v = random_step_function(rng, h=h)
            if lp_norm(u, 2) == 0 or lp_norm(v, 2) == 0:
                continue
            lhs = lp_distance(normalize(u, 2), normalize(v, 2), 2) ** 2
            rhs = 2.0 - 2.0 * inner_product(u, v) / (lp_norm(u, 2) * lp_norm(v, 2))
            assert lhs == pytest.approx(rhs, abs=1e-10)
