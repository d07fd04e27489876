import hashlib
import json

import numpy as np
import pytest

from stepdist import changepoint as changepoint_module
from stepdist import (
    Attribute,
    ChangePointSet,
    DetectionParams,
    TimeSeries,
    detect_change_points,
    segment_statistics,
)
from stepdist.cli import main
from stepdist.errors import DegenerateSegment, SeriesTooShort
from stepdist.synthetic import benchmark_suite

from tests.helpers import f_scan_oracle, full_permutation_detector, t_scan_oracle


def jump_series(rng, n=400, at=200, size=10.0, sigma=1.0, sid="x"):
    values = rng.standard_normal(n) * sigma
    values[at:] += size
    return TimeSeries(sid, values)


class TestDetect:
    def test_constant_series_yields_empty(self):
        ts = TimeSeries("c", np.full(200, 5.0))
        assert detect_change_points(ts, DetectionParams()).points == ()

    def test_mean_jump_found_at_scan_argmax(self):
        rng = np.random.default_rng(11)
        ts = jump_series(rng)
        cps = detect_change_points(ts, DetectionParams(significance=0.05))
        assert len(cps.points) >= 1
        near = [c for c in cps.points if 195 <= c <= 205]
        assert len(near) == 1
        assert near[0] == t_scan_oracle(ts.values, 30)

    def test_variance_jump_found(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(0, 1, 200), rng.normal(0, 5, 200)])
        ts = TimeSeries("v", values)
        cps = detect_change_points(ts, DetectionParams(attribute=Attribute.VARIANCE))
        near = [c for c in cps.points if 190 <= c <= 210]
        assert len(near) == 1
        assert near[0] == f_scan_oracle(ts.values, 30)

    def test_deterministic_bit_for_bit(self):
        rng = np.random.default_rng(7)
        ts = jump_series(rng, size=3.0)
        params = DetectionParams(seed=123)
        assert detect_change_points(ts, params) == detect_change_points(ts, params)

    def test_spacing_respects_min_segment(self):
        rng = np.random.default_rng(2)
        values = np.concatenate(
            [rng.normal(m, 1.0, 120) for m in (0.0, 6.0, 0.0, 6.0, 12.0)]
        )
        ts = TimeSeries("m", values)
        params = DetectionParams(min_segment=40)
        cps = detect_change_points(ts, params)
        bounds = [0, *cps.points, ts.h]
        gaps = [b - a for a, b in zip(bounds, bounds[1:])]
        gaps[-1] += 1  # last segment includes index H
        assert all(g >= params.min_segment for g in gaps)

    def test_too_short_series_rejected(self):
        ts = TimeSeries("s", np.arange(20.0))
        with pytest.raises(SeriesTooShort):
            detect_change_points(ts, DetectionParams(min_segment=30))

    def test_mean_detection_shift_invariant(self):
        rng = np.random.default_rng(21)
        ts = jump_series(rng, size=5.0)
        shifted = TimeSeries("x", ts.values + 1000.0)
        params = DetectionParams()
        assert detect_change_points(ts, params) == detect_change_points(shifted, params)

    @pytest.mark.parametrize("factor", [2.0, -1.0, 3.0, 1e160, 1e-160, 1e300, 1e-300])
    def test_mean_detection_scale_invariant(self, factor):
        # Sums of squares of the raw values overflow at 1e160 and lose all
        # precision at 1e-160.
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 1, 200), rng.normal(5, 1, 200)])
        params = DetectionParams()
        cps = detect_change_points(TimeSeries("m", values), params)
        assert cps.points == (200,)
        assert detect_change_points(TimeSeries("m", values * factor), params) == cps

    @pytest.mark.parametrize("factor", [2.0, -1.0, 3.0, 1e160, 1e-160, 1e300, 1e-300])
    def test_variance_detection_scale_invariant(self, factor):
        rng = np.random.default_rng(31)
        values = np.concatenate([rng.normal(0, 1, 150), rng.normal(0, 4, 150)])
        ts = TimeSeries("v", values)
        scaled = TimeSeries("v", values * factor)
        params = DetectionParams(attribute=Attribute.VARIANCE)
        assert detect_change_points(ts, params) == detect_change_points(scaled, params)

    def test_detection_rate_monotone_in_jump_size(self):
        params = DetectionParams()
        rates = []
        for size in (0.5, 1.0, 2.0, 4.0):
            hits = 0
            for seed in range(100):
                rng = np.random.default_rng((97, seed))
                ts = jump_series(rng, n=200, at=100, size=size)
                cps = detect_change_points(ts, params)
                hits += any(90 <= c <= 110 for c in cps.points)
            rates.append(hits / 100)
        assert all(b >= a - 0.05 for a, b in zip(rates, rates[1:]))
        assert rates[-1] > rates[0]


def full_test(ts, params):
    return full_permutation_detector(
        ts.values,
        params.attribute.value,
        params.significance,
        params.min_segment,
        params.permutations,
        params.seed,
    )


def random_series(seed, n):
    """Noise of random scale with 0-3 random mean shifts."""
    rng = np.random.default_rng((41, seed))
    values = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
    for c in rng.integers(10, n - 10, size=int(rng.integers(0, 4))):
        values[c:] += rng.normal(0.0, 2.0)
    return TimeSeries(f"r{seed}", values)


class TestSequentialCalibration:
    """The block-wise, early-stopping test keeps every decision of the full test."""

    @pytest.mark.parametrize("attribute", list(Attribute))
    def test_committed_suite_matches_full_test(self, attribute):
        params = DetectionParams(attribute=attribute)
        for ts in benchmark_suite():
            assert detect_change_points(ts, params).points == full_test(ts, params)

    @pytest.mark.parametrize(
        "significance, permutations",
        [
            (s, b)
            for s in (0.01, 0.05, 0.1, 0.2)
            for b in (15, 16, 17, 199, 999)
            if s >= 1 / (b + 1)  # smaller levels are rejected by DetectionParams
        ],
    )
    def test_random_series_match_full_test(self, significance, permutations):
        for seed in range(4):
            ts = random_series(seed, n=int(np.random.default_rng(seed).integers(60, 400)))
            for attribute in Attribute:
                params = DetectionParams(
                    attribute=attribute,
                    significance=significance,
                    min_segment=15,
                    permutations=permutations,
                    seed=seed,
                )
                assert detect_change_points(ts, params).points == full_test(ts, params)

    @pytest.mark.parametrize("significance", [0.5, 0.9])
    def test_single_permutation_matches_full_test(self, significance):
        for seed in range(6):
            ts = random_series(seed, n=150)
            params = DetectionParams(significance=significance, permutations=1, min_segment=10, seed=seed)
            assert detect_change_points(ts, params).points == full_test(ts, params)

    @pytest.mark.parametrize(
        "significance, permutations",
        # p-values (1 + k) / (B + 1) that equal the level exactly
        [(0.05, 199), (0.07, 99), (0.1, 999), (0.3, 9)],
    )
    def test_level_on_the_p_value_grid_matches_full_test(self, significance, permutations):
        for seed in range(6):
            ts = random_series(seed, n=200)
            params = DetectionParams(
                significance=significance, permutations=permutations, min_segment=20, seed=seed
            )
            assert detect_change_points(ts, params).points == full_test(ts, params)

    @pytest.mark.parametrize("attribute", list(Attribute))
    def test_length_exactly_twice_min_segment(self, attribute):
        rng = np.random.default_rng(8)
        values = np.concatenate([rng.normal(0, 1, 30), rng.normal(8, 6, 30)])
        ts = TimeSeries("w", values)
        params = DetectionParams(attribute=attribute)
        cps = detect_change_points(ts, params)
        assert cps.points == full_test(ts, params) == (30,)

    @pytest.mark.parametrize(
        "values",
        [
            np.full(120, 3.0),  # every statistic 0 (mean) or 1 (variance)
            np.r_[np.zeros(60), np.ones(60)],  # flat halves: +inf at the true split
            np.r_[np.zeros(60), np.random.default_rng(3).normal(0, 1, 60)],  # one flat side
            np.r_[np.full(50, 2.0), np.random.default_rng(4).normal(0, 1, 70)],
        ],
    )
    @pytest.mark.parametrize("attribute", list(Attribute))
    def test_flat_windows_match_full_test(self, values, attribute):
        ts = TimeSeries("f", values)
        params = DetectionParams(attribute=attribute, min_segment=10)
        assert detect_change_points(ts, params).points == full_test(ts, params)

    def test_blockwise_permutation_equals_one_shot_stream(self):
        w = np.random.default_rng(0).standard_normal(300)
        one_shot = np.tile(w, (199, 1))
        changepoint_module._window_rng(5, 0, 300).permuted(one_shot, axis=1, out=one_shot)
        rng = changepoint_module._window_rng(5, 0, 300)
        blocks = []
        for rows in (16, 32, 64, 1, 3, 83):
            block = np.tile(w, (rows, 1))
            rng.permuted(block, axis=1, out=block)
            blocks.append(block)
        assert np.array_equal(np.vstack(blocks), one_shot)

    def test_stops_early_and_bounds_blocks(self, monkeypatch):
        blocks = []
        real = changepoint_module._scan

        def recording(rows, *args):
            blocks.append(rows.shape)
            return real(rows, *args)

        monkeypatch.setattr(changepoint_module, "_scan", recording)
        params = DetectionParams(min_segment=100)
        # Pure noise: the split is rejected long before all 199 permutations.
        noise = TimeSeries("n", np.random.default_rng(1).standard_normal(3000))
        assert detect_change_points(noise, params).points == ()
        observed, *perms = blocks  # the window's own scan comes first
        assert observed == (1, 3000)
        assert sum(r for r, _ in perms) < params.permutations
        # A 10-sigma jump: accepted once the last 9 permutations (p <= 10/200
        # even if all exceed) cannot change the decision.
        blocks.clear()
        jump = TimeSeries("j", np.r_[np.zeros(1500), np.full(1500, 10.0)] + noise.values)
        assert detect_change_points(jump, params).points == (1500,)
        top = [r for r, n in blocks if n == 3000][1:]
        assert sum(top) == params.permutations - 9
        assert top[0] == changepoint_module._FIRST_BLOCK_ROWS
        assert all(r * n <= changepoint_module._BLOCK_CELLS for r, n in blocks)


# Every power of two from the smallest subnormal to the largest normal double:
# under the mean attribute about a thousand accepted splits nest inside one another.
DEEP = 2.0 ** np.arange(-1074, 1024)


class TestDeepSegmentation:
    # sha256 of the JSON list of change points that the recursive detector
    # this loop replaced returned with a raised recursion limit.
    @pytest.mark.parametrize(
        "attribute,min_segment,count,digest",
        [
            ("mean", 2, 1034, "6d8646637f7999e8ce1028df56a8def089fc7bf7681f225ea20c3b57ac116327"),
            ("variance", 3, 0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
        ],
    )
    def test_nested_splits_need_no_recursion(self, attribute, min_segment, count, digest):
        params = DetectionParams(attribute=attribute, min_segment=min_segment, permutations=19)
        points = detect_change_points(TimeSeries("deep", DEEP), params).points
        assert len(points) == count
        assert hashlib.sha256(json.dumps(list(points)).encode()).hexdigest() == digest

    def test_run_on_deep_series(self, tmp_path):
        src = tmp_path / "deep.csv"
        step = (np.arange(DEEP.size) >= DEEP.size // 2).astype(float)
        rows = (f"{t},{v!r},{s!r}\n" for t, (v, s) in enumerate(zip(DEEP.tolist(), step.tolist())))
        src.write_text("t,deep,step\n" + "".join(rows))
        argv = ["run", "--series", str(src), "--out", str(tmp_path / "o"), "--min-segment", "2", "--permutations", "19"]
        assert main(argv) == 0
        assert len(list((tmp_path / "o").iterdir())) == 16


class TestSegmentStatistics:
    def test_mean_halves(self):
        ts = TimeSeries("a", [1.0, 1.0, 2.0, 2.0])
        assert segment_statistics(ts, ChangePointSet((2,)), Attribute.MEAN) == (1.0, 2.0)

    def test_mean_no_breaks(self):
        ts = TimeSeries("z", [0.0, 0.0, 0.0, 0.0])
        assert segment_statistics(ts, ChangePointSet(()), Attribute.MEAN) == (0.0,)

    def test_unbiased_variance_halves(self):
        ts = TimeSeries("v", [0.0, 2.0, 0.0, 2.0, 5.0, 9.0, 5.0, 9.0])
        stats = segment_statistics(ts, ChangePointSet((4,)), Attribute.VARIANCE)
        assert stats == pytest.approx((4.0 / 3.0, 16.0 / 3.0), abs=1e-12)

    def test_last_segment_includes_horizon(self):
        ts = TimeSeries("h", [0.0, 0.0, 0.0, 0.0, 9.0])
        assert segment_statistics(ts, ChangePointSet((3,)), Attribute.MEAN) == (0.0, 4.5)

    def test_degenerate_variance_segment(self):
        ts = TimeSeries("d", [1.0, 2.0, 3.0, 4.0, 5.0])
        with pytest.raises(DegenerateSegment):
            segment_statistics(ts, ChangePointSet((1,)), Attribute.VARIANCE)

    def test_interior_bounds_checked(self):
        ts = TimeSeries("b", [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            segment_statistics(ts, ChangePointSet((2,)), Attribute.MEAN)


class TestValidation:
    def test_series_needs_two_points(self):
        with pytest.raises(ValueError):
            TimeSeries("one", [1.0])

    def test_series_needs_finite_values(self):
        with pytest.raises(ValueError):
            TimeSeries("nan", [0.0, np.nan, 1.0])

    def test_change_points_strictly_increasing(self):
        with pytest.raises(ValueError):
            ChangePointSet((3, 3))

    def test_significance_range(self):
        with pytest.raises(ValueError):
            DetectionParams(significance=1.5)

    def test_min_segment_floor_depends_on_attribute(self):
        DetectionParams(attribute=Attribute.MEAN, min_segment=2)
        with pytest.raises(ValueError):
            DetectionParams(attribute=Attribute.VARIANCE, min_segment=2)

    def test_permutations_positive(self):
        with pytest.raises(ValueError):
            DetectionParams(permutations=0)

    def test_significance_below_smallest_p_value_rejected(self):
        with pytest.raises(ValueError, match="never"):
            DetectionParams(significance=0.001, permutations=199)
        DetectionParams(significance=0.001, permutations=999)
        DetectionParams(significance=1 / 200, permutations=199)

    def test_unreachable_significance_is_config_error(self, tmp_path):
        src = tmp_path / "s.csv"
        src.write_text("t,x,y\n" + "\n".join(f"{t},{t % 7},{t % 5}" for t in range(100)) + "\n")
        code = main(["run", "--series", str(src), "--out", str(tmp_path / "o"), "--significance", "0.001"])
        assert code == 2
