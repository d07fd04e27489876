import dataclasses
import functools
import gc
import hashlib
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from stepdist import changepoint as changepoint_module
from stepdist import (
    Attribute,
    ChangePointSet,
    DetectionParams,
    TimeSeries,
    detect_change_points,
    from_changepoints,
    segment_statistics,
)
from stepdist.cli import main
from stepdist.errors import DegenerateSegment, SeriesTooShort
from stepdist.synthetic import benchmark_suite

from tests.helpers import (
    _exact_split_stats,
    _fraction_ge,
    _full_scan_profile,
    exact_permutation_detector,
    f_scan_oracle,
    full_permutation_detector,
    reference_split_sizes,
    t_scan_oracle,
)


def row_stores():
    """The whole-series and sub-window row stores."""
    return changepoint_module._WHOLE_ROWS, changepoint_module._SUB_ROWS


def limit_rows(monkeypatch, store, cells, largest=None):
    """Give ``store`` a budget of ``cells`` and keep windows of at most ``largest`` cells (``cells`` by default)."""
    monkeypatch.setattr(store, "max_cells", cells)
    monkeypatch.setattr(store, "largest", cells if largest is None else largest)


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
        for n, dtype in ((256, np.uint8), (300, np.uint16)):
            w = np.random.default_rng(0).standard_normal(n)
            # The window's own stream permuting its values, all 199 rows at once.
            one_shot = np.tile(w, (199, 1))
            changepoint_module._window_rng(5, 0, n).permuted(one_shot, axis=1, out=one_shot)
            # The whole-series window's kept rows, and the same window's rows streamed.
            kept = changepoint_module._WHOLE_ROWS.rows(5, 0, n, 199)
            assert kept._table.dtype == dtype
            streamed = changepoint_module._WindowRows(5, 0, n, 199, keep=False)
            assert streamed._table is None
            for rows in (kept, streamed):
                done = 0
                for take in (16, 32, 64, 1, 3, 83):
                    index = rows.read(done, np.empty((take, n), np.intp))
                    assert np.array_equal(w.take(index), one_shot[done : done + take])
                    done += take
                assert done == 199

    # At b = 199 the sub-window store keeps a window of up to 658 samples
    # (130,942 cells, at most its largest, 2^17); one of 659 streams.
    @pytest.mark.parametrize(
        "lo, hi, dtype", [(40, 296, np.uint8), (7, 307, np.uint16), (5, 663, np.uint16), (5, 664, None)]
    )
    def test_lazy_rows_equal_one_shot_stream(self, lo, hi, dtype):
        w = np.random.default_rng(1).standard_normal(hi - lo)
        one_shot = np.tile(w, (199, 1))
        changepoint_module._window_rng(9, lo, hi).permuted(one_shot, axis=1, out=one_shot)
        cache = changepoint_module._SUB_ROWS
        cache.clear()
        rows = cache.rows(9, lo, hi, 199)
        assert ((9, lo, hi, 199) in cache.entries) == (dtype is not None)
        if dtype is None:
            # Streamed rows are read once, in order, over uneven blocks.
            assert rows._table is None
            reads = ((0, 3), (3, 10), (10, 11), (11, 40), (40, 41), (41, 150), (150, 199))
        else:
            # Uneven extensions, re-reads of drawn rows, and reads that reach past them.
            assert rows._table.dtype == dtype
            reads = ((0, 3), (0, 10), (10, 11), (5, 40), (40, 41), (2, 150), (150, 199), (0, 199))
        for start, stop in reads:
            got = rows.read(start, np.empty((stop - start, hi - lo), np.intp))
            assert np.array_equal(w.take(got), one_shot[start:stop])
        cache.clear()

    @pytest.mark.parametrize(
        "attribute, levels", [(Attribute.MEAN, [0.0, 2.0, 8.0, 6.0]), (Attribute.VARIANCE, [1.5, 1.0, 8.0, 4.0])]
    )
    def test_sub_windows_at_the_cache_edge_match_full_test(self, attribute, levels, monkeypatch):
        # 1317 samples with a shift at every quarter, the largest in the
        # middle: the first split leaves (0, 658), whose rows are kept, and
        # (658, 1317), whose rows stream, and both split again.
        rng = np.random.default_rng(43)
        level = np.repeat(levels, [329, 329, 330, 329])
        noise = rng.standard_normal(1317)
        ts = TimeSeries("edge", noise + level if attribute is Attribute.MEAN else noise * level)
        params = DetectionParams(attribute=attribute, min_segment=30)
        cache = changepoint_module._SUB_ROWS
        cache.clear()
        windows = []
        real = cache.rows

        def recording(seed, lo, hi, b):
            rows = real(seed, lo, hi, b)
            windows.append((lo, hi, rows._table is not None))
            return rows

        monkeypatch.setattr(cache, "rows", recording)
        points = detect_change_points(ts, params).points
        assert points == full_test(ts, params)
        assert windows[0] == (0, 658, True) and (658, 1317, False) in windows
        assert all(kept == (hi - lo <= 658) for lo, hi, kept in windows)
        assert any(c < 658 for c in points) and any(c > 658 for c in points)
        cache.clear()

    def test_stops_early_and_bounds_blocks(self, monkeypatch):
        # Gathered blocks, not scans: certified mean rows never reach ``_scan``.
        blocks, scans = [], []
        gather, scan = changepoint_module._Window.exceedances, changepoint_module._scan

        def gathering(window, index, *args):
            blocks.append(index.shape)
            return gather(window, index, *args)

        def scanning(rows, *args):
            scans.append(rows.shape)
            return scan(rows, *args)

        monkeypatch.setattr(changepoint_module._Window, "exceedances", gathering)
        monkeypatch.setattr(changepoint_module, "_scan", scanning)
        params = DetectionParams(min_segment=100)
        # Pure noise: the split is rejected long before all 199 permutations.
        noise = TimeSeries("n", np.random.default_rng(1).standard_normal(3000))
        assert detect_change_points(noise, params).points == ()
        assert scans[0] == (1, 3000)  # the window's own scan comes first
        assert sum(r for r, _ in blocks) < params.permutations
        # A 10-sigma jump: accepted once the last 9 permutations (p <= 10/200
        # even if all exceed) cannot change the decision.
        blocks.clear()
        scans.clear()
        jump = TimeSeries("j", np.r_[np.zeros(1500), np.full(1500, 10.0)] + noise.values)
        assert detect_change_points(jump, params).points == (1500,)
        top = [r for r, n in blocks if n == 3000]
        assert sum(top) == params.permutations - 9
        assert top[0] == changepoint_module._FIRST_BLOCK_ROWS
        assert all(r * n <= changepoint_module._BLOCK_CELLS[Attribute.MEAN] for r, n in blocks)
        # Every permutation row of the whole window is certified, so only its observed row is scanned.
        assert [shape for shape in scans if shape[1] == 3000] == [(1, 3000)]
        # The variance cap binds before the first block's 16 rows: 2^15 // 3000 = 10.
        blocks.clear()
        params = DetectionParams(attribute=Attribute.VARIANCE, min_segment=100)
        spread = TimeSeries("v", noise.values * np.r_[np.ones(1500), np.full(1500, 4.0)])
        assert 1500 in detect_change_points(spread, params).points
        top = [r for r, n in blocks if n == 3000]
        assert sum(top) == params.permutations - 9
        cap = changepoint_module._BLOCK_CELLS[Attribute.VARIANCE]
        assert set(top) == {cap // 3000}
        assert all(r * n <= cap for r, n in blocks)


def exact_maximum(values, min_segment, attribute="mean"):
    """The largest exact t^2 (mean) or F (variance) over the admissible splits of ``values``, a fraction (num, den)."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = math.lcm(*(d for _, d in ratios))
    stats = _exact_split_stats([num * (den // d) for num, d in ratios], min_segment, attribute)
    best = stats[0]
    for s in stats[1:]:
        if not _fraction_ge(best, s):
            best = s
    return best


def certification_cases():
    """(kind, series, params) under the mean attribute: ties, extreme values, flat windows and extreme scales.

    Rows are certified in windows whose observed score stands well clear of
    the permutations', so most series carry a planted shift.
    """
    cases = []
    for seed in range(8):
        rng = np.random.default_rng((89, seed))
        n = int(rng.integers(150, 250))
        # Offsets far above the spread make the centring round coarsely, up
        # to values one ulp apart at 2^52.
        offset = (0.0, 1e6, 2.0**44, 2.0**52)[seed % 4]
        x = rng.integers(0, 3, n) + 2 * (np.arange(n) >= int(rng.integers(40, n - 40))) + offset
        cases.append(("ties", x, DetectionParams(min_segment=int(rng.integers(2, 6)), significance=0.2, seed=seed)))
    for seed in range(4):
        # Two values only, so runs of equal values, each adding one value's magnitude, are common.
        rng = np.random.default_rng((97, seed))
        x = (rng.random(200) < np.repeat([0.2, 0.8], 100)).astype(float)
        cases.append(("two_values", x, DetectionParams(min_segment=2, significance=0.5, seed=seed)))
    noise = np.random.default_rng(3).normal(0, 1, 100)
    for x in (np.full(200, 3.0), np.r_[np.zeros(100), np.ones(100)], np.r_[np.zeros(100), noise]):
        cases.append(("flat", x, DetectionParams(min_segment=5, seed=1)))
    for factor in (2.0**1000, 2.0**-1000):
        for seed in range(2):
            x = np.random.default_rng((101, seed)).standard_normal(240) + np.repeat([0.0, 3.0], 120)
            cases.append(("scaled", x * factor, DetectionParams(min_segment=10, seed=seed)))
    return cases


def variance_certification_cases():
    """(kind, series, params) under the variance attribute, of the kinds of ``certification_cases``.

    The variance bound needs long runs of splits on each side, so windows
    are longer and min_segment larger; most series carry a planted change
    of spread.
    """
    variance = Attribute.VARIANCE
    cases = []
    for seed in range(8):
        rng = np.random.default_rng((89, seed))
        n = int(rng.integers(300, 400))
        offset = (0.0, 1e6, 2.0**44, 2.0**52)[seed % 4]
        spread = 1 + 3 * (np.arange(n) >= int(rng.integers(100, n - 100)))
        x = rng.integers(0, 3, n) * spread + offset
        params = DetectionParams(variance, significance=0.2, min_segment=int(rng.integers(30, 50)), seed=seed)
        cases.append(("ties", x, params))
    for seed in range(4):
        rng = np.random.default_rng((97, seed))
        x = (rng.random(400) < np.repeat([0.5, 0.04], 200)).astype(float)
        cases.append(("two_values", x, DetectionParams(variance, significance=0.5, min_segment=40, seed=seed)))
    noise = np.random.default_rng(3).normal(0, 1, 400)
    flat = (
        np.r_[np.zeros(60), noise * np.repeat([1.0, 4.0], 200)],  # one flat side, then a change of spread
        np.r_[np.zeros(100), np.ones(100)],  # both sides flat at the true split, +inf elsewhere
        np.r_[np.full(100, 2.0), noise[:100]],  # an observed F of +inf
    )
    for x in flat:
        cases.append(("flat", x, DetectionParams(variance, min_segment=40, seed=1)))
    for factor in (2.0**1000, 2.0**-1000):
        for seed in range(2):
            x = np.random.default_rng((101, seed)).standard_normal(400) * np.repeat([1.0, 4.0], 200)
            cases.append(("scaled", x * factor, DetectionParams(variance, min_segment=40, seed=seed)))
    return cases


class TestRowCertification:
    """Rows certified from their sums at run starts cannot reach the observed score.

    Certified rows skip the scan, so the exceedances of every block, and
    with them the stopping block of every window, equal those of a run that
    certifies nothing.
    """

    @pytest.mark.parametrize("path", ["shared", "streamed"])
    def test_certified_rows_stay_below_the_exact_observed_score(self, path, monkeypatch):
        if path == "streamed":
            for store in row_stores():
                limit_rows(monkeypatch, store, 0)
        certified = []
        real = changepoint_module._Window.certified

        def recording(window, block):
            mask = real(window, block)
            certified.append((window, block[mask].copy()))
            return mask

        monkeypatch.setattr(changepoint_module._Window, "certified", recording)
        kinds = ["ties", "two_values", "flat", "scaled"]
        checked = dict.fromkeys([(a, k) for a in ("mean", "variance") for k in kinds], 0)
        for kind, x, params in certification_cases() + variance_certification_cases():
            certified.clear()
            detect_change_points(TimeSeries("c", x), params)
            ms, attribute = params.min_segment, params.attribute.value
            for window, rows in certified:
                if not len(rows):
                    continue
                # Each certified row permutes the centred window c; map it back onto w.
                uncentre = dict(zip(window.c.tolist(), window.w.tolist()))
                assert len(uncentre) == len(set(window.w.tolist()))
                observed = exact_maximum(window.w.tolist(), ms, attribute)
                for row in rows.tolist():
                    values = [uncentre[v] for v in row]
                    top = exact_maximum(values, ms, attribute)
                    assert not _fraction_ge(top, observed)
                    if attribute == "variance":
                        # Every split is resolved, so the row's score is its exact F.
                        sizes = changepoint_module._split_sizes(len(values), ms)
                        var_l, var_r, totq = changepoint_module._side_variances(np.array([values]), ms, sizes)
                        floor = changepoint_module._variance_floor(len(values), ms)
                        assert (np.minimum(var_l, var_r) > floor * totq).all()
                    checked[attribute, kind] += 1
        assert all(checked.values()), checked

    @pytest.mark.parametrize(
        "offset, extra, n, ones",
        [(0.0, 0, 37, 16), (0.0, 0, 221, 62), (2.0**36, 1, 213, 60), (2.0**40, 1, 213, 60), (2.0**36, 2, 229, 64)],
    )
    def test_tied_rows_at_the_edge_are_not_certified(self, offset, extra, n, ones):
        # Values -1, 0 and 1 (``ones`` of each sign, ``extra`` more 1s), the
        # last min_segment of them 1 and the 7 before them -1: the maximum is
        # at the last split, which ends the last run of 8, and the left sum
        # grows by the largest magnitude at each of the run's 7 steps, so the
        # bound is tight. The window itself ties its observed score. An extra
        # 1 makes the float mean, and with it the centring, round at large
        # offsets, where the rounding band of the observed score is wide.
        ms = 15
        assert (n - 2 * ms) % 8 == 7
        prefix = np.r_[np.ones(ones - ms + extra), -np.ones(ones - 7), np.zeros(n - 2 * ones - extra)]
        x = np.r_[np.random.default_rng(5).permutation(prefix), -np.ones(7), np.ones(ms)] + offset
        window = changepoint_module._Window(x, ms, Attribute.MEAN)
        assert window.best + ms == n - ms and window.runs is not None
        assert not window.certified(window.c[np.newaxis, :])[0]
        # It misses the last run's limit by less than one value.
        left = abs(np.cumsum(window.c)[n - ms - 8])
        assert 0.0 <= left - window.runs[-1] < np.abs(window.c).max()

    @pytest.mark.parametrize("offset, n, ms", [(0.0, 200, 40), (0.0, 416, 64), (2.0**44, 200, 40), (2.0**52, 416, 64)])
    def test_tied_variance_row_at_the_edge_is_not_certified(self, offset, n, ms):
        # Values -2 and 2, as many of each, then min_segment values of -1, 0
        # and 1, as many -1s as 1s: F is largest at the last split, the only
        # split of the last run as n - 2 min_segment is a multiple of 8, and
        # the left sum there is 0, so the run's bound is tight. The window
        # itself ties its observed score.
        assert (n - 2 * ms) % 8 == 0
        rng = np.random.default_rng(7)
        left = rng.permutation(np.repeat([-2.0, 2.0], (n - ms) // 2))
        right = rng.permutation(np.r_[-np.ones(4), np.ones(4), np.zeros(ms - 8)])
        window = changepoint_module._Window(np.r_[left, right] + offset, ms, Attribute.VARIANCE)
        assert window.best + ms == n - ms and window.runs is not None
        assert not window.certified(window.c[np.newaxis, :])[0]
        # It misses the last run's bound, var_l_hi < low_obs var_r_lo, by
        # less than one value's square.
        runs, q = window.runs, np.cumsum(window.c**2)
        bound = (abs(window.c[: n - ms].sum()) + runs.span[-1]) ** 2
        right_lo = runs.total_lo - q[n - ms - 1] - bound * runs.right[-1]
        miss = q[n - ms - 1] + runs.eq - right_lo * runs.f_l[-1]
        assert 0.0 <= miss < np.abs(window.c).max() ** 2

    @pytest.mark.parametrize(
        "values",
        [
            np.r_[np.zeros(100), np.random.default_rng(3).normal(0, 1, 100)],  # +inf: one flat side
            np.r_[np.zeros(100), np.ones(100)],  # +inf away from the split where both sides are flat
            np.full(200, 3.0),  # 1: both sides flat everywhere
        ],
    )
    def test_observed_variance_score_of_inf_or_one_certifies_nothing(self, values):
        # F is at least 1, and +inf is an unresolved split's own score, so
        # no bound is built that could meet an inf * 0 or a nan.
        window = changepoint_module._Window(values, 20, Attribute.VARIANCE)
        assert not 1.0 < window.low_obs < math.inf
        assert window.runs is None
        params = DetectionParams(Attribute.VARIANCE, min_segment=20)
        assert detect_change_points(TimeSeries("f", values), params).points == full_test(TimeSeries("f", values), params)

    def test_tied_row_among_certified_rows_is_decided_on_its_own_values(self):
        # Two random permutations of a window with a clear split, which are
        # certified, and the window itself between them, which ties the
        # observed score exactly and so counts as an exceedance.
        rng = np.random.default_rng(17)
        x = rng.standard_normal(200) + np.repeat([0.0, 4.0], 100)
        window = changepoint_module._Window(x, 10, Attribute.MEAN)
        index = np.array([rng.permutation(200), np.arange(200), rng.permutation(200)])
        assert window.certified(window.c.take(index)).tolist() == [True, False, True]
        assert window.exceedances(index) == 1

    @pytest.mark.parametrize("path", ["shared", "streamed"])
    def test_blocks_match_a_run_without_certification(self, path, monkeypatch):
        if path == "streamed":
            for store in row_stores():
                limit_rows(monkeypatch, store, 0)
        blocks = []
        real = changepoint_module._Window.exceedances

        def recording(window, index, *args):
            count = real(window, index, *args)
            blocks.append((window.w.size, index.shape, count))
            return count

        monkeypatch.setattr(changepoint_module._Window, "exceedances", recording)
        cases = [case[1:] for case in certification_cases() + variance_certification_cases()]
        for seed in range(4):
            cases.append((random_series(seed, n=400).values, DetectionParams(min_segment=15, seed=seed)))
            spread = np.random.default_rng((103, seed)).standard_normal(1200) * np.repeat([1.0, 2.5, 1.5], 400)
            cases.append((spread, DetectionParams(Attribute.VARIANCE, min_segment=60, seed=seed)))
        for x, params in cases:
            blocks.clear()
            points = detect_change_points(TimeSeries("c", x), params).points
            expected = blocks.copy()
            with monkeypatch.context() as patch:
                patch.setattr(changepoint_module, "_run_limits", lambda *args: None)
                patch.setattr(changepoint_module, "_variance_run_limits", lambda *args: None)
                patch.setattr(changepoint_module._Window, "certified", None)  # never called
                blocks.clear()
                assert detect_change_points(TimeSeries("c", x), params).points == points
            assert blocks == expected


def long_variance_collection(count=3):
    """``count`` series of 3000-4000 samples whose spread steps by at least x1.5 within 0.5-3, every 300 or more samples."""
    out = []
    for i in range(count):
        rng = np.random.default_rng((107, i))
        n = int(rng.integers(3000, 4001))
        breaks = np.sort(rng.choice(np.arange(300, n - 300, 300), size=int(rng.integers(2, 5)), replace=False))
        sigmas = [float(rng.uniform(0.5, 3.0))]
        while len(sigmas) <= breaks.size:
            sigma = float(rng.uniform(0.5, 3.0))
            if max(sigma, sigmas[-1]) >= 1.5 * min(sigma, sigmas[-1]):
                sigmas.append(sigma)
        scale = np.repeat(sigmas, np.diff(np.r_[0, breaks, n]))
        out.append(TimeSeries(f"long{i}", rng.standard_normal(n) * scale))
    return out


@functools.cache
def long_variance_expected(min_segment):
    params = DetectionParams(Attribute.VARIANCE, min_segment=min_segment)
    return [full_test(ts, params) for ts in long_variance_collection()]


class TestLongVarianceWindows:
    """Long variance windows, whose rows are mostly certified, keep the full test's change points."""

    @pytest.mark.parametrize("min_segment", [200, 250])
    @pytest.mark.parametrize("path", ["kept", "streamed"])
    def test_collection_matches_full_test(self, path, min_segment, monkeypatch):
        cells = 0 if path == "streamed" else 2**24
        for store in row_stores():
            limit_rows(monkeypatch, store, cells)
            store.clear()
        params = DetectionParams(Attribute.VARIANCE, min_segment=min_segment)
        certified = []
        real = changepoint_module._Window.certified

        def recording(window, block):
            mask = real(window, block)
            certified.append(int(mask.sum()))
            return mask

        monkeypatch.setattr(changepoint_module._Window, "certified", recording)
        found = [detect_change_points(ts, params).points for ts in long_variance_collection()]
        for store in row_stores():
            store.clear()
        assert found == long_variance_expected(min_segment)
        assert all(found) and sum(certified) > params.permutations


def same_length_collection(kind, count=8):
    """``count`` series of one length: mean shifts, variance shifts, or small integers that tie."""
    out = []
    for i in range(count):
        rng = np.random.default_rng((67, i))
        if kind == "mean":
            values = random_series(i, 300).values
        elif kind == "variance":
            values = rng.standard_normal(300) * np.repeat(rng.uniform(0.5, 4.0, 3), 100)
        else:
            values = rng.integers(0, 3, 60) + 1e6
        out.append(TimeSeries(f"{kind}{i}", values))
    return out


SHARED_CASES = {
    "mean": DetectionParams(min_segment=15, seed=3),
    "variance": DetectionParams(attribute=Attribute.VARIANCE, min_segment=15, seed=4),
    "integer": DetectionParams(min_segment=3, significance=0.2, seed=5),
}


class TestSharedWholeWindow:
    """The whole-series window gathers its permutations from one index table per collection."""

    @pytest.mark.parametrize("kind", list(SHARED_CASES))
    def test_collection_matches_unshared_permutations(self, kind, monkeypatch):
        params = SHARED_CASES[kind]
        series = same_length_collection(kind)
        decided = []
        real = changepoint_module._exact_scores

        def recording(row, *args):
            decided.append(row.copy())
            return real(row, *args)

        monkeypatch.setattr(changepoint_module, "_exact_scores", recording)
        shared = [detect_change_points(ts, params).points for ts in series]
        shared_decided = decided.copy()
        decided.clear()
        limit_rows(monkeypatch, changepoint_module._WHOLE_ROWS, 0)
        assert [detect_change_points(ts, params).points for ts in series] == shared
        assert len(decided) == len(shared_decided)
        assert all(np.array_equal(a, b) for a, b in zip(decided, shared_decided))
        assert any(shared)
        if kind == "integer":
            # Permuted rows of the whole window reach the exact re-decision.
            observed = [changepoint_module._unit_scaled(ts.values)[0] for ts in series]
            n = series[0].values.size
            assert any(
                row.size == n and not any(np.array_equal(row, o) for o in observed) for row in shared_decided
            )

    def test_collection_draws_the_table_once(self, monkeypatch):
        store = changepoint_module._WHOLE_ROWS
        params = SHARED_CASES["mean"]
        series = same_length_collection("mean")
        cells = params.permutations * series[0].values.size
        for cap, kept in ((cells, 1), (cells - 1, 0)):
            limit_rows(monkeypatch, store, cap)
            store.clear()
            for ts in series:
                detect_change_points(ts, params)
            assert (len(store.entries), store.hits) == (kept, kept * (len(series) - 1))

    def test_sub_windows_leave_the_whole_window_kept(self, monkeypatch):
        # Every series keeps more sub-window rows than the sub-window store
        # holds. In one store shared by every window they would evict the
        # whole-series rows before the next series reads them.
        params = DetectionParams()
        series = many_break_collection()
        n = series[0].values.size
        built = []
        real = changepoint_module._WindowRows

        class Recording(real):
            def __init__(self, seed, lo, hi, b, keep=True):
                built[-1].append((lo, hi, keep))
                super().__init__(seed, lo, hi, b, keep)

        monkeypatch.setattr(changepoint_module, "_WindowRows", Recording)
        for store in row_stores():
            store.clear()
        for ts in series:
            built.append([])
            detect_change_points(ts, params)
        kept = [
            sum(params.permutations * (hi - lo) for lo, hi, keep in windows if keep and hi - lo < n) for windows in built
        ]
        assert min(kept) > changepoint_module._SUB_ROWS.max_cells
        whole = [w for windows in built for w in windows if w[:2] == (0, n)]
        assert whole == [(0, n, True)]


def many_break_collection(count=6, n=2000):
    """``count`` series of ``n`` samples, each with 20 mean breaks of its own, at least 40 samples apart."""
    out = []
    for i in range(count):
        rng = np.random.default_rng((89, i))
        breaks = np.sort(rng.choice(np.arange(80, n - 79, 40), size=20, replace=False))
        levels = np.repeat(rng.normal(0.0, 3.0, 21), np.diff(np.r_[0, breaks, n]))
        out.append(TimeSeries(f"many{i}", rng.standard_normal(n) + levels))
    return out


def shared_break_collection(kind, count=10):
    """``count`` series of one length whose planted breaks sit at the same places, so sub-windows repeat."""
    out = []
    for i in range(count):
        rng = np.random.default_rng((83, i))
        if kind == "mean":
            values = rng.standard_normal(300) + np.repeat([0.0, 3.0, -1.0], 100)
        elif kind == "variance":
            values = rng.standard_normal(300) * np.repeat([1.0, 5.0, 1.0], 100)
        else:
            values = rng.integers(0, 3, 60) + np.repeat([0, 2, 0], 20) + 1e6
        out.append(TimeSeries(f"{kind}{i}", values))
    return out


def detect_in_order(series, params, order):
    """Change points of ``series``, detected in ``order`` and returned in input order."""
    found = {i: detect_change_points(series[i], params).points for i in order}
    return [found[i] for i in range(len(series))]


class TestSharedSubWindows:
    """Sub-windows share their permutation rows through one bounded cache, and no result changes."""

    @pytest.mark.parametrize("kind", list(SHARED_CASES))
    def test_collection_matches_uncached_rows(self, kind, monkeypatch):
        params = SHARED_CASES[kind]
        more = dataclasses.replace(params, permutations=2 * params.permutations + 1)
        series = shared_break_collection(kind)
        forward = list(range(len(series)))
        cache = changepoint_module._SUB_ROWS
        cache.clear()
        shared = detect_in_order(series, params, forward)
        assert cache.hits >= 1
        assert sum(map(len, shared)) >= len(series)
        shared_more = detect_in_order(series, more, forward)  # the same windows, still cached for ``params``
        for order in (forward[::-1], np.random.default_rng(2).permutation(forward).tolist()):
            cache.clear()
            assert detect_in_order(series, params, order) == shared
        limit_rows(monkeypatch, cache, 0)
        cache.clear()
        assert detect_in_order(series, params, forward) == shared
        assert detect_in_order(series, more, forward) == shared_more
        assert cache.hits == 0 and not cache.entries

    @pytest.mark.parametrize("kind", list(SHARED_CASES))
    def test_threads_detect_at_once(self, kind):
        params = SHARED_CASES[kind]
        series = shared_break_collection(kind)
        expected = [detect_change_points(ts, params).points for ts in series]
        changepoint_module._SUB_ROWS.clear()
        count = 4  # more threads than cores, all extending the same entries
        start = threading.Barrier(count)
        results = [None] * count

        def run(k):
            start.wait()
            results[k] = [detect_change_points(ts, params).points for ts in series]

        threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [expected] * count

    @pytest.mark.parametrize("budget", [2**19, 2**17])
    def test_cache_stays_within_budget(self, budget, monkeypatch):
        cache = changepoint_module._SUB_ROWS
        limit_rows(monkeypatch, cache, budget, budget // 4)
        cache.clear()
        admitted = []
        real = cache.rows

        def recording(seed, lo, hi, b):
            rows = real(seed, lo, hi, b)
            admitted.append((seed, lo, hi, b) in cache.entries)
            assert (rows._table is not None) == admitted[-1]
            return rows

        monkeypatch.setattr(cache, "rows", recording)
        for kind in ("mean", "variance"):
            for ts in shared_break_collection(kind):
                detect_change_points(ts, SHARED_CASES[kind])
                cells = [b * (hi - lo) for _, lo, hi, b in cache.entries]
                assert cache.cells == sum(cells) <= budget
                assert all(4 * c <= budget for c in cells)
                assert all(rows._table.size == c for rows, c in zip(cache.entries.values(), cells))
        # With the smaller budget, windows of 200 samples are too large to cache.
        assert all(admitted) == (budget == 2**19) and any(admitted)


def flat_left_block(rng):
    x = rng.standard_normal((6, 90))
    x[:, :40] = 0.75
    return x, 10


# Blocks for the variance kernel: (rows, min_segment) from a generator.
KERNEL_CASES = {
    "below_cap": lambda rng: (rng.standard_normal((4, 8000)), 500),  # 32,000 cells
    "above_cap": lambda rng: (rng.standard_normal((5, 8000)), 500),  # 40,000 cells
    "one_row_above_cap": lambda rng: (rng.standard_normal((1, 40000)), 1000),
    "one_flat_side": flat_left_block,
    "both_flat_sides": lambda rng: (np.tile(np.r_[np.full(45, -0.5), np.full(45, 0.5)], (3, 1)), 10),
    "all_zero": lambda rng: (np.zeros((3, 60)), 5),
    "integer": lambda rng: (rng.integers(0, 3, (16, 40)).astype(float), 3),
    "tiny": lambda rng: (changepoint_module._unit_scaled(rng.standard_normal((8, 120)) * 2.0**-1000)[0], 20),
    "huge": lambda rng: (changepoint_module._unit_scaled(rng.integers(-3, 4, (8, 120)) * 2.0**1000)[0], 20),
    "twice_min_segment": lambda rng: (rng.standard_normal((7, 24)), 12),  # one split
}


class TestVarianceKernel:
    """The variance scan computes the plain expressions bit for bit and never writes its input."""

    @pytest.mark.parametrize("case", list(KERNEL_CASES))
    def test_scan_equals_full_scan_profile(self, case):
        x, ms = KERNEL_CASES[case](np.random.default_rng(71))
        x.flags.writeable = False  # any write into the input raises
        before = x.copy()
        n = x.shape[1]
        sizes = changepoint_module._split_sizes(n, ms)
        expected = _full_scan_profile(x, ms, "variance")
        stat = changepoint_module._scan(x, ms, Attribute.VARIANCE, sizes)
        assert stat.shape == expected.shape == (x.shape[0], n - 2 * ms + 1)
        assert np.array_equal(stat.view(np.int64), expected.view(np.int64))
        assert np.array_equal(x, before)
        if case == "one_flat_side":
            assert np.isinf(stat).any()
        if case in ("both_flat_sides", "all_zero"):
            assert (stat == 1.0).any()

    @pytest.mark.parametrize("kind", list(SHARED_CASES))
    def test_block_cap_keeps_change_points(self, kind, monkeypatch):
        params = SHARED_CASES[kind]
        series = same_length_collection(kind)
        n = series[0].values.size
        expected = [detect_change_points(ts, params).points for ts in series]
        assert any(expected)
        shapes = []
        real = changepoint_module._scan

        def recording(rows, *args):
            shapes.append(rows.shape)
            return real(rows, *args)

        monkeypatch.setattr(changepoint_module, "_scan", recording)
        for cap in (1, 2**10, 2**15, 2**17, params.permutations * n):
            monkeypatch.setitem(changepoint_module._BLOCK_CELLS, params.attribute, cap)
            shapes.clear()
            assert [detect_change_points(ts, params).points for ts in series] == expected, cap
            assert all(r == 1 or r * w <= cap for r, w in shapes)


class TestSplitTables:
    """The split tables hold their reference bits and live for one window, not for every length seen."""

    @pytest.mark.parametrize("min_segment", [2, 3, 30, 500])
    def test_closed_forms_equal_reduceat_tables(self, min_segment):
        run = changepoint_module._CERTIFY_RUN
        lengths = [*range(2 * min_segment, 2 * min_segment + 300), 8000, 50000]
        tails = set()
        for n in lengths:
            tables = changepoint_module._split_sizes(n, min_segment)
            expected = reference_split_sizes(n, min_segment, run)
            assert len(tables) == len(expected) == 6
            for got, want in zip(tables, expected):
                assert got.dtype == np.float64 and not got.flags.writeable
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), n
            tails.add((n - 2 * min_segment) % run + 1)
        assert tails == set(range(1, run + 1))

    def test_detection_keeps_one_window_of_tables(self):
        params = DetectionParams(significance=0.1, permutations=19)
        series = []
        for n in range(3000, 6000, 100):
            values = np.random.default_rng(n).standard_normal(n)
            values[n // 2 :] += 2.0
            series.append(TimeSeries(f"s{n}", values))
        for store in row_stores():
            store.clear()
        changepoint_module._split_sizes.cache_clear()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            found = [detect_change_points(ts, params) for ts in series]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(found)
        # One whole-window entry, the sub-window cache (at most 1 MiB) and one window's tables.
        assert retained < 2.5e6
        assert changepoint_module._split_sizes.cache_info().currsize <= 1


class TestExactTies:
    """Ties count as exceedances and are decided exactly, under both attributes."""

    def test_tied_mean_permutations_count(self):
        # Exact t^2: 13 of 199 permutations reach the observed maximum, 4 of
        # them with a tie, so p = 0.07. Dropping the 4 ties to rounding gives
        # p = 0.05 and the split (12,).
        ts = TimeSeries("t", [1, 1, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 2, 2, 1])
        assert detect_change_points(ts, DetectionParams(min_segment=2, seed=838)).points == ()

    def test_tied_variance_permutations_count(self):
        # Exact F: 22 exceedances, 4 of them ties (p = 0.115 > 0.1). Dropping
        # 3 of the ties to rounding gives p = 0.1 and the split (5,).
        x = [2, 1, 1, 1, 1, 0, 0, 2, 2, 1, 0, 0, 2, 2, 1, 0, 0, 1, 0]
        params = DetectionParams(attribute=Attribute.VARIANCE, min_segment=4, significance=0.1, seed=105)
        assert detect_change_points(TimeSeries("v", x), params).points == ()

    def test_tied_observed_splits_take_the_smallest(self):
        # A palindrome: t at split s equals t at n - s exactly, and the
        # maximum sits at both 11 and 21. Neither half can split again.
        x = [7, 5, 7, 6, 6, 5, 5, 6, 5, 5, 4, 2, 2, 0, 2, 1, 1, 2, 0, 2, 2, 4, 5, 5, 6, 5, 5, 6, 6, 7, 5, 7]
        assert x == x[::-1]
        assert detect_change_points(TimeSeries("p", x), DetectionParams(min_segment=11)).points == (11,)

    @pytest.mark.parametrize(
        "params, a, b",
        [
            # Splits 3 and 28 of a tie exactly, and float rounding puts the
            # maximum at 28; b splits at 13.
            (
                DetectionParams(min_segment=3),
                [2, 2, 1, 1, 1, 0, 0, 1, 2, 0, 0, 0, 2, 0, 0, 1, 2, 1, 1, 1, 1, 1, 1, 1, 0, 1, 0, 0, 1, 2, 2],
                [0] * 13 + [2] * 18,
            ),
            # a's exact maximum is at split 8 and its float maximum at 15.
            (
                DetectionParams(attribute=Attribute.VARIANCE, min_segment=6),
                [0, 2, 1, 0, 2, 1, 2, 0, 1, 0, 2, 1, 1, 2, 1, 0, 0, 0, 1, 2, 1, 2, 2],
                [0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 1, 0, 0, 1, 0, 0, 1, 0, 1, 1],
            ),
        ],
    )
    def test_detection_order_ranks_by_the_detectors_split(self, params, a, b):
        # The order sorts on the whole-window split that detection tests,
        # exact ties included, not on the float argmax of the scan.
        series = [TimeSeries("a", a), TimeSeries("b", b)]
        splits = [changepoint_module._Window(ts.values, params.min_segment, params.attribute).best for ts in series]
        assert splits[0] < splits[1]
        assert changepoint_module.detection_order(series, params) == [0, 1]

    @pytest.mark.parametrize("attribute", list(Attribute))
    def test_integer_data_matches_exact_oracle(self, attribute, monkeypatch):
        decided_exactly = []
        real = changepoint_module._exact_scores

        def recording(*args):
            decided_exactly.append(args)
            return real(*args)

        monkeypatch.setattr(changepoint_module, "_exact_scores", recording)
        for seed in range(120):
            rng = np.random.default_rng((59, seed))
            n = int(rng.integers(12, 81))
            significance = float(rng.choice([0.05, 0.1, 0.2, 0.5]))
            if attribute is Attribute.MEAN:
                ms = int(rng.integers(2, 5))
                # An offset far above the spread puts the rounding of the
                # float scores well beyond one ulp.
                x = rng.integers(0, 3, n) + (1e6 if seed % 2 else 0.0)
            else:
                # No value occurs min_segment times, so no side of any
                # permutation is flat. A side variance within rounding of zero
                # keeps its float ratio, as the full permutation test has it
                # (test_flat_windows_match_full_test), so flat sides are left out.
                ms = -(-n // 8) + 1
                x = rng.permutation(np.repeat(np.arange(8), ms - 1))[:n]
            params = DetectionParams(
                attribute=attribute, significance=significance, min_segment=ms, permutations=199, seed=seed
            )
            expected = exact_permutation_detector(x, attribute.value, significance, ms, 199, seed)
            assert detect_change_points(TimeSeries("z", x), params).points == expected, seed
        assert decided_exactly  # the cases reach the exact re-decision

    def test_mean_score_is_monotone_in_t(self):
        for seed in range(40):
            rng = np.random.default_rng((61, seed))
            n = int(rng.integers(20, 400))
            ms = int(rng.integers(2, n // 4))
            x = rng.standard_normal(n) * rng.uniform(0.1, 10.0) + rng.normal(0.0, 5.0)
            x[int(rng.integers(ms, n - ms)) :] += rng.normal(0.0, 3.0)
            c = x - x.mean()
            u = changepoint_module._scan_profile(c[np.newaxis, :], ms, Attribute.MEAN)[0]
            assert int(np.argmax(u)) + ms == t_scan_oracle(x, ms)
            v = n * u / np.sum(c * c)
            t = np.sqrt((n - 2) * v / (1.0 - v))
            full = _full_scan_profile(x[np.newaxis, :], ms, "mean")[0]
            # Relative to the profile's scale: both scans round a left sum
            # near zero to a few ulps of the window's magnitude.
            np.testing.assert_allclose(t, full, rtol=1e-12, atol=1e-12 * full.max())
        # Two flat halves: v = 1 exactly at the true split, where t = +inf.
        c = np.r_[np.full(8, -1.0), np.full(8, 1.0)]
        u = changepoint_module._scan_profile(c[np.newaxis, :], 2, Attribute.MEAN)[0]
        v = 16 * u / np.sum(c * c)
        assert v[8 - 2] == 1.0
        with np.errstate(divide="ignore"):
            t = np.sqrt(14 * v / (1.0 - v))
        np.testing.assert_allclose(t, _full_scan_profile(c[np.newaxis, :], 2, "mean")[0], rtol=1e-12)
        assert t[8 - 2] == np.inf


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

    def test_overflowing_sums_rescaled(self):
        # The sums inside np.mean and np.var overflow; the statistics do not.
        ts = TimeSeries("x", np.full(4, 1.5e308))
        assert segment_statistics(ts, ChangePointSet(()), Attribute.MEAN) == (1.5e308,)
        assert segment_statistics(ts, ChangePointSet(()), Attribute.VARIANCE) == (0.0,)
        values = np.array([1.0e308, 1.2e308, 1.7e308, 1.1e308, 3.0, -2.0])
        expected = (float(np.mean(values[:4] / 4) * 4), float(np.mean(values[4:])))
        assert segment_statistics(TimeSeries("y", values), ChangePointSet((4,)), Attribute.MEAN) == expected

    def test_variance_beyond_float_range_is_inf(self):
        ts = TimeSeries("x", [1.5e308, -1.5e308, 1.5e308, -1.5e308])
        assert segment_statistics(ts, ChangePointSet(()), Attribute.VARIANCE) == (float("inf"),)
        with pytest.raises(ValueError, match="breakpoints and values must be finite"):
            from_changepoints(ts, ChangePointSet(()), Attribute.VARIANCE)


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

    def test_change_points_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^change points must be positive, got \(0,\)$"):
            ChangePointSet((0,))

    @pytest.mark.parametrize("bad", [2.7, 2.5, np.float64(4.000001), np.nan, np.inf, -np.inf])
    def test_change_points_must_be_integral(self, bad):
        # Fractional points used to be truncated silently: (2.7, 5.0) gave (2, 5).
        with pytest.raises(ValueError, match="must be integers"):
            ChangePointSet((bad, 10.0))

    def test_integral_floats_and_numpy_ints_accepted(self):
        pts = ChangePointSet((2.0, np.int64(5), np.float32(7.0), np.uint8(9))).points
        assert pts == (2, 5, 7, 9)
        assert all(type(p) is int for p in pts)
        assert ChangePointSet(p for p in (1, 4)).points == (1, 4)

    def test_significance_range(self):
        with pytest.raises(ValueError):
            DetectionParams(significance=1.5)

    def test_min_segment_floor_depends_on_attribute(self):
        DetectionParams(attribute=Attribute.MEAN, min_segment=2)
        with pytest.raises(ValueError):
            DetectionParams(attribute=Attribute.VARIANCE, min_segment=2)

    def test_settings_stored_as_python_numbers(self):
        params = DetectionParams(
            significance=np.float64(0.05), min_segment=30.0, permutations=np.int64(99), seed=np.uint8(7)
        )
        assert params == DetectionParams(significance=0.05, min_segment=30, permutations=99, seed=7)
        fields = ("significance", "min_segment", "permutations", "seed")
        assert [type(getattr(params, f)) for f in fields] == [float, int, int, int]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("min_segment", 30.5),
            ("permutations", 99.5),
            ("seed", np.float64(0.25)),
            ("seed", "7"),
            ("permutations", True),
        ],
    )
    def test_fractional_settings_name_their_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            DetectionParams(**{field: value})

    def test_significance_must_be_a_number(self):
        with pytest.raises(ValueError, match="significance must be a number"):
            DetectionParams(significance="often")

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
