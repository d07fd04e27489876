import json
import math

import numpy as np
import pytest

from stepdist import (
    ChangePointSet,
    DetectionParams,
    PerturbationSpec,
    RegimeSpec,
    StepFunction,
    TimeSeries,
    benchmark_suite,
    benchmark_suite_specs,
    embed,
    generate_series,
    hausdorff,
    lp_distance,
    magnitude,
    mj_semi_metric,
    modified_hausdorff,
    perturb,
)
from stepdist.errors import WindowOutOfRange
from stepdist.synthetic import SUITE_LENGTH, export_suite


def designed_step(spec: RegimeSpec) -> StepFunction:
    breakpoints = (0.0, *(float(b) for b in spec.breaks), float(spec.length - 1))
    return StepFunction(breakpoints, spec.means)


class TestGenerate:
    def test_zero_sigma_gives_exact_means(self):
        spec = RegimeSpec("s", 100, (40,), (1.0, -2.0), (0.0, 0.0), seed=1)
        ts = generate_series(spec)
        assert np.all(ts.values[:40] == 1.0)
        assert np.all(ts.values[40:] == -2.0)

    def test_same_seed_identical(self):
        spec = RegimeSpec("s", 200, (100,), (0.0, 3.0), (1.0, 1.0), seed=42)
        a, b = generate_series(spec), generate_series(spec)
        assert np.array_equal(a.values, b.values)

    def test_segment_means_within_clt_bound(self):
        spec = RegimeSpec("s", 900, (300, 600), (0.0, 5.0, -5.0), (2.0, 2.0, 2.0), seed=3)
        ts = generate_series(spec)
        bounds = (0, 300, 600, 900)
        for mean, lo, hi in zip(spec.means, bounds, bounds[1:]):
            seg = ts.values[lo:hi]
            assert abs(seg.mean() - mean) <= 4 * 2.0 / math.sqrt(hi - lo)


class TestSuite:
    def test_break_groups_by_design(self):
        specs = benchmark_suite_specs()
        assert specs[0].breaks == specs[1].breaks == specs[2].breaks
        assert specs[3].breaks == specs[4].breaks
        assert specs[5].breaks == specs[6].breaks
        assert specs[7].breaks == specs[8].breaks == specs[9].breaks
        sets = [ChangePointSet(s.breaks) for s in specs]
        assert hausdorff(sets[0], sets[1]) == 0.0
        assert hausdorff(sets[5], sets[7]) > 0.0

    def test_matching_pairs_have_close_designed_distances(self):
        specs = benchmark_suite_specs()
        fs = [designed_step(s) for s in specs]
        assert lp_distance(fs[0], fs[2], 1) == 0.0
        d78 = lp_distance(fs[6], fs[7], 1)
        assert 0.05 < d78 < 0.15
        others = [
            lp_distance(fs[i], fs[j], 1)
            for i in range(10)
            for j in range(i + 1, 10)
            if (i, j) not in ((0, 2), (6, 7))
        ]
        assert min(others) > 10 * d78

    def test_detected_pair_distance_small(self):
        series = benchmark_suite()
        params = DetectionParams()
        d13 = lp_distance(embed(series[0], params), embed(series[2], params), 1)
        assert d13 < 0.15
        d12 = lp_distance(embed(series[0], params), embed(series[1], params), 1)
        assert d12 > 20 * d13

    def test_export_writes_csvs_and_manifest(self, tmp_path):
        manifest = export_suite(tmp_path)
        assert (tmp_path / "manifest.json").exists()
        assert (tmp_path / "suite_wide.csv").exists()
        for spec in manifest["series"]:
            assert (tmp_path / f"{spec['id']}.csv").exists()
        reread = json.loads((tmp_path / "manifest.json").read_text())
        assert reread == manifest
        wide = (tmp_path / "suite_wide.csv").read_text().splitlines()
        assert len(wide) == SUITE_LENGTH + 1


class TestPerturb:
    def test_zero_epsilon_identity(self):
        ts = TimeSeries("x", np.arange(50.0))
        out = perturb(ts, PerturbationSpec(10, 5, 0.0))
        assert np.array_equal(out.values, ts.values)

    def test_full_window_offsets_all_but_horizon(self):
        ts = TimeSeries("x", np.zeros(50))
        out = perturb(ts, PerturbationSpec(0, 49, 2.0))
        assert np.all(out.values[:49] == 2.0)
        assert out.values[49] == 0.0

    def test_window_mean_shifts_by_epsilon(self):
        rng = np.random.default_rng(0)
        ts = TimeSeries("x", rng.normal(0, 1, 100))
        out = perturb(ts, PerturbationSpec(20, 30, 1.5))
        shift = out.values[20:50].mean() - ts.values[20:50].mean()
        assert shift == pytest.approx(1.5, abs=1e-12)
        assert np.array_equal(out.values[:20], ts.values[:20])
        assert np.array_equal(out.values[50:], ts.values[50:])

    def test_window_out_of_range(self):
        ts = TimeSeries("x", np.zeros(50))
        with pytest.raises(WindowOutOfRange):
            perturb(ts, PerturbationSpec(40, 20, 1.0))


class TestEndToEndContinuity:
    def test_noiseless_perturbation_meets_bound_with_equality(self):
        # constant base series; the detector recovers the perturbation window
        # exactly, so the p=1 deformation bound is attained.
        params = DetectionParams()
        base = TimeSeries("base", np.zeros(400))
        spec = PerturbationSpec(150, 100, 1.0)
        perturbed = perturb(base, spec)
        f = embed(base, params)
        fp = embed(perturbed, params)
        assert f == StepFunction.constant(0.0, 399.0)
        assert fp == StepFunction((0.0, 150.0, 250.0, 399.0), (0.0, 1.0, 0.0))
        h = 399.0
        expected = 1.0 * spec.delta / h
        assert abs(magnitude(perturbed, params, 1) - magnitude(base, params, 1)) == pytest.approx(
            expected, abs=1e-9
        )
        assert lp_distance(fp, f, 1) == pytest.approx(expected, abs=1e-9)

    def test_set_metric_jumps_vs_lp_continuity(self):
        # same breaks for both series; the perturbed copy gains two extra
        # breaks, so set metrics jump by a fixed amount while the lp
        # difference scales linearly with epsilon.
        params = DetectionParams()
        base_values = np.concatenate([np.zeros(100), np.full(200, 8.0), np.zeros(100)])
        x = TimeSeries("x", base_values)
        y = TimeSeries("y", base_values.copy())
        s = ChangePointSet((100, 300))
        t0, delta = 180, 40
        lp_deltas = []
        set_deltas = []
        for eps in (1.0, 0.1, 0.01):
            xp = perturb(x, PerturbationSpec(t0, delta, eps))
            cps = ChangePointSet((100, t0, t0 + delta, 300))
            set_deltas.append(
                (
                    hausdorff(cps, s) - hausdorff(s, s),
                    modified_hausdorff(cps, s) - modified_hausdorff(s, s),
                    mj_semi_metric(cps, s, 1) - mj_semi_metric(s, s, 1),
                )
            )
            f_y = embed(y, params)
            lp_deltas.append(abs(lp_distance(embed(xp, params), f_y, 1) - lp_distance(embed(x, params), f_y, 1)))
        assert set_deltas[0] == set_deltas[1] == set_deltas[2]
        assert set_deltas[0][0] >= min(t0 - 100, 300 - t0)
        assert lp_deltas[0] / lp_deltas[1] == pytest.approx(10.0, rel=1e-6)
        assert lp_deltas[1] / lp_deltas[2] == pytest.approx(10.0, rel=1e-6)


class TestSpecValidation:
    def test_breaks_inside_domain(self):
        with pytest.raises(ValueError):
            RegimeSpec("s", 100, (99,), (0.0, 1.0), (0.0, 0.0), seed=0)

    def test_length_at_least_two(self):
        with pytest.raises(ValueError, match="^length must be >= 2, got 1$"):
            RegimeSpec("s", 1, (), (0.0,), (0.0,), seed=0)

    def test_one_mean_per_segment(self):
        with pytest.raises(ValueError):
            RegimeSpec("s", 100, (50,), (0.0,), (0.0,), seed=0)

    def test_nonnegative_sigma(self):
        with pytest.raises(ValueError):
            RegimeSpec("s", 100, (50,), (0.0, 1.0), (1.0, -1.0), seed=0)

    def test_perturbation_spec_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(-1, 5, 1.0)
        with pytest.raises(ValueError):
            PerturbationSpec(0, 0, 1.0)
        for epsilon in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="^epsilon must be finite$"):
                PerturbationSpec(0, 5, epsilon)
