"""Bootstrap test and volume re-calibration."""

import json
import math

import numpy as np
import pytest

from volbias import (
    apply_calibration,
    bootstrap_paired,
    fit_calibration,
    volume_specific_profile,
)


class TestBootstrapPaired:
    def test_identical_samples_not_significant(self):
        a = np.arange(10.0)
        out = bootstrap_paired(a, a, n_resamples=2000, seed=0)
        assert out.mean_diff == 0.0
        assert not out.significant
        assert out.p_greater == 1.0 and out.p_smaller == 1.0

    def test_all_positive_differences_significant(self):
        a = np.ones(20)
        b = np.zeros(20)
        out = bootstrap_paired(a, b, n_resamples=2000, seed=0)
        assert out.p_greater == pytest.approx(1 / 2001, abs=1e-12)
        assert out.significant

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=30), rng.normal(size=30)
        r1 = bootstrap_paired(a, b, n_resamples=2000, seed=99)
        r2 = bootstrap_paired(a, b, n_resamples=2000, seed=99)
        assert (r1.p_greater, r1.p_smaller) == (r2.p_greater, r2.p_smaller)

    def test_invariant_under_common_shuffle(self):
        # The statistic depends only on the multiset of differences.
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=40), rng.normal(size=40)
        perm = rng.permutation(40)
        r1 = bootstrap_paired(a, b, n_resamples=2000, seed=7)
        r2 = bootstrap_paired(a[perm], b[perm], n_resamples=2000, seed=7)
        # same seed, same resample index matrix; shuffled pairs change which
        # difference each index picks, so compare the test decisions loosely
        assert r1.mean_diff == pytest.approx(r2.mean_diff, abs=1e-12)

    def test_chunked_resampling_matches_one_index_matrix(self):
        from volbias import stats
        from volbias.rng import make_rng

        n, n_resamples = 600, 2000  # 1747 + 253 rows at the module's chunk size
        assert n * n_resamples > stats._RESAMPLE_CHUNK
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=n), rng.normal(size=n)
        out = bootstrap_paired(a, b, n_resamples=n_resamples, seed=17)
        d = a - b
        means = d[make_rng(17).integers(0, n, size=(n_resamples, n))].mean(axis=1)
        assert out.mean_diff == float(d.mean())
        assert out.p_greater == (np.count_nonzero(means <= 0.0) + 1) / (n_resamples + 1)
        assert out.p_smaller == (np.count_nonzero(means >= 0.0) + 1) / (n_resamples + 1)
        assert 0.05 < out.p_greater < 0.95  # both counts are informative

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            bootstrap_paired([1.0], [1.0], n_resamples=2000, seed=0)
        with pytest.raises(ValueError):
            bootstrap_paired([1.0, 2.0], [1.0, 2.0, 3.0], n_resamples=2000, seed=0)
        with pytest.raises(ValueError):
            bootstrap_paired([1.0, 2.0], [1.0, 2.0], n_resamples=10, seed=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ValueError, match="finite"):
            bootstrap_paired([1.0, bad, 2.0], [0.0, 0.0, 0.0], n_resamples=2000, seed=0)
        with pytest.raises(ValueError, match="finite"):
            bootstrap_paired([1.0, 2.0, 3.0], [0.0, 0.0, bad], n_resamples=2000, seed=0)

    def test_rejects_a_difference_that_overflows(self):
        # Every value is finite, but 1e308 - (-1e308) is not.
        with pytest.raises(ValueError, match="finite"):
            bootstrap_paired([1e308, 1e308], [-1e308, -1e308], n_resamples=2000, seed=0)

    def test_one_sided_size_under_null(self):
        # Light calibration check; the acceptance suite runs the full one.
        rng = np.random.default_rng(3)
        rejections = 0
        trials = 150
        for t in range(trials):
            a = rng.normal(size=150)
            b = rng.normal(size=150)
            out = bootstrap_paired(a, b, n_resamples=1000, seed=1000 + t)
            rejections += out.p_greater < 0.05
        assert 0.01 <= rejections / trials <= 0.10


class TestFitCalibration:
    def test_identity_fit(self):
        v = np.linspace(1, 10, 20)
        fit = fit_calibration(v, v)
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.n_points == 20

    def test_exact_linear_relation(self):
        true = np.linspace(1, 10, 20)
        fit = fit_calibration(2 * true, true)
        assert fit.slope == pytest.approx(0.5, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)

    def test_ols_consistency_under_noise(self):
        # noise small against the volume spread, so attenuation of the
        # fitted slope (var/(var+sigma^2)) stays within the tolerance
        rng = np.random.default_rng(4)
        true = rng.uniform(0, 40, 1000)
        sigma = 1.0
        pred = true + rng.normal(0, sigma, 1000)
        fit = fit_calibration(pred, true)
        assert 0.95 <= fit.slope <= 1.05
        assert abs(fit.intercept) < 0.2 * sigma
        corrected = apply_calibration(fit, pred)
        assert abs(np.mean(corrected - true)) < 0.2 * sigma

    def test_normal_equation_identities(self):
        rng = np.random.default_rng(5)
        pred = rng.uniform(0, 50, 500)
        true = 0.8 * pred + 3 + rng.normal(0, 2, 500)
        fit = fit_calibration(pred, true)
        scale = float(np.abs(true).mean())
        assert abs(fit.residual_mean) < 1e-9 * scale
        assert abs(fit.residual_slope) < 1e-9

    def test_degenerate_predictor_rejected(self):
        with pytest.raises(ValueError):
            fit_calibration(np.ones(10), np.arange(10.0))
        with pytest.raises(ValueError):
            fit_calibration(np.arange(2.0), np.arange(2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_volumes_rejected(self, bad):
        v = np.arange(1.0, 11.0)
        with pytest.raises(ValueError, match="finite"):
            fit_calibration(np.where(v == 5.0, bad, v), v)
        with pytest.raises(ValueError, match="finite"):
            fit_calibration(v, np.where(v == 5.0, bad, v))

    def test_json_field_names(self):
        v = np.linspace(1, 10, 20)
        obj = json.loads(fit_calibration(v, v).to_json())
        assert set(obj) == {"slope", "intercept", "n_points", "residual_mean", "residual_slope"}


class TestApplyCalibration:
    def test_identity_unchanged(self):
        fit = fit_calibration(np.linspace(1, 5, 10), np.linspace(1, 5, 10))
        assert apply_calibration(fit, 3.3) == pytest.approx(3.3, abs=1e-12)

    def test_halving_fit(self):
        from volbias.stats import CalibrationFit

        fit = CalibrationFit(0.5, 0.0, 3, 0.0, 0.0)
        assert apply_calibration(fit, 4.0) == 2.0

    def test_clamp_with_flag(self):
        from volbias.stats import CalibrationFit

        fit = CalibrationFit(1.0, -5.0, 3, 0.0, 0.0)
        value, clamped = apply_calibration(fit, 3.0, with_flag=True)
        assert value == 0.0 and clamped is True
        value, clamped = apply_calibration(fit, 8.0, with_flag=True)
        assert value == 3.0 and clamped is False

    def test_array_input(self):
        from volbias.stats import CalibrationFit

        fit = CalibrationFit(1.0, -2.0, 3, 0.0, 0.0)
        out, clamped = apply_calibration(fit, np.array([1.0, 5.0]), with_flag=True)
        assert out.tolist() == [0.0, 3.0]
        assert clamped.tolist() == [True, False]

    def test_never_increases_mean_bias_on_fit_sample(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            true = rng.uniform(1, 20, 100)
            pred = rng.uniform(0.5, 1.5) * true + rng.normal(0, 1, 100) + rng.uniform(-3, 3)
            fit = fit_calibration(pred, true)
            corrected = apply_calibration(fit, pred)
            before = abs(np.mean(pred - true))
            after = abs(np.mean(corrected - true))
            assert after <= before + 1e-12

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_volume_rejected(self, bad):
        from volbias.stats import CalibrationFit

        fit = CalibrationFit(1.0, 0.0, 3, 0.0, 0.0)
        for volume in (bad, np.array([1.0, bad])):
            with pytest.raises(ValueError, match="finite"):
                apply_calibration(fit, volume)


class TestVolumeSpecificProfile:
    def test_perfect_predictions_on_diagonal(self):
        v = np.linspace(1, 10, 40)
        profile = volume_specific_profile(v, v)
        for mean_true, mean_pred in profile.decile_means:
            assert mean_pred == pytest.approx(mean_true, abs=1e-12)

    def test_constant_prediction_crosses_at_mean(self):
        rng = np.random.default_rng(7)
        true = rng.uniform(0, 10, 200)
        pred = np.full(200, true.mean())
        profile = volume_specific_profile(pred, true)
        assert profile.overall_mean_true == pytest.approx(true.mean())
        diffs = [mp - mt for mt, mp in profile.decile_means]
        # over-estimates below the mean, under-estimates above it
        assert diffs[0] > 0 and diffs[-1] < 0

    def test_shrunk_predictions_have_half_slope(self):
        rng = np.random.default_rng(8)
        true = np.sort(rng.uniform(0, 10, 500))
        pred = 0.5 * true + 0.5 * true.mean()
        profile = volume_specific_profile(pred, true)
        mt = np.array([t for t, _ in profile.decile_means])
        mp = np.array([p for _, p in profile.decile_means])
        slope = np.polyfit(mt, mp, 1)[0]
        assert slope == pytest.approx(0.5, abs=1e-9)

    def test_remainder_spread_over_leading_bins(self):
        out = volume_specific_profile(np.arange(13.0), np.arange(13.0))
        # 13 = 3 bins of 2 and 7 bins of 1; first decile mean = (0+1)/2
        assert out.decile_means[0][0] == pytest.approx(0.5)
        assert out.decile_means[-1][0] == pytest.approx(12.0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            volume_specific_profile(np.arange(9.0), np.arange(9.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_volumes_rejected(self, bad):
        # A NaN true volume once sorted last and left a NaN decile.
        v = np.arange(1.0, 11.0)
        with pytest.raises(ValueError, match="finite"):
            volume_specific_profile(np.where(v == 5.0, bad, v), v)
        with pytest.raises(ValueError, match="finite"):
            volume_specific_profile(v, np.where(v == 5.0, bad, v))
