"""Losses and metrics: hand values, conventions, and structural properties."""

import math

import numpy as np
import pytest

from volbias import (
    HardMap,
    SoftMap,
    accuracy_01,
    cross_entropy,
    dice_score,
    soft_dice_loss,
    threshold,
    volume_error_report,
    volume_of,
)


class TestMapInputs:
    @pytest.mark.parametrize("values", [[0.2, math.nan], [0.2, 1.5], [-0.1], [[0.5]]])
    def test_soft_values_must_be_probabilities(self, values):
        with pytest.raises(ValueError):
            SoftMap(values)

    @pytest.mark.parametrize("values", [[1.0, math.nan], [0.5], [2.0], [-1.0], [[1.0]]])
    def test_hard_values_must_be_binary(self, values):
        with pytest.raises(ValueError):
            HardMap(values)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_weights_must_be_finite_and_nonnegative(self, weight):
        for map_type in (SoftMap, HardMap):
            with pytest.raises(ValueError, match="finite"):
                map_type([1.0, 0.0], weights=[1.0, weight])

    def test_maps_own_read_only_copies(self):
        values, weights = np.array([0.25, 1.0]), np.array([2.0, 3.0])
        m = SoftMap(values, weights=weights)
        values[0], weights[0] = 0.5, 1.0
        assert m.values.tolist() == [0.25, 1.0] and m.weights.tolist() == [2.0, 3.0]
        with pytest.raises(ValueError):
            m.values[0] = 0.0


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        assert cross_entropy(SoftMap([1.0]), SoftMap([1.0])) == pytest.approx(0.0, abs=1e-10)

    def test_half_confident_on_certain_target(self):
        assert cross_entropy(SoftMap([1.0]), SoftMap([0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_entropy_floor_at_half(self):
        assert cross_entropy(SoftMap([0.5]), SoftMap([0.5])) == pytest.approx(math.log(2), abs=1e-12)

    def test_weighted_sum(self):
        value = cross_entropy(SoftMap([1.0, 0.0], weights=[2.0, 3.0]), SoftMap([0.5, 0.5]))
        assert value == pytest.approx(5 * math.log(2), abs=1e-12)

    def test_clamp_keeps_certain_mismatch_finite(self):
        assert np.isfinite(cross_entropy(SoftMap([1.0]), SoftMap([0.0])))

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            cross_entropy(SoftMap([1.0]), SoftMap([1.0, 0.0]))

    def test_never_below_target_self_entropy(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            y = SoftMap(rng.random(n), weights=rng.uniform(0, 3, n))
            floor = cross_entropy(y, SoftMap(y.values, y.weights))
            q = SoftMap(rng.random(n), weights=y.weights)
            assert cross_entropy(y, q) >= floor - 1e-10


class TestSoftDice:
    def test_identical_binary_maps(self):
        m = SoftMap([1.0, 0.0, 1.0])
        assert soft_dice_loss(HardMap([1, 0, 1]), m) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value_half_prediction(self):
        assert soft_dice_loss(HardMap([1]), SoftMap([0.5])) == pytest.approx(1 / 3, abs=1e-15)

    def test_hand_value_two_regions(self):
        target = HardMap([1, 1], weights=[1.0, 1.0])
        pred = SoftMap([0.5, 1.0], weights=[1.0, 1.0])
        assert soft_dice_loss(target, pred) == pytest.approx(1 / 7, abs=1e-15)

    def test_empty_empty_convention(self):
        assert soft_dice_loss(HardMap([0, 0]), SoftMap([0.0, 0.0])) == 0.0

    def test_bounds_and_permutation_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            w = rng.uniform(0, 2, n)
            t = SoftMap(rng.random(n), weights=w)
            q = SoftMap(rng.random(n), weights=w)
            loss = soft_dice_loss(t, q)
            assert 0.0 <= loss <= 1.0
            perm = rng.permutation(n)
            loss_p = soft_dice_loss(
                SoftMap(t.values[perm], weights=w[perm]), SoftMap(q.values[perm], weights=w[perm])
            )
            assert loss_p == pytest.approx(loss, abs=1e-12)


class TestDiceScore:
    def test_identical_nonempty(self):
        assert dice_score(HardMap([1, 1, 0]), HardMap([1, 1, 0])) == 1.0

    def test_disjoint_nonempty(self):
        assert dice_score(HardMap([1, 0]), HardMap([0, 1])) == 0.0

    def test_hand_value(self):
        assert dice_score(HardMap([1, 1, 0]), HardMap([1, 0, 1])) == pytest.approx(0.5, abs=1e-15)

    def test_empty_empty_is_one(self):
        assert dice_score(HardMap([0, 0]), HardMap([0, 0])) == 1.0

    def test_complements_soft_dice_on_binaries(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(1, 10))
            w = rng.uniform(0.1, 2, n)
            a = HardMap(rng.integers(0, 2, n), weights=w)
            b = HardMap(rng.integers(0, 2, n), weights=w)
            if float(w @ a.values + w @ b.values) == 0.0:
                continue  # empty/empty handled by its own convention
            sd = soft_dice_loss(a, SoftMap(b.values, weights=w))
            assert dice_score(a, b) == pytest.approx(1.0 - sd, abs=1e-12)


class TestThreshold:
    def test_boundary_is_foreground(self):
        assert threshold(SoftMap([0.5])).values.tolist() == [1.0]

    def test_just_below_boundary_is_background(self):
        assert threshold(SoftMap([0.49999])).values.tolist() == [0.0]

    def test_splits_mixed_map(self):
        assert threshold(SoftMap([0.2, 0.8])).values.tolist() == [0.0, 1.0]

    def test_weights_carried_over(self):
        out = threshold(SoftMap([0.7], weights=[3.0]))
        assert out.weights.tolist() == [3.0]


class TestVolume:
    def test_soft_weighted_volume(self):
        assert volume_of(SoftMap([0.5, 1.0], weights=[4.0, 1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_all_zero_map(self):
        assert volume_of(SoftMap([0.0, 0.0])) == 0.0

    def test_voxel_volume_scales(self):
        assert volume_of(HardMap([1, 1]), voxel_volume=2.5) == pytest.approx(5.0, abs=1e-12)

    @pytest.mark.parametrize("voxel_volume", [0.0, -1.0, math.nan, math.inf])
    def test_bad_voxel_volume_rejected(self, voxel_volume):
        with pytest.raises(ValueError, match="voxel volume"):
            volume_of(SoftMap([0.5]), voxel_volume=voxel_volume)

    def test_threshold_volume_gap_bounded(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 20))
            w = rng.uniform(0, 2, n)
            y = SoftMap(rng.random(n), weights=w)
            hard = threshold(y)
            gap = abs(volume_of(hard) - volume_of(y))
            assert gap <= float(w @ np.abs(y.values - hard.values)) + 1e-12


class TestVolumeErrorReport:
    def test_no_error(self):
        rep = volume_error_report(1.5, 1.5)
        assert (rep.delta_v, rep.relative_delta_v, rep.abs_delta_v, rep.relative_abs_delta_v) == (0, 0, 0, 0)

    def test_over_estimate(self):
        rep = volume_error_report(2.0, 1.0)
        assert rep.delta_v == 1.0 and rep.relative_delta_v == 1.0
        assert rep.abs_delta_v == 1.0 and rep.relative_abs_delta_v == 1.0

    def test_under_estimate(self):
        rep = volume_error_report(0.5, 2.0)
        assert rep.delta_v == pytest.approx(-1.5) and rep.relative_delta_v == pytest.approx(-0.75)

    def test_relatives_undefined_for_empty_truth(self):
        rep = volume_error_report(1.0, 0.0)
        assert rep.relative_delta_v is None and rep.relative_abs_delta_v is None
        assert not rep.relatives_defined
        assert rep.abs_delta_v == 1.0

    @pytest.mark.parametrize(
        "pred, true", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (1.0, -1.0)]
    )
    def test_rejects_bad_volumes(self, pred, true):
        with pytest.raises(ValueError, match="finite"):
            volume_error_report(pred, true)


class TestAccuracy:
    def test_identical(self):
        assert accuracy_01(HardMap([1, 0, 1]), HardMap([1, 0, 1])) == 1.0

    def test_complementary(self):
        assert accuracy_01(HardMap([1, 0]), HardMap([0, 1])) == 0.0

    def test_weighted_count(self):
        assert accuracy_01(HardMap([1, 0], weights=[3, 1]), HardMap([1, 1], weights=[3, 1])) == 0.75
