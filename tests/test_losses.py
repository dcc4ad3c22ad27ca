"""Losses and metrics: hand values, conventions, and structural properties."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from volbias.losses import LOG_EPS

TINY = 5e-324  # the smallest subnormal
ABOVE_ONE = 1.0 + 2.0**-52
# (entry, accepted) for each rule, as the elementwise masks (v >= 0) & (v <= 1), (v >= 0) & (v < inf) and
# (v == 0) | (v == 1) decide them; the one-reduction-per-bound checks must agree
EDGES = [(-TINY, False), (math.inf, False), (-math.inf, False), (math.nan, False)]
PROBABILITY_EDGES = EDGES + [(-0.0, True), (TINY, True), (1.0, True), (ABOVE_ONE, False)]
LABEL_EDGES = EDGES + [(-0.0, True), (1.0, True), (TINY, False), (ABOVE_ONE, False)]
WEIGHT_EDGES = EDGES + [(-0.0, True), (TINY, True), (1.7e308, True)]
CLONES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda m: pickle.loads(pickle.dumps(m)),
}


def bits(x: float) -> str:
    return float(x).hex()


def clipped_ce(target, pred) -> float:
    """Weighted CE with ``np.clip`` and fresh logs: the reference the cached logs must match bit for bit."""
    p, q = target.values, np.clip(pred.values, LOG_EPS, 1 - LOG_EPS)
    return float(target.weights @ (-p * np.log(q) - (1 - p) * np.log(1 - q)))


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

    @pytest.mark.parametrize(
        "map_type, edges", [(SoftMap, PROBABILITY_EDGES), (HardMap, LABEL_EDGES)], ids=["soft", "hard"]
    )
    def test_value_edges(self, map_type, edges):
        for value, accepted in edges:
            if accepted:
                assert bits(map_type([1.0, value]).values[1]) == bits(value)
            else:
                with pytest.raises(ValueError, match="must"):
                    map_type([1.0, value])

    @pytest.mark.parametrize("map_type", [SoftMap, HardMap])
    def test_weight_edges(self, map_type):
        for weight, accepted in WEIGHT_EDGES:
            if accepted:
                assert bits(map_type([1.0, 0.0], weights=[1.0, weight]).weights[1]) == bits(weight)
            else:
                for values, weights in (([1.0, 0.0], [1.0, weight]), ([1.0], [weight])):
                    with pytest.raises(ValueError, match="finite and >= 0"):
                        map_type(values, weights=weights)

    @pytest.mark.parametrize("map_type", [SoftMap, HardMap])
    def test_empty_accepted_and_two_dimensional_refused(self, map_type):
        assert len(map_type([])) == 0 and len(map_type([], weights=[])) == 0
        with pytest.raises(ValueError, match="one-dimensional"):
            map_type([[1.0, 0.0]])
        with pytest.raises(ValueError, match="one-dimensional"):
            map_type([1.0, 0.0], weights=[[1.0, 1.0]])

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_copies_rebuild_read_only(self, clone):
        target = HardMap([1, 0, 1], weights=[2.0, 0.5, 1.0])
        pred = SoftMap([0.5, 0.25, 0.0], weights=[2.0, 0.5, 1.0])
        expected = cross_entropy(target, pred)  # takes pred's logs
        for m in (target, pred):
            other = clone(m)
            assert type(other) is type(m) and "_logs" not in vars(other)
            assert other.values.tolist() == m.values.tolist() and other.weights.tolist() == m.weights.tolist()
            assert not other.values.flags.writeable and not other.weights.flags.writeable
        other_pred = clone(pred)
        assert bits(cross_entropy(clone(target), other_pred)) == bits(expected)
        assert not any(a.flags.writeable for a in other_pred._logs)

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

    def test_one_map_scores_many_targets_as_fresh_maps_do(self):
        rng = np.random.default_rng(41)
        w = rng.uniform(0.05, 2.0, 18)
        q = np.concatenate(([0.0, 1.0, LOG_EPS], rng.random(15)))
        pred = SoftMap(q, weights=w)
        for _ in range(50):
            target = HardMap(rng.integers(0, 2, q.size), weights=w)
            assert bits(cross_entropy(target, pred)) == bits(cross_entropy(target, SoftMap(q, weights=w)))
        assert pred._logs is pred._logs

    def test_cached_logs_are_read_only(self):
        pred = SoftMap([0.5, 0.0, 1.0])
        log_q, log_1q = pred._logs
        for a in (log_q, log_1q):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        assert log_q[1] == math.log(LOG_EPS) and log_1q[2] == math.log(1 - (1 - LOG_EPS))


NEAR_EPS = [LOG_EPS, 1 - LOG_EPS] + [np.nextafter(x, t) for x in (LOG_EPS, 1 - LOG_EPS) for t in (0.0, 1.0)]
PREDICTION = st.one_of(st.sampled_from([0.0, 1.0] + NEAR_EPS), st.floats(0.0, 1e-11), st.floats(0.0, 1.0))


class TestCrossEntropyBits:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        entries=st.lists(
            st.tuples(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0]), PREDICTION, st.floats(0.0, 1e3)),
            max_size=8,
        ),
        hard=st.booleans(),
    )
    def test_equals_the_clipped_formula(self, entries, hard):
        soft_p, labels, q, w = (list(c) for c in zip(*entries)) if entries else ([], [], [], [])
        target = HardMap(labels, weights=w) if hard else SoftMap(soft_p, weights=w)
        pred = SoftMap(q, weights=w)
        assert bits(cross_entropy(target, pred)) == bits(clipped_ce(target, pred))


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
