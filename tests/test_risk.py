"""Exact expected losses: hand enumerations, route equivalence, Monte Carlo."""

import copy
import itertools
import math
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volbias import (
    PredictionAssignment,
    Region,
    RegionModel,
    ScenarioSpec,
    TooManyUncertainRegionsError,
    ce_curve,
    expand_scenario,
    expected_ce,
    expected_sd_binomial,
    expected_sd_exhaustive,
    sample_labelings,
    scenario_prediction,
    sd_binomial_curve,
)
from volbias.losses import LOG_EPS, SoftMap, _ce_terms, _clamped_logs, volume_of


def scenario(s_alpha, s_gamma, mu, k, p):
    return ScenarioSpec(s_alpha=s_alpha, s_gamma=s_gamma, mu=mu, k_regions=k, p_beta=p)


def mc_sample_labels(model, n, seed):
    """One labeling per seed in ``seed .. seed + n - 1``, as ``sample_labeling`` draws it."""
    return np.concatenate([sample_labelings(model, 1, s) for s in range(seed, seed + n)])


def traced_peak_mib(compute):
    """The peak of the memory that numpy and Python allocate while ``compute()`` runs, in MiB."""
    tracemalloc.start()
    try:
        compute()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def exact_binomial_weights(k, p):
    """Binomial(k, p) probabilities in exact rational arithmetic, rounded once."""
    p = Fraction(p)
    return np.array([float(math.comb(k, m) * p**m * (1 - p) ** (k - m)) for m in range(k + 1)])


def windowed_binomial_weights(k, p):
    """The counts m within 12 standard deviations plus 40 of k p and their exact Binomial(k, p)
    probabilities, each rounded once; by Bernstein's inequality the counts left out weigh under 2e-26."""
    a, d = Fraction(p).as_integer_ratio()  # p = a / d, 1 - p = b / d
    b, spread = d - a, 12.0 * math.sqrt(k * p * (1 - p)) + 40.0
    lo, hi = max(0, math.floor(k * p - spread)), min(k, math.ceil(k * p + spread))
    scaled = math.comb(k, lo) * a**lo * b ** (k - lo)  # C(k, m) a^m b^(k - m): the probability times d^k
    weights, scale = [], d**k
    for m in range(lo, hi + 1):
        weights.append(scaled / scale)  # a quotient of integers is rounded once
        scaled = scaled * (k - m) * a // ((m + 1) * b)  # exact: the next count's C(k, m) a^m b^(k - m)
    return np.arange(lo, hi + 1), np.array(weights)


def binomial_reference(spec, qs):
    """Per-prediction loop over the K+1 foreground counts with exact weights."""
    k = spec.k_regions
    beta_volume = spec.mu * spec.s_gamma / k
    weights = exact_binomial_weights(k, spec.p_beta)
    values = []
    for q in qs:
        pred_sum = spec.mu * spec.s_gamma * q + spec.s_gamma
        total = 0.0
        for m in range(k + 1):
            inter = m * beta_volume * q + spec.s_gamma
            denom = m * beta_volume + spec.s_gamma + pred_sum
            total += weights[m] * (1.0 - 2.0 * inter / denom if denom > 0.0 else 0.0)
        values.append(total)
    return np.array(values)


class TestExpectedCe:
    def test_truth_prediction_hits_entropy_floor(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        pred = PredictionAssignment(model.probabilities)
        assert expected_ce(model, pred).value == pytest.approx(math.log(2), abs=1e-6)

    def test_certain_model_perfectly_predicted_is_zero(self):
        model = RegionModel((Region(2, 0.0), Region(3, 1.0)))
        pred = PredictionAssignment([0.0, 1.0])
        assert expected_ce(model, pred).value == pytest.approx(0.0, abs=1e-9)

    def test_overconfident_prediction_hand_value(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        pred = scenario_prediction(model, 0.9)
        expected = -0.5 * math.log(0.9) - 0.5 * math.log(0.1)
        assert expected_ce(model, pred).value == pytest.approx(expected, abs=1e-6)

    def test_closed_form_metadata(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        out = expected_ce(model, scenario_prediction(model, 0.3))
        assert out.config_count == 1 and out.method == "closed_form"

    def test_matches_monte_carlo(self):
        model = expand_scenario(scenario(10, 1, 2.0, 3, 0.4))
        pred = scenario_prediction(model, 0.6)
        n = 100_000
        labels = mc_sample_labels(model, n, seed=900)
        # per sample: the volume-weighted -log of the probability predicted for the drawn label
        q = np.clip(pred.p_pred, LOG_EPS, 1.0 - LOG_EPS)
        samples = -np.log(np.where(labels == 1.0, q, 1.0 - q)) @ model.volumes
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - expected_ce(model, pred).value) < 4 * se

    def test_curve_matches_pointwise_closed_form(self):
        qs = np.linspace(0, 1, 101)
        cases = [(100, k, 0.3) for k in (1, 4, 16, 256, 1000)] + [(100, 4, 0.0), (100, 4, 1.0), (0, 4, 0.3)]
        for s_alpha, k, p in cases:
            spec = scenario(s_alpha, 1, 2.0, k, p)
            model = expand_scenario(spec)
            loop = [expected_ce(model, scenario_prediction(model, q)).value for q in qs]
            np.testing.assert_allclose(ce_curve(spec, qs), loop, rtol=1e-13, atol=0)

    def test_curve_strictly_convex(self):
        curve = ce_curve(scenario(100, 1, 2.0, 3, 0.4), np.linspace(0, 1, 201))
        assert np.all(np.diff(curve, 2) > 0)


class TestExpectedSdExhaustive:
    def test_two_branch_hand_enumeration(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        out = expected_sd_exhaustive(model, scenario_prediction(model, 0.5))
        assert out.value == pytest.approx(6 / 35, abs=1e-12)
        assert out.config_count == 2 and out.method == "exhaustive"

    def test_endpoints_tie_at_half(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        lo = expected_sd_exhaustive(model, scenario_prediction(model, 0.0)).value
        hi = expected_sd_exhaustive(model, scenario_prediction(model, 1.0)).value
        assert lo == pytest.approx(1 / 6, abs=1e-12)
        assert hi == pytest.approx(1 / 6, abs=1e-12)

    def test_underestimation_preferred_at_low_probability(self):
        model = expand_scenario(scenario(100, 1, 4.0, 1, 0.25))
        lo = expected_sd_exhaustive(model, scenario_prediction(model, 0.0)).value
        hi = expected_sd_exhaustive(model, scenario_prediction(model, 1.0)).value
        assert lo == pytest.approx(1 / 6, abs=1e-12)
        assert hi == pytest.approx(0.5, abs=1e-12)

    def test_certain_regions_fold_out(self):
        model = RegionModel((Region(5, 0.0), Region(1, 1.0), Region(2, 0.3), Region(1, 1.0)))
        out = expected_sd_exhaustive(model, PredictionAssignment([0.0, 1.0, 0.3, 0.9]))
        assert out.config_count == 2  # only one genuinely uncertain region

    def test_capacity_error_names_binomial_route(self):
        regions = tuple(Region(1.0, 0.5) for _ in range(25))
        model = RegionModel(regions)
        pred = PredictionAssignment(np.full(25, 0.5))
        with pytest.raises(TooManyUncertainRegionsError, match="binomial"):
            expected_sd_exhaustive(model, pred)

    def test_matches_monte_carlo(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.25))
        pred = scenario_prediction(model, 0.7)
        n = 100_000
        labels = mc_sample_labels(model, n, seed=4242)
        w, q = model.volumes, pred.p_pred
        # per sample: 1 - 2 * overlap / (label volume + predicted volume); the certain
        # foreground, predicted 1, keeps every denominator positive
        samples = 1.0 - 2.0 * (labels @ (w * q)) / (labels @ w + w @ q)
        se = samples.std(ddof=1) / math.sqrt(n)
        assert abs(samples.mean() - expected_sd_exhaustive(model, pred).value) < 4 * se

    def test_memory_at_20_uncertain_regions(self):
        # 2**20 configurations: the table and its denominators, one 8 MiB array each; the soft-Dice
        # ratio and the predicted volume are computed in place, and the log weights reuse the denominators
        rng = np.random.default_rng(0)
        volumes = np.concatenate(([50.0], rng.uniform(0.05, 2.0, 20), [3.0]))
        probs = np.concatenate(([0.0], rng.uniform(0.05, 0.95, 20), [1.0]))
        model = RegionModel(tuple(Region(float(v), float(p)) for v, p in zip(volumes, probs)))
        pred = PredictionAssignment(np.clip(probs + 0.1, 0.0, 1.0))
        assert traced_peak_mib(lambda: expected_sd_exhaustive(model, pred)) <= 21.0


class TestExpectedSdBinomial:
    def test_hand_binomial_sum_overestimation(self):
        out = expected_sd_binomial(scenario(100, 1, 4.0, 4, 0.5), 1.0)
        assert out.value == pytest.approx(545 / 2016, abs=1e-12)
        assert out.config_count == 5 and out.method == "binomial"

    def test_hand_binomial_sum_underestimation_side(self):
        out = expected_sd_binomial(scenario(100, 1, 4.0, 4, 0.5), 0.0)
        assert out.value == pytest.approx(0.4625, abs=1e-12)

    def test_certain_scenarios_perfectly_predicted(self):
        assert expected_sd_binomial(scenario(100, 1, 2.0, 4, 0.0), 0.0).value == pytest.approx(0.0, abs=1e-12)
        assert expected_sd_binomial(scenario(100, 1, 2.0, 4, 1.0), 1.0).value == pytest.approx(0.0, abs=1e-12)
        # the predicted volume K·(µ·s_gamma/K) equals the label volume to the bit, not only to an ulp
        assert expected_sd_binomial(scenario(100, 0.3, 0.3, 11, 1.0), 1.0).value == 0.0
        assert expected_sd_binomial(scenario(100, 3.0, 7.7, 23, 1.0), 1.0).value == 0.0

    def test_agrees_with_exhaustive_on_benchmark_grid(self):
        qs = np.linspace(0, 1, 101)
        for k in (1, 4, 16):
            for mu in (0.25, 1.0, 4.0):
                for p in (0.0, 0.25, 0.3, 0.5, 0.75, 1.0):
                    spec = scenario(100, 1, mu, k, p)
                    model = expand_scenario(spec)
                    curve = sd_binomial_curve(spec, qs)
                    assert np.max(np.abs(curve - binomial_reference(spec, qs))) <= 1e-14
                    for q, batched in zip(qs[::10], curve[::10]):
                        ex = expected_sd_exhaustive(model, scenario_prediction(model, q)).value
                        bi = expected_sd_binomial(spec, q).value
                        assert abs(ex - bi) < 1e-12 and abs(ex - batched) < 1e-12

    @pytest.mark.parametrize("k", [10**3, 10**9])
    def test_memory_does_not_grow_with_k(self, k):
        # a nodes x Q kernel, a few hundred nodes whatever K is
        spec, qs = scenario(10, 1, 1.0, k, 0.25), np.linspace(0, 1, 101)
        assert traced_peak_mib(lambda: sd_binomial_curve(spec, qs)) <= 1.0

    @pytest.mark.parametrize("mu", [1e-3, 1.0, 1e6])
    def test_matches_exact_weights_at_large_k(self, mu):
        k, qs = 30_000, np.array([0.0, 0.3, 0.5, 1.0])
        for p in (2.0**-10, 0.25, 0.5, 0.875):  # dyadic p keeps the exact weights' integers short
            m, weights = windowed_binomial_weights(k, p)
            x = m * (mu / k)  # the uncertain label volume, in units of s_gamma
            reference = [math.fsum(weights * (1.0 - 2.0 * (1.0 + x * q) / (2.0 + x + mu * q))) for q in qs]
            assert np.max(np.abs(sd_binomial_curve(scenario(10, 1, mu, k, p), qs) - reference)) <= 1e-14

    @pytest.mark.parametrize("k", [16, 384])
    def test_certain_p_beta_folds_into_the_label_volume(self, k):
        # a certain p_beta labels every configuration alike: the closed form, not the integral
        qs = np.linspace(0, 1, 11)
        for p in (0.0, 1.0):
            spec = scenario(100, 1, 2.0, k, p)
            assert np.max(np.abs(sd_binomial_curve(spec, qs) - binomial_reference(spec, qs))) <= 1e-13

    def test_loss_in_unit_interval_on_grid(self):
        qs = np.linspace(0, 1, 41)
        for k in (1, 4, 16):
            for mu in (0.25, 1.0, 4.0):
                for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                    spec = scenario(100, 1, mu, k, p)
                    vals = [expected_sd_binomial(spec, q).value for q in qs]
                    assert min(vals) >= 0.0 and max(vals) <= 1.0

    def test_optimal_loss_weakly_increases_with_mu(self):
        qs = np.linspace(0, 1, 101)
        for k in (1, 4, 16):
            for p in (0.25, 0.5, 0.75):
                optima = []
                for mu in (0.25, 1.0, 4.0):
                    spec = scenario(100, 1, mu, k, p)
                    optima.append(min(expected_sd_binomial(spec, q).value for q in qs))
                assert optima[0] <= optima[1] + 1e-12 <= optima[2] + 2e-12


PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
VOLUME = st.floats(0.01, 100.0)
UNCERTAIN = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


def product_reference(model, pred):
    """E[SD] as a plain sum over every 0/1 labeling of the uncertain regions."""
    s, p, q = model.volumes.tolist(), model.probabilities.tolist(), pred.p_pred.tolist()
    uncertain = [j for j in range(len(s)) if 0.0 < p[j] < 1.0]
    pred_sum = sum(sj * qj for sj, qj in zip(s, q))
    total = 0.0
    for bits in itertools.product((0, 1), repeat=len(uncertain)):
        labels = [1.0 if pj == 1.0 else 0.0 for pj in p]
        weight = 1.0
        for j, bit in zip(uncertain, bits):
            labels[j] = float(bit)
            weight *= p[j] if bit else 1.0 - p[j]
        inter = sum(sj * lj * qj for sj, lj, qj in zip(s, labels, q))
        denom = sum(sj * lj for sj, lj in zip(s, labels)) + pred_sum
        total += weight * (1.0 - 2.0 * inter / denom if denom > 0.0 else 0.0)
    return total


class TestExactRouteProperties:
    @settings(deadline=None, max_examples=40)
    @given(k=st.integers(1, 12), mu=st.floats(0.0, 10.0), p=PROBABILITY, q=PROBABILITY)
    def test_exhaustive_equals_binomial_on_homogeneous_scenarios(self, k, mu, p, q):
        spec = scenario(100, 1, mu, k, p)
        model = expand_scenario(spec)
        ex = expected_sd_exhaustive(model, scenario_prediction(model, q)).value
        curve = float(sd_binomial_curve(spec, [q])[0])
        assert abs(ex - curve) <= 1e-12
        assert 0.0 <= ex <= 1.0 and 0.0 <= curve <= 1.0

    @settings(deadline=None, max_examples=40)
    @given(
        regions=st.lists(st.tuples(VOLUME, UNCERTAIN, st.floats(0.0, 1.0)), max_size=8),
        certain=st.lists(st.tuples(VOLUME, st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)), min_size=1, max_size=4),
        order=st.randoms(use_true_random=False),
    )
    def test_exhaustive_equals_plain_product_enumeration(self, regions, certain, order):
        mixed = regions + certain
        order.shuffle(mixed)  # certain regions at random positions among the uncertain ones
        model = RegionModel(tuple(Region(v, p) for v, p, _ in mixed))
        pred = PredictionAssignment([q for _, _, q in mixed])
        out = expected_sd_exhaustive(model, pred)
        assert abs(out.value - product_reference(model, pred)) <= 1e-12
        assert out.config_count == 2 ** len(regions)

    @settings(deadline=None, max_examples=100)
    @given(
        k=st.integers(1, 2000),
        mu=st.floats(0.0, 20.0),
        s_gamma=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        p=st.sampled_from([0.0, 1.0]),
        qs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
    )
    def test_certain_labels_score_their_own_soft_dice(self, k, mu, s_gamma, p, qs):
        # a certain p_beta labels every uncertain region alike: one label configuration, no expectation
        uncertain = k * (mu * s_gamma / k)  # K regions of mu·s_gamma/K, as expand_scenario builds them
        expected = []
        for q in qs:
            label, overlap, pred = p * uncertain + s_gamma, p * uncertain * q + s_gamma, uncertain * q + s_gamma
            expected.append(1.0 - 2.0 * overlap / (label + pred) if label + pred > 0.0 else 0.0)
        curve = sd_binomial_curve(scenario(100, s_gamma, mu, k, p), qs)
        assert np.max(np.abs(curve - np.array(expected))) <= 1e-15


class TestPredictionAssignment:
    def test_length_checked_against_model(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        with pytest.raises(ValueError):
            expected_ce(model, PredictionAssignment([0.5, 0.5]))

    def test_values_must_be_probabilities(self):
        # An accepted NaN prediction made expected_sd_exhaustive report a perfect 0.0.
        spec = scenario(100, 1, 1.0, 4, 0.5)
        for check in (PredictionAssignment, lambda q: sd_binomial_curve(spec, q), lambda q: ce_curve(spec, q)):
            for bad in ([0.5, 1.2], [-0.1], [np.nan], [[0.5]]):
                with pytest.raises(ValueError):
                    check(bad)

    def test_copies_rebuild_read_only(self):
        model = expand_scenario(scenario(100, 1, 1.0, 2, 0.5))
        pred = PredictionAssignment([0.0, 0.25, 0.5, 1.0])
        for other in (copy.copy(pred), copy.deepcopy(pred), pickle.loads(pickle.dumps(pred))):
            assert other.p_pred.tolist() == [0.0, 0.25, 0.5, 1.0] and not other.p_pred.flags.writeable
            assert expected_ce(model, other).value.hex() == expected_ce(model, pred).value.hex()

    def test_is_a_soft_map_and_copies_of_both_maps_stay_read_only(self):
        model = expand_scenario(scenario(100, 1, 1.0, 2, 0.5))
        pred = PredictionAssignment([0.0, 0.25, 0.5, 1.0])
        assert isinstance(pred, SoftMap) and pred.p_pred is pred.values
        for copy_of in (copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))):
            other_pred, other_model = copy_of(pred), copy_of(model)
            assert isinstance(other_pred, PredictionAssignment) and other_pred.weights.tolist() == [1.0] * 4
            arrays = (other_pred.p_pred, other_model.map.values, other_model.map.weights, other_model.volumes)
            assert not any(a.flags.writeable for a in arrays)
            assert other_model.volumes is other_model.map.weights
            assert other_model.probabilities.tolist() == [0.0, 0.5, 0.5, 1.0]

    def test_scenario_prediction_shape(self):
        spec = scenario(100, 1, 4.0, 4, 0.5)
        pred = scenario_prediction(expand_scenario(spec), 0.3)
        assert pred.p_pred.tolist() == [0.0, 0.3, 0.3, 0.3, 0.3, 1.0]


# a prediction at an endpoint, at or near the clamp LOG_EPS from either end, or anywhere in [0, 1]
near_clamp = [0.0, 1.0, LOG_EPS, LOG_EPS / 2, 2 * LOG_EPS, 1.0 - LOG_EPS, 1.0 - LOG_EPS / 2, 1.0 - 2 * LOG_EPS]
predictions = st.one_of(st.sampled_from(near_clamp), st.floats(0.0, 1.0))
# (volume, foreground probability, prediction) of one region
regions_and_predictions = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        predictions,
    ),
    min_size=1,
    max_size=12,
).filter(lambda rows: sum(v for v, _, _ in rows) > 0.0)


class TestCrossEntropyIsTheLossOfTheModelMap:
    """Expected CE is ``cross_entropy`` against the model's volume-weighted probability map, with the bits of the
    closed-form sum it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(regions_and_predictions)
    def test_expected_ce_keeps_the_bits_of_the_closed_form(self, rows):
        model = RegionModel(tuple(Region(v, p) for v, p, _ in rows))
        pred = PredictionAssignment([q for _, _, q in rows])
        closed_form = float(model.volumes @ _ce_terms(model.probabilities, *_clamped_logs(pred.p_pred)))
        assert expected_ce(model, pred).value == closed_form
        assert volume_of(model.map) == float(model.volumes @ model.probabilities)
