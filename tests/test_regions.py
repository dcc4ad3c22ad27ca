"""Region model: construction, volumes, sampling, enumeration oracle."""

import itertools
import math

import numpy as np
import pytest

from volbias import (
    LabelConfiguration,
    Region,
    RegionModel,
    ScenarioSpec,
    configuration_volume,
    expand_scenario,
    sample_labeling,
    true_expected_volume,
)


def scenario(s_alpha, s_gamma, mu, k, p):
    return ScenarioSpec(s_alpha=s_alpha, s_gamma=s_gamma, mu=mu, k_regions=k, p_beta=p)


class TestExpandScenario:
    def test_single_uncertain_region(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        assert [(r.volume, r.p_fg) for r in model.regions] == [(100.0, 0.0), (1.0, 0.5), (1.0, 1.0)]

    def test_four_uncertain_regions_split_evenly(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.5))
        assert len(model) == 6
        betas = model.regions[1:-1]
        assert all(r.volume == 1.0 for r in betas)
        assert abs(sum(r.volume for r in betas) - 4.0) < 1e-12

    def test_zero_uncertain_volume_is_allowed(self):
        model = expand_scenario(scenario(0, 1, 0.0, 1, 0.3))
        assert model.regions[1].volume == 0.0

    def test_uncertain_volume_sums_to_mu_s_gamma(self):
        for k in (1, 3, 7, 16):
            model = expand_scenario(scenario(10, 2.0, 0.7, k, 0.4))
            total = sum(r.volume for r in model.regions[1:-1])
            assert abs(total - 0.7 * 2.0) < 1e-12

    def test_rejects_zero_region_count(self):
        with pytest.raises(ValueError):
            scenario(100, 1, 1.0, 0, 0.5)

    def test_rejects_negative_volume(self):
        with pytest.raises(ValueError):
            scenario(-1, 1, 1.0, 1, 0.5)
        with pytest.raises(ValueError):
            Region(-0.5, 0.5)

    @pytest.mark.parametrize("field", ["s_alpha", "s_gamma", "mu"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_volume(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ScenarioSpec(**{"s_alpha": 100, "s_gamma": 1, "mu": 1.0, "k_regions": 1, "p_beta": 0.5, field: value})

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError):
            Region(1.0, 1.5)
        with pytest.raises(ValueError):
            scenario(1, 1, 1.0, 1, -0.2)


class TestExpectedVolume:
    def test_hand_value_single_region(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        assert true_expected_volume(model) == pytest.approx(1.5, abs=1e-12)

    def test_certain_only_foreground(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.0))
        assert true_expected_volume(model) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value_sixteen_regions(self):
        model = expand_scenario(scenario(100, 1, 4.0, 16, 0.25))
        assert true_expected_volume(model) == pytest.approx(2.0, abs=1e-12)

    def test_matches_exhaustive_enumeration(self):
        # Independent oracle: enumerate every configuration with its joint
        # probability and average the realized volumes.
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 9))
            regions = tuple(Region(float(rng.uniform(0, 5)) + 0.01, float(rng.random())) for _ in range(n))
            model = RegionModel(regions)
            expected = 0.0
            for bits in itertools.product((0, 1), repeat=n):
                w = np.prod([r.p_fg if b else 1 - r.p_fg for r, b in zip(regions, bits)])
                expected += w * configuration_volume(model, LabelConfiguration(bits))
            assert abs(expected - true_expected_volume(model)) < 1e-12

    def test_monotone_in_probabilities_and_volumes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            vols = rng.uniform(0.01, 4.0, n)
            probs = rng.random(n)
            base = true_expected_volume(RegionModel(tuple(Region(v, p) for v, p in zip(vols, probs))))
            j = int(rng.integers(n))
            bumped_p = probs.copy()
            bumped_p[j] = min(1.0, bumped_p[j] + 0.1)
            up = true_expected_volume(RegionModel(tuple(Region(v, p) for v, p in zip(vols, bumped_p))))
            assert up >= base - 1e-15
            bumped_v = vols.copy()
            bumped_v[j] += 0.5
            up = true_expected_volume(RegionModel(tuple(Region(v, p) for v, p in zip(bumped_v, probs))))
            assert up >= base - 1e-15


class TestSampling:
    def test_degenerate_probabilities_are_exact(self):
        certain = RegionModel((Region(1, 0.0), Region(1, 1.0), Region(2, 0.0)))
        for seed in (0, 1, 99):
            assert sample_labeling(certain, seed).labels == (0, 1, 0)

    def test_same_seed_same_configuration(self):
        model = expand_scenario(scenario(100, 1, 4.0, 8, 0.37))
        assert sample_labeling(model, 1234).labels == sample_labeling(model, 1234).labels

    def test_empirical_frequency_converges(self):
        # CLT bound at 3 sigma for 1e5 draws of a fair coin: +/- 0.0047.
        model = expand_scenario(scenario(1, 1, 1.0, 1, 0.5))
        n = 100_000
        hits = sum(sample_labeling(model, seed).labels[1] for seed in range(n))
        assert 0.494 <= hits / n <= 0.506


class TestConfigurationVolume:
    def test_all_ones_gives_total_volume(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.5))
        cfg = LabelConfiguration((1,) * 6)
        assert configuration_volume(model, cfg) == pytest.approx(105.0, abs=1e-12)

    def test_all_zeros_gives_zero(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.5))
        assert configuration_volume(model, LabelConfiguration((0,) * 6)) == 0.0

    def test_hand_sum(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.5))
        cfg = LabelConfiguration((0, 1, 0, 1, 0, 1))
        assert configuration_volume(model, cfg) == pytest.approx(3.0, abs=1e-12)

    def test_length_mismatch_raises(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.5))
        with pytest.raises(ValueError):
            configuration_volume(model, LabelConfiguration((0, 1)))


class TestLabelConfiguration:
    @pytest.mark.parametrize("labels", [(0.7, 1.9, 0), (0, math.nan), (2,), (-1,), ((0, 1),)])
    def test_labels_must_be_exactly_binary(self, labels):
        # Casting first once turned (0.7, 1.9, 0) into (0, 1, 0).
        with pytest.raises(ValueError):
            LabelConfiguration(labels)

    def test_labels_are_python_ints(self):
        cfg = LabelConfiguration(np.array([1.0, 0.0, 1.0]))
        assert cfg.labels == (1, 0, 1) and all(type(v) is int for v in cfg.labels)


class TestScenarioJson:
    def test_round_trip_uses_exact_keys(self):
        spec = scenario(100, 1, 4.0, 4, 0.25)
        text = spec.to_json()
        import json

        obj = json.loads(text)
        assert set(obj) == {"s_alpha", "s_gamma", "mu", "k_regions", "p_beta"}
        assert isinstance(obj["k_regions"], int)
        assert ScenarioSpec.from_json(text) == spec

    def test_from_dict_refuses_to_truncate_k_regions(self):
        obj = {"s_alpha": 100.0, "s_gamma": 1.0, "mu": 1.0, "k_regions": 1.7, "p_beta": 0.5}
        with pytest.raises(ValueError, match="k_regions"):
            ScenarioSpec.from_dict(obj)
        spec = ScenarioSpec.from_dict({**obj, "k_regions": 4.0})
        assert spec.k_regions == 4 and isinstance(spec.k_regions, int)
        assert spec.to_json() == ScenarioSpec.from_dict({**obj, "k_regions": 4}).to_json()

    @pytest.mark.parametrize(
        "key, value", [("s_alpha", "100"), ("s_alpha", True), ("mu", "1.0"), ("p_beta", False), ("k_regions", True)]
    )
    def test_from_dict_refuses_strings_and_booleans(self, key, value):
        obj = {"s_alpha": 100.0, "s_gamma": 1.0, "mu": 1.0, "k_regions": 4, "p_beta": 0.5}
        with pytest.raises(ValueError, match="not a number"):
            ScenarioSpec.from_dict({**obj, key: value})

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_json('{"s_alpha": 1, "s_gamma": 1, "mu": 1, "k_regions": 1}')

    @pytest.mark.parametrize("text", ["3", "[1]", '"scenario"'])
    def test_non_object_rejected(self, text):
        with pytest.raises(ValueError):
            ScenarioSpec.from_json(text)
