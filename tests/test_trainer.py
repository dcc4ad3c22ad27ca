"""Toy logistic trainer: gradients, training behavior, volume biases."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from volbias import (
    PredictionAssignment,
    Region,
    RegionModel,
    ScenarioSpec,
    ToyModel,
    ce_batch_loss,
    ce_gradient,
    empirical_volume_bias,
    expand_scenario,
    expected_ce,
    expected_sd_exhaustive,
    forward,
    generate_dataset,
    sample_labeling,
    sd_batch_loss,
    sd_gradient,
    sd_minimizer,
    train,
)
from volbias.trainer import _fit, _objective, sigmoid


def scenario(s_alpha, s_gamma, mu, k, p):
    return ScenarioSpec(s_alpha=s_alpha, s_gamma=s_gamma, mu=mu, k_regions=k, p_beta=p)


def random_pixel_batch(rng, n_regions, n_pixels):
    features = np.eye(n_regions)[rng.integers(0, n_regions, n_pixels)]
    labels = rng.integers(0, 2, n_pixels).astype(float)
    return features, labels


def objective_of(ds, loss_kind):
    """The trainer's objective on the label support of every image of ``ds``."""
    counts = ds.region_pixel_counts.astype(float)
    configs, n = np.unique(ds.labels, axis=0, return_counts=True)
    return _objective(loss_kind, configs, n, counts, ds.region_volumes)


def fd_gradient(loss_fn, model, h=1e-5):
    grad_w = np.zeros_like(model.weights)
    for j in range(model.weights.size):
        wp, wm = model.weights.copy(), model.weights.copy()
        wp[j] += h
        wm[j] -= h
        grad_w[j] = (loss_fn(ToyModel(wp, model.bias)) - loss_fn(ToyModel(wm, model.bias))) / (2 * h)
    grad_b = (loss_fn(ToyModel(model.weights, model.bias + h)) - loss_fn(ToyModel(model.weights, model.bias - h))) / (2 * h)
    return grad_w, grad_b


def rel_err(a, b):
    num = np.linalg.norm(np.append(a[0] - b[0], a[1] - b[1]))
    den = max(np.linalg.norm(np.append(a[0], a[1])), np.linalg.norm(np.append(b[0], b[1])), 1e-12)
    return num / den


class TestGenerateDataset:
    def test_pixel_counts_follow_resolution(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 5, 10, seed=0)
        assert ds.region_pixel_counts.tolist() == [1000, 10, 10]
        assert ds.pixels_per_image == 1020

    def test_certain_labels_everywhere(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 1.0))
        ds = generate_dataset(model, 50, 10, seed=1)
        assert np.all(ds.labels[:, 1] == 1.0)

    def test_label_frequency_matches_probability(self):
        # 3 sigma binomial bound for 1e4 fair draws: +/- 0.015.
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 10_000, 10, seed=2)
        assert 0.485 <= ds.labels[:, 1].mean() <= 0.515

    def test_zero_pixel_region_raises(self):
        model = expand_scenario(scenario(100, 1, 0.001, 1, 0.5))
        with pytest.raises(ValueError, match="zero pixels"):
            generate_dataset(model, 5, 10, seed=0)

    @pytest.mark.parametrize("ppuv", [10**20, 10**400], ids=["past-int64", "past-float"])
    def test_pixel_count_overflow_raises(self, ppuv):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        with pytest.raises(ValueError, match="overflow"):
            generate_dataset(model, 5, ppuv, seed=0)

    def test_pixels_per_image_past_int64(self):
        # Each count fits an int64 (9.05e18 and twice 9.05e16); their sum does not.
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 8, 90_500_000_000_000_000, seed=0)
        assert ds.pixels_per_image == 9_231_000_000_000_000_000

    def test_deterministic_per_seed(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.3))
        a = generate_dataset(model, 20, 10, seed=7)
        b = generate_dataset(model, 20, 10, seed=7)
        assert np.array_equal(a.labels, b.labels)

    def test_label_stream_is_pinned(self):
        # A different stream would change every seeded training result.
        model = expand_scenario(scenario(3, 1, 2.0, 4, 0.5))
        ds = generate_dataset(model, 5, 4, seed=11)
        expected = [[0, 0, 0, 0, 0, 1], [0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 0, 1], [0, 1, 1, 1, 0, 1], [0, 0, 0, 0, 1, 1]]
        assert ds.labels.tolist() == expected
        assert sample_labeling(model, 11).labels == tuple(expected[0])

    def test_pixel_materialization_is_consistent(self):
        model = expand_scenario(scenario(2, 1, 1.0, 2, 0.5))
        ds = generate_dataset(model, 3, 4, seed=3)
        feats = ds.image_features(0)
        assert feats.shape == (ds.pixels_per_image, len(model))
        assert np.all(feats.sum(axis=1) == 1.0)
        labels = ds.image_pixel_labels(1)
        # all pixels of one region share the region's label
        start = 0
        for r, c in ds.pixels_per_region.items():
            assert np.all(labels[start : start + c] == ds.labels[1, r])
            start += c


class TestForward:
    def test_zero_model_predicts_half(self):
        model = ToyModel(np.zeros(3), 0.0)
        out = forward(model, np.eye(3))
        assert np.allclose(out.values, 0.5)

    def test_large_weight_saturates(self):
        model = ToyModel(np.array([10.0, 0.0]), 0.0)
        out = forward(model, np.array([[1.0, 0.0]]))
        assert out.values[0] == pytest.approx(0.9999546, abs=1e-6)

    def test_negation_flips_predictions(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=4)
        feats = np.eye(4)[rng.integers(0, 4, 30)]
        plus = forward(ToyModel(w, 0.7), feats).values
        minus = forward(ToyModel(-w, -0.7), feats).values
        assert np.allclose(plus + minus, 1.0, atol=1e-12)


class TestCeGradient:
    def test_single_pixel_hand_value(self):
        # prediction 0.7 on a true-foreground pixel: weight gradient -0.3
        w = np.array([np.log(0.7 / 0.3), 0.0])
        model = ToyModel(w, 0.0)
        features = np.array([[1.0, 0.0]])
        grad_w, grad_b = ce_gradient(model, features, np.array([1.0]))
        assert grad_w[0] == pytest.approx(-0.3, abs=1e-12)
        assert grad_b == pytest.approx(-0.3, abs=1e-12)

    def test_confident_correct_predictions_give_tiny_gradient(self):
        model = ToyModel(np.array([30.0, -30.0]), 0.0)
        features = np.eye(2)[np.array([0, 0, 1, 1])]
        labels = np.array([1.0, 1.0, 0.0, 0.0])
        grad_w, grad_b = ce_gradient(model, features, labels)
        assert np.linalg.norm(np.append(grad_w, grad_b)) < 1e-6

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(123)
        for _ in range(30):
            n_regions = int(rng.integers(2, 6))
            features, labels = random_pixel_batch(rng, n_regions, int(rng.integers(3, 40)))
            model = ToyModel(rng.normal(scale=2.0, size=n_regions), float(rng.normal()))
            analytic = ce_gradient(model, features, labels)
            numeric = fd_gradient(lambda m: ce_batch_loss(m, features, labels), model)
            assert rel_err(analytic, numeric) < 1e-4


class TestSdGradient:
    def test_two_pixel_hand_value(self):
        # labels (1, 0), predictions (0.5, 0.5): dSD/dy = (-0.75, +0.25),
        # composed with the sigmoid slope 0.25 at zero activation.
        model = ToyModel(np.zeros(2), 0.0)
        images = [(np.eye(2), np.array([1.0, 0.0]))]
        grad_w, grad_b = sd_gradient(model, images)
        assert grad_w[0] == pytest.approx(-0.75 * 0.25, abs=1e-12)
        assert grad_w[1] == pytest.approx(0.25 * 0.25, abs=1e-12)
        assert grad_b == pytest.approx((-0.75 + 0.25) * 0.25, abs=1e-12)

    def test_exact_binary_fit_has_zero_gradient(self):
        model = ToyModel(np.array([40.0, -40.0]), 0.0)
        images = [(np.eye(2)[np.array([0, 1, 0])], np.array([1.0, 0.0, 1.0]))]
        grad_w, grad_b = sd_gradient(model, images)
        assert np.linalg.norm(np.append(grad_w, grad_b)) < 1e-6

    def test_empty_image_skipped_with_warning(self):
        # weights low enough that the sigmoid underflows to exactly 0
        model = ToyModel(np.array([-800.0, -800.0]), 0.0)
        good = (np.eye(2), np.array([1.0, 0.0]))
        empty = (np.eye(2), np.array([0.0, 0.0]))
        with pytest.warns(UserWarning, match="skipped"):
            sd_gradient(model, [good, empty])
        with pytest.warns(UserWarning, match="skipped"), pytest.raises(ValueError):
            sd_batch_loss(model, [empty])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(321)
        for _ in range(30):
            n_regions = int(rng.integers(2, 6))
            images = []
            for _ in range(int(rng.integers(1, 5))):
                features, labels = random_pixel_batch(rng, n_regions, int(rng.integers(3, 30)))
                images.append((features, labels))
            model = ToyModel(rng.normal(scale=1.5, size=n_regions), float(rng.normal(scale=0.5)))
            analytic = sd_gradient(model, images)
            numeric = fd_gradient(lambda m: sd_batch_loss(m, images), model)
            assert rel_err(analytic, numeric) < 1e-4


class TestCompactPathMatchesPixelPath:
    """The trainer's region-level math must equal the pixel-level ops."""

    def test_ce_loss_and_raw_gradient_agree(self):
        model_spec = expand_scenario(scenario(3, 1, 1.0, 2, 0.5))
        ds = generate_dataset(model_spec, 6, 4, seed=5)
        w = np.random.default_rng(9).normal(size=len(model_spec))
        model = ToyModel(w, 0.2)

        feats = np.vstack([ds.image_features(i) for i in range(ds.n_images)])
        labels = np.concatenate([ds.image_pixel_labels(i) for i in range(ds.n_images)])
        pixel_loss = ce_batch_loss(model, feats, labels)
        pixel_grad_w, pixel_grad_b = ce_gradient(model, feats, labels)

        loss_at, grad_w_at = objective_of(ds, "ce")
        y = sigmoid(w + 0.2)
        assert loss_at(y) == pytest.approx(pixel_loss, abs=1e-12)
        compact_grad_w = grad_w_at(y)
        assert np.allclose(compact_grad_w, pixel_grad_w, atol=1e-12)
        assert float(compact_grad_w.sum()) == pytest.approx(pixel_grad_b, abs=1e-12)

    def test_sd_loss_and_raw_gradient_agree(self):
        model_spec = expand_scenario(scenario(3, 1, 1.0, 2, 0.5))
        ds = generate_dataset(model_spec, 6, 4, seed=6)
        w = np.random.default_rng(10).normal(size=len(model_spec))
        model = ToyModel(w, -0.1)

        images = [(ds.image_features(i), ds.image_pixel_labels(i)) for i in range(ds.n_images)]
        pixel_loss = sd_batch_loss(model, images)
        pixel_grad_w, pixel_grad_b = sd_gradient(model, images)

        loss_at, grad_w_at = objective_of(ds, "sd")
        y = sigmoid(w - 0.1)
        assert loss_at(y) == pytest.approx(pixel_loss, abs=1e-12)
        compact_grad_w = grad_w_at(y)
        assert np.allclose(compact_grad_w, pixel_grad_w, atol=1e-12)
        assert float(compact_grad_w.sum()) == pytest.approx(pixel_grad_b, abs=1e-12)


# (volume, foreground probability, prediction) of one region
region_rows = st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.01, 0.99)),
    st.floats(0.0, 1.0),
)


def masked_sigmoid(z):
    """The logistic function evaluated branch by branch on a mask of z >= 0."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_bit_identical_to_masked_form(self):
        z = np.concatenate(
            [
                [0.0, -0.0, 745.0, -745.0, 1000.0, -1000.0, np.inf, -np.inf, np.nan],
                *(np.random.default_rng(41).normal(scale=scale, size=20000) for scale in (1.0, 30.0, 800.0)),
            ]
        )
        got, want = sigmoid(z), masked_sigmoid(z)
        # same bits wherever there is a number; NaN stays NaN (its sign bit means nothing)
        number = ~np.isnan(want)
        assert got[number].tobytes() == want[number].tobytes()
        assert np.isnan(got[~number]).all()

    @pytest.mark.parametrize("z", [0.0, -0.0, -3.5, 745.0, -1000.0, np.inf, np.nan])
    def test_zero_d_input_gives_zero_d_array(self, z):
        got, want = sigmoid(z), masked_sigmoid(z)
        assert isinstance(got, np.ndarray) and got.ndim == 0
        assert got.tobytes() == want.tobytes() or np.isnan(got) and np.isnan(want)


def per_configuration_sd_grad_w(configs, n, volumes, y):
    """The trainer's soft-Dice weight gradient summed configuration by configuration:
    weights_i * -2 * (configs_i * D_i - I_i) / D_i^2, and 0 where D_i = 0."""
    total = np.zeros_like(y)
    for labels, weight in zip(configs, n / n.sum()):
        inter = labels @ (volumes * y)
        denom = labels @ volumes + volumes @ y
        if denom > 0.0:
            total += weight * -2.0 * (labels * denom - inter) / denom**2
    return total * y * (1.0 - y) * volumes


@st.composite
def sd_supports(draw):
    """(configs, counts, volumes, predictions) with zero volumes and zero predictions, so D = 0 occurs."""
    n_regions = draw(st.integers(1, 6))
    volumes = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), min_size=n_regions, max_size=n_regions))
    y = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=n_regions, max_size=n_regions))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n_regions, max_size=n_regions), min_size=1, max_size=8))
    n = draw(st.lists(st.integers(1, 50), min_size=len(rows), max_size=len(rows)))
    return np.array(rows, dtype=float), np.array(n), np.array(volumes), np.array(y)


class TestSdGradientIsRankOne:
    # D = 0 needs every region of positive volume at y = 0, where the sigmoid
    # slope is 0 as well: the gradient there must be exactly 0, never 0/0
    @settings(deadline=None, max_examples=200)
    @given(sd_supports())
    def test_matches_the_per_configuration_formula(self, support):
        configs, n, volumes, y = support
        _, grad_w_at = _objective("sd", configs, n, volumes, volumes)
        want = per_configuration_sd_grad_w(configs, n, volumes, y)
        assert np.abs(grad_w_at(y) - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


class TestCompactLossesAreExpectedLosses:
    """The trainer's compact losses are the exact expected losses of
    :mod:`volbias.risk`, taken under the label distribution they are fed."""

    @settings(deadline=None, max_examples=40)
    @given(st.lists(region_rows, min_size=1, max_size=10))
    def test_full_support_and_exact_frequencies_reproduce_the_risk(self, rows):
        volumes, p, q = (np.array(column) for column in zip(*rows))
        uncertain = (p > 0.0) & (p < 1.0)
        assume(volumes.sum() > 0.0 and np.count_nonzero(uncertain) <= 8)
        model = RegionModel(tuple(Region(v, pr) for v, pr in zip(volumes, p)))
        pred = PredictionAssignment(q)

        # every joint labeling with its exact probability
        configs = np.array(list(itertools.product(*[(0.0, 1.0) if u else (pr,) for u, pr in zip(uncertain, p)])))
        weights = np.prod(np.where(configs == 1.0, p, 1.0 - p), axis=1)
        # the exact weights stand in for image counts, the volumes for pixel counts
        sd_loss, _ = _objective("sd", configs, weights, volumes, volumes)
        assert sd_loss(q) == pytest.approx(expected_sd_exhaustive(model, pred).value, abs=1e-12)
        ce_loss, _ = _objective("ce", configs, weights, volumes, volumes)
        assert ce_loss(q) == pytest.approx(expected_ce(model, pred).value / volumes.sum(), abs=1e-12)


class TestTraining:
    def test_ce_recovers_uncertain_probability(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 3000, 10, seed=21)
        report = train(ds, "ce", seed=1)
        assert abs(report.per_region_pred[1] - 0.5) < 0.02
        assert report.per_region_pred[0] < 0.02 and report.per_region_pred[2] > 0.98

    def test_ce_converges_to_train_split_frequencies(self):
        model = expand_scenario(scenario(10, 1, 2.0, 4, 0.35))
        ds = generate_dataset(model, 2000, 16, seed=22)
        from volbias.trainer import _split_indices

        report = train(ds, "ce", max_epochs=6000, seed=2)
        i_train, _, _ = _split_indices(ds.n_images, 2)
        freqs = ds.labels[i_train].mean(axis=0)
        assert np.abs(report.per_region_pred - freqs).max() < 1e-3

    def test_ce_on_certain_labels(self):
        model = expand_scenario(scenario(100, 1, 1.0, 2, 0.0))
        ds = generate_dataset(model, 500, 10, seed=23)
        report = train(ds, "ce", seed=3)
        assert np.abs(report.per_region_pred - model.probabilities).max() < 0.02

    def test_sd_matches_risk_minimizer_argmin(self):
        spec = scenario(100, 1, 1.0, 1, 0.75)
        ds = generate_dataset(expand_scenario(spec), 2000, 16, seed=24)
        report = train(ds, "sd", lr=0.5, seed=4)
        argmin = sd_minimizer(spec).p_tilde_opt
        assert argmin == 1.0
        assert abs(report.per_region_pred[1] - argmin) < 0.05

    def test_duplicating_images_changes_nothing(self):
        model = expand_scenario(scenario(10, 1, 1.0, 2, 0.4))
        ds = generate_dataset(model, 400, 10, seed=25)
        half = ds.labels[:200]
        doubled = np.vstack([half, half])
        for kind in ("ce", "sd"):
            w1, b1, *_ = _fit(ds.region_pixel_counts, 10, half, half, kind, 0.5, 800, 200)
            w2, b2, *_ = _fit(ds.region_pixel_counts, 10, doubled, doubled, kind, 0.5, 800, 200)
            assert np.abs(sigmoid(w1 + b1) - sigmoid(w2 + b2)).max() < 1e-6

    def test_report_serialization_keys(self):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 200, 10, seed=26)
        report = train(ds, "ce", max_epochs=50, seed=5)
        obj = json.loads(report.to_json())
        assert set(obj) == {"loss_kind", "final_loss", "per_region_pred", "epochs_run", "bias_soft", "bias_hard"}
        assert obj["loss_kind"] == "ce" and len(obj["per_region_pred"]) == 3

    def test_unknown_loss_rejected(self):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 100, 10, seed=27)
        with pytest.raises(ValueError):
            train(ds, "dice")

    @pytest.mark.parametrize("patience", [0, -1])
    def test_nonpositive_patience_rejected(self, patience):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 100, 10, seed=27)
        with pytest.raises(ValueError, match="patience"):
            train(ds, "ce", patience=patience)

    @pytest.mark.parametrize("lr", [0.0, -1.0, math.nan, math.inf])
    def test_bad_learning_rate_rejected(self, lr):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 100, 10, seed=27)
        with pytest.raises(ValueError, match="learning rate"):
            train(ds, "ce", lr=lr)

    @pytest.mark.parametrize("max_epochs", [0, -1])
    def test_nonpositive_max_epochs_rejected(self, max_epochs):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 100, 10, seed=27)
        with pytest.raises(ValueError, match="max_epochs"):
            train(ds, "ce", max_epochs=max_epochs)

    def test_warm_start_from_ce_keeps_sd_binary(self):
        # pretraining with cross-entropy does not rescue the soft-Dice
        # bias: continued SD training still saturates to an endpoint
        spec = scenario(100, 1, 1.0, 1, 0.75)
        ds = generate_dataset(expand_scenario(spec), 2000, 16, seed=28)
        ce_report = train(ds, "ce", seed=12)
        assert abs(ce_report.per_region_pred[1] - 0.75) < 0.05
        sd_report = train(ds, "sd", seed=12, init=ce_report.model)
        assert abs(sd_report.per_region_pred[1] - 1.0) < 0.05


class TestEmpiricalVolumeBias:
    def test_ce_trained_soft_bias_near_zero(self):
        spec = scenario(100, 1, 1.0, 1, 0.5)
        ds = generate_dataset(expand_scenario(spec), 3000, 10, seed=31)
        report = train(ds, "ce", seed=6)
        bias_soft, bias_hard = empirical_volume_bias(report, expand_scenario(spec), n_images=4000, seed=7)
        assert abs(bias_soft) < 0.05
        # thresholding a near-half probability snaps to one side or the other
        assert abs(abs(bias_hard) - 0.5) < 0.1

    def test_sd_trained_overestimates(self):
        spec = scenario(100, 1, 1.0, 1, 0.75)
        ds = generate_dataset(expand_scenario(spec), 2000, 16, seed=32)
        report = train(ds, "sd", lr=0.5, seed=8)
        bias_soft, _ = empirical_volume_bias(report, expand_scenario(spec), n_images=4000, seed=9)
        assert bias_soft == pytest.approx(0.25, abs=0.07)

    def test_no_bias_without_uncertainty(self):
        # The background residual decays like 1/(lr * epochs) and is
        # amplified by its volume, so deep saturation needs a long run.
        for p in (0.0, 1.0):
            spec = scenario(100, 1, 1.0, 1, p)
            ds = generate_dataset(expand_scenario(spec), 600, 10, seed=33)
            for kind in ("ce", "sd"):
                report = train(ds, kind, lr=0.5, max_epochs=16000, seed=10)
                bias_soft, bias_hard = empirical_volume_bias(report, expand_scenario(spec), n_images=2000, seed=11)
                assert abs(bias_soft) < 0.02 and abs(bias_hard) < 0.02
