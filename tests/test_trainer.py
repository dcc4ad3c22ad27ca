"""Toy logistic trainer: gradients, training behavior, volume biases."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from volbias import (
    PredictionAssignment,
    Region,
    RegionModel,
    ScenarioSpec,
    ToyDataset,
    ToyModel,
    TrainingDivergedError,
    empirical_volume_bias,
    expand_scenario,
    expected_ce,
    expected_sd_exhaustive,
    generate_dataset,
    sample_labeling,
    sd_minimizer,
    train,
)
from volbias.losses import LOG_EPS, _ce_terms, _clamped_logs
from volbias.trainer import _fit, _objective, _split_indices, _support, sigmoid

from pixel_reference import (
    ce_batch_loss,
    ce_gradient,
    forward,
    image_features,
    image_pixel_labels,
    pixel_counts,
    sd_batch_loss,
    sd_gradient,
)


def scenario(s_alpha, s_gamma, mu, k, p):
    return ScenarioSpec(s_alpha=s_alpha, s_gamma=s_gamma, mu=mu, k_regions=k, p_beta=p)


def random_pixel_batch(rng, n_regions, n_pixels):
    features = np.eye(n_regions)[rng.integers(0, n_regions, n_pixels)]
    labels = rng.integers(0, 2, n_pixels).astype(float)
    return features, labels


def objective_of(ds, loss_kind):
    """The trainer's objective on the label support of every image of ``ds``."""
    configs, n = np.unique(ds.labels, axis=0, return_counts=True)
    return _objective(loss_kind, configs, n, ds.model.volumes)


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
    def test_certain_labels_everywhere(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 1.0))
        ds = generate_dataset(model, 50, seed=1)
        assert np.all(ds.labels[:, 1] == 1.0)

    def test_label_frequency_matches_probability(self):
        # 3 sigma binomial bound for 1e4 fair draws: +/- 0.015.
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 10_000, seed=2)
        assert 0.485 <= ds.labels[:, 1].mean() <= 0.515

    def test_zero_volume_region_raises(self):
        # a region of volume zero carries no loss: training could not set its prediction
        model = RegionModel((Region(0.0, 0.0), Region(1.0, 0.5), Region(0.0, 1.0)))
        with pytest.raises(ValueError, match=r"regions \[0, 2\] have zero volume"):
            generate_dataset(model, 5, seed=0)
        with pytest.raises(ValueError, match=r"regions \[0, 2\] have zero volume"):
            ToyDataset(model, np.zeros((5, 3)))

    @pytest.mark.parametrize("bad", [0.5, 2.0, math.nan])
    def test_non_binary_label_raises(self, bad):
        # the trainer packs each label row into bits, exact only for labels that are exactly 0 or 1
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        labels = np.zeros((5, 3))
        labels[2, 1] = bad
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            ToyDataset(model, labels)

    @pytest.mark.parametrize("n_images", [0, -3])
    def test_no_images_rejected(self, n_images):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        with pytest.raises(ValueError, match="at least one labeling"):
            generate_dataset(model, n_images, seed=0)

    def test_deterministic_per_seed(self):
        model = expand_scenario(scenario(100, 1, 4.0, 4, 0.3))
        a = generate_dataset(model, 20, seed=7)
        b = generate_dataset(model, 20, seed=7)
        assert np.array_equal(a.labels, b.labels)

    def test_label_stream_is_pinned(self):
        # A different stream would change every seeded training result.
        model = expand_scenario(scenario(3, 1, 2.0, 4, 0.5))
        ds = generate_dataset(model, 5, seed=11)
        expected = [[0, 0, 0, 0, 0, 1], [0, 1, 0, 1, 1, 1], [0, 0, 0, 1, 0, 1], [0, 1, 1, 1, 0, 1], [0, 0, 0, 0, 1, 1]]
        assert ds.labels.tolist() == expected
        assert sample_labeling(model, 11).labels == tuple(expected[0])

    def test_pixel_materialization_is_consistent(self):
        model = expand_scenario(scenario(2, 1, 1.0, 2, 0.5))
        ds = generate_dataset(model, 3, seed=3)
        feats = image_features(ds, 4)
        assert feats.shape == (pixel_counts(ds, 4).sum(), len(model))
        assert np.all(feats.sum(axis=1) == 1.0)
        labels = image_pixel_labels(ds, 1, 4)
        # all pixels of one region share the region's label
        start = 0
        for r, c in enumerate(pixel_counts(ds, 4)):
            assert np.all(labels[start : start + c] == ds.labels[1, r])
            start += c


class TestSupport:
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        n_rows=st.integers(1, 300),
        n_cols=st.integers(1, 70),
        n_distinct=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_rows=1, n_cols=70, n_distinct=1, seed=0)
    @example(n_rows=300, n_cols=9, n_distinct=1, seed=0)
    def test_equals_row_unique(self, n_rows, n_cols, n_distinct, seed):
        # one byte, several bytes and more than 64 bits a row; a pool of n_distinct rows makes repeats,
        # and a pool of one makes every row equal
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, 2, (n_distinct, n_cols)).astype(float)
        labels = pool[rng.integers(0, n_distinct, n_rows)]
        configs, counts = _support(labels)
        expected_configs, expected_counts = np.unique(labels, axis=0, return_counts=True)
        assert configs.dtype == expected_configs.dtype and configs.shape == expected_configs.shape
        assert configs.tobytes() == expected_configs.tobytes()
        assert counts.dtype == expected_counts.dtype and counts.tobytes() == expected_counts.tobytes()


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

    @staticmethod
    def assert_paths_agree(ds, model, loss_kind, resolution):
        features = image_features(ds, resolution)
        if loss_kind == "ce":
            feats = np.tile(features, (ds.n_images, 1))
            labels = np.concatenate([image_pixel_labels(ds, i, resolution) for i in range(ds.n_images)])
            pixel_loss = ce_batch_loss(model, feats, labels)
            pixel_grad_w, pixel_grad_b = ce_gradient(model, feats, labels)
        else:
            images = [(features, image_pixel_labels(ds, i, resolution)) for i in range(ds.n_images)]
            pixel_loss = sd_batch_loss(model, images)
            pixel_grad_w, pixel_grad_b = sd_gradient(model, images)

        loss_at, grad_w_at, _ = objective_of(ds, loss_kind)
        y = sigmoid(model.weights + model.bias)
        assert loss_at(y) == pytest.approx(pixel_loss, abs=1e-12)
        compact_grad_w = grad_w_at(y)
        assert np.allclose(compact_grad_w, pixel_grad_w, atol=1e-12)
        assert float(compact_grad_w.sum()) == pytest.approx(pixel_grad_b, abs=1e-12)

    def test_ce_loss_and_raw_gradient_agree(self):
        model_spec = expand_scenario(scenario(3, 1, 1.0, 2, 0.5))
        ds = generate_dataset(model_spec, 6, seed=5)
        w = np.random.default_rng(9).normal(size=len(model_spec))
        self.assert_paths_agree(ds, ToyModel(w, 0.2), "ce", 4)

    def test_sd_loss_and_raw_gradient_agree(self):
        model_spec = expand_scenario(scenario(3, 1, 1.0, 2, 0.5))
        ds = generate_dataset(model_spec, 6, seed=6)
        w = np.random.default_rng(10).normal(size=len(model_spec))
        self.assert_paths_agree(ds, ToyModel(w, -0.1), "sd", 4)

    def test_sd_empty_images_score_zero_and_count(self):
        # no certain foreground and predictions underflowing to exactly 0:
        # the images with no foreground label have an empty soft-Dice denominator
        model_spec = RegionModel((Region(2.0, 0.0), Region(1.0, 0.5), Region(1.0, 0.5)))
        ds = generate_dataset(model_spec, 8, seed=1)
        model = ToyModel(np.full(3, -800.0), 0.0)
        assert 0 < np.count_nonzero(ds.labels.sum(axis=1) == 0) < ds.n_images
        self.assert_paths_agree(ds, model, "sd", 1)
        assert objective_of(ds, "sd")[0](sigmoid(model.weights)) == pytest.approx(0.875, abs=1e-12)


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
        _, grad_w_at, _ = _objective("sd", configs, n, volumes)
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
        # the exact weights stand in for image counts
        sd_loss = _objective("sd", configs, weights, volumes)[0]
        assert sd_loss(q) == pytest.approx(expected_sd_exhaustive(model, pred).value, abs=1e-12)
        ce_loss = _objective("ce", configs, weights, volumes)[0]
        assert ce_loss(q) == pytest.approx(expected_ce(model, pred).value / volumes.sum(), abs=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        st.integers(1, 12).flatmap(
            lambda r: st.tuples(
                st.lists(st.lists(st.sampled_from([0.0, 1.0]), min_size=r, max_size=r), min_size=1, max_size=16),
                st.lists(st.floats(1e-6, 1e6), min_size=r, max_size=r),
                st.lists(
                    st.one_of(st.sampled_from([0.0, 1.0, LOG_EPS, 1.0 - LOG_EPS, LOG_EPS / 2]), st.floats(0.0, 1.0)),
                    min_size=r,
                    max_size=r,
                ),
            )
        ),
        st.integers(1, 1000),
    )
    def test_cross_entropy_keeps_the_bits_of_the_weighted_sum(self, support, repeats):
        # the support as _support builds it: distinct rows, each seen a whole number of times
        rows, volumes, y = support
        configs, _ = _support(np.array(rows))
        n = np.arange(1, len(configs) + 1) * repeats
        volumes, y = np.array(volumes), np.array(y)
        mean_l = n @ configs / n.sum()
        weighted_sum = float(_ce_terms(mean_l, *_clamped_logs(y)) @ (volumes / volumes.sum()))
        assert _objective("ce", configs, n, volumes)[0](y) == weighted_sum


class TestTraining:
    def test_ce_recovers_uncertain_probability(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 3000, seed=21)
        report = train(ds, "ce", seed=1)
        assert abs(report.per_region_pred[1] - 0.5) < 0.02
        assert report.per_region_pred[0] < 0.02 and report.per_region_pred[2] > 0.98

    def test_ce_converges_to_train_split_frequencies(self):
        model = expand_scenario(scenario(10, 1, 2.0, 4, 0.35))
        ds = generate_dataset(model, 2000, seed=22)
        from volbias.trainer import _split_indices

        report = train(ds, "ce", max_epochs=6000, seed=2)
        i_train, _, _ = _split_indices(ds.n_images, 2)
        freqs = ds.labels[i_train].mean(axis=0)
        assert np.abs(report.per_region_pred - freqs).max() < 1e-3

    def test_ce_on_certain_labels(self):
        model = expand_scenario(scenario(100, 1, 1.0, 2, 0.0))
        ds = generate_dataset(model, 500, seed=23)
        report = train(ds, "ce", seed=3)
        assert np.abs(report.per_region_pred - model.probabilities).max() < 0.02

    def test_sd_matches_risk_minimizer_argmin(self):
        spec = scenario(100, 1, 1.0, 1, 0.75)
        ds = generate_dataset(expand_scenario(spec), 2000, seed=24)
        report = train(ds, "sd", lr=0.5, seed=4)
        argmin = sd_minimizer(spec).p_tilde_opt
        assert argmin == 1.0
        assert abs(report.per_region_pred[1] - argmin) < 0.05

    def test_duplicating_images_changes_nothing(self):
        model = expand_scenario(scenario(10, 1, 1.0, 2, 0.4))
        ds = generate_dataset(model, 400, seed=25)
        half = ds.labels[:200]
        doubled = np.vstack([half, half])
        for kind in ("ce", "sd"):
            w1, b1, *_ = _fit(ds.model.volumes, half, half, kind, 0.5, 800)
            w2, b2, *_ = _fit(ds.model.volumes, doubled, doubled, kind, 0.5, 800)
            assert np.abs(sigmoid(w1 + b1) - sigmoid(w2 + b2)).max() < 1e-6

    def test_unknown_loss_rejected(self):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 100, seed=27)
        with pytest.raises(ValueError):
            train(ds, "dice")

    @pytest.mark.parametrize("lr", [0.0, -1.0, math.nan, math.inf])
    def test_bad_learning_rate_rejected(self, lr):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 100, seed=27)
        with pytest.raises(ValueError, match="learning rate"):
            train(ds, "ce", lr=lr)

    @pytest.mark.parametrize("max_epochs", [0, -1])
    def test_nonpositive_max_epochs_rejected(self, max_epochs):
        model = expand_scenario(scenario(10, 1, 1.0, 1, 0.5))
        ds = generate_dataset(model, 100, seed=27)
        with pytest.raises(ValueError, match="max_epochs"):
            train(ds, "ce", max_epochs=max_epochs)

    @pytest.mark.parametrize("loss_kind", ["ce", "sd"])
    def test_biases_are_in_the_model_volume_units(self, loss_kind):
        # a third of a unit is no whole number of pixels at a power-of-two resolution
        model = expand_scenario(scenario(100, 1, 1.0, 3, 0.75))
        ds = generate_dataset(model, 300, seed=29)
        report = train(ds, loss_kind, seed=14)
        true_mean = (ds.labels[_split_indices(ds.n_images, 14)[2]] @ model.volumes).mean()
        pred = report.per_region_pred
        assert report.bias_soft == pytest.approx(pred @ model.volumes - true_mean, abs=1e-12)
        assert report.bias_hard == pytest.approx((pred >= 0.5) @ model.volumes - true_mean, abs=1e-12)

    def test_warm_start_from_ce_keeps_sd_binary(self):
        # pretraining with cross-entropy does not rescue the soft-Dice
        # bias: continued SD training still saturates to an endpoint
        spec = scenario(100, 1, 1.0, 1, 0.75)
        ds = generate_dataset(expand_scenario(spec), 2000, seed=28)
        ce_report = train(ds, "ce", seed=12)
        assert abs(ce_report.per_region_pred[1] - 0.75) < 0.05
        sd_report = train(ds, "sd", seed=12, init=ce_report.model)
        assert abs(sd_report.per_region_pred[1] - 1.0) < 0.05


class TestStopping:
    """Why and when a run stops: the SD endpoint, the CE stationary point, the epoch cap or divergence."""

    @staticmethod
    def dataset(k):
        return generate_dataset(expand_scenario(scenario(100, 1, 1.0, k, 0.75)), 300, seed=40 + k)

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_sd_stops_once_saturated(self, k):
        ds = self.dataset(k)
        report = train(ds, "sd", max_epochs=3000, seed=13)
        assert report.stop_reason == "saturated" and report.converged
        # the endpoint rule is checked every epoch, so the run stops within a few hundred epochs
        assert report.epochs_run < 500
        # nothing is left to learn: the run stopped before its Adam step at an endpoint, so
        # continuing moves no prediction and stops at once, as a CE warm restart does
        more = train(ds, "sd", max_epochs=3000, seed=13, init=report.model)
        assert np.abs(more.per_region_pred - report.per_region_pred).max() < 1e-6
        assert more.stop_reason == "saturated" and more.epochs_run == 1

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_ce_stops_when_stationary(self, k):
        ds = self.dataset(k)
        report = train(ds, "ce", max_epochs=3000, seed=13)
        assert report.stop_reason == "stationary" and report.converged
        # the volume-100 background, the last region to meet the rule, needs y < 1e-6
        assert report.epochs_run < 800
        i_train, _, _ = _split_indices(ds.n_images, 13)
        residual = np.abs(report.per_region_pred - ds.labels[i_train].mean(axis=0))
        assert residual.max() < 1e-4
        # in volume too: the certain background has volume 100
        assert (residual * ds.model.volumes).max() < 1e-4
        # the run stopped before its Adam step, so a warm restart is stationary at once
        more = train(ds, "ce", max_epochs=3000, seed=13, init=report.model)
        assert more.stop_reason == "stationary" and more.epochs_run == 1

    @settings(deadline=None, max_examples=40)
    @given(
        k=st.integers(1, 16),
        mu=st.floats(0.05, 8.0),
        p=st.floats(0.05, 0.95),
        s_alpha=st.floats(1.0, 1000.0),
        seed=st.integers(0, 2**16),
    )
    def test_saturated_sd_run_sits_at_an_endpoint(self, k, mu, p, s_alpha, seed):
        ds = generate_dataset(expand_scenario(scenario(s_alpha, 1, mu, k, p)), 300, seed)
        report = train(ds, "sd", seed=seed)
        assert report.stop_reason == "saturated"
        y, volumes = report.per_region_pred, ds.model.volumes
        # at an endpoint in probability and in volume
        assert (np.minimum(y, 1.0 - y) * np.maximum(volumes, 1.0)).max() < 1e-4
        # and the train-split gradient pushes every prediction further out
        i_train = _split_indices(ds.n_images, seed)[0]
        grad_w = _objective("sd", *np.unique(ds.labels[i_train], axis=0, return_counts=True), volumes)[1](y)
        assert np.all(np.where(y < 0.5, grad_w > 0.0, grad_w < 0.0))

    @settings(deadline=None, max_examples=40)
    @given(
        k=st.integers(1, 16),
        mu=st.floats(0.05, 8.0),
        p=st.floats(0.05, 0.95),
        s_alpha=st.floats(0.1, 1000.0),
        seed=st.integers(0, 2**16),
    )
    def test_stationary_ce_run_sits_at_the_train_frequencies(self, k, mu, p, s_alpha, seed):
        # with a small s_alpha another region outweighs the background: the stop test checks the
        # largest region first, and that need not be the background
        ds = generate_dataset(expand_scenario(scenario(s_alpha, 1, mu, k, p)), 300, seed)
        report = train(ds, "ce", seed=seed)
        assert report.stop_reason == "stationary"
        i_train = _split_indices(ds.n_images, seed)[0]
        residual = np.abs(report.per_region_pred - ds.labels[i_train].mean(axis=0))
        # in every region, in probability and in volume
        assert (residual * np.maximum(ds.model.volumes, 1.0)).max() < 1e-4

    @pytest.mark.parametrize("region, logit", [(0, -800.0), (-1, 40.0)], ids=["background_at_0", "foreground_at_1"])
    def test_zero_gradient_is_no_sd_endpoint(self, region, logit):
        # a saturated run with one logit moved so deep into the sigmoid's tail that its prediction is
        # exactly 0 or 1: that region's gradient is exactly 0, pushing it to neither endpoint, so the run
        # is not at its optimum and goes on to the cap
        ds = self.dataset(1)
        saturated = train(ds, "sd", max_epochs=3000, seed=13)
        assert saturated.stop_reason == "saturated"
        weights = saturated.model.weights.copy()
        weights[region] = logit
        report = train(ds, "sd", max_epochs=20, seed=13, init=ToyModel(weights, saturated.model.bias))
        assert report.per_region_pred[region] == (1.0 if logit > 0 else 0.0)
        assert report.stop_reason == "max_epochs" and not report.converged
        assert report.epochs_run == 20

    def test_no_foreground_label_is_no_sd_endpoint(self):
        # with no foreground label in any image, soft-Dice is 1 at every prediction and its gradient is
        # exactly 0: no prediction is pushed anywhere, so the run stays at 0.5 and goes on to the cap
        ds = ToyDataset(self.dataset(1).model, np.zeros((300, 3)))
        report = train(ds, "sd", max_epochs=30, seed=13)
        assert np.all(report.per_region_pred == 0.5)
        assert report.stop_reason == "max_epochs" and not report.converged
        assert report.epochs_run == 30

    def test_ce_trains_a_region_of_any_volume_share(self):
        # the uncertain region's raw gradient scales with its volume share; Adam's epsilon scales
        # with it, so the region trains as it would at any share: stationary, after the same epochs
        reports = {}
        for mu in (1e-10, 1e-8, 1e-7, 1e-4):
            ds = generate_dataset(expand_scenario(scenario(10, 1, mu, 1, 0.75)), 300, seed=0)
            reports[mu] = train(ds, "ce", seed=0)
            assert reports[mu].stop_reason == "stationary"
            i_train = _split_indices(ds.n_images, 0)[0]
            assert abs(reports[mu].per_region_pred[1] - ds.labels[i_train, 1].mean()) < 1e-4
        # at a share of 1e-5 the region's own gradient starts to steer the shared bias, which moves
        # the stop by a few epochs; below that every run stops at the same epoch
        assert reports[1e-10].epochs_run == reports[1e-8].epochs_run == reports[1e-7].epochs_run

    @pytest.mark.parametrize("loss_kind", ["ce", "sd"])
    def test_stalled_run_is_not_converged(self, loss_kind):
        # Adam moves each logit by about lr per epoch, so at lr 1e-9 every prediction stays at 0.5:
        # the run reaches neither optimum, and stalling is no stop reason, so it runs to the cap
        report = train(self.dataset(4), loss_kind, lr=1e-9, max_epochs=300, seed=13)
        assert report.stop_reason == "max_epochs" and not report.converged
        assert report.epochs_run == 300
        assert np.abs(report.per_region_pred - 0.5).max() < 1e-6

    def test_cap_reports_max_epochs(self):
        report = train(self.dataset(4), "sd", max_epochs=150, seed=13)
        assert report.stop_reason == "max_epochs" and not report.converged
        assert report.epochs_run == 150

    @pytest.mark.parametrize("loss_kind", ["ce", "sd"])
    def test_diverged_run_raises(self, loss_kind):
        with pytest.raises(TrainingDivergedError, match="diverged") as err:
            train(self.dataset(1), loss_kind, lr=1e308, max_epochs=3000, seed=13)
        # refused at the first epoch whose gradient is not finite, not at the cap
        assert int(re.search(r"epoch (\d+)", str(err.value)).group(1)) <= 10

    def test_validation_rows_do_not_steer_training(self):
        ds = self.dataset(1)
        labels = ds.labels.copy()
        i_val = _split_indices(ds.n_images, 13)[1]
        labels[i_val, 1:-1] = 1.0 - labels[i_val, 1:-1]
        flipped = ToyDataset(ds.model, labels)
        for loss_kind in ("ce", "sd"):
            a = train(ds, loss_kind, max_epochs=3000, seed=13)
            b = train(flipped, loss_kind, max_epochs=3000, seed=13)
            assert np.array_equal(a.per_region_pred, b.per_region_pred)
            assert (a.epochs_run, a.stop_reason) == (b.epochs_run, b.stop_reason)
            assert a.final_loss != b.final_loss


class TestEmpiricalVolumeBias:
    def test_ce_trained_soft_bias_near_zero(self):
        spec = scenario(100, 1, 1.0, 1, 0.5)
        ds = generate_dataset(expand_scenario(spec), 3000, seed=31)
        report = train(ds, "ce", seed=6)
        bias_soft, bias_hard = empirical_volume_bias(report, expand_scenario(spec), n_images=4000, seed=7)
        assert abs(bias_soft) < 0.05
        # thresholding a near-half probability snaps to one side or the other
        assert abs(abs(bias_hard) - 0.5) < 0.1

    def test_sd_trained_overestimates(self):
        spec = scenario(100, 1, 1.0, 1, 0.75)
        ds = generate_dataset(expand_scenario(spec), 2000, seed=32)
        report = train(ds, "sd", lr=0.5, seed=8)
        bias_soft, _ = empirical_volume_bias(report, expand_scenario(spec), n_images=4000, seed=9)
        assert bias_soft == pytest.approx(0.25, abs=0.07)

    @pytest.mark.parametrize("n_images", [0, -3])
    def test_no_images_rejected(self, n_images):
        spec = scenario(100, 1, 1.0, 1, 0.5)
        report = train(generate_dataset(expand_scenario(spec), 100, seed=34), "ce", max_epochs=5)
        with pytest.raises(ValueError, match="at least one labeling"):
            empirical_volume_bias(report, expand_scenario(spec), n_images=n_images)

    def test_no_bias_without_uncertainty(self):
        # The background's logit, in the sigmoid's tail, moves by at most about
        # -ln(_ADAM_B2) / 2 per epoch, and its residual is amplified by its
        # volume, so deep saturation takes hundreds of epochs, well inside the cap.
        for p in (0.0, 1.0):
            spec = scenario(100, 1, 1.0, 1, p)
            ds = generate_dataset(expand_scenario(spec), 600, seed=33)
            for kind in ("ce", "sd"):
                report = train(ds, kind, lr=0.5, max_epochs=16000, seed=10)
                bias_soft, bias_hard = empirical_volume_bias(report, expand_scenario(spec), n_images=2000, seed=11)
                assert abs(bias_soft) < 0.02 and abs(bias_hard) < 0.02
