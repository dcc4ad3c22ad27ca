"""Desk-scale logistic classifier trained with cross-entropy or soft-Dice.

Synthetic images are sampled from a region model: every pixel carries a
one-hot feature identifying its region, and all pixels of a region share
the label drawn for that region. A logistic model on these features is
exactly expressive enough to realize any per-region prediction, so the
bias it learns is attributable to the loss alone, not to model capacity.

Because pixels within a region are interchangeable, the trainer works on a
compact region-level representation. ``_objective`` is the only place it
knows a loss formula: on a label support (the distinct label rows of a
split and how often each occurs) it returns the expected loss of
:mod:`volbias.risk` under that empirical label distribution, built from the
same :mod:`volbias.losses` terms, and its gradient, which equals the
pixel-level :func:`ce_gradient` / :func:`sd_gradient`. ``_fit`` runs one
descent loop for both losses.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .losses import SoftMap, _ce_terms, _sd_ratio
from .regions import RegionModel, sample_labelings
from .rng import make_rng

__all__ = [
    "DEFAULT_LR",
    "ToyDataset",
    "ToyModel",
    "TrainReport",
    "TrainingDivergedError",
    "sigmoid",
    "generate_dataset",
    "forward",
    "ce_batch_loss",
    "ce_gradient",
    "sd_batch_loss",
    "sd_gradient",
    "train",
    "empirical_volume_bias",
]

DEFAULT_LR = {"ce": 0.1, "sd": 0.1}


class TrainingDivergedError(RuntimeError):
    pass


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``exp`` only ever sees -|z|."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


@dataclass(frozen=True)
class ToyDataset:
    """Sampled images in compact region form.

    ``labels`` has one row per image and one column per region; all pixels
    of region r in image i share ``labels[i, r]``. ``region_pixel_counts``
    gives the number of pixels materialized per region, shared by all
    images, and ``pixels_per_unit_volume`` converts pixel counts back into
    the model's volume units.
    """

    model: RegionModel
    region_pixel_counts: np.ndarray
    labels: np.ndarray
    pixels_per_unit_volume: int

    def __post_init__(self):
        counts = np.asarray(self.region_pixel_counts, dtype=int)
        labels = np.asarray(self.labels, dtype=float)
        if labels.ndim != 2 or labels.shape[1] != counts.size or counts.size != len(self.model):
            raise ValueError("inconsistent dataset shapes")
        object.__setattr__(self, "region_pixel_counts", counts)
        object.__setattr__(self, "labels", labels)

    @property
    def n_images(self) -> int:
        return self.labels.shape[0]

    @property
    def n_regions(self) -> int:
        return self.region_pixel_counts.size

    @property
    def pixels_per_image(self) -> int:
        return sum(self.region_pixel_counts.tolist())  # Python ints: an int64 sum can wrap

    @property
    def region_volumes(self) -> np.ndarray:
        """Region volumes implied by the materialized pixels."""
        return self.region_pixel_counts / self.pixels_per_unit_volume

    @property
    def pixels_per_region(self) -> dict[int, int]:
        return {r: int(c) for r, c in enumerate(self.region_pixel_counts)}

    def image_features(self, i: int) -> np.ndarray:
        """One-hot region-identity features of image i, shape (pixels, regions)."""
        return np.repeat(np.eye(self.n_regions), self.region_pixel_counts, axis=0)

    def image_pixel_labels(self, i: int) -> np.ndarray:
        """Per-pixel labels of image i, expanded from the region labels."""
        return np.repeat(self.labels[i], self.region_pixel_counts)


@dataclass
class ToyModel:
    """Logistic classifier: per-region weight plus a shared bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one training run plus held-out volume diagnostics.

    ``model`` carries the trained parameters so a later run can warm-start
    from them; it is not part of the serialized report.
    """

    loss_kind: str
    final_loss: float
    per_region_pred: np.ndarray
    epochs_run: int
    converged: bool
    bias_soft: float
    bias_hard: float
    model: "ToyModel" = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "loss_kind": self.loss_kind,
                "final_loss": self.final_loss,
                "per_region_pred": [float(p) for p in self.per_region_pred],
                "epochs_run": self.epochs_run,
                "bias_soft": self.bias_soft,
                "bias_hard": self.bias_hard,
            }
        )


def generate_dataset(
    model: RegionModel, n_images: int, pixels_per_unit_volume: int, seed: int
) -> ToyDataset:
    """Sample a dataset of region-labeled images from a region model.

    Each region is materialized as round(volume * pixels_per_unit_volume)
    pixels; each image draws one independent joint labeling. A region that
    would round to zero pixels, or to more than an int64 holds, cannot be
    represented at this resolution.
    """
    if n_images < 1:
        raise ValueError("need at least one image")
    if pixels_per_unit_volume < 1:
        raise ValueError("pixels_per_unit_volume must be >= 1")
    try:
        counts = np.array([round(r.volume * pixels_per_unit_volume) for r in model.regions], dtype=int)
    except OverflowError:
        raise ValueError(
            f"region pixel counts overflow at {pixels_per_unit_volume} pixels per unit volume; "
            f"decrease the resolution"
        ) from None
    if np.any(counts == 0):
        bad = np.flatnonzero(counts == 0).tolist()
        raise ValueError(
            f"regions {bad} round to zero pixels at {pixels_per_unit_volume} pixels "
            f"per unit volume; increase the resolution"
        )
    return ToyDataset(model, counts, sample_labelings(model, n_images, seed), pixels_per_unit_volume)


def forward(model: ToyModel, features: np.ndarray) -> SoftMap:
    """Per-pixel predicted probabilities for a feature matrix."""
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or features.shape[1] != model.weights.size:
        raise ValueError(f"features must have shape (pixels, {model.weights.size})")
    return SoftMap(sigmoid(features @ model.weights + model.bias))


def ce_batch_loss(model: ToyModel, features: np.ndarray, labels: np.ndarray) -> float:
    """Mean per-pixel cross-entropy over a batch of pixels."""
    y = sigmoid(np.asarray(features, float) @ model.weights + model.bias)
    return float(np.mean(_ce_terms(np.asarray(labels, float), y)))


def ce_gradient(model: ToyModel, features: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact gradient of :func:`ce_batch_loss` in (weights, bias).

    The per-pixel driving term is prediction minus label, routed through
    the feature matrix; the sigmoid derivative cancels against the
    cross-entropy derivative.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.shape[0] == 0:
        raise ValueError("batch is empty")
    y = sigmoid(features @ model.weights + model.bias)
    resid = (y - labels) / labels.size
    return features.T @ resid, float(np.sum(resid))


def _sd_image_terms(model: ToyModel, images) -> list[tuple]:
    """(features, predictions, labels, intersection, denominator) of each nonempty image."""
    images = list(images)
    kept = []
    for features, labels in images:
        features = np.asarray(features, dtype=float)
        y = sigmoid(features @ model.weights + model.bias)
        l = np.asarray(labels, float)
        denom = float(l.sum() + y.sum())
        if denom != 0.0:
            kept.append((features, y, l, float(l @ y), denom))
    if len(kept) < len(images):
        warnings.warn(f"skipped {len(images) - len(kept)} image(s) with empty labels and predictions")
    if not kept:
        raise ValueError("no image in the batch has any foreground label or prediction")
    return kept


def sd_batch_loss(model: ToyModel, images) -> float:
    """Mean per-image soft-Dice loss over a batch of (features, labels) pairs.

    Images whose labels and predictions are both entirely zero carry no
    overlap information; they are skipped with a warning.
    """
    *_, inter, denom = zip(*_sd_image_terms(model, images))
    return float(np.mean(_sd_ratio(np.array(inter), np.array(denom))))


def sd_gradient(model: ToyModel, images) -> tuple[np.ndarray, float]:
    """Exact gradient of :func:`sd_batch_loss` in (weights, bias).

    For each image, d(loss)/d(prediction at pixel j) is
    -2 * (label_j * denom - intersection) / denom^2, composed with the
    sigmoid derivative and routed through the features.
    """
    grad_w = np.zeros_like(model.weights)
    grad_b = 0.0
    kept = _sd_image_terms(model, images)
    for features, y, l, inter, denom in kept:
        dl_dy = -2.0 * (l * denom - inter) / denom**2
        dz = dl_dy * y * (1.0 - y)
        grad_w += features.T @ dz
        grad_b += float(dz.sum())
    return grad_w / len(kept), grad_b / len(kept)


# ----------------------------------------------------------------------
# Region-compact training
# ----------------------------------------------------------------------


def _objective(loss_kind, configs, n, counts, volumes):
    """``(loss(y), grad_w(y))`` on the label support ``configs``, row i seen ``n[i]`` times.

    ``counts`` and ``volumes`` are the region pixel counts and volumes. The
    raw batch gradient ``grad_w`` is in the region weights; its sum is the
    bias gradient.
    """
    if loss_kind == "ce":
        # exact for 0/1 labels: the label frequencies of the images
        mean_l = n @ configs / n.sum()
        n_pixels = counts.sum()
        return (
            lambda y: float(_ce_terms(mean_l, y) @ (counts / n_pixels)),
            lambda y: (y - mean_l) * counts / n_pixels,
        )
    weights = n / n.sum()
    target = configs @ volumes

    def terms(y):
        return configs @ (volumes * y), target + float(volumes @ y)

    def grad_w(y):
        # sum_i weights_i * dSD_i/dy = -2 * sum_i a_i * (configs_i - I_i / D_i) with a = weights / D,
        # where D_i = 0 (ratio pinned to 0) drops out; then through the sigmoid and the region volume
        inter, denom = terms(y)
        denom = np.where(denom > 0.0, denom, np.inf)
        a = weights / denom
        return -2.0 * (a @ configs - a @ (inter / denom)) * y * (1.0 - y) * volumes

    return lambda y: float(weights @ _sd_ratio(*terms(y))), grad_w


# Full-batch moment estimates carry no sampling noise, so a short
# second-moment memory is safe and lets saturated logits keep moving.
_ADAM_B1 = 0.9
_ADAM_B2 = 0.99
_ADAM_EPS = 1e-8


def _fit(
    counts: np.ndarray,
    pixels_per_unit_volume: int,
    train_labels: np.ndarray,
    val_labels: np.ndarray,
    loss_kind: str,
    lr: float,
    max_epochs: int,
    patience: int,
    init: ToyModel | None = None,
) -> tuple[np.ndarray, float, int, bool, float, np.ndarray]:
    """Deterministic full-batch adaptive-moment descent on the compact form.

    One parameter vector theta = (region weights, shared bias) takes every
    step; the bias gradient is the sum of the weight gradients. The raw
    batch gradients scale each region by its pixel share, which would stall
    small regions; per-parameter moment normalization makes every logit
    move at a comparable rate without touching the stationary points. The
    learning rate is divided by five for every ``patience`` epochs without
    validation improvement and the run stops after two such windows. The
    last iterate and its prediction are returned: under deterministic
    full-batch descent it is the most-trained model, and selecting an
    earlier snapshot by validation loss would drag the predictions toward
    the validation split's label frequencies.
    """
    counts = counts.astype(float)
    volumes = counts / pixels_per_unit_volume
    _, grad_w_at = _objective(loss_kind, *np.unique(train_labels, axis=0, return_counts=True), counts, volumes)
    val_loss_at, _ = _objective(loss_kind, *np.unique(val_labels, axis=0, return_counts=True), counts, volumes)

    theta = np.zeros(counts.size + 1) if init is None else np.append(init.weights, init.bias)
    if theta.size != counts.size + 1:
        raise ValueError("warm-start model has the wrong number of regions")
    m1 = m2 = np.zeros_like(theta)
    best_val = np.inf
    since_improvement = 0
    for epoch in range(1, max_epochs + 1):
        y = sigmoid(theta[:-1] + theta[-1])
        grad_w = grad_w_at(y)
        val_loss = val_loss_at(y)
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"{loss_kind} training diverged at epoch {epoch}: validation loss {val_loss}"
            )
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            since_improvement = 0
        else:
            since_improvement += 1
            if since_improvement % patience == 0:
                lr /= 5.0
            if since_improvement >= 2 * patience:
                break
        g = np.append(grad_w, grad_w.sum())
        m1 = _ADAM_B1 * m1 + (1.0 - _ADAM_B1) * g
        m2 = _ADAM_B2 * m2 + (1.0 - _ADAM_B2) * g * g
        hat1 = m1 / (1.0 - _ADAM_B1**epoch)
        hat2 = m2 / (1.0 - _ADAM_B2**epoch)
        theta = theta - lr * hat1 / (np.sqrt(hat2) + _ADAM_EPS)
    # only the plateau rule leaves the loop with a full second window
    stopped = since_improvement >= 2 * patience
    y = sigmoid(theta[:-1] + theta[-1])
    return theta[:-1], float(theta[-1]), epoch, stopped, val_loss_at(y), y


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 60/20/20 by image, seeded
    perm = make_rng(seed).permutation(n)
    n_train = max(int(round(0.6 * n)), 1)
    n_val = max(int(round(0.2 * n)), 1)
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _volume_biases(pred, volumes, labels) -> tuple[float, float]:
    """Soft and thresholded predicted volume minus the mean volume of ``labels``."""
    true_mean = float((labels @ volumes).mean())
    return float(volumes @ pred - true_mean), float(volumes @ (pred >= 0.5) - true_mean)


def train(
    dataset: ToyDataset,
    loss_kind: str,
    lr: float | None = None,
    max_epochs: int = 4000,
    patience: int = 200,
    seed: int = 0,
    init: ToyModel | None = None,
) -> TrainReport:
    """Train the logistic classifier and report held-out volume biases.

    Images are split 60/20/20 into train/validation/test by a seeded
    permutation. Optimization is deterministic full-batch descent with
    adaptive moment scaling (see :func:`_fit`); the validation loss drives
    the plateau schedule and the stopping rule, the last iterate is the
    trained model, and soft and thresholded volume biases are measured on
    the test images.
    """
    if loss_kind not in DEFAULT_LR:
        raise ValueError(f"unknown loss kind {loss_kind!r}; expected 'ce' or 'sd'")
    if lr is None:
        lr = DEFAULT_LR[loss_kind]
    if not 0.0 < lr < np.inf:
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
    if patience < 1:
        raise ValueError(f"patience must be >= 1, got {patience}")
    i_train, i_val, i_test = _split_indices(dataset.n_images, seed)
    if i_test.size == 0:
        raise ValueError("dataset too small to hold out test images")
    w, b, epochs, converged, final_loss, pred = _fit(
        dataset.region_pixel_counts,
        dataset.pixels_per_unit_volume,
        dataset.labels[i_train],
        dataset.labels[i_val],
        loss_kind,
        lr,
        max_epochs,
        patience,
        init=init,
    )
    bias_soft, bias_hard = _volume_biases(pred, dataset.region_volumes, dataset.labels[i_test])
    return TrainReport(
        loss_kind=loss_kind,
        final_loss=final_loss,
        per_region_pred=pred,
        epochs_run=epochs,
        converged=converged,
        bias_soft=bias_soft,
        bias_hard=bias_hard,
        model=ToyModel(w, b),
    )


def empirical_volume_bias(
    report: TrainReport, model: RegionModel, n_images: int = 2000, seed: int = 0
) -> tuple[float, float]:
    """Volume bias of a trained model on freshly sampled held-out images.

    Returns the mean of V(soft prediction) - V(labels) and of
    V(thresholded prediction) - V(labels) over ``n_images`` new joint
    labelings of the region model, in the model's volume units.
    """
    if len(report.per_region_pred) != len(model):
        raise ValueError("report and model disagree on the number of regions")
    pred = np.asarray(report.per_region_pred, dtype=float)
    return _volume_biases(pred, model.volumes, sample_labelings(model, n_images, seed))
