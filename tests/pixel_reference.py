"""Pixel-level reference for the compact trainer, used only by the tests.

A dataset is expanded into its pixels, at a resolution in pixels per unit
volume that the test picks so that every region is a whole number of
pixels: one-hot region-identity features and per-pixel labels. The batch
losses score those pixels with the package's own per-voxel losses,
:func:`volbias.losses.cross_entropy` and :func:`volbias.losses.soft_dice_loss`
over unit-weight maps; the analytic gradients beside them are the reference
``trainer._objective`` is checked against.
"""

import numpy as np

from volbias.losses import HardMap, SoftMap, cross_entropy, soft_dice_loss
from volbias.trainer import sigmoid


def pixel_counts(ds, resolution):
    """Pixels per region of ``ds`` at ``resolution`` pixels per unit volume; each count must be integral."""
    counts = ds.model.volumes * resolution
    assert np.array_equal(counts, np.round(counts)), f"volumes {ds.model.volumes} are not whole pixels at {resolution}"
    return counts.astype(int)


def image_features(ds, resolution):
    """One-hot region-identity features, shared by every image of ``ds``, shape (pixels, regions)."""
    return np.repeat(np.eye(len(ds.model)), pixel_counts(ds, resolution), axis=0)


def image_pixel_labels(ds, i, resolution):
    """Per-pixel labels of image i of ``ds``, expanded from its region labels."""
    return np.repeat(ds.labels[i], pixel_counts(ds, resolution))


def forward(model, features):
    """Per-pixel predicted probabilities for a feature matrix."""
    return SoftMap(sigmoid(features @ model.weights + model.bias))


def ce_batch_loss(model, features, labels):
    """Mean per-pixel cross-entropy over a batch of pixels."""
    return cross_entropy(HardMap(labels), forward(model, features)) / len(labels)


def ce_gradient(model, features, labels):
    """Exact gradient of :func:`ce_batch_loss` in (weights, bias).

    The per-pixel driving term is prediction minus label, routed through
    the feature matrix; the sigmoid derivative cancels against the
    cross-entropy derivative.
    """
    resid = (forward(model, features).values - labels) / len(labels)
    return features.T @ resid, float(np.sum(resid))


def sd_batch_loss(model, images):
    """Mean per-image soft-Dice loss over a batch of (features, labels) pairs.

    An image whose labels and predictions are all zero scores 0 and counts
    in the mean, as in ``soft_dice_loss`` and the trainer.
    """
    return float(np.mean([soft_dice_loss(HardMap(l), forward(model, f)) for f, l in images]))


def sd_gradient(model, images):
    """Exact gradient of :func:`sd_batch_loss` in (weights, bias).

    For each image, d(loss)/d(prediction at pixel j) is
    -2 * (label_j * denom - intersection) / denom^2, composed with the
    sigmoid derivative and routed through the features. An image with an
    empty denominator carries no gradient but still counts in the mean.
    """
    grad_w = np.zeros_like(model.weights)
    grad_b = 0.0
    for features, l in images:
        y = forward(model, features).values
        denom = float(l.sum() + y.sum())
        if denom == 0.0:
            continue
        dz = -2.0 * (l * denom - float(l @ y)) / denom**2 * y * (1.0 - y)
        grad_w += features.T @ dz
        grad_b += float(dz.sum())
    return grad_w / len(images), grad_b / len(images)
