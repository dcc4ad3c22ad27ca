"""Segmentation losses, overlap metrics, thresholding, and volume errors.

All maps carry element weights alongside their values. A weight is the
volume of the element it scores: 1.0 everywhere for plain per-voxel maps,
or a region volume when one entry stands for a whole region. The weighted
forms reduce to the familiar per-voxel definitions when every weight is 1,
so a single implementation serves both granularities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LOG_EPS",
    "SoftMap",
    "HardMap",
    "VolumeErrorReport",
    "cross_entropy",
    "soft_dice_loss",
    "dice_score",
    "threshold",
    "volume_of",
    "volume_error_report",
    "accuracy_01",
]

# Probabilities are clamped to [LOG_EPS, 1 - LOG_EPS] inside logs. This
# bounds the loss at ~27.6 nats without moving any optimum by more than
# the clamp width itself.
LOG_EPS = 1e-12


def _checked(values, name: str, valid, rule: str) -> np.ndarray:
    """A read-only 1-D float copy of ``values``, each entry passing ``valid``, which NaN must fail."""
    v = np.array(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not valid(v).all():
        raise ValueError(f"{name} must {rule}")
    v.flags.writeable = False
    return v


def _probabilities(values, name: str = "probabilities") -> np.ndarray:
    return _checked(values, name, lambda p: (p >= 0.0) & (p <= 1.0), "lie in [0, 1]")


def _binary_labels(values) -> np.ndarray:
    return _checked(values, "labels", lambda v: (v == 0.0) | (v == 1.0), "be 0 or 1")


@dataclass(frozen=True)
class _Map:
    """Checked values with one element weight each: finite and >= 0, 1.0 by default."""

    values: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        values = self._check(self.values)
        weights = np.ones_like(values) if self.weights is None else self.weights
        weights = _checked(weights, "weights", lambda w: (w >= 0.0) & (w < np.inf), "be finite and >= 0")
        if weights.shape != values.shape:
            raise ValueError(f"weights shape {weights.shape} does not match values shape {values.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.values.size


class SoftMap(_Map):
    """Continuous foreground probabilities in [0, 1] with element weights."""

    _check = staticmethod(_probabilities)


class HardMap(_Map):
    """Binary foreground labels with element weights."""

    _check = staticmethod(_binary_labels)


@dataclass(frozen=True)
class VolumeErrorReport:
    """Signed, relative, and absolute error of a volume estimate.

    Relative quantities are undefined for an empty true structure and are
    reported as None rather than NaN.
    """

    delta_v: float
    relative_delta_v: float | None
    abs_delta_v: float
    relative_abs_delta_v: float | None

    @property
    def relatives_defined(self) -> bool:
        return self.relative_delta_v is not None


def _ce_terms(p, q):
    """Expected CE per entry, -p log q - (1-p) log(1-q), with q clamped by LOG_EPS."""
    q = np.clip(q, LOG_EPS, 1.0 - LOG_EPS)
    return -p * np.log(q) - (1.0 - p) * np.log(1.0 - q)


def _sd_ratio(inter, denom):
    """Soft-Dice loss 1 - 2 * inter / denom, elementwise; 0 where denom is 0.

    An empty target predicted empty is a perfect match.
    """
    positive = denom > 0.0
    return np.where(positive, 1.0 - 2.0 * inter / np.where(positive, denom, 1.0), 0.0)


def _check_same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"maps have different lengths: {len(a)} vs {len(b)}")


def cross_entropy(target: SoftMap | HardMap, pred: SoftMap) -> float:
    """Weighted cross-entropy between target probabilities and predictions.

    Element weights are taken from the target map. Predictions are clamped
    away from {0, 1} by ``LOG_EPS`` before the logs.
    """
    _check_same_length(target, pred)
    return float(target.weights @ _ce_terms(target.values, pred.values))


def soft_dice_loss(target: SoftMap | HardMap, pred: SoftMap) -> float:
    """One minus the weighted soft overlap ratio.

    Element weights are taken from the target map. Defined as 0 when target
    and prediction are both entirely empty: an empty structure predicted
    empty is a perfect match.
    """
    _check_same_length(target, pred)
    w = target.weights
    inter = float(w @ (target.values * pred.values))
    denom = float(w @ target.values + w @ pred.values)
    if denom == 0.0:
        return 0.0
    return 1.0 - 2.0 * inter / denom


def dice_score(a: HardMap, b: HardMap) -> float:
    """Weighted overlap score between two binary maps; 1.0 for empty/empty."""
    _check_same_length(a, b)
    w = a.weights
    inter = float(w @ (a.values * b.values))
    denom = float(w @ a.values + w @ b.values)
    if denom == 0.0:
        return 1.0
    return 2.0 * inter / denom


def threshold(pred: SoftMap, tau: float = 0.5) -> HardMap:
    """Binarize a soft map; values >= tau become foreground."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {tau}")
    return HardMap((pred.values >= tau).astype(float), pred.weights)


def volume_of(m: SoftMap | HardMap, voxel_volume: float = 1.0) -> float:
    """Weighted volume of a map: voxel_volume * sum(weight * value).

    For a soft map this is the expected-volume estimator implied by reading
    the values as foreground probabilities.
    """
    if not 0.0 < voxel_volume < np.inf:
        raise ValueError(f"voxel volume must be finite and > 0, got {voxel_volume}")
    return float(voxel_volume * (m.weights @ m.values))


def volume_error_report(pred_vol: float, true_vol: float) -> VolumeErrorReport:
    """Summarize the error of a predicted volume against the true volume."""
    if not (0.0 <= true_vol < np.inf and np.isfinite(pred_vol)):
        raise ValueError(f"volumes must be finite and the true volume >= 0, got {pred_vol} and {true_vol}")
    delta = float(pred_vol - true_vol)
    if true_vol == 0.0:
        return VolumeErrorReport(delta, None, abs(delta), None)
    return VolumeErrorReport(delta, delta / true_vol, abs(delta), abs(delta) / true_vol)


def accuracy_01(a: HardMap, b: HardMap) -> float:
    """Weighted fraction of agreeing entries between two binary maps."""
    _check_same_length(a, b)
    total = float(np.sum(a.weights))
    if total == 0.0:
        raise ValueError("cannot compute accuracy with all-zero weights")
    return float(a.weights @ (a.values == b.values)) / total
