"""Segmentation losses, overlap metrics, thresholding, and volume errors.

All maps carry element weights alongside their values. A weight is the
volume of the element it scores: 1.0 everywhere for plain per-voxel maps,
or a region volume when one entry stands for a whole region. The weighted
forms reduce to the familiar per-voxel definitions when every weight is 1,
so a single implementation serves both granularities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


class _Sealed(bytes):
    """The private, immutable buffer under a sealed array.

    A sealed array is a float view of one of these. numpy refuses to make a
    view of ``bytes`` writable, so no caller can change a sealed array, and
    only this module builds one. The subclasses below each name an input
    rule and nest as the rules do: every 0/1 label is a probability, every
    probability a valid weight. So the buffer's type says which rules its
    entries already meet.
    """


_FLOAT = np.dtype(float)


def _seal(v: np.ndarray, kind: type = _Sealed) -> np.ndarray:
    """A sealed 1-D float copy of ``v``, over a buffer of type ``kind``."""
    return np.frombuffer(kind(v), dtype=_FLOAT)


# One reduction per bound: a NaN entry makes the reduction NaN, which fails the comparison. An empty
# array passes by its size, not by ``initial=``: on the bench ``train`` workload that form read about
# 0.3 MiB more peak RSS.
def _in_unit_interval(v: np.ndarray) -> bool:
    return v.size == 0 or (np.minimum.reduce(v) >= 0.0 and np.maximum.reduce(v) <= 1.0)


def _finite_nonnegative(v: np.ndarray) -> bool:
    return v.size == 0 or (np.minimum.reduce(v) >= 0.0 and np.maximum.reduce(v) < np.inf)


def _all_binary(v: np.ndarray) -> bool:
    """Every entry is exactly 0 or 1, NaN being neither: the two counts are disjoint and must cover ``v``."""
    return np.count_nonzero(v == 0.0) + np.count_nonzero(v == 1.0) == v.size


class _Weights(_Sealed):
    rule, holds = "be finite and >= 0", staticmethod(_finite_nonnegative)


class _Probabilities(_Weights):
    rule, holds = "lie in [0, 1]", staticmethod(_in_unit_interval)


class _Labels(_Probabilities):
    rule, holds = "be 0 or 1", staticmethod(_all_binary)


def _checked(values, name: str, kind: type) -> np.ndarray:
    """``values`` as a sealed 1-D float array on which ``kind.holds``; NaN must fail it.

    An array sealed under ``kind``'s rule or a narrower one is its own
    checked copy: it is returned as it is, neither copied nor checked again.
    A view, copy or pickle of a sealed array is not sealed and is checked,
    and so is any other reading of a sealed buffer than the whole of it as
    floats.
    """
    if (
        isinstance(values, np.ndarray)
        and isinstance(values.base, kind)
        and values.dtype is _FLOAT
        and values.nbytes == len(values.base)
    ):
        return values
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not kind.holds(v):
        raise ValueError(f"{name} must {kind.rule}")
    return _seal(v, kind)


def _probabilities(values, name: str = "probabilities") -> np.ndarray:
    return _checked(values, name, _Probabilities)


def _binary_labels(values) -> np.ndarray:
    return _checked(values, "labels", _Labels)


@dataclass(frozen=True)
class _Map:
    """Checked values with one element weight each: finite and >= 0, 1.0 by default."""

    values: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        values = self._check(self.values)
        weights = np.ones_like(values) if self.weights is None else self.weights
        weights = _checked(weights, "weights", _Weights)
        if weights.shape != values.shape:
            raise ValueError(f"weights shape {weights.shape} does not match values shape {values.shape}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "weights", weights)

    def __reduce__(self):
        # a shallow copy shares the sealed arrays; a deep copy or unpickled array is plain and rebuilt through
        # the checks; neither keeps the cached logs
        return type(self), (self.values, self.weights)

    # built on first use, then shared: sealed so no caller can change the map through them
    @cached_property
    def _logs(self) -> tuple[np.ndarray, np.ndarray]:
        """The clamped ``log q`` and ``log(1 - q)`` of the values, as :func:`cross_entropy` reads them."""
        return tuple(_seal(a) for a in _clamped_logs(self.values))

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


def _clamped_logs(q):
    """``log q`` and ``log(1 - q)``, q clamped to [LOG_EPS, 1 - LOG_EPS]: ``np.clip``'s bits at half its cost."""
    q = np.minimum(np.maximum(q, LOG_EPS), 1.0 - LOG_EPS)
    return np.log(q), np.log(1.0 - q)


def _log_likelihood(p, log_q, log_1q):
    """Expected log-likelihood per entry, p log q + (1-p) log(1-q), from the logs of :func:`_clamped_logs`."""
    return p * log_q + (1.0 - p) * log_1q


def _ce_terms(p, log_q, log_1q):
    """Expected CE per entry, -p log q - (1-p) log(1-q): the log-likelihood negated, to the same bits."""
    return -_log_likelihood(p, log_q, log_1q)


def _sd_ratio(inter, denom):
    """Soft-Dice loss 1 - 2 * inter / denom, elementwise; 0 where denom is 0.

    An empty target predicted empty is a perfect match. Computed in place:
    ``inter`` is a float array of the result's shape, ``denom`` a float
    array that broadcasts to it, both are overwritten, and ``inter`` is
    returned holding the result.
    """
    empty = denom > 0.0
    np.logical_not(empty, out=empty)
    np.copyto(denom, 1.0, where=empty)
    inter *= 2.0
    inter /= denom
    np.subtract(1.0, inter, out=inter)
    np.copyto(inter, 0.0, where=empty)
    return inter


def _check_same_length(a, b):
    if len(a) != len(b):
        raise ValueError(f"maps have different lengths: {len(a)} vs {len(b)}")


def cross_entropy(target: SoftMap | HardMap, pred: SoftMap) -> float:
    """Weighted cross-entropy between target probabilities and predictions.

    Element weights are taken from the target map. Predictions are clamped
    away from {0, 1} by ``LOG_EPS`` before the logs. A map takes its logs
    once, on first use, so scoring one prediction against many targets
    pays for them once.
    """
    _check_same_length(target, pred)
    # ``0.0 -``, not a unary minus: an empty map scores +0.0
    return float(0.0 - target.weights.dot(_log_likelihood(target.values, *pred._logs)))


def soft_dice_loss(target: SoftMap | HardMap, pred: SoftMap | HardMap) -> float:
    """One minus the weighted soft overlap ratio.

    Element weights are taken from the target map. Defined as 0 when target
    and prediction are both entirely empty: an empty structure predicted
    empty is a perfect match.
    """
    _check_same_length(target, pred)
    w, t, p = target.weights, target.values, pred.values
    inter = float(w.dot(t * p))
    denom = float(w.dot(t) + w.dot(p))
    if denom == 0.0:
        return 0.0
    return 1.0 - 2.0 * inter / denom


def dice_score(a: HardMap, b: HardMap) -> float:
    """Weighted overlap score between two binary maps; 1.0 for empty/empty."""
    return 1.0 - soft_dice_loss(a, b)


def threshold(pred: SoftMap) -> HardMap:
    """Binarize a soft map; values >= 0.5 become foreground."""
    return HardMap((pred.values >= 0.5).astype(float), pred.weights)


def volume_of(m: SoftMap | HardMap) -> float:
    """Weighted volume of a map: sum(weight * value).

    For a soft map this is the expected-volume estimator implied by reading
    the values as foreground probabilities.
    """
    return float(m.weights @ m.values)


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
