"""Paired bootstrap testing and linear volume re-calibration.

The bootstrap test resamples paired differences with replacement and asks
how often the resampled mean falls on the wrong side of zero, giving
one-sided p-values for superiority and inferiority. Re-calibration fits an
ordinary least-squares line mapping predicted volumes to true volumes on a
training split; applying the line corrects both a constant bias and the
regression-to-the-mean pattern of over-estimated small and under-estimated
large structures.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .rng import make_rng

__all__ = [
    "BootstrapResult",
    "CalibrationFit",
    "VolumeSpecificProfile",
    "bootstrap_paired",
    "fit_calibration",
    "apply_calibration",
    "volume_specific_profile",
]

# Resample indices are drawn at most this many at a time (8 MiB of int64),
# so the bootstrap's memory does not grow with the number of resamples.
_RESAMPLE_CHUNK = 1 << 20


@dataclass(frozen=True)
class BootstrapResult:
    """One-sided bootstrap p-values for the mean paired difference.

    ``p_greater`` is small when the first sample is consistently larger,
    ``p_smaller`` when it is consistently smaller. ``significant`` fires
    when either one-sided test rejects at the 0.05 level, so as a combined
    flag its null rate is about twice the one-sided level.
    """

    mean_diff: float
    p_greater: float
    p_smaller: float
    n_resamples: int
    significant: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class CalibrationFit:
    """Least-squares line true ~ slope * predicted + intercept.

    The residual diagnostics are evaluated on the fitting data, where the
    normal equations force both to vanish.
    """

    slope: float
    intercept: float
    n_points: int
    residual_mean: float
    residual_slope: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class VolumeSpecificProfile:
    """Per-decile mean true and predicted volumes, ordered by true volume."""

    decile_means: tuple[tuple[float, float], ...]  # (mean true, mean predicted)
    overall_mean_true: float


def _paired(a, b, min_pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as equally long 1-D float arrays of at least ``min_pairs`` pairs.

    a - b is finite only when a, b and every difference are, so one test
    refuses NaN, infinities and a pair like (1e308, -1e308).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be one-dimensional and equally long")
    if a.size < min_pairs:
        raise ValueError(f"need at least {min_pairs} pairs, got {a.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below, not warned about
        finite = np.isfinite(a - b).all()
    if not finite:
        raise ValueError("paired samples and their differences must be finite")
    return a, b


def bootstrap_paired(a, b, n_resamples: int = 10000, seed: int = 0) -> BootstrapResult:
    """Bootstrap test on the mean of paired differences a - b.

    Differences are resampled with replacement ``n_resamples`` times;
    p-values count resample means on the opposite side of zero, with a +1
    correction so a p-value is never exactly zero. Deterministic for a
    fixed seed, whatever the size of the chunks the resamples are drawn in.
    """
    a, b = _paired(a, b, 2)
    if n_resamples < 1000:
        raise ValueError("use at least 1000 resamples")
    d = a - b
    rng = make_rng(seed)
    rows = max(1, _RESAMPLE_CHUNK // d.size)
    means = np.empty(n_resamples)
    for chunk in np.split(means, range(rows, n_resamples, rows)):  # views into means
        chunk[:] = d[rng.integers(0, d.size, size=(chunk.size, d.size))].mean(axis=1)
    p_greater = (int(np.count_nonzero(means <= 0.0)) + 1) / (n_resamples + 1)
    p_smaller = (int(np.count_nonzero(means >= 0.0)) + 1) / (n_resamples + 1)
    return BootstrapResult(
        mean_diff=float(d.mean()),
        p_greater=p_greater,
        p_smaller=p_smaller,
        n_resamples=n_resamples,
        significant=min(p_greater, p_smaller) < 0.05,
    )


def fit_calibration(pred_volumes, true_volumes) -> CalibrationFit:
    """Fit the correction line mapping predicted volumes to true volumes."""
    pred, true = _paired(pred_volumes, true_volumes, 3)
    var = float(np.var(pred))
    if var == 0.0:
        raise ValueError("predicted volumes are all identical; cannot fit a slope")
    slope = float(np.cov(pred, true, bias=True)[0, 1]) / var
    intercept = float(true.mean() - slope * pred.mean())
    resid = true - (slope * pred + intercept)
    resid_slope = float(np.cov(pred, resid, bias=True)[0, 1]) / var
    return CalibrationFit(
        slope=slope,
        intercept=intercept,
        n_points=pred.size,
        residual_mean=float(resid.mean()),
        residual_slope=resid_slope,
    )


def apply_calibration(fit: CalibrationFit, pred_volume, with_flag: bool = False):
    """Correct predicted volumes with a fitted line, clamping below zero.

    Accepts a scalar or an array. With ``with_flag=True`` also returns
    whether any clamping occurred (a boolean, or a boolean array for array
    input), distinguishing a clamped zero from a genuine zero.
    """
    pred_volume = np.asarray(pred_volume, dtype=float)
    if not np.isfinite(pred_volume).all():
        raise ValueError("predicted volumes must be finite")
    raw = fit.slope * pred_volume + fit.intercept
    clamped = raw < 0.0
    corrected = np.where(clamped, 0.0, raw)
    if np.ndim(pred_volume) == 0:
        corrected = float(corrected)
        clamped = bool(clamped)
    return (corrected, clamped) if with_flag else corrected


def volume_specific_profile(pred_volumes, true_volumes) -> VolumeSpecificProfile:
    """Mean predicted vs true volume within each decile of true volume.

    Samples are sorted by true volume and split into ten equal-count bins;
    when the count does not divide evenly the leading bins take one extra
    sample each.
    """
    pred, true = _paired(pred_volumes, true_volumes, 10)
    bins = np.array_split(np.argsort(true, kind="stable"), 10)
    means = [(float(true[sel].mean()), float(pred[sel].mean())) for sel in bins]
    return VolumeSpecificProfile(tuple(means), float(true.mean()))
