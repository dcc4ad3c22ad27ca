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
import os
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from itertools import count

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

# The bootstrap draws its resample indices as ``make_rng(seed).integers(0, n)``
# does for n < 2**32, but in blocks of the generator's word stream, on every
# core. The generator reads Philox's 64-bit outputs as 32-bit words, low half
# first. Word x gives the index (x * n) >> 32, unless the low half of x * n is
# below (2**32 - n) % n, and then it is skipped. Word w lies w // 8 counter
# steps into the stream, where ``advance`` puts a fresh copy of the generator,
# so a block can be drawn anywhere and every index keeps its bits.
_BLOCK_WORDS = 1 << 17  # 32-bit words per block, drawn into 2 MiB of buffers
_RAW_WORDS = 1 << 13  # 64-bit outputs per random_raw call, 64 KiB each


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


@dataclass(frozen=True)
class VolumeSpecificProfile:
    """Per-decile mean true and predicted volumes, ordered by true volume."""

    decile_means: tuple[tuple[float, float], ...]  # (mean true, mean predicted)


def _paired(a, b, min_pairs: int, max_pairs: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as equally long 1-D float arrays of ``min_pairs`` to ``max_pairs`` pairs.

    a - b is finite only when a, b and every difference are, so one test
    refuses NaN, infinities and a pair like (1e308, -1e308).
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("paired samples must be one-dimensional and equally long")
    if a.size < min_pairs:
        raise ValueError(f"need at least {min_pairs} pairs, got {a.size}")
    if max_pairs is not None and a.size > max_pairs:
        raise ValueError(f"need at most {max_pairs} pairs, got {a.size}")
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below, not warned about
        finite = np.isfinite(a - b).all()
    if not finite:
        raise ValueError("paired samples and their differences must be finite")
    return a, b


def bootstrap_paired(a, b, n_resamples: int = 10000, seed: int = 0) -> BootstrapResult:
    """Bootstrap test on the mean of paired differences a - b.

    Differences are resampled with replacement ``n_resamples`` times;
    p-values count resample means on the opposite side of zero, with a +1
    correction so a p-value is never exactly zero. The resamples are the
    rows of ``d[make_rng(seed).integers(0, n, size=(n_resamples, n))]``,
    so the result is deterministic for a seed, whatever the block size or
    the number of cores the indices are drawn on. At most 2**32 - 1 pairs:
    beyond that the generator draws 64-bit indices.
    """
    a, b = _paired(a, b, 2, 2**32 - 1)
    if n_resamples < 1000:
        raise ValueError("use at least 1000 resamples")
    d = a - b
    means = _resample_means(d, n_resamples, seed)
    p_greater = (int(np.count_nonzero(means <= 0.0)) + 1) / (n_resamples + 1)
    p_smaller = (int(np.count_nonzero(means >= 0.0)) + 1) / (n_resamples + 1)
    return BootstrapResult(
        mean_diff=float(d.mean()),
        p_greater=p_greater,
        p_smaller=p_smaller,
        n_resamples=n_resamples,
        significant=min(p_greater, p_smaller) < 0.05,
    )


def _resample_means(d: np.ndarray, n_resamples: int, seed: int) -> np.ndarray:
    """The mean of each resample, summed from its n values in one contiguous row as a matrix row is."""
    n = d.size
    means = np.empty(n_resamples)
    row, carry, filled = 0, np.empty((1, n)), 0  # carry: a row that one block begins and a later one ends
    for values in _resampled(d, seed, n_resamples * n):
        if filled:
            k = min(n - filled, values.size)
            carry[0, filled : filled + k] = values[:k]
            values, filled = values[k:], filled + k
            if filled < n:
                continue
            np.mean(carry, axis=1, out=means[row : row + 1])
            row, filled = row + 1, 0
        k = min(values.size // n, n_resamples - row)
        np.mean(values[: k * n].reshape(k, n), axis=1, out=means[row : row + k])
        row += k
        if row == n_resamples:
            return means
        filled = values.size - k * n
        carry[0, :filled] = values[k * n :]


def _resampled(d: np.ndarray, seed: int, words: int) -> Iterator[np.ndarray]:
    """``d`` at the resample indices, one word block after another, without end.

    The blocks that cover the first ``words`` words are drawn ahead, on
    one worker thread per core; numpy draws, filters and gathers without
    the GIL. Words skipped in them leave the last rows short, and the
    blocks after them are drawn inline. Each value array is a view of a
    buffer that the next block drawn into it overwrites.
    """
    spans = [(start, min(_BLOCK_WORDS, -(-(words - start) // 8) * 8)) for start in range(0, words, _BLOCK_WORDS)]
    block = spans[0][1]  # words per block: _BLOCK_WORDS, or all of them when they fit in fewer
    workers = min(_cores(), len(spans))
    buffers = [(np.empty(block, "<u8"), np.empty(block)) for _ in range(1 if workers == 1 else 2 * workers)]

    def gather(span, buffer):
        (start, size), (prod, values) = span, buffer
        # the words are drawn into the values' buffer, which the gather overwrites once they are used
        indices = _block_indices(seed, d.size, start, values.view("<u8")[: size // 2], prod[:size])
        # the indices are in range; a mode other than "raise" writes into ``out`` without a copy
        return np.take(d, indices, out=values[: indices.size], mode="wrap")

    if workers == 1:
        yield from (gather(span, buffers[0]) for span in spans)
    else:
        from concurrent.futures import ThreadPoolExecutor  # here only: the import costs ~7 ms

        with ThreadPoolExecutor(workers) as pool:
            ahead = len(buffers)
            pending = [pool.submit(gather, span, buffers[j]) for j, span in enumerate(spans[:ahead])]
            for j in range(len(spans)):
                yield pending[j].result()
                if j + ahead < len(spans):  # the buffer block j used is free again
                    pending.append(pool.submit(gather, spans[j + ahead], buffers[j % ahead]))
    last, size = spans[-1]
    for start in count(last + size, block):
        yield gather((start, block), buffers[0])


def _block_indices(seed: int, n: int, start: int, words: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """The indices into range(n) that the words of ``make_rng(seed)`` from ``start`` on yield.

    ``start`` is a multiple of 8. ``words`` (little-endian uint64, two
    words each) receives the block's Philox outputs and ``prod``, twice as
    long, the products x * n. The indices are an int64 view of ``prod``,
    or a new array when some word is skipped.
    """
    bits = make_rng(seed).bit_generator
    bits.advance(start // 8)
    for i in range(0, words.size, _RAW_WORDS):
        piece = words[i : i + _RAW_WORDS]
        piece[:] = bits.random_raw(piece.size)
    np.multiply(words.view("<u4"), np.uint64(n), out=prod)  # a uint64 n: the products need 64 bits
    threshold = (2**32 - n) % n
    low = prod.view("<u4")[::2]
    keep = low >= threshold if threshold and low.min() < threshold else None
    indices = np.right_shift(prod, 32, out=prod).view("<i8")
    return indices if keep is None else indices[keep]


def _cores() -> int:
    """The number of cores this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


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


def apply_calibration(fit: CalibrationFit, pred_volume):
    """Correct predicted volumes with a fitted line, clamping below zero.

    Accepts a scalar or an array and returns the same shape. A corrected
    zero was clamped where ``fit.slope * pred_volume + fit.intercept < 0``.
    """
    pred_volume = np.asarray(pred_volume, dtype=float)
    if not np.isfinite(pred_volume).all():
        raise ValueError("predicted volumes must be finite")
    raw = fit.slope * pred_volume + fit.intercept
    corrected = np.where(raw < 0.0, 0.0, raw)
    return float(corrected) if np.ndim(pred_volume) == 0 else corrected


def volume_specific_profile(pred_volumes, true_volumes) -> VolumeSpecificProfile:
    """Mean predicted vs true volume within each decile of true volume.

    Samples are sorted by true volume and split into ten equal-count bins;
    when the count does not divide evenly the leading bins take one extra
    sample each.
    """
    pred, true = _paired(pred_volumes, true_volumes, 10)
    bins = np.array_split(np.argsort(true, kind="stable"), 10)
    means = [(float(true[sel].mean()), float(pred[sel].mean())) for sel in bins]
    return VolumeSpecificProfile(tuple(means))
