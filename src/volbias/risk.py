"""Exact expected losses over the joint label distribution of a region model.

Expected cross-entropy decomposes by linearity into a closed-form sum over
regions. The expected soft-Dice loss does not: its ratio couples all
regions, so one kernel tabulates it over the foreground counts of groups
of interchangeable uncertain regions and weights its rows binomially.
Exhaustive enumeration makes every uncertain region a group of one (2^U
configurations); the binomial collapse makes the K uncertain regions of a
homogeneous scenario one group (K+1 counts), one table for every p_beta.
Regions with probability 0 or 1 form no group but a fixed label volume and
overlap. The CE term and the soft-Dice ratio are those of :mod:`volbias.losses`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import _ce_terms, _probabilities, _sd_ratio
from .regions import RegionModel, ScenarioSpec

__all__ = [
    "MAX_UNCERTAIN_REGIONS",
    "PredictionAssignment",
    "ExpectedLoss",
    "TooManyUncertainRegionsError",
    "scenario_prediction",
    "expected_ce",
    "expected_sd_exhaustive",
    "expected_sd_binomial",
    "sd_binomial_curve",
    "ce_curve",
]

# 2^24 configurations keep a full sweep under seconds; beyond that the
# binomial path (homogeneous scenarios) is the intended route.
MAX_UNCERTAIN_REGIONS = 24


class TooManyUncertainRegionsError(ValueError):
    pass


@dataclass(frozen=True)
class PredictionAssignment:
    """One predicted foreground probability per region."""

    p_pred: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_pred", _probabilities(self.p_pred, "predicted probabilities"))

    def __len__(self) -> int:
        return self.p_pred.size


@dataclass(frozen=True)
class ExpectedLoss:
    """An exact expected-loss value plus how it was computed.

    ``config_count`` is the number of label configurations the computation
    enumerated: 1 for the closed form, 2^U for exhaustive enumeration over
    U uncertain regions, K+1 for the binomial collapse.
    """

    value: float
    config_count: int
    method: str  # "closed_form" | "exhaustive" | "binomial"

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError(f"expected loss must be finite, got {self.value}")
        if self.config_count < 1:
            raise ValueError("config_count must be >= 1")


def scenario_prediction(model: RegionModel, p_tilde_beta: float) -> PredictionAssignment:
    """Prediction vector (0, q, ..., q, 1) for a scenario-shaped model.

    Background gets 0 and certain foreground gets 1 (their risk-optimal
    values under both losses); every uncertain region gets ``p_tilde_beta``.
    """
    if not 0.0 <= p_tilde_beta <= 1.0:
        raise ValueError(f"p_tilde_beta must lie in [0, 1], got {p_tilde_beta}")
    return PredictionAssignment(np.concatenate(([0.0], np.full(len(model) - 2, p_tilde_beta), [1.0])))


def _check_assignment(model: RegionModel, pred: PredictionAssignment):
    if len(pred) != len(model):
        raise ValueError(f"assignment has {len(pred)} entries for {len(model)} regions")


def expected_ce(model: RegionModel, pred: PredictionAssignment) -> ExpectedLoss:
    """Expected volume-weighted cross-entropy, exact by linearity.

    Each region contributes volume * [-p log q - (1-p) log(1-q)]; no
    enumeration is ever needed.
    """
    _check_assignment(model, pred)
    value = float(model.volumes @ _ce_terms(model.probabilities, pred.p_pred))
    return ExpectedLoss(value, config_count=1, method="closed_form")


def ce_curve(spec: ScenarioSpec, p_tilde) -> np.ndarray:
    """Expected cross-entropy of a scenario at every shared uncertain prediction.

    The closed form of :func:`expected_ce` for the predictions
    (0, q, ..., q, 1), one entry per q of ``p_tilde``: background and
    certain foreground are predicted exactly, and the K uncertain regions
    add up to one region of volume mu * s_gamma.
    """
    q = _probabilities(p_tilde, "predictions")
    certain = spec.s_alpha * _ce_terms(0.0, 0.0) + spec.s_gamma * _ce_terms(1.0, 1.0)
    return certain + spec.mu * spec.s_gamma * _ce_terms(spec.p_beta, q)


def expected_sd_exhaustive(model: RegionModel, pred: PredictionAssignment) -> ExpectedLoss:
    """Expected soft-Dice loss by enumerating all label configurations.

    Every uncertain region is its own group, so all 2^U configurations of
    the U uncertain regions are enumerated; identical regions are never
    merged.
    """
    _check_assignment(model, pred)
    s, p, q = model.volumes, model.probabilities, pred.p_pred

    uncertain = (p > 0.0) & (p < 1.0)
    n_unc = int(np.count_nonzero(uncertain))
    if n_unc > MAX_UNCERTAIN_REGIONS:
        raise TooManyUncertainRegionsError(
            f"{n_unc} uncertain regions exceed the enumeration limit of {MAX_UNCERTAIN_REGIONS}; "
            "for homogeneous scenarios use expected_sd_binomial instead"
        )

    certain = ~uncertain
    label_volume, overlap = s[certain] @ p[certain], (s[certain] * p[certain]) @ q[certain]
    table = _sd_table(((1, v, x) for v, x in zip(s[uncertain], q[uncertain])), label_volume, overlap, float(s @ q))
    logw = np.zeros(1)
    for log_b in _binomial_log_weights(1, p[uncertain]):  # first region's label fastest, as in the table
        logw = (log_b[:, None] + logw).ravel()
    value = float(_expected_sd(logw, table)[0])
    return ExpectedLoss(value, config_count=1 << n_unc, method="exhaustive")


def expected_sd_binomial(spec: ScenarioSpec, p_tilde_beta: float) -> ExpectedLoss:
    """Expected soft-Dice loss of a homogeneous scenario at one shared prediction.

    The single-point form of :func:`sd_binomial_curve`.
    """
    value = float(sd_binomial_curve(spec, [p_tilde_beta])[0])
    return ExpectedLoss(value, config_count=spec.k_regions + 1, method="binomial")


def sd_binomial_curve(spec: ScenarioSpec, p_tilde) -> np.ndarray:
    """Expected soft-Dice loss of a homogeneous scenario via binomial sums.

    The K interchangeable uncertain regions are one group, so the 2^K
    enumeration collapses to K+1 binomially weighted counts, and every
    entry q of ``p_tilde`` is evaluated in one matrix product. Background
    is predicted 0 and certain foreground 1, their risk-optimal values.
    """
    return _sd_binomial_at(_sd_binomial_table(spec.k_regions, spec.mu, spec.s_gamma, p_tilde), spec.p_beta)


def _sd_binomial_table(k: int, mu: float, s_gamma: float, p_tilde) -> np.ndarray:
    """SD(m, q) with m of the K uncertain regions foreground: K, mu, s_gamma and q fix it, p_beta never."""
    spec = ScenarioSpec(0.0, s_gamma, mu, k, 0.0)  # checks K, mu and s_gamma; s_alpha and p_beta never enter
    q = _probabilities(p_tilde, "predictions")
    k, volume = spec.k_regions, spec.mu * spec.s_gamma / spec.k_regions
    pred_sum = k * volume * q + spec.s_gamma  # K·volume, as in the label volumes: a certain p_beta = q scores 0
    return _sd_table([(k, volume, q)], spec.s_gamma, spec.s_gamma, pred_sum)


def _sd_binomial_at(table: np.ndarray, p: float) -> np.ndarray:
    """E[SD] at one true probability: rows weighted Binomial(K, p), or row 0 or K for a certain p."""
    if 0.0 < p < 1.0:  # one row product per p: one matrix product for many p rounds differently
        return _expected_sd(_binomial_log_weights(len(table) - 1, p)[0], table)
    return np.maximum(table[-1 if p == 1.0 else 0], 0.0)


def _sd_table(groups, label_volume: float, overlap, pred_sum) -> np.ndarray:
    """Soft-Dice loss of each configuration (a row; first group's count fastest) at each q (a column).

    A group is (size, volume, prediction) of interchangeable regions. Label volumes start at
    ``label_volume``, overlaps at ``overlap``; ``overlap`` and the predicted volume ``pred_sum``
    are scalars or share the predictions' grid.
    """
    target, inter = np.array([label_volume]), np.array(overlap, dtype=float, ndmin=2)
    for size, volume, q in groups:
        counts = np.arange(size + 1) * volume
        inter = (counts[:, None, None] * q + inter).reshape(counts.size * target.size, -1)
        target = (counts[:, None] + target).ravel()
    # the denominators; a scalar predicted volume is added in place of the label volumes
    denom = np.add(target, pred_sum, out=target)[:, None] if np.ndim(pred_sum) == 0 else target[:, None] + pred_sum
    return _sd_ratio(inter, denom)


def _expected_sd(logw: np.ndarray, table: np.ndarray) -> np.ndarray:
    """E[SD] from log weights, which are overwritten by the weights, and a table."""
    return np.maximum(np.exp(logw, out=logw) @ table, 0.0)  # E[SD] >= 0, but 1 - 2I/D can round below 0


def _binomial_log_weights(k: int, p) -> np.ndarray:
    """Log Binomial(k, p) probabilities of m = 0..k, one row per entry of ``p``.

    Each p lies strictly between 0 and 1: a certain label forms no group.
    log C(k, m) is a running sum of log((k - i + 1) / i), so no binomial
    coefficient is ever formed and no k is too large to represent. The sum
    runs to m = k/2 only and is mirrored by C(k, m) = C(k, k - m), which
    halves its rounding.
    """
    i = np.arange(1, k // 2 + 1)
    head = np.concatenate(([0.0], np.cumsum(np.log((k - i + 1) / i))))
    log_comb = np.concatenate((head, head[(k - 1) // 2 :: -1]))
    m = np.arange(k + 1)
    log_p = np.array([(math.log(x), math.log1p(-x)) for x in np.atleast_1d(p)]).reshape(-1, 2)
    return log_comb + m * log_p[:, :1] + (k - m) * log_p[:, 1:]
