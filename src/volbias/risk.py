"""Exact expected losses over the joint label distribution of a region model.

Expected cross-entropy decomposes by linearity into a closed-form sum over
regions. The expected soft-Dice loss does not: its ratio couples all
regions, so one kernel sums it over the foreground counts of independent
groups of interchangeable uncertain regions, with binomial weights.
Exhaustive enumeration makes every uncertain region a group of one (2^U
configurations); the binomial collapse makes the K uncertain regions of a
homogeneous scenario one group (K+1 counts). Regions with probability 0 or
1 are never a group: they fold into a fixed label volume and overlap. The
CE term and the soft-Dice ratio are those of :mod:`volbias.losses`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import _ce_terms, _sd_ratio
from .regions import RegionModel, ScenarioSpec, expand_scenario

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
        p = np.array(self.p_pred, dtype=float)
        if p.ndim != 1:
            raise ValueError("prediction assignment must be one-dimensional")
        if p.size and (p.min() < 0 or p.max() > 1):
            raise ValueError("predicted probabilities must lie in [0, 1]")
        p.flags.writeable = False
        object.__setattr__(self, "p_pred", p)

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


def scenario_prediction(model_or_spec: RegionModel | ScenarioSpec, p_tilde_beta: float) -> PredictionAssignment:
    """Prediction vector (0, q, ..., q, 1) for a scenario-shaped model.

    Background gets 0 and certain foreground gets 1 (their risk-optimal
    values under both losses); every uncertain region gets ``p_tilde_beta``.
    """
    if not 0.0 <= p_tilde_beta <= 1.0:
        raise ValueError(f"p_tilde_beta must lie in [0, 1], got {p_tilde_beta}")
    model = expand_scenario(model_or_spec) if isinstance(model_or_spec, ScenarioSpec) else model_or_spec
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
    (0, q, ..., q, 1), one column per entry q of ``p_tilde``.
    """
    q = _prediction_grid(p_tilde)
    model = expand_scenario(spec)
    preds = np.vstack((np.zeros(q.size), np.broadcast_to(q, (len(model) - 2, q.size)), np.ones(q.size)))
    return model.volumes @ _ce_terms(model.probabilities[:, None], preds)


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
    groups = zip(_binomial_log_weights(1, p[uncertain]), s[uncertain], q[uncertain])
    label_volume, overlap = s[certain] @ p[certain], (s[certain] * p[certain]) @ q[certain]
    value = float(_expected_sd(groups, label_volume, overlap, float(s @ q))[0])
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
    q = _prediction_grid(p_tilde)
    k, volume = spec.k_regions, spec.mu * spec.s_gamma / spec.k_regions
    pred_sum = spec.mu * spec.s_gamma * q + spec.s_gamma
    if 0.0 < spec.p_beta < 1.0:
        group = (_binomial_log_weights(k, spec.p_beta)[0], volume, q)
        return _expected_sd([group], spec.s_gamma, spec.s_gamma, pred_sum)
    fixed = k * volume * spec.p_beta
    return _expected_sd([], fixed + spec.s_gamma, fixed * q + spec.s_gamma, pred_sum)


def _expected_sd(groups, label_volume: float, overlap, pred_sum) -> np.ndarray:
    """Expected soft-Dice loss over independent groups of interchangeable regions.

    A group is (log_weights, volume, prediction); ``log_weights[m]`` is the
    log probability that m of its regions are foreground. Configurations
    (first group's count fastest) carry log weights, label volumes starting
    at ``label_volume`` and overlaps starting at ``overlap``. Predictions,
    ``overlap`` and the predicted volume ``pred_sum`` are scalars or share a grid.
    """
    logw, target, inter = np.zeros(1), np.array([label_volume]), overlap
    for log_b, volume, q in groups:
        counts = np.arange(log_b.size) * volume
        inter = (counts[:, None, None] * q + inter).reshape(counts.size * target.size, -1)
        target = (counts[:, None] + target).ravel()
        logw = (log_b[:, None] + logw).ravel()

    target = target[:, None] + pred_sum  # the denominators; rebinding frees the label volumes
    sd = _sd_ratio(inter, target)  # before exp(logw): one array fewer alive at the peak
    return np.maximum(np.exp(logw) @ sd, 0.0)  # E[SD] >= 0; a perfect prediction can round to -2e-16


def _prediction_grid(p_tilde) -> np.ndarray:
    q = np.asarray(p_tilde, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"predictions must be one-dimensional, got shape {q.shape}")
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("predictions must lie in [0, 1]")
    return q


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
