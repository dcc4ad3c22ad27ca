"""Exact expected losses over the joint label distribution of a region model.

Expected cross-entropy decomposes by linearity into a closed-form sum over
regions. The expected soft-Dice loss does not: its ratio couples all
regions, so it is evaluated either by exhaustive enumeration of label
configurations (general models) or by a binomial collapse (homogeneous
scenarios, where only the count of uncertain regions labeled foreground
matters).

All sums are volume-weighted, and the CE term and the soft-Dice ratio are
those of :mod:`volbias.losses`: each route here only builds its label
configurations and their probabilities.
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

    Regions with probability exactly 0 or 1 have a single possible label
    and are folded out analytically, so the 2^U enumeration runs only over
    the U genuinely uncertain regions. Configuration probabilities are
    accumulated in log space and exponentiated once per configuration.
    """
    _check_assignment(model, pred)
    s = model.volumes
    p = model.probabilities
    q = pred.p_pred

    uncertain = (p > 0.0) & (p < 1.0)
    n_unc = int(np.count_nonzero(uncertain))
    if n_unc > MAX_UNCERTAIN_REGIONS:
        raise TooManyUncertainRegionsError(
            f"{n_unc} uncertain regions exceed the enumeration limit of "
            f"{MAX_UNCERTAIN_REGIONS}; for homogeneous scenarios use "
            f"expected_sd_binomial instead"
        )

    # Contributions of the certain regions (label == its probability).
    certain_labels = p[~uncertain]
    inter0 = float((s[~uncertain] * certain_labels) @ q[~uncertain])
    target0 = float(s[~uncertain] @ certain_labels)
    pred_sum = float(s @ q)  # identical for every configuration

    n_cfg = 1 << n_unc
    inter = np.empty(n_cfg)
    target = np.empty(n_cfg)
    logw = np.empty(n_cfg)
    inter[0] = inter0
    target[0] = target0
    logw[0] = 0.0
    size = 1
    for j in np.flatnonzero(uncertain):
        inter[size : 2 * size] = inter[:size] + s[j] * q[j]
        target[size : 2 * size] = target[:size] + s[j]
        logw[size : 2 * size] = logw[:size] + np.log(p[j])
        logw[:size] += np.log1p(-p[j])
        size *= 2

    sd = _sd_ratio(inter, target + pred_sum)  # before exp(logw): one array fewer alive at the peak
    value = float(np.exp(logw) @ sd)
    return ExpectedLoss(value, config_count=n_cfg, method="exhaustive")


def expected_sd_binomial(spec: ScenarioSpec, p_tilde_beta: float) -> ExpectedLoss:
    """Expected soft-Dice loss of a homogeneous scenario at one shared prediction.

    The single-point form of :func:`sd_binomial_curve`.
    """
    value = float(sd_binomial_curve(spec, [p_tilde_beta])[0])
    return ExpectedLoss(value, config_count=spec.k_regions + 1, method="binomial")


def sd_binomial_curve(spec: ScenarioSpec, p_tilde) -> np.ndarray:
    """Expected soft-Dice loss of a homogeneous scenario via binomial sums.

    With K interchangeable uncertain regions, the loss of a configuration
    depends only on the count m of them labeled foreground, so the 2^K
    enumeration collapses to K+1 binomially weighted terms:
    E[SD](q) = B(p) . SD(m, q). The weights B(p) do not depend on q, so
    every entry q of ``p_tilde`` is evaluated by one matrix product.
    Background is predicted 0 and certain foreground 1, their risk-optimal
    values.
    """
    q = _prediction_grid(p_tilde)
    k = int(spec.k_regions)
    m_volume = np.arange(k + 1)[:, None] * (spec.mu * spec.s_gamma / k)
    pred_sum = spec.mu * spec.s_gamma * q + spec.s_gamma
    inter = m_volume * q + spec.s_gamma
    target = m_volume + spec.s_gamma
    return _binomial_weights(k, spec.p_beta) @ _sd_ratio(inter, target + pred_sum)


def _prediction_grid(p_tilde) -> np.ndarray:
    q = np.asarray(p_tilde, dtype=float)
    if q.ndim != 1:
        raise ValueError(f"predictions must be one-dimensional, got shape {q.shape}")
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("predictions must lie in [0, 1]")
    return q


def _binomial_weights(k: int, p: float) -> np.ndarray:
    """Binomial(k, p) probabilities of m = 0..k.

    Computed in log space, log C(k, m) as a running sum of
    log((k - i + 1) / i), so no binomial coefficient is ever formed and no
    k is too large to represent. The sum runs to m = k/2 only and is
    mirrored by C(k, m) = C(k, k - m), which halves its rounding. p in
    {0, 1} puts all mass on one count.
    """
    if p == 0.0 or p == 1.0:
        weights = np.zeros(k + 1)
        weights[0 if p == 0.0 else k] = 1.0
        return weights
    i = np.arange(1, k // 2 + 1)
    head = np.concatenate(([0.0], np.cumsum(np.log((k - i + 1) / i))))
    log_comb = np.concatenate((head, head[(k - 1) // 2 :: -1]))
    m = np.arange(k + 1)
    return np.exp(log_comb + m * math.log(p) + (k - m) * math.log1p(-p))
