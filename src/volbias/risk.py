"""Exact expected losses over the joint label distribution of a region model.

Expected cross-entropy decomposes by linearity into a closed-form sum over
regions. The expected soft-Dice loss does not: its ratio couples all
regions. Exhaustive enumeration, the reference route, sums it over all 2^U
label configurations of the U uncertain regions; regions with probability
0 or 1 fold into a fixed label volume and overlap. The binomial route for
a homogeneous scenario writes each ratio's 1/D as a Laplace integral, in
which the K independent, identical uncertain regions enter only as a power
of one region's transform, so its cost does not grow with K. The CE term
and the soft-Dice ratio are those of :mod:`volbias.losses`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .losses import SoftMap, _ce_terms, _check_same_length, _clamped_logs, _probabilities, _sd_ratio, cross_entropy
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


class PredictionAssignment(SoftMap):
    """One predicted foreground probability per region, each of unit weight."""

    @property
    def p_pred(self) -> np.ndarray:
        return self.values


@dataclass(frozen=True)
class ExpectedLoss:
    """An exact expected-loss value plus how it was computed.

    ``config_count`` is the number of label configurations the computation
    covers: 1 for the closed form, 2^U for exhaustive enumeration over U
    uncertain regions, the K+1 foreground counts the binomial route integrates over.
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


def expected_ce(model: RegionModel, pred: PredictionAssignment) -> ExpectedLoss:
    """Expected volume-weighted cross-entropy, exact by linearity.

    Each region contributes volume * [-p log q - (1-p) log(1-q)]: the
    cross-entropy against the model's own probability map, so no
    enumeration is ever needed.
    """
    return ExpectedLoss(cross_entropy(model.map, pred), config_count=1, method="closed_form")


def ce_curve(spec: ScenarioSpec, p_tilde) -> np.ndarray:
    """Expected cross-entropy of a scenario at every shared uncertain prediction.

    The closed form of :func:`expected_ce` for the predictions
    (0, q, ..., q, 1), one entry per q of ``p_tilde``: background and
    certain foreground are predicted exactly, and the K uncertain regions
    add up to one region of volume mu * s_gamma.
    """
    q = _probabilities(p_tilde, "predictions")
    certain = spec.s_alpha * _ce_terms(0.0, *_clamped_logs(0.0)) + spec.s_gamma * _ce_terms(1.0, *_clamped_logs(1.0))
    return certain + spec.mu * spec.s_gamma * _ce_terms(spec.p_beta, *_clamped_logs(q))


def expected_sd_exhaustive(model: RegionModel, pred: PredictionAssignment) -> ExpectedLoss:
    """Expected soft-Dice loss by enumerating all label configurations.

    All 2^U configurations of the U uncertain regions are enumerated, each
    weighted by its probability; identical regions are never merged.
    """
    _check_same_length(model, pred)
    s, p, q = model.volumes, model.probabilities, pred.p_pred

    uncertain = (p > 0.0) & (p < 1.0)
    n_unc = int(np.count_nonzero(uncertain))
    if n_unc > MAX_UNCERTAIN_REGIONS:
        raise TooManyUncertainRegionsError(
            f"{n_unc} uncertain regions exceed the enumeration limit of {MAX_UNCERTAIN_REGIONS}; "
            "for homogeneous scenarios use expected_sd_binomial instead"
        )

    # configuration c labels uncertain region j foreground where bit j of c is set: each region
    # doubles the configurations so far, its foreground copies placed after them
    certain = ~uncertain
    inter, target = np.empty((1 << n_unc, 1)), np.empty(1 << n_unc)
    inter[0], target[0] = (s[certain] * p[certain]) @ q[certain], s[certain] @ p[certain]
    for j, (v, x) in enumerate(zip(s[uncertain], q[uncertain])):
        n = 1 << j
        np.add(v * x, inter[:n], out=inter[n : 2 * n])
        np.add(v, target[:n], out=target[n : 2 * n])
    table = _sd_ratio(inter, np.add(target, float(s @ q), out=target)[:, None])
    logw = target  # the denominators are spent: their buffer takes the log weights
    logw[0] = 0.0
    for j, pj in enumerate(p[uncertain]):
        n = 1 << j
        np.add(math.log(pj), logw[:n], out=logw[n : 2 * n])
        np.add(math.log1p(-pj), logw[:n], out=logw[:n])
    value = float(np.maximum(np.exp(logw, out=logw) @ table, 0.0)[0])  # E[SD] >= 0; 1 - 2I/D can round below
    return ExpectedLoss(value, config_count=1 << n_unc, method="exhaustive")


def expected_sd_binomial(spec: ScenarioSpec, p_tilde_beta: float) -> ExpectedLoss:
    """Expected soft-Dice loss of a homogeneous scenario at one shared prediction.

    The single-point form of :func:`sd_binomial_curve`.
    """
    value = float(sd_binomial_curve(spec, [p_tilde_beta])[0])
    return ExpectedLoss(value, config_count=spec.k_regions + 1, method="binomial")


def sd_binomial_curve(spec: ScenarioSpec, p_tilde) -> np.ndarray:
    """Expected soft-Dice loss of a homogeneous scenario via one Laplace integral.

    The K uncertain regions enter the integral as a power of one region's
    transform, so neither time nor memory grows with K; every entry q of
    ``p_tilde`` is evaluated at once. Background is predicted 0 and certain
    foreground 1, their risk-optimal values.
    """
    return _sd_binomial(spec.k_regions, spec.mu, spec.s_gamma, p_tilde)(spec.p_beta)


_LAPLACE_STEP = 0.25  # the binomial route's trapezoid step in ln t: its error is about 2e-16 of 1/D


def _sd_binomial(k: int, mu: float, s_gamma: float, p_tilde):
    """E[SD] of a homogeneous scenario at each q of ``p_tilde``, as a function of p_beta.

    In units of s_gamma, m of the K regions of volume v = mu/K labeled foreground give
    D = 2 + m v + mu q in [2, 2 + 2 mu] and SD = (FP + FN)/D, with the false-positive
    volume FP = (K - m) v q and the false-negative volume FN = m v (1 - q). With 1/D =
    int_0^inf exp(-tD) dt and phi(t) = 1 + p expm1(-t v), one region's E[exp(-t v b)],
    E[SD] = mu int exp(-t (2 + mu q)) phi^(K-1) [q (1-p) + (1-q) p exp(-t v)] dt: a sum
    of positive terms, so no digits cancel. The trapezoid rule in ln t converges
    geometrically (Trefethen & Weideman, SIAM Review 56(3), 2014); its nodes run from 40
    below -ln(2 + 2 mu), where the integral's head weighs under e^-40 of 1/D, to t = e^4 / 2,
    past which its tail weighs under exp(-e^4). K, mu, s_gamma and q fix the nodes x Q
    kernel, built here once.
    """
    spec = ScenarioSpec(0.0, s_gamma, mu, k, 0.0)  # checks K, mu and s_gamma; s_alpha and p_beta never enter
    q = _probabilities(p_tilde, "predictions")
    k, mu, s_gamma = spec.k_regions, spec.mu, spec.s_gamma
    uncertain = k * (mu * s_gamma / k)  # K·volume, as in the label volumes: a certain p_beta = q scores 0
    t = np.exp(np.arange(-math.log(2.0) - math.log1p(mu) - 40.0, 4.0 - math.log(2.0), _LAPLACE_STEP))
    kernel = np.exp(np.outer(-t, 2.0 + mu * q)) * (_LAPLACE_STEP * t)[:, None]  # exp(-t (2 + mu q)) dt
    decay, shrink = np.expm1(-t * (mu / k)), np.exp(-t * (mu / k))

    def at(p: float) -> np.ndarray:
        if p in (0.0, 1.0) or not uncertain > 0.0:  # one label configuration: its own soft-Dice
            inter, label = p * uncertain * q + s_gamma, p * uncertain + s_gamma
            return _sd_ratio(inter, label + (uncertain * q + s_gamma))  # 2 inter <= denominator, rounded too
        power = np.exp((k - 1.0) * np.log1p(p * decay))  # phi^(K-1)
        false_pos, false_neg = np.stack(((1.0 - p) * power, p * shrink * power)) @ kernel
        return np.minimum(mu * (q * false_pos + (1.0 - q) * false_neg), 1.0)  # rounding passes 1 at mu >= 1e16

    return at
