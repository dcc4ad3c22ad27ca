"""Risk-minimizing predictions and the bias structure they induce.

Under expected cross-entropy the optimum is closed-form: predict every
region's true foreground probability. Under expected soft-Dice it is an
endpoint, 0 below a unique switch point of the true probability and 1
above it. The gap between the optimizer and the true probability, scaled
by the uncertain volume, is the systematic volume bias.

The optimum is at q = 0 or q = 1. Take mu, s_gamma > 0 (else E[SD] is
constant in q); s_gamma cancels. With m of the K uncertain regions
labeled foreground, let x_m = m*mu/K and D_m = x_m + 2. Then
SD(m, q) = 1 - 2 (x_m q + 1) / (D_m + mu q), and with binomial weights
w_m, E[SD](q) = 1 - 2 R(q), R(q) = const + sum_m c_m / (D_m + mu q),
c_m = w_m (1 - x_m D_m / mu). D_m increases with m, and c_m has the sign
of mu - x_m D_m: + up to some m*, - from there on. So exp(D_m* s) g(s),
g(s) = sum_m c_m exp(-D_m s), is a sum of nondecreasing terms, and g
changes sign at most once, from - to +, at some s* (Descartes' rule for
exponential sums; Polya-Szego, Problems and Theorems in Analysis II,
part V). As 1/(D + t)^2 = int_0^inf s exp(-(D + t) s) ds, R'(q) =
-mu h(mu q) with h(t) = int exp(-t s) s g(s) ds, and d/dt exp(t s*) h(t)
= -int (s - s*) exp(-t (s - s*)) s g(s) ds <= 0. So R' changes sign at
most once, from - to +: R is quasi-convex and E[SD] quasi-concave in q,
with its minimum on [0, 1] at an endpoint.

The gap E[SD](q=1) - E[SD](q=0) = sum_m B_m(p) d_m, with Bernstein
weights B_m(p) = C(K, m) p^m (1-p)^(K-m) and d_m = SD(m, 1) - SD(m, 0)
of the sign of mu - x_m D_m, has one root in p. The Bernstein basis is
variation-diminishing (Lorentz, Bernstein Polynomials): with z = p/(1-p),
z^-m* (1-p)^-K gap = sum_m C(K, m) d_m z^(m - m*) decreases strictly in
z, from + at p = 0 to - at p = 1. So the switch point exists and is
unique, and the bracket test of ``find_switch_point`` is exact.

Large K. At q = 0 and 1, SD depends only on the uncertain label volume x
in [0, mu]: SD(x, 0) = x/(x + 2) is concave with |SD''| <= 1/2, and
SD(x, 1) = (mu - x)/(x + 2 + mu) convex with SD'' <= 4(1 + mu)/(2 + mu)^3
(both at x = 0). x has mean mu p and variance mu^2 p (1-p)/K <= mu^2/(4K),
so by Taylor's theorem to second order the gap above, gap_K(p), exceeds
its value g(p) at x = mu p by 0 to c/K, c = (1/2 + 4(1 + mu)/(2 + mu)^3)
mu^2/8. g vanishes where mu p^2 + 2p - 1 = 0, at L(mu) = (sqrt(1 + mu)
- 1)/mu, whatever s_alpha and s_gamma; it decreases and is convex, with
g(1) = -mu/(2 + mu). With s = mu/((2 + mu)(1 - L)), its chord's slope
from L to 1, g(L - d) >= s d and g(L + d) <= -s d; so at delta_K =
c/(s K), g >= c/K at L - delta_K and g <= -c/K at L + delta_K. Hence
gap_K >= g > 0 below L and gap_K(L + delta_K) <= 0: L < p*_K <= L +
delta_K, and the switch point tends to L(mu) < 1/2 at rate 1/K.

The 1/K term. With G(x) = SD(x, 1) - SD(x, 0), gap_K(p) = E[G(x)], and
the third and fourth central moments of x are O(1/K^2), so gap_K(p) =
G(mu p) + G''(mu p) mu^2 p (1-p)/(2K) + O(1/K^2). At x = mu L, where
x (x + 2) = mu, the root moves by -G''(x) mu L (1 - L)/(2K G'(x)) =
(1/2 - L)/K: p*_K = L + (1/2 - L)/K + O(1/K^2), 1/2 at K = 1 as it must.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .regions import RegionModel, ScenarioSpec
from .risk import PredictionAssignment, _sd_binomial, sd_binomial_curve

__all__ = [
    "BiasPoint",
    "SdMinimum",
    "ce_minimizer",
    "sd_minimizer",
    "bias_curve",
    "find_switch_point",
]


@dataclass(frozen=True)
class BiasPoint:
    """Optimal prediction and resulting bias at one true probability."""

    p_beta: float
    p_tilde_opt: float
    prob_error: float  # p_tilde_opt - p_beta
    volume_bias: float  # mu * s_gamma * prob_error


class SdMinimum(NamedTuple):
    p_tilde_opt: float
    loss_opt: float
    tie: bool  # both endpoints attain the minimum; 0 is reported


def ce_minimizer(model: RegionModel) -> PredictionAssignment:
    """Risk-optimal predictions under expected cross-entropy: the truth.

    The expected cross-entropy separates over regions and each term is
    minimized exactly at the region's true foreground probability.
    """
    return PredictionAssignment(model.probabilities)


def sd_minimizer(spec: ScenarioSpec) -> SdMinimum:
    """Globally minimize the expected soft-Dice loss over the shared prediction.

    The minimum is at q = 0 or q = 1 (see the module docstring). Endpoint
    losses within 1e-12 of each other are a tie, reported at 0 and flagged.
    """
    return _endpoint_minimum(sd_binomial_curve(spec, (0.0, 1.0)))


def _endpoint_minimum(losses) -> SdMinimum:
    """The smaller of the endpoint losses (E[SD](0), E[SD](1)); within 1e-12, a tie at 0."""
    at_0, at_1 = (float(v) for v in losses)
    if abs(at_0 - at_1) <= 1e-12:
        return SdMinimum(0.0, at_0, True)
    return SdMinimum(0.0, at_0, False) if at_0 < at_1 else SdMinimum(1.0, at_1, False)


def bias_curve(k: int, mu: float, p_grid: Sequence[float], s_gamma: float = 1.0) -> list[BiasPoint]:
    """Soft-Dice probability error and volume bias across true probabilities.

    The volume bias is the probability error times the total uncertain
    volume mu * s_gamma (in voxel-volume units): every uncertain region
    misestimated by the same amount contributes proportionally. Soft-Dice
    never scores the certain background, so its volume never enters.
    """
    # soft-Dice never reads the background, so s_alpha = 0 changes nothing
    specs = [ScenarioSpec(0.0, s_gamma, mu, k, p) for p in p_grid]  # each p is checked
    sd_at = _sd_binomial(k, mu, s_gamma, (0.0, 1.0))  # one for every p
    points = []
    for p, spec in zip(p_grid, specs):
        opt = _endpoint_minimum(sd_at(spec.p_beta))
        err = opt.p_tilde_opt - p
        points.append(BiasPoint(float(p), opt.p_tilde_opt, float(err), float(mu * s_gamma * err)))
    return points


def find_switch_point(k: int, mu: float, tol: float = 1e-6, s_gamma: float = 1.0) -> float | None:
    """Bisect for the true probability where the endpoint preference flips.

    The bracketing function is the loss gap E[SD](q=1) - E[SD](q=0):
    positive means under-estimation (0 preferred), negative means
    over-estimation. Returns None if the gap never changes sign on [0, 1]
    (for instance when there is no uncertain volume at all). The certain
    background never enters: soft-Dice does not score true negatives.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    sd_at = _sd_binomial(k, mu, s_gamma, (0.0, 1.0))  # one, held across the bisection

    def gap(p: float) -> float:
        at_0, at_1 = sd_at(p)
        return at_1 - at_0

    lo, hi = 0.0, 1.0
    g_lo, g_hi = gap(lo), gap(hi)
    if not (g_lo > 0.0 > g_hi):
        return None
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket no longer narrows in floating point
            break
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
