"""Minimizers, risk curves, bias curves, switch points."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from volbias import (
    ScenarioSpec,
    bias_curve,
    ce_minimizer,
    expand_scenario,
    expected_ce,
    expected_sd_binomial,
    find_switch_point,
    scenario_prediction,
    sd_binomial_curve,
    sd_minimizer,
)
from volbias.regions import Region, RegionModel
from volbias.risk import PredictionAssignment


def scenario(s_alpha, s_gamma, mu, k, p):
    return ScenarioSpec(s_alpha=s_alpha, s_gamma=s_gamma, mu=mu, k_regions=k, p_beta=p)


SPAN = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)  # volumes and ratios from 1e-3 to 1e3
PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0, 1e-6]), st.floats(0.0, 1.0))


def assert_one_sign_change_down(values, floor=1e-13):
    """Entries above ``floor`` in magnitude go from positive to negative at most once."""
    signs = np.sign(values[np.abs(values) > floor])
    assert np.all(np.diff(signs) <= 0), signs


class TestCeMinimizer:
    def test_returns_true_probabilities(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.3))
        assert ce_minimizer(model).p_pred.tolist() == [0.0, 0.3, 1.0]

    def test_degenerate_probability(self):
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.0))
        assert ce_minimizer(model).p_pred.tolist() == [0.0, 0.0, 1.0]

    def test_grid_search_oracle(self):
        # Independent check: a 1001-point scan of the expected loss in the
        # uncertain prediction must bottom out at the true probability.
        model = expand_scenario(scenario(100, 1, 1.0, 1, 0.7))
        qs = np.linspace(0, 1, 1001)
        vals = [expected_ce(model, scenario_prediction(model, q)).value for q in qs]
        assert abs(qs[int(np.argmin(vals))] - 0.7) < 1e-3

    def test_perturbation_increases_risk(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            model = RegionModel(tuple(Region(float(v), float(p)) for v, p in zip(rng.uniform(0.5, 3, n), rng.random(n))))
            best = ce_minimizer(model)
            base = expected_ce(model, best).value
            for j in range(n):
                for delta in (-0.01, 0.01):
                    q = best.p_pred.copy()
                    q[j] = min(1.0, max(0.0, q[j] + delta))
                    if q[j] == best.p_pred[j]:
                        continue
                    assert expected_ce(model, PredictionAssignment(q)).value > base


class TestSdMinimizer:
    def test_underestimates_below_half(self):
        out = sd_minimizer(scenario(100, 1, 1.0, 1, 0.25))
        assert out.p_tilde_opt == 0.0 and not out.tie

    def test_overestimates_above_half(self):
        out = sd_minimizer(scenario(100, 1, 1.0, 1, 0.75))
        assert out.p_tilde_opt == 1.0

    def test_overestimation_flips_in_at_many_regions(self):
        out = sd_minimizer(scenario(100, 1, 4.0, 4, 0.5))
        assert out.p_tilde_opt == 1.0
        assert out.loss_opt == pytest.approx(545 / 2016, abs=1e-9)

    def test_tie_at_half_reports_zero(self):
        out = sd_minimizer(scenario(100, 1, 1.0, 1, 0.5))
        assert out.p_tilde_opt == 0.0 and out.tie

    def test_argmin_on_benchmark_grid_is_binary(self):
        for k in (1, 4, 16):
            for mu in (0.25, 1.0, 4.0):
                for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                    out = sd_minimizer(scenario(100, 1, mu, k, p))
                    assert min(out.p_tilde_opt, 1.0 - out.p_tilde_opt) < 1e-6

    @settings(deadline=None, max_examples=60)
    @given(
        k=st.integers(1, 64),
        mu=st.floats(0.0, 8.0),
        p=st.floats(0.0, 1.0),
        s_alpha=st.floats(0.0, 200.0),
        s_gamma=st.floats(0.1, 3.0),
    )
    def test_never_above_a_fine_scan(self, k, mu, p, s_alpha, s_gamma):
        spec = scenario(s_alpha, s_gamma, mu, k, p)
        scan = sd_binomial_curve(spec, np.linspace(0.0, 1.0, 1001))
        assert sd_minimizer(spec).loss_opt <= scan.min() + 1e-12

    @settings(deadline=None, max_examples=100)
    @given(k=st.integers(1, 300), mu=SPAN, p=PROBABILITY, s_alpha=SPAN, s_gamma=SPAN)
    def test_curve_rises_then_falls(self, k, mu, p, s_alpha, s_gamma):
        # E[SD] is quasi-concave in q, so its minimum is an endpoint
        steps = np.diff(sd_binomial_curve(scenario(s_alpha, s_gamma, mu, k, p), np.linspace(0.0, 1.0, 1001)))
        assert_one_sign_change_down(steps)


class TestRiskCurve:
    def test_sd_endpoints_at_half(self):
        curve = sd_binomial_curve(scenario(100, 1, 1.0, 1, 0.5), np.linspace(0.0, 1.0, 101))
        assert curve[0] == pytest.approx(1 / 6, abs=1e-12)
        assert curve[-1] == pytest.approx(1 / 6, abs=1e-12)

    def test_perfect_certain_prediction(self):
        curve = sd_binomial_curve(scenario(100, 1, 0.25, 1, 1.0), np.linspace(0.0, 1.0, 101))
        assert curve[-1] == pytest.approx(0.0, abs=1e-12)


class TestBiasCurve:
    def test_antisymmetric_around_half_for_single_region(self):
        eps = 0.125
        points = bias_curve(1, 1.0, [0.5 - eps, 0.5 + eps])
        assert points[0].prob_error == pytest.approx(-(0.5 - eps), abs=1e-12)
        assert points[1].prob_error == pytest.approx(0.5 - eps, abs=1e-12)

    def test_volume_bias_scales_with_uncertain_volume(self):
        (pt,) = bias_curve(1, 4.0, [0.25])
        assert pt.p_tilde_opt == 0.0
        assert pt.volume_bias == pytest.approx(-1.0, abs=1e-12)

    def test_probability_error_independent_of_mu_for_single_region(self):
        grid = [0.0, 0.1, 0.25, 0.4, 0.6, 0.75, 0.9, 1.0]
        curves = [bias_curve(1, mu, grid) for mu in (0.25, 1.0, 4.0)]
        for pts in zip(*curves):
            errs = [pt.prob_error for pt in pts]
            assert max(errs) - min(errs) < 1e-9

    @settings(deadline=None, max_examples=60)
    @given(k=st.integers(1, 300), mu=SPAN, s_gamma=SPAN, inner=st.lists(st.floats(0.0, 1.0), max_size=12))
    def test_equals_the_minimizer_one_p_at_a_time(self, k, mu, s_gamma, inner):
        # bias_curve shares one soft-Dice table across p; sd_minimizer builds its own per p
        grid = [0.0, *inner, 1.0]
        for pt, p in zip(bias_curve(k, mu, grid, s_gamma=s_gamma), grid):
            opt = sd_minimizer(scenario(0.0, s_gamma, mu, k, p))
            err = opt.p_tilde_opt - p
            assert (pt.p_tilde_opt, pt.prob_error, pt.volume_bias) == (opt.p_tilde_opt, err, mu * s_gamma * err)

    def test_no_error_at_certain_probabilities(self):
        for k in (1, 4, 16):
            for mu in (0.25, 1.0, 4.0):
                pts = bias_curve(k, mu, [0.0, 1.0])
                assert pts[0].prob_error == 0.0
                assert pts[1].prob_error == 0.0


class TestSwitchPoint:
    def test_single_region_switches_at_half(self):
        for mu in (0.25, 1.0, 4.0):
            sw = find_switch_point(1, mu, tol=1e-9)
            assert sw is not None and abs(sw - 0.5) < 1e-8

    def test_multi_region_switch_below_half(self):
        sw4 = find_switch_point(4, 4.0, tol=1e-9)
        sw16 = find_switch_point(16, 4.0, tol=1e-9)
        assert sw16 <= sw4 <= 0.5

    def test_monotone_in_mu_for_multi_region(self):
        for k in (4, 16):
            stars = [find_switch_point(k, mu, tol=1e-9) for mu in (0.25, 1.0, 4.0)]
            assert stars[2] <= stars[1] <= stars[0]

    def test_frozen_regression_values(self):
        # Values pinned from bisection at tolerance 1e-9.
        expected = {
            (4, 0.25): 0.479106080994,
            (4, 1.0): 0.435795043417,
            (4, 4.0): 0.359043803762,
            (16, 0.25): 0.473877779629,
            (16, 1.0): 0.419585866364,
            (16, 4.0): 0.321145399113,
        }
        for (k, mu), p_star in expected.items():
            sw = find_switch_point(k, mu, tol=1e-9)
            assert sw == pytest.approx(p_star, abs=1e-6)

    def test_no_switch_without_uncertain_volume(self):
        sw = find_switch_point(1, 0.0, tol=1e-6)
        assert sw is None

    def test_rejects_nan_tolerance(self):
        # NaN compares false with everything: the bisection would stop at once and report 0.5
        with pytest.raises(ValueError, match="tolerance"):
            find_switch_point(4, 4.0, tol=float("nan"))

    @settings(deadline=None, max_examples=30)
    @given(k=st.integers(1, 300), mu=SPAN, s_alpha=SPAN, s_gamma=SPAN)
    def test_gap_changes_sign_once(self, k, mu, s_alpha, s_gamma):
        # the bracket test of find_switch_point is exact: one root at most
        ends = [sd_binomial_curve(scenario(s_alpha, s_gamma, mu, k, p), (0.0, 1.0)) for p in np.linspace(0.0, 1.0, 201)]
        assert_one_sign_change_down(np.array([at_1 - at_0 for at_0, at_1 in ends]))

    @settings(deadline=None, max_examples=200)
    @given(
        k=st.integers(1, 64),
        mu=st.floats(0.01, 20.0),
        s_alpha=st.floats(0.0, 1e3),
        s_gamma=st.floats(-3.0, 3.0).map(lambda e: 10.0**e),
    )
    def test_switch_point_ignores_the_volumes(self, k, mu, s_alpha, s_gamma):
        # soft-Dice never scores the background and s_gamma cancels, so the
        # switch point at the default volumes brackets the root of every scenario's gap
        tol = 1e-9
        star = find_switch_point(k, mu, tol=tol)
        for p, sign in ((star - 2 * tol, 1.0), (star + 2 * tol, -1.0)):
            at_0, at_1 = sd_binomial_curve(scenario(s_alpha, s_gamma, mu, k, p), (0.0, 1.0))
            assert sign * (at_1 - at_0) > 0.0, (p, at_1 - at_0)

    @settings(deadline=None, max_examples=60)
    @given(
        k=st.integers(1, 2000),
        mu=st.floats(0.0, 20.0),
        s_gamma=st.floats(0.0, 10.0),
        tol=st.sampled_from([1e-6, 1e-9]),
    )
    def test_equals_a_bisection_over_the_public_curve(self, k, mu, s_gamma, tol):
        # find_switch_point holds one soft-Dice table across its bisection; this one builds a scenario per step
        def gap(p):
            at_0, at_1 = sd_binomial_curve(scenario(0.0, s_gamma, mu, k, p), (0.0, 1.0))
            return at_1 - at_0

        lo, hi, expected = 0.0, 1.0, None
        if gap(lo) > 0.0 > gap(hi):
            while hi - lo > tol and lo < 0.5 * (lo + hi) < hi:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if gap(mid) > 0.0 else (lo, mid)
            expected = 0.5 * (lo + hi)
        assert find_switch_point(k, mu, tol, s_gamma) == expected

    @settings(deadline=None, max_examples=30)
    @given(k=st.integers(1, 127), mu=st.floats(-2.0, 2.0).map(lambda e: 10.0**e), factor=st.floats(1.0, 2.0))
    def test_switch_point_does_not_rise_with_k_or_mu(self, k, mu, factor):
        tol = 1e-10
        star = find_switch_point(k, mu, tol=tol)
        assert find_switch_point(k + 1, mu, tol=tol) <= star + 2 * tol
        assert find_switch_point(k, mu * factor, tol=tol) <= star + 2 * tol

    @pytest.mark.parametrize("k", [10**2, 10**3, 10**4])
    @pytest.mark.parametrize("mu", [0.25, 1.0, 4.0, 20.0])
    def test_large_k_limit(self, k, mu):
        # The minimize docstring's bound: L < p*_K <= L + c/(s K), within the bisection's tol.
        tol = 1e-12
        limit = (np.sqrt(1.0 + mu) - 1.0) / mu
        c = (0.5 + 4.0 * (1.0 + mu) / (2.0 + mu) ** 3) * mu**2 / 8.0
        s = mu / ((2.0 + mu) * (1.0 - limit))
        sw = find_switch_point(k, mu, tol=tol)
        assert limit - tol <= sw <= limit + c / (s * k) + tol

    def test_switch_brackets_the_argmin_flip(self):
        sw = find_switch_point(4, 4.0, tol=1e-9)
        below = sd_minimizer(scenario(100, 1, 4.0, 4, sw - 1e-3))
        above = sd_minimizer(scenario(100, 1, 4.0, 4, sw + 1e-3))
        assert below.p_tilde_opt == 0.0 and above.p_tilde_opt == 1.0
