"""Acceptance criteria for the full toolkit.

Each test checks one numbered criterion at its stated tolerance and prints
one PASS line when it holds. The training sweep used by criteria 8 and 9
runs once per session and is shared.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.optimize

from volbias import (
    HardMap,
    PredictionAssignment,
    Region,
    RegionModel,
    ScenarioSpec,
    SoftMap,
    apply_calibration,
    bias_curve,
    bootstrap_paired,
    cross_entropy,
    expand_scenario,
    expected_ce,
    expected_sd_binomial,
    expected_sd_exhaustive,
    find_switch_point,
    fit_calibration,
    generate_dataset,
    sample_labeling,
    scenario_prediction,
    sd_minimizer,
    soft_dice_loss,
    train,
    volume_specific_profile,
)
from volbias.cli import main as cli_main
from volbias.rng import spawn_seeds
from volbias.trainer import ToyModel, ce_batch_loss, ce_gradient, sd_batch_loss, sd_gradient

K_GRID = (1, 4, 16)
MU_GRID = (0.25, 1.0, 4.0)
P_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def scenario(mu, k, p, s_alpha=100.0, s_gamma=1.0):
    return ScenarioSpec(s_alpha=s_alpha, s_gamma=s_gamma, mu=mu, k_regions=k, p_beta=p)


def ok(criterion: int, message: str):
    print(f"[criterion {criterion:2d}] PASS — {message}")


# ----------------------------------------------------------------------
# Shared training sweep for criteria 8 and 9
# ----------------------------------------------------------------------

SWEEP_SEED = 7
N_SEEDS = 20
N_IMAGES = 1500


@dataclass
class SweepCell:
    k: int
    mu: float
    p_beta: float
    loss_kind: str
    preds: list  # per replicate: per-region prediction vector
    biases_soft: list
    biases_hard: list
    train_freqs: list  # per replicate: train-split empirical frequencies


@pytest.fixture(scope="module")
def training_sweep():
    from volbias.trainer import _split_indices

    t0 = time.monotonic()
    cells = {}
    for k in K_GRID:
        for mu in MU_GRID:
            for p in (0.25, 0.75):
                spec = scenario(mu, k, p)
                model = expand_scenario(spec)
                min_vol = min(r.volume for r in model.regions if r.volume > 0)
                ppuv = max(16, math.ceil(1.0 / min_vol))
                for loss_kind in ("ce", "sd"):
                    cell = SweepCell(k, mu, p, loss_kind, [], [], [], [])
                    lr, epochs = (0.1, 2500) if loss_kind == "ce" else (0.1, 3000)
                    for rep, seed in enumerate(spawn_seeds((SWEEP_SEED, k, int(4 * mu), int(4 * p)), N_SEEDS)):
                        ds = generate_dataset(model, N_IMAGES, ppuv, seed)
                        report = train(ds, loss_kind, lr=lr, max_epochs=epochs, patience=200, seed=seed + 1)
                        i_train, _, _ = _split_indices(ds.n_images, seed + 1)
                        cell.preds.append(report.per_region_pred)
                        cell.biases_soft.append(report.bias_soft)
                        cell.biases_hard.append(report.bias_hard)
                        cell.train_freqs.append(ds.labels[i_train].mean(axis=0))
                    cells[(k, mu, p, loss_kind)] = cell
    return cells, time.monotonic() - t0


def test_criterion_01_sd_argmin_is_binary_on_benchmark_grid():
    t0 = time.monotonic()
    qs = np.linspace(0.0, 1.0, 1001)
    for k in K_GRID:
        for mu in MU_GRID:
            for p in P_GRID:
                spec = scenario(mu, k, p)
                vals = np.array([expected_sd_binomial(spec, q).value for q in qs])
                q_star = qs[int(np.argmin(vals))]
                assert min(q_star, 1.0 - q_star) < 1e-6, (k, mu, p, q_star)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"grid sweep took {elapsed:.1f}s"
    ok(1, f"soft-Dice argmin at an endpoint for all 45 cells ({elapsed:.2f}s)")


def test_criterion_02_single_region_bias_structure():
    for mu in MU_GRID:
        sw = find_switch_point(1, mu, tol=1e-6)
        assert sw is not None and abs(sw - 0.5) <= 1e-6

    p_grid = [0.0, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 1.0]
    curves = {mu: bias_curve(1, mu, p_grid) for mu in MU_GRID}
    for pts in zip(*curves.values()):
        errs = np.array([pt.prob_error for pt in pts])
        assert errs.max() - errs.min() < 1e-9

    for pt in curves[1.0]:
        if pt.p_beta < 0.5:
            assert pt.prob_error == -pt.p_beta
        elif pt.p_beta > 0.5:
            assert pt.prob_error == 1.0 - pt.p_beta
    ok(2, "switch at 0.5, error curves identical across volume ratios and exact")


def test_criterion_03_multi_region_switch_points():
    stars = {(k, mu): find_switch_point(k, mu, tol=1e-9) for k in K_GRID for mu in MU_GRID}
    for mu in MU_GRID:
        assert stars[(16, mu)] <= stars[(4, mu)] <= 0.5
        assert abs(stars[(1, mu)] - 0.5) <= 1e-6
    for k in (4, 16):
        assert stars[(k, 4.0)] <= stars[(k, 1.0)] <= stars[(k, 0.25)]

    # regression fixtures, first computed by bisection at tolerance 1e-9
    frozen = {
        (4, 0.25): 0.479106080994,
        (4, 1.0): 0.435795043417,
        (4, 4.0): 0.359043803762,
        (16, 0.25): 0.473877779629,
        (16, 1.0): 0.419585866364,
        (16, 4.0): 0.321145399113,
    }
    for key, value in frozen.items():
        assert stars[key] == pytest.approx(value, abs=1e-6)
    ok(3, "switch points ordered in K and mu and match frozen fixtures")


def test_criterion_04_hand_enumeration_oracle():
    spec = scenario(1.0, 1, 0.5)
    model = expand_scenario(spec)
    expected = {0.0: 1 / 6, 0.5: 6 / 35, 1.0: 1 / 6}
    for q, target in expected.items():
        value = expected_sd_exhaustive(model, scenario_prediction(model, q)).value
        assert abs(value - target) < 1e-12
    value = expected_sd_binomial(scenario(4.0, 4, 0.5), 1.0).value
    assert abs(value - 0.27034) < 1e-5
    assert abs(value - 545 / 2016) < 1e-12
    ok(4, "hand-enumerated expected losses reproduced to 1e-12")


def test_criterion_05_exhaustive_binomial_equivalence_and_monte_carlo():
    qs = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    for k in K_GRID:
        for mu in MU_GRID:
            for p in P_GRID:
                spec = scenario(mu, k, p)
                model = expand_scenario(spec)
                for q in qs:
                    ex = expected_sd_exhaustive(model, scenario_prediction(model, q)).value
                    bi = expected_sd_binomial(spec, q).value
                    worst = max(worst, abs(ex - bi))
    assert worst < 1e-12, f"worst route disagreement {worst:.2e}"

    n = 100_000
    for mu, k, p, q in ((1.0, 1, 0.5, 0.5), (4.0, 4, 0.25, 0.7), (0.25, 16, 0.75, 0.3)):
        spec = scenario(mu, k, p)
        model = expand_scenario(spec)
        pred = scenario_prediction(model, q)
        w = model.volumes
        labels = np.array([sample_labeling(model, s).labels for s in range(n)], dtype=float)
        soft_pred = SoftMap(pred.p_pred, weights=w)
        # the 1e-12 floor covers zero-variance cases where rounding alone
        # would exceed four standard errors
        sd_samples = np.array([soft_dice_loss(HardMap(l, weights=w), soft_pred) for l in labels])
        se = sd_samples.std(ddof=1) / math.sqrt(n)
        assert abs(sd_samples.mean() - expected_sd_exhaustive(model, pred).value) < 4 * se + 1e-12
        ce_samples = np.array([cross_entropy(HardMap(l, weights=w), soft_pred) for l in labels])
        se = ce_samples.std(ddof=1) / math.sqrt(n)
        assert abs(ce_samples.mean() - expected_ce(model, pred).value) < 4 * se + 1e-12
    ok(5, f"exhaustive and binomial routes agree (max gap {worst:.1e}); Monte Carlo within 4 SE")


def test_criterion_06_ce_optimum_recovered_numerically():
    rng = np.random.default_rng(606)
    for trial in range(100):
        n = int(rng.integers(1, 8))
        probs = rng.random(n)
        if trial % 10 == 0:  # exercise certain labels too
            probs[rng.integers(n)] = float(rng.integers(0, 2))
        model = RegionModel(tuple(Region(float(v), float(p)) for v, p in zip(rng.uniform(0.1, 5, n), probs)))
        for j in range(n):
            def objective(q):
                full = model.probabilities.copy()
                full[j] = q
                return expected_ce(model, PredictionAssignment(full)).value

            res = scipy.optimize.minimize_scalar(objective, bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-10})
            assert abs(res.x - model.probabilities[j]) < 1e-6
    ok(6, "numeric CE minimization recovers the true probabilities (100 models)")


def test_criterion_07_gradients_match_finite_differences():
    rng = np.random.default_rng(707)
    h = 1e-5

    def fd(loss_fn, model):
        gw = np.zeros_like(model.weights)
        for j in range(model.weights.size):
            wp, wm = model.weights.copy(), model.weights.copy()
            wp[j] += h
            wm[j] -= h
            gw[j] = (loss_fn(ToyModel(wp, model.bias)) - loss_fn(ToyModel(wm, model.bias))) / (2 * h)
        gb = (loss_fn(ToyModel(model.weights, model.bias + h)) - loss_fn(ToyModel(model.weights, model.bias - h))) / (2 * h)
        return gw, gb

    def rel(a, b):
        va = np.append(a[0], a[1])
        vb = np.append(b[0], b[1])
        return np.linalg.norm(va - vb) / max(np.linalg.norm(va), np.linalg.norm(vb), 1e-12)

    for draw in range(100):
        n_regions = int(rng.integers(2, 6))
        model = ToyModel(rng.normal(scale=1.5, size=n_regions), float(rng.normal(scale=0.5)))
        features = np.eye(n_regions)[rng.integers(0, n_regions, int(rng.integers(4, 40)))]
        labels = rng.integers(0, 2, features.shape[0]).astype(float)
        assert rel(ce_gradient(model, features, labels), fd(lambda m: ce_batch_loss(m, features, labels), model)) < 1e-4

        images = []
        for _ in range(int(rng.integers(1, 4))):
            feats = np.eye(n_regions)[rng.integers(0, n_regions, int(rng.integers(4, 30)))]
            labs = rng.integers(0, 2, feats.shape[0]).astype(float)
            images.append((feats, labs))
        assert rel(sd_gradient(model, images), fd(lambda m: sd_batch_loss(m, images), model)) < 1e-4
    ok(7, "analytic CE and SD gradients match finite differences on 100 draws each")


def test_criterion_08_toy_training_matches_theory(training_sweep):
    cells, elapsed = training_sweep
    assert elapsed < 300.0, f"training sweep took {elapsed:.0f}s"

    ce_worst = 0.0
    sd_hits = 0
    sd_total = 0
    sign_hits = 0
    sign_total = 0
    for (k, mu, p, loss_kind), cell in cells.items():
        argmin = sd_minimizer(scenario(mu, k, p)).p_tilde_opt
        theory_bias = mu * 1.0 * (argmin - p)
        for rep in range(N_SEEDS):
            pred = cell.preds[rep]
            if loss_kind == "ce":
                ce_worst = max(ce_worst, float(np.abs(pred - cell.train_freqs[rep]).max()))
            else:
                sd_total += 1
                beta = pred[1:-1]
                if np.abs(beta - argmin).max() < 0.05:
                    sd_hits += 1
                sign_total += 1
                if np.sign(cell.biases_soft[rep]) == np.sign(theory_bias):
                    sign_hits += 1
    assert ce_worst < 0.02, f"worst CE deviation from train frequencies {ce_worst:.4f}"
    assert sd_hits >= 0.95 * sd_total, f"SD matched the argmin in only {sd_hits}/{sd_total} cells"
    assert sign_hits >= 0.95 * sign_total, f"bias sign matched theory in only {sign_hits}/{sign_total} cells"
    ok(
        8,
        f"CE within {ce_worst:.3f} of frequencies; SD at argmin in {sd_hits}/{sd_total}; "
        f"sign match {sign_hits}/{sign_total}; sweep {elapsed:.0f}s",
    )


def test_criterion_09_dataset_level_bias_significance(training_sweep):
    cells, _ = training_sweep
    ce_covered = 0
    ce_total = 0
    for (k, mu, p, loss_kind), cell in cells.items():
        boot = bootstrap_paired(
            np.array(cell.biases_soft), np.zeros(N_SEEDS), n_resamples=10000, seed=SWEEP_SEED + k
        )
        if loss_kind == "ce":
            ce_total += 1
            # 95% bootstrap confidence interval covers zero
            if min(boot.p_greater, boot.p_smaller) >= 0.025:
                ce_covered += 1
        elif p == 0.75 and k >= 4:
            assert boot.mean_diff > 0
            assert boot.p_greater < 0.05, f"SD cell ({k},{mu},{p}) not significantly positive"
    assert ce_covered >= 0.9 * ce_total, f"CE interval covered zero in only {ce_covered}/{ce_total} cells"
    ok(9, f"CE bias CI covers 0 in {ce_covered}/{ce_total} cells; SD overestimates significantly")


def test_criterion_10_bootstrap_calibration():
    rng = np.random.default_rng(3)
    trials = 500
    rejections_greater = 0
    rejections_smaller = 0
    for t in range(trials):
        a = rng.normal(size=200)
        b = rng.normal(size=200)
        out = bootstrap_paired(a, b, n_resamples=2000, seed=1_000_000 + t)
        rejections_greater += out.p_greater < 0.05
        rejections_smaller += out.p_smaller < 0.05
    rate_g = rejections_greater / trials
    rate_s = rejections_smaller / trials
    assert 0.03 <= rate_g <= 0.07, f"one-sided rejection rate {rate_g}"
    assert 0.03 <= rate_s <= 0.07, f"one-sided rejection rate {rate_s}"

    all_positive = bootstrap_paired(np.full(30, 2.0), np.ones(30), n_resamples=10000, seed=1)
    assert all_positive.significant and all_positive.p_greater < 0.05
    ok(10, f"null rejection rates {rate_g:.3f}/{rate_s:.3f} in [0.03, 0.07]; sure win significant")


def test_criterion_11_recalibration():
    rng = np.random.default_rng(1111)
    true = rng.uniform(1.0, 9.0, 400)
    pred = 1.3 * true - 2.0 + rng.normal(0.0, 0.5, 400)
    fit = fit_calibration(pred[:200], true[:200])

    scale = float(np.abs(true[:200]).mean())
    assert abs(fit.residual_mean) < 1e-9 * scale
    assert abs(fit.residual_slope) < 1e-9

    corrected = apply_calibration(fit, pred[200:])
    bias = float(np.mean(corrected - true[200:]))
    assert abs(bias) < 0.1, f"post-calibration mean bias {bias:.3f}"

    profile = volume_specific_profile(corrected, true[200:])
    mt = np.array([t for t, _ in profile.decile_means])
    mp = np.array([p for _, p in profile.decile_means])
    slope = float(np.polyfit(mt, mp, 1)[0])
    assert 0.9 <= slope <= 1.1, f"decile profile slope {slope:.3f}"
    ok(11, f"OLS identities hold; corrected bias {bias:+.3f}, decile slope {slope:.3f}")


def test_criterion_12_cli_determinism(tmp_path):
    volumes_rows = "\n".join(f"{v},{2 * v},{'train' if v % 2 else 'val'}" for v in range(1, 25))
    (tmp_path / "volumes.csv").write_text("true_volume,pred_volume,split\n" + volumes_rows + "\n")
    configs = {
        "risk-curve": {"k_list": [1, 4], "mu_list": [1.0], "p_beta_grid": [0.25, 0.75], "p_tilde_grid_size": 21},
        "bias-curve": {"k_list": [1, 4], "mu_list": [1.0, 4.0], "p_beta_grid": [0.25, 0.5, 0.75]},
        "train-toy": {
            "scenarios": [{"s_alpha": 10, "s_gamma": 1, "mu": 1.0, "k_regions": 1, "p_beta": 0.75}],
            "losses": ["ce", "sd"],
            "n_seeds": 2,
            "n_images": 200,
            "pixels_per_unit_volume": 10,
            "max_epochs": 300,
            "patience": 100,
            "n_resamples": 2000,
        },
        "calibrate": {"input_csv": "volumes.csv"},
        "bootstrap": {"a": [1.0, 2.0, 3.0, 2.5], "b": [0.5, 1.0, 2.0, 3.0], "n_resamples": 2000},
    }
    for command, cfg in configs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        outputs = []
        for run_dir in (tmp_path / f"{command}-1", tmp_path / f"{command}-2"):
            code = cli_main([command, "--config", str(cfg_path), "--seed", "17", "--out", str(run_dir)])
            assert code == 0, command
            outputs.append({f.name: f.read_bytes() for f in sorted(run_dir.iterdir())})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], f"{command}:{name} differs between runs"
    ok(12, "all five commands byte-identical across repeated runs")
