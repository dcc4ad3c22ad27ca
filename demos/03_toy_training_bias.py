#!/usr/bin/env python3
"""Reproducing the volume bias empirically with a trained classifier.

Samples synthetic images from a region model, trains the logistic
classifier (one weight per region) with each objective, and compares the learned
per-region probabilities and held-out volume biases against the exact
risk-minimizing predictions.
"""

from volbias import (
    ScenarioSpec,
    empirical_volume_bias,
    expand_scenario,
    generate_dataset,
    sd_minimizer,
    train,
)


def run_cell(spec, loss_kind, seed):
    model = expand_scenario(spec)
    dataset = generate_dataset(model, n_images=2000, seed=seed)
    report = train(dataset, loss_kind, seed=seed + 1)
    bias_soft, bias_hard = empirical_volume_bias(report, model, n_images=5000, seed=seed + 2)
    return report, bias_soft, bias_hard


def main():
    cells = [
        ScenarioSpec(100, 1, 1.0, 1, 0.25),
        ScenarioSpec(100, 1, 1.0, 1, 0.75),
        ScenarioSpec(100, 1, 4.0, 4, 0.5),
    ]
    for spec in cells:
        argmin = sd_minimizer(spec)
        print(f"=== K={spec.k_regions}, mu={spec.mu}, true probability {spec.p_beta} ===")
        print(f"soft-Dice risk argmin: q={argmin.p_tilde_opt:g}" + ("  (tie, 0 reported)" if argmin.tie else ""))
        for loss_kind in ("ce", "sd"):
            report, bias_soft, bias_hard = run_cell(spec, loss_kind, seed=11)
            beta = report.per_region_pred[1:-1]
            print(
                f"  {loss_kind}: learned uncertain prediction {beta.mean():.3f}"
                f"   held-out volume bias soft {bias_soft:+.3f} / thresholded {bias_hard:+.3f}"
            )
        print()

    print("Cross-entropy learns the true probability, so its soft volumes are")
    print("unbiased (thresholded ones are not). Soft-Dice snaps to an endpoint")
    print("and carries the predicted bias with either volume estimator.")


if __name__ == "__main__":
    main()
