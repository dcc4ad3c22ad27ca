#!/usr/bin/env python3
"""Expected-loss landscapes under label uncertainty.

Walks the canonical scenario (certain background, K uncertain regions,
certain foreground) and prints how the exact expected cross-entropy and
soft-Dice losses behave as the shared uncertain prediction sweeps [0, 1]:
cross-entropy bottoms out at the true probability, soft-Dice at one of the
endpoints.
"""

import numpy as np

from volbias import ScenarioSpec, ce_curve, sd_binomial_curve

S_ALPHA, S_GAMMA = 100.0, 1.0
QS = np.linspace(0.0, 1.0, 1001)


def describe(losses):
    i = int(np.argmin(losses))
    return QS[i], losses[i]


def main():
    print("Scenario: background volume 100, certain foreground volume 1.")
    print("The uncertain area has total volume mu and true probability p.\n")

    for k in (1, 4, 16):
        for mu in (0.25, 1.0, 4.0):
            print(f"--- K={k} uncertain regions, volume ratio mu={mu} ---")
            for p in (0.0, 0.25, 0.5, 0.75, 1.0):
                spec = ScenarioSpec(S_ALPHA, S_GAMMA, mu, k, p)
                q_sd, v_sd = describe(sd_binomial_curve(spec, QS))
                q_ce, v_ce = describe(ce_curve(spec, QS))
                print(
                    f"  p={p:4.2f}:  SD argmin at q={q_sd:5.3f} (loss {v_sd:.4f})"
                    f"   CE argmin at q={q_ce:5.3f} (loss {v_ce:.4f})"
                )
            print()

    print("Note how the soft-Dice optimum sits at q=0 or q=1 for every cell,")
    print("while the cross-entropy optimum tracks the true probability p.")


if __name__ == "__main__":
    main()
