"""Seedable random number generation.

All randomness in this package flows through Philox, a counter-based bit
generator: streams from distinct seeds are statistically independent, and
a stream's output never depends on how work is scheduled across loops or
workers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int) -> np.random.Generator:
    """Return a Philox-backed generator for the given integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
