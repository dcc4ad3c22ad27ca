"""Region-structured model of a binary segmentation task with label noise.

An image is abstracted into independent regions. Each region has a volume
and a probability of truly belonging to the foreground structure; a ground
truth is one joint Bernoulli draw over the regions. Background and certain
foreground are ordinary regions with probability 0 and 1, so every volume
and expectation below runs through a single code path.

The canonical benchmark scenario has one certain background region (volume
``s_alpha``, probability 0), ``k_regions`` equally sized uncertain regions
with common probability ``p_beta`` and total volume ``mu * s_gamma``, and
one certain foreground region (volume ``s_gamma``, probability 1).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable

import numpy as np

from .losses import _binary_labels
from .rng import make_rng

__all__ = [
    "Region",
    "RegionModel",
    "ScenarioSpec",
    "LabelConfiguration",
    "expand_scenario",
    "true_expected_volume",
    "sample_labeling",
    "sample_labelings",
    "configuration_volume",
]


@dataclass(frozen=True)
class Region:
    """One independent block of tissue: a volume and a foreground probability."""

    volume: float
    p_fg: float

    def __post_init__(self):
        if not np.isfinite(self.volume) or self.volume < 0:
            raise ValueError(f"region volume must be finite and >= 0, got {self.volume}")
        if not 0.0 <= self.p_fg <= 1.0:
            raise ValueError(f"foreground probability must lie in [0, 1], got {self.p_fg}")


@dataclass(frozen=True)
class RegionModel:
    """An ordered collection of independent regions.

    Volumes are dimensionless, so results read relative to the
    certain-foreground volume.
    """

    regions: tuple[Region, ...]

    def __post_init__(self):
        object.__setattr__(self, "regions", tuple(self.regions))
        if len(self.regions) == 0:
            raise ValueError("a region model needs at least one region")
        if not 0 < sum(r.volume for r in self.regions) < np.inf:
            raise ValueError("total volume must be positive and finite")

    @property
    def volumes(self) -> np.ndarray:
        return np.array([r.volume for r in self.regions])

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([r.p_fg for r in self.regions])

    def __len__(self) -> int:
        return len(self.regions)


def _json_number(value, cast=float):
    """``cast(value)`` for a JSON number; refuses the strings and booleans ``float`` and ``int`` accept."""
    if isinstance(value, (str, bool)):
        raise ValueError(f"{value!r} is not a number")
    return cast(value)


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of the canonical background / uncertain / foreground scenario.

    ``mu`` is the ratio of total uncertain volume to certain foreground
    volume; the uncertain volume is split evenly over ``k_regions``
    independent regions sharing the probability ``p_beta``.
    """

    s_alpha: float
    s_gamma: float
    mu: float
    k_regions: int
    p_beta: float

    def __post_init__(self):
        if not all(np.isfinite(v) and v >= 0 for v in (self.s_alpha, self.s_gamma, self.mu)):
            raise ValueError("volumes and volume ratios must be finite and >= 0")
        if int(self.k_regions) != self.k_regions or self.k_regions < 1:
            raise ValueError(f"k_regions must be a positive integer, got {self.k_regions}")
        object.__setattr__(self, "k_regions", int(self.k_regions))
        if not 0.0 <= self.p_beta <= 1.0:
            raise ValueError(f"p_beta must lie in [0, 1], got {self.p_beta}")

    def to_json(self) -> str:
        return json.dumps(asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj: dict) -> "ScenarioSpec":
        if not isinstance(obj, dict):
            raise ValueError(f"a scenario must be an object, got {obj!r}")
        keys = {"s_alpha", "s_gamma", "mu", "k_regions", "p_beta"}
        missing = keys - obj.keys()
        if missing:
            raise ValueError(f"scenario object is missing keys: {sorted(missing)}")
        return cls(
            s_alpha=_json_number(obj["s_alpha"]),
            s_gamma=_json_number(obj["s_gamma"]),
            mu=_json_number(obj["mu"]),
            k_regions=_json_number(obj["k_regions"], lambda k: k),  # __post_init__ refuses a fraction
            p_beta=_json_number(obj["p_beta"]),
        )


@dataclass(frozen=True)
class LabelConfiguration:
    """One realization of the per-region binary labels."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(_binary_labels(self.labels).astype(int).tolist()))

    def as_array(self) -> np.ndarray:
        return np.array(self.labels, dtype=float)

    def __len__(self) -> int:
        return len(self.labels)


def expand_scenario(spec: ScenarioSpec) -> RegionModel:
    """Materialize a scenario as an explicit region model.

    Regions are ordered [background, uncertain_0 .. uncertain_{K-1},
    foreground]. Zero-volume regions are legal and contribute nothing.
    """
    beta_volume = spec.mu * spec.s_gamma / spec.k_regions
    regions = (
        [Region(spec.s_alpha, 0.0)]
        + [Region(beta_volume, spec.p_beta) for _ in range(spec.k_regions)]
        + [Region(spec.s_gamma, 1.0)]
    )
    return RegionModel(tuple(regions))


def true_expected_volume(model: RegionModel) -> float:
    """Expected foreground volume: sum of volume * probability over regions.

    By linearity of expectation this is exact, no enumeration needed.
    """
    return float(model.volumes @ model.probabilities)


def sample_labelings(model: RegionModel, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` joint labelings as an (n, regions) array of 0.0 / 1.0.

    Each entry is an independent Bernoulli(p_fg) draw, so certain regions
    always receive their certain label. Deterministic for a fixed seed; the
    first rows do not depend on ``n``.
    """
    return (make_rng(seed).random((n, len(model))) < model.probabilities).astype(float)


def sample_labeling(model: RegionModel, rng_seed: int) -> LabelConfiguration:
    """Draw one joint labeling: the first row of :func:`sample_labelings`."""
    return LabelConfiguration(sample_labelings(model, 1, rng_seed)[0])


def configuration_volume(model: RegionModel, cfg: LabelConfiguration) -> float:
    """Foreground volume realized by one label configuration."""
    if len(cfg) != len(model):
        raise ValueError(f"configuration has {len(cfg)} labels for {len(model)} regions")
    return float(model.volumes @ cfg.as_array())
