"""Desk-scale logistic classifier trained with cross-entropy or soft-Dice.

Synthetic images are sampled from a region model: an image is one joint
labeling of the regions, and every voxel of a region shares the label drawn
for that region. The classifier has one weight per region plus a shared
bias, exactly expressive enough to realize any per-region prediction, so
the bias it learns is attributable to the loss alone, not to model
capacity.

Because the voxels within a region are interchangeable, the trainer works
on the regions themselves, each weighted by its volume in the model's own
units. ``_objective`` is the only place it knows a loss formula: on a label
support (the distinct label rows of a split and how often each occurs) it
returns the expected loss of :mod:`volbias.risk` under that empirical label
distribution, built from the same :mod:`volbias.losses` terms, and its
gradient. The tests check both against a pixel-level reference built on
:mod:`volbias.losses`. ``_fit`` runs one descent loop for both losses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .losses import SoftMap, _all_binary, _sd_ratio, cross_entropy, threshold, volume_of
from .regions import RegionModel, sample_labelings
from .rng import make_rng

__all__ = [
    "ToyDataset",
    "ToyModel",
    "TrainReport",
    "TrainingDivergedError",
    "sigmoid",
    "generate_dataset",
    "train",
    "empirical_volume_bias",
]


class TrainingDivergedError(RuntimeError):
    pass


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: ``exp`` only ever sees -|z|."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e)
    out /= 1.0 + e
    return out


@dataclass(frozen=True)
class ToyDataset:
    """Sampled images in compact region form.

    ``labels`` has one row per image and one column per region of ``model``;
    region r of image i is labeled ``labels[i, r]`` as a whole, exactly 0 or
    1, and weighs ``model.volumes[r]``. Every region needs a positive volume:
    a region of volume zero carries no loss, so training could not set its
    prediction.
    """

    model: RegionModel
    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=float)
        if labels.ndim != 2 or labels.shape[1] != len(self.model):
            raise ValueError("inconsistent dataset shapes")
        if not _all_binary(labels):
            raise ValueError("labels must be 0 or 1")
        empty = np.flatnonzero(self.model.volumes == 0.0).tolist()
        if empty:
            raise ValueError(f"regions {empty} have zero volume; a trained region needs a positive volume")
        object.__setattr__(self, "labels", labels)

    @property
    def n_images(self) -> int:
        return self.labels.shape[0]


@dataclass
class ToyModel:
    """Logistic classifier: per-region weight plus a shared bias."""

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if not (np.all(np.isfinite(self.weights)) and np.isfinite(self.bias)):
            raise ValueError("model parameters must be finite")


@dataclass(frozen=True)
class TrainReport:
    """Outcome of one training run plus held-out volume diagnostics.

    ``model`` carries the trained parameters so a later run can warm-start
    from them; ``train-toy`` writes neither it nor ``stop_reason``.
    """

    loss_kind: str
    final_loss: float
    per_region_pred: np.ndarray
    epochs_run: int
    stop_reason: str  # at the optimum: "stationary" (CE) or "saturated" (SD); else "max_epochs"; see _fit
    bias_soft: float
    bias_hard: float
    model: "ToyModel" = None

    @property
    def converged(self) -> bool:
        """The run stopped at its optimum, not at the epoch cap.

        The optimum is judged in probability and in volume: a cross-entropy
        run at its stationary point, a soft-Dice run at its endpoint. A run
        that stalls short of it is not converged.
        """
        return self.stop_reason != "max_epochs"


def generate_dataset(model: RegionModel, n_images: int, seed: int) -> ToyDataset:
    """Sample ``n_images`` images from a region model, each one independent joint labeling."""
    return ToyDataset(model, sample_labelings(model, n_images, seed))


def _support(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of the 0/1 matrix ``labels`` in lexicographic order and how often each occurs.

    Equal to ``np.unique(labels, axis=0, return_counts=True)``, bit for bit.
    Each row is packed into bytes, most significant bit first, and read as
    one opaque key; byte order of the keys is the lexicographic order of
    the rows. Exact only for entries that are exactly 0 or 1.
    """
    packed = np.packbits(labels.astype(bool), axis=1)
    keys = packed.view(f"V{packed.shape[1]}").ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    return labels[first], counts


def _objective(loss_kind, configs, n, volumes):
    """``(loss(y), grad_w(y), optimum(grad_w, r))`` on the label support ``configs``, row i seen ``n[i]`` times.

    ``volumes`` are the region volumes. The raw batch gradient ``grad_w`` is
    in the region weights; its sum is the bias gradient. ``optimum`` is the
    prediction the loss is minimized at, for the regions ``r`` (an index, or
    all of them): for cross-entropy the label frequency; for soft-Dice the
    endpoint that ``grad_w`` pushes the prediction toward, so a prediction
    near an endpoint is at its optimum only while pushed strictly outward.
    """
    if loss_kind == "ce":
        # exact for 0/1 labels: the label frequencies of the images; each region weighs its volume share.
        # The minimum is a no-op for image counts; real weights in their place can round a frequency past 1
        mean_l = np.minimum(n @ configs / n.sum(), 1.0)
        total = volumes.sum()
        target = SoftMap(mean_l, volumes / total)
        return (
            lambda y: cross_entropy(target, SoftMap(y)),
            lambda y: (y - mean_l) * volumes / total,
            lambda grad_w, r=slice(None): mean_l[r],
        )
    weights = n / n.sum()
    target = configs @ volumes

    def terms(y):
        return configs @ (volumes * y), target + float(volumes @ y)

    def grad_w(y):
        # sum_i weights_i * dSD_i/dy = -2 * sum_i a_i * (configs_i - I_i / D_i) with a = weights / D,
        # where D_i = 0 (ratio pinned to 0) drops out; then through the sigmoid and the region volume
        inter, denom = terms(y)
        denom = np.where(denom > 0.0, denom, np.inf)
        a = weights / denom
        return -2.0 * (a @ configs - a @ (inter / denom)) * y * (1.0 - y) * volumes

    def optimum(grad_w, r=slice(None)):
        # 1 where the gradient is negative, 0 where it is positive; a zero gradient pushes nowhere and
        # has none (0 / 0 is NaN), e.g. a logit frozen at a huge finite value or labels that are all 0
        grad_w = grad_w[r]
        return 0.5 - 0.5 * grad_w / abs(grad_w)

    return lambda y: float(weights @ _sd_ratio(*terms(y))), grad_w, optimum


# Full-batch moment estimates carry no sampling noise, so a short
# second-moment memory is safe and lets saturated logits keep moving. A
# logit in a sigmoid's tail has a gradient that decays exponentially as it
# moves, and the second moment remembers the larger past gradients: Adam then
# moves it by at most about -ln(_ADAM_B2) / 2 per epoch, however large the
# learning rate (0.026 here, 0.005 at 0.99). The stop test waits on such
# logits, e.g. the CE background driven to y < 1e-6, a logit near -13.8.
_ADAM_B1 = 0.9
_ADAM_B2 = 0.95
# Adam's epsilon for the bias; a region weight's is this times the region's
# volume share, the factor that scales its raw gradient, so a region of any
# share moves at the same rate: against a fixed epsilon, a region below a
# share of about 1e-9 has its whole gradient under it and never trains.
_ADAM_EPS = 1e-8

# A run is at its optimum once every region's prediction is within this of
# the optimum ``_objective`` names for it, both in probability and in volume:
# a residual in probability alone would let the large certain background
# carry a volume bias of its volume times this.
_STATIONARY_TOL = 1e-4


@np.errstate(over="ignore", invalid="ignore")  # a diverged run is refused after the loop, not warned about
def _fit(
    volumes: np.ndarray,
    train_labels: np.ndarray,
    val_labels: np.ndarray,
    loss_kind: str,
    lr: float,
    max_epochs: int,
    init: ToyModel | None = None,
) -> tuple[np.ndarray, float, int, str, float, np.ndarray]:
    """Deterministic full-batch adaptive-moment descent on the compact form.

    One parameter vector theta = (region weights, shared bias) takes every
    step; the bias gradient is the sum of the weight gradients. The raw
    batch gradients scale each region by its volume share, which would stall
    small regions; per-parameter moment normalization makes every logit
    move at a comparable rate without touching the stationary points; Adam's
    epsilon scales with the volume share too, so no share is too small to
    train. The learning rate is constant.

    Each run stops at its optimum, checked every epoch before the step by
    one test for both losses: |y - optimum| * max(volume, 1) is below
    ``_STATIONARY_TOL`` in every region, so judged in probability and in
    volume, with the optimum ``_objective`` names on the train split. For
    cross-entropy that is the label frequency (``"stationary"``); for
    soft-Dice the endpoint the gradient pushes toward, so a prediction
    there is pushed strictly outward (``"saturated"``). Any other run ends
    after ``max_epochs`` (``"max_epochs"``).
    A run whose parameters are no longer finite raises
    :class:`TrainingDivergedError`; one whose bias gradient is no longer
    finite, which needs non-finite parameters, leaves the loop at once.
    The last iterate and its prediction are returned with the stop reason
    and their loss on ``val_labels``; the validation rows take no part in
    the descent.

    Each split enters only through its label support, built by
    :func:`_support` from its rows packed into byte keys: the rows and
    counts of a row-wise ``np.unique``, about ten times faster. That needs
    labels that are exactly 0 or 1, which :class:`ToyDataset` enforces.
    """
    _, grad_w_at, optimum_at = _objective(loss_kind, *_support(train_labels), volumes)
    # a residual times this is max(residual, residual * volume): judged in probability and in volume
    scale = np.maximum(volumes, 1.0)
    # the largest region needs the deepest convergence, so its scalars rule out most epochs before the full test
    big = int(np.argmax(volumes))

    theta = np.zeros(volumes.size + 1) if init is None else np.append(init.weights, init.bias)
    if theta.size != volumes.size + 1:
        raise ValueError("warm-start model has the wrong number of regions")
    eps = _ADAM_EPS * np.append(volumes / volumes.sum(), 1.0)
    # the step is taken in place, in the operation order of
    # m2 = B2 * m2 + ((1 - B2) * g) * g and theta -= (lr * hat1) / (sqrt(hat2) + eps)
    g, m1, m2, step, scratch = (np.zeros_like(theta) for _ in range(5))
    stop_reason = "max_epochs"
    for epoch in range(1, max_epochs + 1):
        y = sigmoid(theta[:-1] + theta[-1])
        grad_w = grad_w_at(y)
        g[-1] = grad_w.sum()
        if not abs(g[-1]) < np.inf:  # NaN or infinite: refused after the loop
            break
        if abs(y[big] - optimum_at(grad_w, big)) * scale[big] < _STATIONARY_TOL and (
            np.abs(y - optimum_at(grad_w)) * scale
        ).max() < _STATIONARY_TOL:
            stop_reason = "stationary" if loss_kind == "ce" else "saturated"
            break
        g[:-1] = grad_w
        m1 *= _ADAM_B1
        np.multiply(1.0 - _ADAM_B1, g, out=scratch)
        m1 += scratch
        m2 *= _ADAM_B2
        np.multiply(1.0 - _ADAM_B2, g, out=scratch)
        scratch *= g
        m2 += scratch
        np.divide(m1, 1.0 - _ADAM_B1**epoch, out=step)
        step *= lr
        np.divide(m2, 1.0 - _ADAM_B2**epoch, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        step /= scratch
        theta -= step
    if not np.all(np.isfinite(theta)):
        raise TrainingDivergedError(f"{loss_kind} training diverged: non-finite parameters by epoch {epoch}")
    y = sigmoid(theta[:-1] + theta[-1])
    val_loss_at = _objective(loss_kind, *_support(val_labels), volumes)[0]
    return theta[:-1], float(theta[-1]), epoch, stop_reason, val_loss_at(y), y


def _split_indices(n: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # 60/20/20 by image, seeded
    perm = make_rng(seed).permutation(n)
    n_train = max(int(round(0.6 * n)), 1)
    n_val = max(int(round(0.2 * n)), 1)
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def _volume_biases(pred, volumes, labels) -> tuple[float, float]:
    """Soft and thresholded predicted volume minus the mean volume of ``labels``."""
    true_mean = float((labels @ volumes).mean())
    soft = SoftMap(pred, volumes)
    return volume_of(soft) - true_mean, volume_of(threshold(soft)) - true_mean


def train(
    dataset: ToyDataset,
    loss_kind: str,
    lr: float = 0.1,
    max_epochs: int = 4000,
    seed: int = 0,
    init: ToyModel | None = None,
) -> TrainReport:
    """Train the logistic classifier and report held-out volume biases.

    Images are split 60/20/20 into train/validation/test by a seeded
    permutation. Optimization is deterministic full-batch descent with
    adaptive moment scaling and a constant learning rate (see
    :func:`_fit`). Both losses stop by one rule, checked every epoch: every
    region's prediction is within 1e-4 of the loss's optimum, in
    probability and in volume. For cross-entropy the optimum is the
    train-split label frequency, for soft-Dice the endpoint, 0 or 1, that
    the gradient pushes the prediction toward. A run that does not reach it
    ends at ``max_epochs`` and is not ``converged``. The last iterate is the
    trained model; its loss on the validation images is the report's
    ``final_loss``, and soft and thresholded volume biases are measured on
    the test images, in the model's volume units. The report's
    ``stop_reason`` says whether the run ended at its optimum.
    """
    if loss_kind not in ("ce", "sd"):
        raise ValueError(f"unknown loss kind {loss_kind!r}; expected 'ce' or 'sd'")
    if not 0.0 < lr < np.inf:
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    if max_epochs < 1:
        raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
    i_train, i_val, i_test = _split_indices(dataset.n_images, seed)
    if i_test.size == 0:
        raise ValueError("dataset too small to hold out test images")
    w, b, epochs, stop_reason, final_loss, pred = _fit(
        dataset.model.volumes, dataset.labels[i_train], dataset.labels[i_val], loss_kind, lr, max_epochs, init=init
    )
    bias_soft, bias_hard = _volume_biases(pred, dataset.model.volumes, dataset.labels[i_test])
    return TrainReport(
        loss_kind=loss_kind,
        final_loss=final_loss,
        per_region_pred=pred,
        epochs_run=epochs,
        stop_reason=stop_reason,
        bias_soft=bias_soft,
        bias_hard=bias_hard,
        model=ToyModel(w, b),
    )


def empirical_volume_bias(
    report: TrainReport, model: RegionModel, n_images: int = 2000, seed: int = 0
) -> tuple[float, float]:
    """Volume bias of a trained model on freshly sampled held-out images.

    Returns the mean of V(soft prediction) - V(labels) and of
    V(thresholded prediction) - V(labels) over ``n_images`` new joint
    labelings of the region model, in the model's volume units.
    """
    if len(report.per_region_pred) != len(model):
        raise ValueError("report and model disagree on the number of regions")
    pred = np.asarray(report.per_region_pred, dtype=float)
    return _volume_biases(pred, model.volumes, sample_labelings(model, n_images, seed))
