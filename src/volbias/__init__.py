"""Volume bias of segmentation losses under inherent label uncertainty.

Tools to compute exact expected cross-entropy and soft-Dice losses over
region-structured Bernoulli label models, locate the risk-minimizing
predictions and the volume bias they imply, reproduce the effect
empirically with a small logistic classifier, and test and correct volume
estimates with bootstrap statistics and linear re-calibration.
"""

from .losses import (
    HardMap,
    SoftMap,
    VolumeErrorReport,
    accuracy_01,
    cross_entropy,
    dice_score,
    soft_dice_loss,
    threshold,
    volume_error_report,
    volume_of,
)
from .minimize import (
    BiasPoint,
    SdMinimum,
    bias_curve,
    ce_minimizer,
    find_switch_point,
    sd_minimizer,
)
from .regions import (
    LabelConfiguration,
    Region,
    RegionModel,
    ScenarioSpec,
    configuration_volume,
    expand_scenario,
    sample_labeling,
    sample_labelings,
    true_expected_volume,
)
from .risk import (
    ExpectedLoss,
    PredictionAssignment,
    TooManyUncertainRegionsError,
    ce_curve,
    expected_ce,
    expected_sd_binomial,
    expected_sd_exhaustive,
    scenario_prediction,
    sd_binomial_curve,
)
from .stats import (
    BootstrapResult,
    CalibrationFit,
    VolumeSpecificProfile,
    apply_calibration,
    bootstrap_paired,
    fit_calibration,
    volume_specific_profile,
)
from .trainer import (
    ToyDataset,
    ToyModel,
    TrainReport,
    TrainingDivergedError,
    ce_batch_loss,
    ce_gradient,
    empirical_volume_bias,
    forward,
    generate_dataset,
    sd_batch_loss,
    sd_gradient,
    train,
)

__version__ = "0.1.0"
