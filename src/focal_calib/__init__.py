"""Focal-loss confidence calibration toolkit.

Training with the focal loss distorts predicted probabilities away from
the true class posterior in a precisely characterized way.  This package
implements the closed-form recovery transform that undoes the distortion,
the confidence thresholds separating guaranteed over- and under-estimation,
the pointwise risk minimizer with two independent solvers, calibration
metrics (ECE, classwise ECE, NLL, KL divergence, error rate), temperature
scaling, a fully deterministic synthetic experiment, and a verification
suite that checks every claim numerically.
"""

from .calibrate import (
    TemperatureFit,
    apply_psi_dataset,
    apply_temperature,
    fit_temperature,
    scale_dataset,
    softmax,
)
from .core import (
    CLAMP_EPS,
    ROW_SUM_TOL,
    SIMPLEX_TOL,
    as_simplex,
    confidence_weight,
    focal_loss,
    is_uniform_on_support,
    recover_binary,
    recover_posterior,
    recover_posterior_rows,
    recovery_score,
)
from .errors import (
    CalibrationError,
    ConvergenceError,
    DegenerateError,
    DimensionError,
    DivergenceError,
    DomainError,
    EmptyDataError,
    InconsistentKError,
    InvalidSimplexError,
    ParseError,
    SingularityError,
)
from .io import FileFormat, load_predictions, save_predictions, transform_file
from .metrics import (
    BinningReport,
    PredictionSet,
    ScoreKind,
    bin_reliability,
    cw_ece,
    ece,
    error_rate,
    kld,
    kld_rows,
    nll,
)
from .minimizer import (
    RiskMinimizerResult,
    confidence_curve,
    minimize_risk_inverse,
    minimize_risk_pg,
)
from .synth import (
    MlpModel,
    PanelReport,
    SyntheticDistribution,
    TrainConfig,
    default_distribution,
    evaluate_panel,
    grad_check,
    run_experiment,
    train_mlp,
)
from .thresholds import (
    Direction,
    Region,
    ThresholdPair,
    confidence_direction,
    confidence_region,
    thresholds,
)
from .verify import VerifyCheck, VerifyReport, run_verify

__version__ = "0.1.0"

__all__ = [
    "BinningReport",
    "CLAMP_EPS",
    "CalibrationError",
    "ConvergenceError",
    "DegenerateError",
    "DimensionError",
    "Direction",
    "DivergenceError",
    "DomainError",
    "EmptyDataError",
    "FileFormat",
    "InconsistentKError",
    "InvalidSimplexError",
    "MlpModel",
    "PanelReport",
    "ParseError",
    "PredictionSet",
    "ROW_SUM_TOL",
    "Region",
    "RiskMinimizerResult",
    "SIMPLEX_TOL",
    "ScoreKind",
    "SingularityError",
    "SyntheticDistribution",
    "TemperatureFit",
    "ThresholdPair",
    "TrainConfig",
    "VerifyCheck",
    "VerifyReport",
    "apply_psi_dataset",
    "apply_temperature",
    "as_simplex",
    "bin_reliability",
    "confidence_curve",
    "confidence_direction",
    "confidence_region",
    "confidence_weight",
    "cw_ece",
    "default_distribution",
    "ece",
    "error_rate",
    "evaluate_panel",
    "fit_temperature",
    "focal_loss",
    "grad_check",
    "is_uniform_on_support",
    "kld",
    "kld_rows",
    "load_predictions",
    "minimize_risk_inverse",
    "minimize_risk_pg",
    "nll",
    "recover_binary",
    "recover_posterior",
    "recover_posterior_rows",
    "recovery_score",
    "run_experiment",
    "run_verify",
    "save_predictions",
    "scale_dataset",
    "softmax",
    "thresholds",
    "train_mlp",
    "transform_file",
]
