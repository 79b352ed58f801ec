"""Geometric ODIN at desk scale.

Small softmax-linear classifiers with a norm/angle-decomposed final layer,
KL-derived covariate/concept shift scores, a controlled distribution-shift
benchmark, and order-preserving post-hoc calibration.
"""

from .bench import (
    ConceptGroup,
    DetectionReport,
    ReportRow,
    ShiftsConfig,
    ShiftSpec,
    SplitGroup,
    SyntheticTask,
    TaskConfig,
    auroc,
    concept_split,
    corrupt,
    make_concept_groups,
    make_task,
    sweep,
    tnr_at_tpr95,
)
from .calibrate import (
    CalibConfig,
    CalibrationReport,
    calibrate,
    ece,
    reliability_bins,
    temperature_scale,
)
from .head import HeadParams, HeadVariant
from .persist import load_model, parse_embeddings, read_report, save_model, write_report
from .scores import EPS_NORM, SCORE_NAMES, score_batch
from .train import (
    ExtractorParams,
    Model,
    TrainConfig,
    accuracy,
    cosine_lr,
    extract_features,
    predict,
    train,
)

__version__ = "0.1.0"
