"""Boosted sliding-window object detection.

Weak classifiers come from four visual feature families (paired
rectangles, control points, a symmetric three-pair rectangle test, and
8-connected point chains), searched evolutionarily and combined by
AdaBoost into a strong classifier that a multi-scale sliding-window
detector applies to full frames.
"""

from .boosting import (
    LabeledSample,
    RoundLog,
    Stage,
    StrongClassifier,
    TrainConfig,
    TrainResult,
    WeakClassifier,
    WeightDistribution,
    alpha,
    beta,
    classify,
    score,
    train,
    update_weights,
)
from .detector import Detection, Detections, ScanConfig, iou, nms, scan
from .evalkit import (
    GroundTruthFrame,
    MatchResult,
    PrPoint,
    RocPoint,
    auc,
    match_frame,
    pr_curve,
    roc_curve,
)
from .features import (
    CANONICAL_H,
    CANONICAL_W,
    ChainFeature,
    ControlPointsFeature,
    FeatureKind,
    HaarFeature,
    SymmetricHaarFeature,
    eval_batch,
    kind_of,
    mirror_rect,
    validate_chain,
)
from .imaging import (
    SIGMA_MIN,
    BoundsError,
    GrayImage,
    Rect,
    WindowStack,
    build_integral,
    extract_window,
)
from .learner import Candidate, LearnerConfig, mutate, random_feature, search_best
from .modelio import ModelFormatError, dump_model, load_model, parse_model, save_model
from .pgm import PgmError, load_pgm, parse_pgm, save_pgm
from .pipeline import train_detector

__all__ = [name for name in dir() if not name.startswith("_")]
