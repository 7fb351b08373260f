"""Self-supervised time-series representation learning with soft contrastive
objectives driven by data-space distances and timestamp gaps."""

from .assign import (
    effective_tau,
    extend_instance,
    extend_temporal,
    w_instance,
    w_temporal,
)
from .config import TrainConfig
from .data import (
    TimeSeriesSet,
    ViewPair,
    crop_two_views,
    load_ucr_tsv,
    make_synthetic,
    write_ucr_tsv,
    znormalize,
)
from .distance import (
    METRICS,
    DistanceMatrix,
    dtw,
    fastdtw,
    load_matrix,
    pairwise,
    save_matrix,
    tam,
)
from .encoder import EncoderModel, encode, init_encoder, instance_repr, pool_ladder
from .evaluate import EvalReport, anomaly_scores, classify_probe, threshold_anomalies
from .loss import LossBreakdown, joint_loss, soft_instance_loss, soft_temporal_loss
from .train import TrainState, load_checkpoint, pretrain, save_checkpoint, split_seed

__version__ = "0.1.0"

__all__ = [
    "effective_tau",
    "extend_instance",
    "extend_temporal",
    "w_instance",
    "w_temporal",
    "TimeSeriesSet",
    "ViewPair",
    "crop_two_views",
    "load_ucr_tsv",
    "make_synthetic",
    "write_ucr_tsv",
    "znormalize",
    "METRICS",
    "DistanceMatrix",
    "dtw",
    "fastdtw",
    "load_matrix",
    "pairwise",
    "save_matrix",
    "tam",
    "EncoderModel",
    "encode",
    "init_encoder",
    "instance_repr",
    "pool_ladder",
    "EvalReport",
    "anomaly_scores",
    "classify_probe",
    "threshold_anomalies",
    "LossBreakdown",
    "joint_loss",
    "soft_instance_loss",
    "soft_temporal_loss",
    "TrainConfig",
    "TrainState",
    "load_checkpoint",
    "pretrain",
    "save_checkpoint",
    "split_seed",
]
