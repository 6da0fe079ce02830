"""Unmasking toolkit for masked face embeddings.

A small fully connected network (the unmasking model) maps embeddings of
masked faces back toward the unmasked embedding space of the same identity.
Training uses triplet sampling with either the classic triplet loss or the
self-restrained variant that freezes the imposter term once separation is
sufficient. The rest of the package provides a deterministic synthetic
dataset generator, biometric verification metrics, binary/CSV file formats,
and a command line for end-to-end experiments.
"""

from . import _threads  # must precede numpy-importing submodules

from .errors import EumError
from .fileio import (
    Dataset,
    EmbeddingRecord,
    read_checkpoint,
    read_embeddings,
    write_checkpoint,
    write_embeddings,
)
from .losses import (
    Branch,
    DistanceTriple,
    LossResult,
    TripletBatch,
    compute_distances,
    srt_branch,
    srt_loss,
    triplet_loss,
)
from .metrics import (
    ScoreSet,
    VerificationReport,
    auc,
    compute_scores,
    eer,
    fdr,
    fnmr_at_fmr,
    means,
    report,
    roc,
)
from .model import (
    EumParameters,
    ForwardCache,
    ParamGrads,
    backward,
    forward_infer,
    forward_train,
    init_params,
)
from .rng import CounterRng
from .synth import SynthSpec, gen_dataset, phenomenon_report
from .training import (
    TrainConfig,
    TrainHistory,
    config_for_dataset,
    lr_at,
    sample_triplets,
    sgd_step,
    train,
)
from .vecmath import l2_normalize, normalize_rows

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "CounterRng",
    "Dataset",
    "DistanceTriple",
    "EmbeddingRecord",
    "EumError",
    "EumParameters",
    "ForwardCache",
    "LossResult",
    "ParamGrads",
    "ScoreSet",
    "SynthSpec",
    "TrainConfig",
    "TrainHistory",
    "TripletBatch",
    "VerificationReport",
    "auc",
    "backward",
    "compute_distances",
    "compute_scores",
    "config_for_dataset",
    "eer",
    "fdr",
    "fnmr_at_fmr",
    "forward_infer",
    "forward_train",
    "gen_dataset",
    "init_params",
    "l2_normalize",
    "lr_at",
    "means",
    "normalize_rows",
    "phenomenon_report",
    "read_checkpoint",
    "read_embeddings",
    "report",
    "roc",
    "sample_triplets",
    "sgd_step",
    "srt_branch",
    "srt_loss",
    "train",
    "triplet_loss",
    "write_checkpoint",
    "write_embeddings",
]
