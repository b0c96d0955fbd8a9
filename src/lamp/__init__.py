"""Masked flow-field reconstruction with patch-wise POD and latent attention.

The pipeline: snapshots are standardized, cut into non-overlapping patches,
compressed patch-by-patch with POD (by the method of snapshots, a Gram
eigendecomposition), and a single closed-form attention layer predicts the
latent codes of masked patches from the observed ones.  A gappy-POD baseline, synthetic wake surrogates, sweep
utilities, and binary dataset/model formats round out the toolkit.
"""

from .attention import (
    AttentionModel,
    fit_attention_tensor,
    fit_value_tensor,
    predict_masked,
    reconstruct,
    train_attention_model,
)
from .errors import FormatError, NumericalError, ValidationError
from .formats import read_dataset, read_model, write_dataset, write_model
from .gappy import GappyPodModel, fit_gappy, reconstruct_gappy
from .metrics import (
    PowerMap,
    SweepAxes,
    SweepCell,
    SweepResult,
    noise_variance_normalized,
    place_sensors,
    pred_loss,
    predictive_power,
    run_sweep,
)
from .patches import (
    MaskSpec,
    NormStats,
    PatchGrid,
    PatchedSeries,
    SnapshotSet,
    SplitSpec,
    apply_stats,
    denormalize,
    normalize,
    patchify,
    pixel_mask,
    split,
    unpatchify,
)
from .pod import LatentSeries, PatchPodModel, ae_loss, decode, encode, fit_patch_pod
from .synthetic import (
    ChaoticParams,
    FlowSpec,
    LaminarParams,
    generate,
    noise_sigma2,
    signal_power,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionModel",
    "ChaoticParams",
    "FlowSpec",
    "FormatError",
    "GappyPodModel",
    "LaminarParams",
    "LatentSeries",
    "MaskSpec",
    "NormStats",
    "NumericalError",
    "PatchGrid",
    "PatchPodModel",
    "PatchedSeries",
    "PowerMap",
    "SnapshotSet",
    "SplitSpec",
    "SweepAxes",
    "SweepCell",
    "SweepResult",
    "ValidationError",
    "ae_loss",
    "apply_stats",
    "decode",
    "denormalize",
    "encode",
    "fit_attention_tensor",
    "fit_gappy",
    "fit_patch_pod",
    "fit_value_tensor",
    "generate",
    "noise_sigma2",
    "noise_variance_normalized",
    "normalize",
    "patchify",
    "pixel_mask",
    "place_sensors",
    "pred_loss",
    "predict_masked",
    "predictive_power",
    "read_dataset",
    "read_model",
    "reconstruct",
    "reconstruct_gappy",
    "run_sweep",
    "signal_power",
    "split",
    "train_attention_model",
    "unpatchify",
    "write_dataset",
    "write_model",
]
