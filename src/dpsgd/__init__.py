"""Differentially private SGD training engine and experiment harness.

Per-example gradients are clipped (globally, per layer, or per pipeline
stage), noised independently, accumulated into large effective batches,
and priced with a Renyi-DP accountant. The CLI runs single experiments,
batch-size/noise sweeps, and accountant queries from a flat config file.
"""

from .accounting import (
    DEFAULT_ORDERS,
    EpsilonReport,
    RdpCurve,
    compose,
    epsilon_for_training,
    rdp_subsampled_gaussian,
    to_epsilon,
)
from .data import Dataset, load_idx, load_labeled_csv, sample_batches, synth_blobs
from .engine import (
    DpConfig,
    FlatGradient,
    OptimizerState,
    accumulate,
    clip_global,
    clip_per_layer,
    clip_per_stage,
    lr_schedule,
    noise_per_example,
    noise_stream,
    sgd_step,
    train_epoch,
)
from .metrics import RunRecord, emit_csv, read_csv, record_step
from .models import (
    ModelSpec,
    ParamSet,
    build_model,
    cnn_spec,
    evaluate_accuracy,
    forward_logits,
    mlp_spec,
    per_example_gradient,
)

__version__ = "0.1.0"
