"""Encoder-only transformer for ECG heartbeat classification, from scratch.

The pipeline covers CSV ingestion, zero-mean normalization, patch embedding,
a multi-head self-attention encoder stack, Adam training with best-checkpoint
saving, and the standard imbalanced-class evaluation metrics. All math runs
on a small taped reverse-mode tensor engine over numpy float64 arrays.
"""

from .config import ModelConfig, TrainConfig
from .data import (
    CLASS_NAMES,
    Dataset,
    NormStats,
    batches,
    fit_normalizer,
    load_csv,
    normalize,
    stratified_subset,
)
from .metrics import (
    classification_report,
    confusion_matrix,
    format_report,
)
from .model import (
    Model,
    build_model,
    count_params,
    forward,
    tiny_config,
)
from .tensor import GradTape, Tensor, backward, grad_check
from .train import (
    Adam,
    Checkpoint,
    checkpoint_bytes,
    epochs,
    load_checkpoint,
    restore_model,
    sparse_ce_loss,
)

__version__ = "0.1.0"
