"""Encoder-only transformer for ECG heartbeat classification, from scratch.

The pipeline covers CSV ingestion, zero-mean normalization, patch embedding,
a multi-head self-attention encoder stack, Adam training with best-checkpoint
saving, and the standard imbalanced-class evaluation metrics. All math runs
on a small taped reverse-mode tensor engine over numpy float64 arrays.
"""
