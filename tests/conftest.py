"""Shared fixtures: synthetic beat corpora and optional real-data discovery.

The real MIT-BIH/PTB-derived CSVs are not distributable with the repo. Tests
that need them look for ``mitbih_train.csv`` / ``mitbih_test.csv`` under
``$ECG_DATA_DIR`` and skip with a clear reason when absent. Everything else
runs on the benchmark's synthetic five-class corpus (``bench/corpus.py``),
with the same shape, label taxonomy and (by default) the same class
imbalance as the real training split.
"""

import os
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from beatformer.data import Dataset, NormStats, fit_normalizer, normalize
from beatformer.tensor import Tensor, record_op
from beatformer.train import Checkpoint, checkpoint_bytes, epochs, openblas_threads
from bench import corpus as bench_corpus


# every property test draws the same seeded examples on every run
PROPERTY_SETTINGS = settings(derandomize=True, database=None, deadline=None)


def synthetic_beats(n: int, seed: int, proportions=None, source: str = "synthetic",
                    labels=None) -> Dataset:
    """n labeled beats from :func:`bench.corpus.synthetic_beats`, as a Dataset.

    Labels are drawn from ``proportions`` (default: the real training split's
    imbalance) unless given explicitly.
    """
    features, labels = bench_corpus.synthetic_beats(n, seed, class_proportions=proportions,
                                                    labels=labels)
    return Dataset(features=features, labels=labels, source=source)


def infer_forks() -> bool:
    """Whether ``train.infer`` shares its blocks with a forked child on this
    host: it needs two usable CPUs and numpy's OpenBLAS thread setter."""
    return len(os.sched_getaffinity(0)) >= 2 and openblas_threads() is not None


def normalized(ds: Dataset, stats: NormStats) -> Dataset:
    """A copy of ``ds`` with its features normalized by ``stats``, as ``train``
    normalizes its splits in place."""
    return replace(ds, features=normalize(ds.features.copy(), stats))


def train_to_end(model, cfg, train_ds: Dataset, val_ds: Dataset, norm: NormStats = None):
    """Run every epoch of :func:`beatformer.train.epochs`; return the last
    checkpoint it yielded, which is the best epoch's, and the history.
    ``norm`` defaults to stats fitted on ``train_ds``."""
    best, history = None, []
    for stats, _, ckpt in epochs(model, cfg, train_ds, val_ds, norm or fit_normalizer(train_ds)):
        history.append(stats)
        if ckpt is not None:
            best = ckpt
    return best, history


def mask_rows(masks: dict, start: int, end: int, n_tokens: int) -> dict:
    """The dropout masks of samples ``[start, end)`` of a step's ``draw_masks``:
    rows ``[start*t, end*t)`` of each token (``block``) mask, rows
    ``[start, end)`` of each head mask."""
    return {name: (m[start * n_tokens:end * n_tokens] if name.startswith("block")
                   else m[start:end]) for name, m in masks.items()}


def grad_arrays(*tensors: Tensor) -> dict:
    """A zeroed gradient array for each tensor: the ``grads`` that backward fills."""
    return {t: np.zeros_like(t.data) for t in tensors}


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element as one taped scalar op: the loss most tests backpropagate."""
    out = Tensor(np.asarray(x.data.sum()))
    record_op(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b as one taped op. Its backward hands the same array to both inputs,
    as ``add_layer_norm``'s does, which the engine's fan-in tests rely on.

    An operand that ``backward``'s ``grads`` maps must have the output's
    shape; one it does not map may broadcast.
    """
    out = Tensor(a.data + b.data)
    record_op(out, (a, b), lambda g: (g, g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b (elementwise) as one taped op; the same shape rule as :func:`add`."""
    out = Tensor(a.data * b.data)
    record_op(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def resealed(blob: bytes) -> bytes:
    """An edited checkpoint with its trailing CRC-32 recomputed, so the load
    gets past the checksum to whatever the edit broke."""
    body = bytes(blob[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


def unit_norm(config) -> NormStats:
    """Normalization stats that leave a row of ``config`` as it is."""
    n = config.input_len
    return NormStats(mean=np.zeros(n), std=np.ones(n), mode="standard", fitted_on="x")


def params_bytes(config, params: dict) -> bytes:
    """A checkpoint of ``config`` whose tensor table is ``params``, in the
    dict's order, then unit normalization stats, framed as
    ``checkpoint_bytes`` frames a table and with its CRC resealed. The table
    may be any ``{name: array}``, so the file may be one its loader refuses."""
    norm = unit_norm(config)
    head = checkpoint_bytes(Checkpoint(config=config, weights=np.zeros(config.n_params()),
                                       norm=norm, best_val_loss=1.0, epoch=0))
    head = head[:20 + int.from_bytes(head[12:20], "little")]  # magic, version, meta
    tensors = {**params, "norm.mean": norm.mean, "norm.std": norm.std}
    blob = bytearray(head) + struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        arr = np.asarray(arr, dtype=np.float64)
        encoded = name.encode("utf-8")
        blob += struct.pack(f"<I{len(encoded)}sI{arr.ndim}Q", len(encoded), encoded, arr.ndim,
                            *arr.shape)
        blob += arr.astype("<f8").tobytes()
    return resealed(bytes(blob) + bytes(4))


def name_offset(blob: bytes, name: str) -> int:
    """Byte offset of the first stored name ``name`` in a checkpoint's tensor table."""
    encoded = name.encode("utf-8")
    return blob.index(len(encoded).to_bytes(4, "little") + encoded) + 4


def write_beats_csv(path, ds: Dataset) -> None:
    """Serialize a Dataset in the 188-column on-disk format."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, label in zip(ds.features, ds.labels):
            fh.write(",".join(f"{v:.6f}" for v in row))
            fh.write(f",{float(label):.1f}\n")


@pytest.fixture(scope="session")
def synth_train():
    return synthetic_beats(6000, seed=1234)


@pytest.fixture(scope="session")
def synth_test():
    return synthetic_beats(1500, seed=4321)


def real_data_dir():
    """Directory containing the real CSVs, or None when not configured."""
    root = os.environ.get("ECG_DATA_DIR")
    if not root:
        return None
    root = Path(root)
    if (root / "mitbih_train.csv").exists() and (root / "mitbih_test.csv").exists():
        return root
    return None


requires_real_data = pytest.mark.skipif(
    real_data_dir() is None,
    reason="real heartbeat CSVs not found; set ECG_DATA_DIR to a directory "
    "containing mitbih_train.csv and mitbih_test.csv",
)
