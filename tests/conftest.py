"""Shared fixtures: synthetic beat corpora and optional real-data discovery.

The real MIT-BIH/PTB-derived CSVs are not distributable with the repo. Tests
that need them look for ``mitbih_train.csv`` / ``mitbih_test.csv`` under
``$ECG_DATA_DIR`` and skip with a clear reason when absent. Everything else
runs on the benchmark's synthetic five-class corpus (``bench/corpus.py``),
with the same shape, label taxonomy and (by default) the same class
imbalance as the real training split.
"""

import os
import zlib
from pathlib import Path

import numpy as np
import pytest

from beatformer.data import Dataset
from beatformer.tensor import Tensor, record_op
from bench import corpus as bench_corpus


def synthetic_beats(n: int, seed: int, proportions=None, source: str = "synthetic",
                    labels=None) -> Dataset:
    """n labeled beats from :func:`bench.corpus.synthetic_beats`, as a Dataset.

    Labels are drawn from ``proportions`` (default: the real training split's
    imbalance) unless given explicitly.
    """
    features, labels = bench_corpus.synthetic_beats(n, seed, class_proportions=proportions,
                                                    labels=labels)
    return Dataset(features=features, labels=labels, source=source)


def grad_arrays(*tensors: Tensor) -> dict:
    """A zeroed gradient array for each tensor: the ``grads`` that backward fills."""
    return {t: np.zeros_like(t.data) for t in tensors}


def sum_all(x: Tensor) -> Tensor:
    """Sum of every element as one taped scalar op: the loss most tests backpropagate."""
    out = Tensor(np.asarray(x.data.sum()), needs_grad=x.needs_grad)
    record_op(out, (x,), lambda g: (np.broadcast_to(g, x.shape).copy(),))
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b as one taped op. Its backward hands the same array to both inputs,
    as ``add_layer_norm``'s does, which the engine's fan-in tests rely on.

    An operand that needs a gradient must have the output's shape; a constant
    may broadcast.
    """
    out = Tensor(a.data + b.data, needs_grad=a.needs_grad or b.needs_grad)
    record_op(out, (a, b), lambda g: (g, g))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b (elementwise) as one taped op; the same shape rule as :func:`add`."""
    out = Tensor(a.data * b.data, needs_grad=a.needs_grad or b.needs_grad)
    record_op(out, (a, b), lambda g: (g * b.data, g * a.data))
    return out


def resealed(blob: bytes) -> bytes:
    """An edited checkpoint with its trailing CRC-32 recomputed, so the load
    gets past the checksum to whatever the edit broke."""
    body = bytes(blob[:-4])
    return body + zlib.crc32(body).to_bytes(4, "little")


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
