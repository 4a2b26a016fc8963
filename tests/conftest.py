"""Shared fixtures: synthetic beat corpora and optional real-data discovery.

The real MIT-BIH/PTB-derived CSVs are not distributable with the repo. Tests
that need them look for ``mitbih_train.csv`` / ``mitbih_test.csv`` under
``$ECG_DATA_DIR`` and skip with a clear reason when absent. Everything else
runs on a synthetic five-class corpus with the same shape, label taxonomy
and (by default) the same class imbalance as the real training split.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from beatformer.data import Dataset
from beatformer.tensor import Tensor, record_op

# per-class sizes of the real train/test splits (used for proportions and
# for the ingestion-fidelity criterion when the real files are available)
REAL_TRAIN_COUNTS = (72471, 2223, 5788, 641, 6431)
REAL_TEST_COUNTS = (18118, 556, 1448, 162, 1608)

# class-specific waveform knobs: bump center, bump width, ripple frequency
_TEMPLATES = (
    (0.22, 0.030, 4.0),
    (0.40, 0.050, 7.0),
    (0.58, 0.080, 2.0),
    (0.74, 0.040, 9.0),
    (0.10, 0.100, 12.0),
)


def synthetic_beats(n: int, seed: int, proportions=None, source: str = "synthetic") -> Dataset:
    """Generate n labeled beats: class-specific bump + ripple, zero-padded tail.

    Shapes are chosen so the classes are cleanly separable; the default label
    distribution mirrors the real training split's imbalance.
    """
    rng = np.random.default_rng(seed)
    if proportions is None:
        counts = np.array(REAL_TRAIN_COUNTS, dtype=np.float64)
        proportions = counts / counts.sum()
    labels = rng.choice(5, size=n, p=proportions)
    t = np.linspace(0.0, 1.0, 187)

    centers = np.array([_TEMPLATES[c][0] for c in labels])[:, None]
    widths = np.array([_TEMPLATES[c][1] for c in labels])[:, None]
    freqs = np.array([_TEMPLATES[c][2] for c in labels])[:, None]
    amp = rng.uniform(0.8, 1.0, size=(n, 1))
    bump = amp * np.exp(-((t[None, :] - centers) ** 2) / (2.0 * widths**2))
    ripple = 0.15 * np.sin(2.0 * np.pi * freqs * t[None, :])
    noise = rng.normal(scale=0.03, size=(n, 187))
    signal = np.clip(bump + ripple + noise + 0.2, 0.0, None)

    # zero-padded tail of random onset, like the fixed-width beat records
    valid = rng.integers(130, 188, size=n)
    mask = np.arange(187)[None, :] < valid[:, None]
    features = signal * mask
    return Dataset(features=features, labels=labels, source=source)


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
