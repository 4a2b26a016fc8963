"""Seeded synthetic heartbeat corpus and the 188-column CSV writer.

The real MIT-BIH CSVs are not redistributable, so every benchmark input is
generated here. The recipe is the one the test suite's ``synthetic_beats``
fixture uses (class-specific bump and ripple, zero-padded tail, the real
splits' class proportions), drawn in the same order, so one seed gives the
same beats in both places.
"""

from __future__ import annotations

import numpy as np

N_FEATURES = 187
N_CLASSES = 5

# per-class sizes of the real MIT-BIH train/test splits (N, S, V, F, Q)
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


def proportions(counts) -> np.ndarray:
    counts = np.asarray(counts, dtype=np.float64)
    return counts / counts.sum()


def synthetic_beats(n: int, seed, class_proportions=None, labels=None):
    """Return ``(features, labels)``: n beats of shape (n, 187) and their classes.

    Labels are drawn from ``class_proportions`` (default: the real training
    split's imbalance) unless given explicitly.
    """
    rng = np.random.default_rng(seed)
    if labels is None:
        p = proportions(REAL_TRAIN_COUNTS) if class_proportions is None else class_proportions
        labels = rng.choice(N_CLASSES, size=n, p=p)
    labels = np.asarray(labels, dtype=np.int64)
    t = np.linspace(0.0, 1.0, N_FEATURES)

    centers = np.array([_TEMPLATES[c][0] for c in labels])[:, None]
    widths = np.array([_TEMPLATES[c][1] for c in labels])[:, None]
    freqs = np.array([_TEMPLATES[c][2] for c in labels])[:, None]
    amp = rng.uniform(0.8, 1.0, size=(n, 1))
    bump = amp * np.exp(-((t[None, :] - centers) ** 2) / (2.0 * widths**2))
    ripple = 0.15 * np.sin(2.0 * np.pi * freqs * t[None, :])
    noise = rng.normal(scale=0.03, size=(n, N_FEATURES))
    signal = np.clip(bump + ripple + noise + 0.2, 0.0, None)

    # zero-padded tail of random onset, like the fixed-width beat records
    valid = rng.integers(130, N_FEATURES + 1, size=n)
    mask = np.arange(N_FEATURES)[None, :] < valid[:, None]
    return signal * mask, labels


def write_csv(path: str, features: np.ndarray, labels=None) -> None:
    """Write the on-disk beat format; without labels, rows have 187 fields."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(features):
            fh.write(",".join(f"{v:.6f}" for v in row))
            if labels is not None:
                fh.write(f",{float(labels[i]):.1f}")
            fh.write("\n")
