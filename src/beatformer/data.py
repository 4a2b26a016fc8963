"""Heartbeat CSV ingestion, normalization, stratified subsets and batching.

The on-disk format is headerless UTF-8 CSV: per row, ``input_len`` samples and
an integral class label in {0..n_classes-1}, both numbers from the model config.
The defaults give MIT-BIH's 188 fields with classes N, S, V, F, Q in that order;
a binary PTB file has the same width and labels 0/1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .errors import ConfigError, DataError
from .model import ModelConfig

CLASS_NAMES = ("N", "S", "V", "F", "Q")

# replaces zero standard deviations (constant columns, e.g. the zero-padded
# tail) so normalization never divides by zero
STD_FLOOR = 1e-8

# per-feature training stats, or each row standardized on its own
NORM_MODES = ("standard", "per_sample")

__all__ = [
    "CLASS_NAMES",
    "STD_FLOOR",
    "NORM_MODES",
    "Dataset",
    "NormStats",
    "Batch",
    "load_csv",
    "load_features",
    "fit_normalizer",
    "normalize",
    "apply_normalizer",
    "per_sample_normalize",
    "class_counts",
    "stratified_subset",
    "stratified_split",
    "batches",
]


@dataclass
class Dataset:
    """Labeled beat matrix: (N, input_len) features and N non-negative integer labels."""

    features: np.ndarray
    labels: np.ndarray
    source: str = ""

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"features {self.features.shape} and labels {self.labels.shape} disagree"
            )
        if self.n == 0:
            raise DataError("dataset must contain at least one sample")
        if self.labels.min() < 0:
            raise DataError("labels must be non-negative")

    @property
    def n(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class NormStats:
    """A normalization mode (:data:`NORM_MODES`) with the per-feature mean and
    floored population std that ``standard`` mode applies (``per_sample`` keeps
    0 and 1 and ignores them), and the training file they came from."""

    mean: np.ndarray
    std: np.ndarray
    mode: str
    fitted_on: str


@dataclass(frozen=True)
class Batch:
    features: np.ndarray
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.features.shape[0]


def _lines(path: str) -> Iterator[tuple[int, str]]:
    """Each non-blank line of a UTF-8 text file, stripped, with its 1-based number.

    Lines end as in text mode. A file that cannot be opened or read, and a
    line that is not valid UTF-8, raise a :class:`DataError` naming the path
    and the line.
    """
    try:
        # undecodable bytes come through as lone surrogates, which no valid
        # UTF-8 line can hold, so only such a line fails to encode back
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                if not line.isascii():
                    try:
                        line.encode("utf-8")
                    except UnicodeEncodeError:
                        raise DataError(f"{path}: row {lineno} is not valid UTF-8") from None
                yield lineno, line
    except OSError as err:
        raise DataError(f"{path}: cannot read the file: {err.strerror or err}") from None


def _parse_rows(path: str, n_fields: int) -> tuple[np.ndarray, list[int]]:
    """The file's rows as a float64 matrix, plus each row's 1-based line number.

    Every field must be a finite number; blank lines are skipped, so errors
    name lines through the returned line numbers, not matrix row indices.
    """
    rows = []
    linenos = []
    for lineno, line in _lines(path):
        fields = line.split(",")
        if len(fields) != n_fields:
            raise DataError(
                f"{path}: row {lineno} has {len(fields)} fields, expected {n_fields}"
            )
        try:
            rows.append(np.array(fields, dtype=np.float64))
        except ValueError:
            raise DataError(f"{path}: row {lineno} contains a non-numeric field") from None
        linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: no data rows")
    matrix = np.vstack(rows)
    bad = ~np.isfinite(matrix)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise DataError(
            f"{path}: row {linenos[row]} column {col + 1} holds non-finite value "
            f"{float(matrix[row, col])}"
        )
    return matrix, linenos


def load_csv(path: str, input_len: int = ModelConfig.input_len,
             n_classes: int = ModelConfig.n_classes) -> Dataset:
    """Read a labeled beat file: ``input_len + 1`` fields per row, last field is the label."""
    matrix, linenos = _parse_rows(path, input_len + 1)
    features = matrix[:, :input_len]
    raw_labels = matrix[:, input_len]
    labels = np.rint(raw_labels).astype(np.int64)
    bad = np.nonzero((labels < 0) | (labels >= n_classes))[0]
    if bad.size:
        raise DataError(f"{path}: row {linenos[bad[0]]} label {float(raw_labels[bad[0]])} "
                        f"outside {{0..{n_classes - 1}}}")
    return Dataset(features=features, labels=labels, source=path)


def load_features(path: str, input_len: int = ModelConfig.input_len
                  ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Read a prediction input: rows of ``input_len`` fields, or one more with the label kept."""
    lines = _lines(path)
    lineno, first = next(lines, (0, None))
    lines.close()
    if first is None:
        raise DataError(f"{path}: no data rows")
    n_fields = len(first.split(","))
    if n_fields not in (input_len, input_len + 1):
        raise DataError(
            f"{path}: row {lineno} has {n_fields} fields, "
            f"expected {input_len} or {input_len + 1}"
        )
    matrix, _ = _parse_rows(path, n_fields)
    if n_fields == input_len:
        return matrix, None
    return matrix[:, :input_len], np.rint(matrix[:, input_len]).astype(np.int64)


def fit_normalizer(train: Dataset, mode: str = "standard") -> NormStats:
    """Stats for ``mode``; ``standard`` fits them on the training split only."""
    if mode not in NORM_MODES:
        raise ConfigError(f"normalization must be one of {NORM_MODES}, got {mode!r}")
    width = train.features.shape[1]
    mean, std = np.zeros(width), np.ones(width)
    if mode == "standard":
        if train.n < 2:
            raise DataError(f"need at least 2 samples to fit normalization, got {train.n}")
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)  # population (ddof=0)
        std = np.where(std > 0.0, std, STD_FLOOR)
    return NormStats(mean=mean, std=std, mode=mode, fitted_on=train.source or "unnamed")


def per_sample_normalize(features: np.ndarray) -> np.ndarray:
    """Row-wise standardization, the ablation alternative to column stats."""
    features = np.asarray(features, dtype=np.float64)
    mean = features.mean(axis=1, keepdims=True)
    std = features.std(axis=1, keepdims=True)
    std = np.where(std > 0.0, std, STD_FLOOR)
    return (features - mean) / std


def normalize(features: np.ndarray, stats: NormStats) -> np.ndarray:
    """Apply ``stats``: row-wise in ``per_sample`` mode, else column-wise."""
    if stats.mode == "per_sample":
        return per_sample_normalize(features)
    return (features - stats.mean) / stats.std


def apply_normalizer(ds: Dataset, stats: NormStats) -> Dataset:
    """Normalize with the given (train-fitted) stats via :func:`normalize`; labels untouched."""
    return Dataset(
        features=normalize(ds.features, stats),
        labels=ds.labels.copy(),
        source=ds.source,
    )


def class_counts(ds: Dataset) -> np.ndarray:
    return np.bincount(ds.labels)


def _largest_remainder_allocation(counts: np.ndarray, n: int) -> np.ndarray:
    """Per-class quota of n proportional to counts, within one sample of exact.

    Every class present in counts receives at least one slot.
    """
    total = counts.sum()
    quota = n * counts / total
    alloc = np.floor(quota).astype(np.int64)
    remainder = quota - alloc
    missing = n - alloc.sum()
    # hand the leftover slots to the largest fractional parts (class id breaks ties)
    order = sorted(range(len(counts)), key=lambda c: (-remainder[c], c))
    for c in order[: int(missing)]:
        alloc[c] += 1
    # guarantee one slot per present class, taking from the biggest allocations
    for c in np.nonzero((counts > 0) & (alloc == 0))[0]:
        donor = int(np.argmax(alloc))
        alloc[donor] -= 1
        alloc[c] += 1
    return alloc


def stratified_split(ds: Dataset, n: int, seed: int) -> tuple[Dataset, Dataset]:
    """Draw a seeded stratified sample of n rows; return (picked, rest)."""
    counts = class_counts(ds)
    n_present = int((counts > 0).sum())
    if not n_present <= n <= ds.n:
        raise DataError(f"subset size must lie in [{n_present}, {ds.n}], got {n}")
    rng = np.random.default_rng(seed)
    alloc = _largest_remainder_allocation(counts, n)
    picked = []
    for c in range(len(counts)):
        if alloc[c] == 0:
            continue
        idx = np.nonzero(ds.labels == c)[0]
        picked.append(rng.choice(idx, size=int(alloc[c]), replace=False))
    picked = np.concatenate(picked)
    mask = np.ones(ds.n, dtype=bool)
    mask[picked] = False
    rest_idx = np.nonzero(mask)[0]
    picked_ds = Dataset(ds.features[picked], ds.labels[picked], ds.source)
    rest_ds = None
    if rest_idx.size:
        rest_ds = Dataset(ds.features[rest_idx], ds.labels[rest_idx], ds.source)
    return picked_ds, rest_ds


def stratified_subset(ds: Dataset, n: int, seed: int) -> Dataset:
    """Seeded stratified sample: per-class share within one sample of exact."""
    if n == ds.n:
        return ds
    picked, _ = stratified_split(ds, n, seed)
    return picked


def batches(ds: Dataset, batch_size: int, shuffle: bool = False, seed: int = 0) -> Iterator[Batch]:
    """Cover all rows exactly once; the final batch may be short.

    With shuffle=True the permutation is drawn from ``seed`` alone, so pass a
    per-epoch seed to reshuffle between epochs.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(ds.n)
    if shuffle:
        order = np.random.default_rng(seed).permutation(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield Batch(features=ds.features[idx], labels=ds.labels[idx])
