"""Heartbeat CSV ingestion, normalization, stratified subsets and batching.

The on-disk format is headerless UTF-8 CSV: per row, ``input_len`` samples and
an integral class label in {0..n_classes-1}, both numbers from the model config.
The defaults give MIT-BIH's 188 fields with classes N, S, V, F, Q in that order;
a binary PTB file has the same width and labels 0/1.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .config import ModelConfig, RunConfig
from .errors import ConfigError, DataError

CLASS_NAMES = ("N", "S", "V", "F", "Q")

# replaces zero standard deviations (constant columns, e.g. the zero-padded
# tail) so normalization never divides by zero
STD_FLOOR = 1e-8

# farthest a label may lie from its class id: float noise from a writer, not
# a fractional class
LABEL_TOL = 1e-6

__all__ = [
    "CLASS_NAMES",
    "STD_FLOOR",
    "Dataset",
    "NormStats",
    "load_csv",
    "load_features",
    "fit_normalizer",
    "normalize",
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
    """A normalization mode (one of ``config.NORM_MODES``) with the per-feature
    mean and floored population std that ``standard`` mode applies
    (``per_sample`` keeps 0 and 1 and ignores them), and the training file
    they came from."""

    mean: np.ndarray
    std: np.ndarray
    mode: str
    fitted_on: str


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


# the bytes of a plain numeric CSV: a file made of these alone parses to the
# same numbers, or fails, in numpy's C reader as in the row parser (each
# strips only space and tab around a field and reads it with the same strtod)
_PLAIN_BYTES = b"0123456789+-.eE, \t\r\n"


def _read_plain(path: str, widths: tuple[int, ...]) -> Optional[np.ndarray]:
    """The matrix numpy's C reader makes of a plain file, or None.

    None unless the file holds only :data:`_PLAIN_BYTES`, the reader raises
    nothing (warnings count as errors) and its matrix has at least one row, a
    width in ``widths`` and only finite values. On None the row parser reads
    the file, so every error message is the row parser's.
    """
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 20):
                if chunk.translate(None, _PLAIN_BYTES):
                    return None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(path, delimiter=",", comments=None, dtype=np.float64,
                                encoding="utf-8", ndmin=2)
    except Exception:  # whatever the C reader refuses, the row parser reports
        return None
    if matrix.shape[0] == 0 or matrix.shape[1] not in widths or not np.isfinite(matrix).all():
        return None
    return matrix


def _parse_lines(path: str, widths: tuple[int, ...]) -> np.ndarray:
    """The row parser: the file's rows as a float64 matrix, one line at a time.

    The first row may have any width in ``widths``, and every later row that
    same width. Every field must be a finite number; blank lines are skipped,
    and errors name file lines, not matrix row indices.
    """
    rows = []
    linenos = []
    for lineno, line in _lines(path):
        fields = line.split(",")
        if len(fields) not in widths:
            raise DataError(f"{path}: row {lineno} has {len(fields)} fields, "
                            f"expected {' or '.join(map(str, widths))}")
        widths = (len(fields),)
        try:
            # Python's float also reads 1_0, non-ASCII digits and a field padded
            # with \v or \f, which no CSV writer writes
            if "_" in line or not (line.isascii() and line.replace("\t", "").isprintable()):
                raise ValueError
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
    return matrix


def _parse_rows(path: str, widths: tuple[int, ...]) -> np.ndarray:
    """The file's rows as a float64 matrix: numpy's C reader's when
    :func:`_read_plain` takes the file, else the row parser's. Both give the
    same bits."""
    matrix = _read_plain(path, widths)
    return _parse_lines(path, widths) if matrix is None else matrix


def _line_of_row(path: str, row: int) -> int:
    """The 1-based file line of matrix row ``row``, counted as the row parser
    counts them: blank lines hold no row."""
    return next(itertools.islice(_lines(path), row, None))[0]


def _labels(path: str, raw: np.ndarray, n_classes: int) -> np.ndarray:
    """Each row's class id; a label farther than :data:`LABEL_TOL` from one of
    ``0..n_classes-1`` raises a :class:`DataError` naming its line."""
    labels = np.rint(raw)
    off = np.abs(raw - labels) > LABEL_TOL
    bad = np.nonzero(off | (labels < 0) | (labels >= n_classes))[0]
    if bad.size:
        i = bad[0]
        what = "is not an integer" if off[i] else f"outside {{0..{n_classes - 1}}}"
        raise DataError(f"{path}: row {_line_of_row(path, i)} label {float(raw[i])} {what}")
    return labels.astype(np.int64)


def load_csv(path: str, input_len: int = ModelConfig.input_len,
             n_classes: int = ModelConfig.n_classes) -> Dataset:
    """Read a labeled beat file: ``input_len + 1`` fields per row, last field is the label."""
    matrix = _parse_rows(path, (input_len + 1,))
    labels = _labels(path, matrix[:, input_len], n_classes)
    return Dataset(features=matrix[:, :input_len], labels=labels, source=path)


def load_features(path: str, input_len: int = ModelConfig.input_len,
                  n_classes: int = ModelConfig.n_classes
                  ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Read a prediction input: rows of ``input_len`` fields, or one more with
    the label checked as :func:`load_csv` checks it, and kept."""
    matrix = _parse_rows(path, (input_len, input_len + 1))
    if matrix.shape[1] == input_len:
        return matrix, None
    return matrix[:, :input_len], _labels(path, matrix[:, input_len], n_classes)


def fit_normalizer(train: Dataset, mode: str = "standard") -> NormStats:
    """Stats for ``mode``; ``standard`` fits them on the training split only."""
    violations = RunConfig(normalization=mode).validate()
    if violations:
        raise ConfigError(violations)
    width = train.features.shape[1]
    mean, std = np.zeros(width), np.ones(width)
    if mode == "standard":
        if train.n < 2:
            raise DataError(f"need at least 2 samples to fit normalization, got {train.n}")
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)  # population (ddof=0)
        std = np.where(std > 0.0, std, STD_FLOOR)
    return NormStats(mean=mean, std=std, mode=mode, fitted_on=train.source or "unnamed")


def normalize(features: np.ndarray, stats: NormStats,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Apply ``stats``: each row standardized on its own in ``per_sample`` mode
    (a constant row's std floored), else each column with the stored mean and std.

    The result goes to ``out`` when given, as in numpy's ufuncs; ``out`` may
    be ``features`` itself, which normalizes in place with the same bits.
    """
    if stats.mode == "per_sample":
        mean = features.mean(axis=1, keepdims=True)
        std = features.std(axis=1, keepdims=True)
        centred = np.subtract(features, mean, out=out)
        return np.divide(centred, np.where(std > 0.0, std, STD_FLOOR), out=centred)
    centred = np.subtract(features, stats.mean, out=out)
    return np.divide(centred, stats.std, out=centred)


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


def batches(ds: Dataset, batch_size: int, seed) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(features, labels)`` pairs that cover all rows exactly once, in the
    order of a permutation drawn from ``seed`` alone (pass a per-epoch seed to
    reshuffle between epochs); the final pair may be short.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = np.random.default_rng(seed).permutation(ds.n)
    for start in range(0, ds.n, batch_size):
        idx = order[start : start + batch_size]
        yield ds.features[idx], ds.labels[idx]
