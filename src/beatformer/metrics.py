"""Confusion matrix, per-class precision/recall/F1, and report formatting.

Convention, used everywhere: confusion rows are the true class, columns the
predicted class. Metrics with a zero denominator are reported as 0 and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import numpy as np

from .data import CLASS_NAMES

__all__ = [
    "ClassMetrics",
    "MetricsReport",
    "confusion_matrix",
    "classification_report",
    "format_report",
    "report_to_csv",
    "confusion_to_csv",
]


@dataclass(frozen=True)
class ClassMetrics:
    name: str
    precision: float
    recall: float
    f1: float
    support: int
    undefined: tuple[str, ...] = ()  # metrics whose denominator was zero


@dataclass(frozen=True)
class MetricsReport:
    classes: tuple[ClassMetrics, ...]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total: int


def confusion_matrix(preds, labels, k: int) -> np.ndarray:
    """Count matrix with cell[t][p] = samples of true class t predicted p."""
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError(
            f"predictions and labels must be equal-length vectors, "
            f"got {preds.shape} and {labels.shape}"
        )
    for name, arr in (("predictions", preds), ("labels", labels)):
        if arr.size and (arr.min() < 0 or arr.max() >= k):
            raise ValueError(f"{name} contain a class outside {{0..{k - 1}}}")
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def classification_report(cm: np.ndarray) -> MetricsReport:
    """Per-class and aggregate metrics from a (true x predicted) count matrix.

    Classes are named N, S, V, F, Q if k = 5, else 0..k-1.

    Everything is computed in exact rational arithmetic and rounded to float
    once at the end, so identities like weighted recall == accuracy hold
    exactly, not just to rounding error.
    """
    cm = np.asarray(cm, dtype=np.int64)
    k = cm.shape[0]
    names = CLASS_NAMES if k == len(CLASS_NAMES) else range(k)
    total = int(cm.sum())
    tp = [int(cm[c, c]) for c in range(k)]
    col = [int(cm[:, c].sum()) for c in range(k)]  # predicted counts
    row = [int(cm[c, :].sum()) for c in range(k)]  # true counts (supports)

    zero = Fraction(0)
    classes = []
    precisions, recalls, f1s = [], [], []
    for c in range(k):
        undefined = []
        precision = Fraction(tp[c], col[c]) if col[c] else zero
        if not col[c]:
            undefined.append("precision")
        recall = Fraction(tp[c], row[c]) if row[c] else zero
        if not row[c]:
            undefined.append("recall")
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else zero
        if not precision + recall:
            undefined.append("f1")
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
        classes.append(
            ClassMetrics(
                name=str(names[c]),
                precision=float(precision),
                recall=float(recall),
                f1=float(f1),
                support=row[c],
                undefined=tuple(undefined),
            )
        )

    accuracy = Fraction(sum(tp), total) if total else zero
    weights = [Fraction(s, total) if total else zero for s in row]
    weighted = lambda values: float(sum(v * w for v, w in zip(values, weights)))
    return MetricsReport(
        classes=tuple(classes),
        accuracy=float(accuracy),
        macro_precision=float(sum(precisions) / k),
        macro_recall=float(sum(recalls) / k),
        macro_f1=float(sum(f1s) / k),
        weighted_precision=weighted(precisions),
        weighted_recall=weighted(recalls),
        weighted_f1=weighted(f1s),
        total=total,
    )


def _round2(x: float) -> str:
    """Two-decimal display rounding, half away from zero."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _rows(report: MetricsReport) -> list[tuple]:
    """``(name, precision, recall, f1, support)`` of each class, then of the
    accuracy, macro-average and weighted-average rows (accuracy fills only f1)."""
    r, total = report, report.total
    return [(c.name, c.precision, c.recall, c.f1, c.support) for c in r.classes] + [
        ("accuracy", None, None, r.accuracy, total),
        ("macro avg", r.macro_precision, r.macro_recall, r.macro_f1, total),
        ("weighted avg", r.weighted_precision, r.weighted_recall, r.weighted_f1, total)]


def format_report(report: MetricsReport) -> str:
    """Fixed-width table: per-class rows, then accuracy / macro / weighted."""
    lines = [f"{'':>12}{'precision':>11}{'recall':>9}{'f1-score':>10}{'support':>9}", ""]
    for name, *metrics, support in _rows(report):
        cells = ("" if v is None else _round2(v) for v in metrics)
        lines.append(f"{name:>12}" + "".join(f"{c:>{w}}" for c, w in zip(cells, (11, 9, 10)))
                     + f"{support:>9}")
    lines.insert(-3, "")  # a blank line before the three summary rows
    flagged = [f"{c.name}: {', '.join(c.undefined)}" for c in report.classes if c.undefined]
    if flagged:
        lines += ["", "zero-denominator metrics reported as 0 for: " + "; ".join(flagged)]
    return "\n".join(lines)


def report_to_csv(report: MetricsReport) -> str:
    """Machine-readable report, full precision."""
    lines = ["class,precision,recall,f1,support"]
    for name, *metrics, support in _rows(report):
        lines.append(",".join([name, *("" if v is None else repr(v) for v in metrics),
                               str(support)]))
    return "\n".join(lines) + "\n"


def confusion_to_csv(cm: np.ndarray) -> str:
    """Raw counts, one row per true class, comma-separated integers."""
    return "\n".join(",".join(str(int(v)) for v in row) for row in np.asarray(cm)) + "\n"
