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


def format_report(report: MetricsReport) -> str:
    """Fixed-width table: per-class rows, then accuracy / macro / weighted."""
    header = f"{'':>12}{'precision':>11}{'recall':>9}{'f1-score':>10}{'support':>9}"
    lines = [header, ""]
    flagged = []
    for c in report.classes:
        lines.append(
            f"{c.name:>12}{_round2(c.precision):>11}{_round2(c.recall):>9}"
            f"{_round2(c.f1):>10}{c.support:>9}"
        )
        if c.undefined:
            flagged.append(f"{c.name}: {', '.join(c.undefined)}")
    lines.append("")
    lines.append(f"{'accuracy':>12}{'':>11}{'':>9}{_round2(report.accuracy):>10}{report.total:>9}")
    lines.append(
        f"{'macro avg':>12}{_round2(report.macro_precision):>11}"
        f"{_round2(report.macro_recall):>9}{_round2(report.macro_f1):>10}{report.total:>9}"
    )
    lines.append(
        f"{'weighted avg':>12}{_round2(report.weighted_precision):>11}"
        f"{_round2(report.weighted_recall):>9}{_round2(report.weighted_f1):>10}{report.total:>9}"
    )
    if flagged:
        lines.append("")
        lines.append("zero-denominator metrics reported as 0 for: " + "; ".join(flagged))
    return "\n".join(lines)


def report_to_csv(report: MetricsReport) -> str:
    """Machine-readable report, full precision."""
    lines = ["class,precision,recall,f1,support"]
    for c in report.classes:
        lines.append(f"{c.name},{c.precision!r},{c.recall!r},{c.f1!r},{c.support}")
    lines.append(f"accuracy,,,{report.accuracy!r},{report.total}")
    lines.append(
        f"macro avg,{report.macro_precision!r},{report.macro_recall!r},"
        f"{report.macro_f1!r},{report.total}"
    )
    lines.append(
        f"weighted avg,{report.weighted_precision!r},{report.weighted_recall!r},"
        f"{report.weighted_f1!r},{report.total}"
    )
    return "\n".join(lines) + "\n"


def confusion_to_csv(cm: np.ndarray) -> str:
    """Raw counts, one row per true class, comma-separated integers."""
    return "\n".join(",".join(str(int(v)) for v in row) for row in np.asarray(cm)) + "\n"
