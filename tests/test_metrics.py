"""Tests for the confusion matrix and classification report."""

from fractions import Fraction

import numpy as np
import pytest

from beatformer.metrics import (
    classification_report,
    confusion_matrix,
    confusion_to_csv,
    format_report,
    report_to_csv,
)


def brute_force_report(preds, labels, k=5):
    """Independent oracle: every metric recomputed by direct counting."""
    preds = list(preds)
    labels = list(labels)
    n = len(labels)
    per_class = {}
    for c in range(k):
        tp = sum(1 for p, t in zip(preds, labels) if p == c and t == c)
        predicted = sum(1 for p in preds if p == c)
        actual = sum(1 for t in labels if t == c)
        precision = Fraction(tp, predicted) if predicted else Fraction(0)
        recall = Fraction(tp, actual) if actual else Fraction(0)
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else Fraction(0)
        )
        per_class[c] = (precision, recall, f1, actual)
    accuracy = Fraction(sum(1 for p, t in zip(preds, labels) if p == t), n)
    macro = tuple(
        float(sum(per_class[c][i] for c in range(k)) / k) for i in range(3)
    )
    weighted = tuple(
        float(sum(per_class[c][i] * Fraction(per_class[c][3], n) for c in range(k)))
        for i in range(3)
    )
    return per_class, float(accuracy), macro, weighted


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        labels = np.array([0, 1, 1, 2, 4, 4, 4])
        cm = confusion_matrix(labels, labels, k=5)
        np.testing.assert_array_equal(np.diag(cm), [1, 2, 1, 0, 3])
        assert cm.sum() == 7 and np.trace(cm) == 7

    def test_single_sample(self):
        cm = confusion_matrix([4], [2], k=5)
        expected = np.zeros((5, 5), dtype=int)
        expected[2, 4] = 1
        np.testing.assert_array_equal(cm, expected)

    def test_hand_enumerated_case(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], k=2)
        np.testing.assert_array_equal(cm, [[1, 0], [1, 2]])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], k=5)

    def test_out_of_range_class(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 5], [0, 1], k=5)

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 5, size=321)
        labels = rng.integers(0, 5, size=321)
        assert confusion_matrix(preds, labels, k=5).sum() == 321


class TestClassificationReport:
    def test_perfect_diagonal(self):
        cm = np.diag([10, 2, 3, 1, 4])
        report = classification_report(cm)
        for c in report.classes:
            assert c.precision == 1.0 and c.recall == 1.0 and c.f1 == 1.0
        assert report.accuracy == 1.0
        assert report.macro_f1 == 1.0 and report.weighted_f1 == 1.0

    def test_hand_computed_two_class_case(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], k=2)
        report = classification_report(cm)
        b = report.classes[1]
        assert b.precision == 1.0
        assert b.recall == pytest.approx(2 / 3)
        assert b.f1 == pytest.approx(0.8)
        assert report.accuracy == 0.75

    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_class_ids_name_the_rows_unless_there_are_five(self, k):
        report = classification_report(np.eye(k, dtype=int))
        assert [c.name for c in report.classes] == [str(c) for c in range(k)]
        lines = format_report(report).splitlines()[2:2 + k]
        assert [line.split()[0] for line in lines] == [str(c) for c in range(k)]

    def test_zero_division_flagged(self):
        # class 3 never occurs and is never predicted
        cm = np.zeros((5, 5), dtype=int)
        cm[0, 0] = 4
        cm[1, 2] = 1
        report = classification_report(cm)
        c3 = report.classes[3]
        assert c3.precision == 0.0 and c3.recall == 0.0 and c3.f1 == 0.0
        assert set(c3.undefined) == {"precision", "recall", "f1"}
        assert "zero-denominator" in format_report(report)

    def test_weighted_recall_equals_accuracy_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, 5, size=n)
            labels = rng.integers(0, 5, size=n)
            report = classification_report(confusion_matrix(preds, labels, k=5))
            assert report.weighted_recall == report.accuracy

    def test_agrees_with_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            preds = rng.integers(0, 5, size=n)
            labels = rng.integers(0, 5, size=n)
            report = classification_report(confusion_matrix(preds, labels, k=5))
            per_class, accuracy, macro, weighted = brute_force_report(preds, labels)
            assert report.accuracy == accuracy
            for c in range(5):
                rc = report.classes[c]
                assert rc.precision == float(per_class[c][0])
                assert rc.recall == float(per_class[c][1])
                assert rc.f1 == float(per_class[c][2])
                assert rc.support == per_class[c][3]
            assert (report.macro_precision, report.macro_recall, report.macro_f1) == macro
            assert (
                report.weighted_precision,
                report.weighted_recall,
                report.weighted_f1,
            ) == weighted

    def test_relabeling_permutes_rows(self):
        rng = np.random.default_rng(4)
        preds = rng.integers(0, 5, size=200)
        labels = rng.integers(0, 5, size=200)
        perm = rng.permutation(5)
        base = classification_report(confusion_matrix(preds, labels, k=5))
        relabeled = classification_report(confusion_matrix(perm[preds], perm[labels], k=5))
        assert base.accuracy == relabeled.accuracy
        assert base.macro_f1 == relabeled.macro_f1
        for c in range(5):
            a = base.classes[c]
            b = relabeled.classes[perm[c]]
            assert (a.precision, a.recall, a.f1, a.support) == (
                b.precision,
                b.recall,
                b.f1,
                b.support,
            )


class TestFormatting:
    def test_perfect_report_prints_ones(self):
        cm = np.diag([5, 5, 5, 5, 5])
        text = format_report(classification_report(cm))
        assert text.count("1.00") >= 15
        assert "accuracy" in text and "macro avg" in text and "weighted avg" in text

    def test_round_half_up(self):
        from beatformer.metrics import _round2

        assert _round2(2 / 3) == "0.67"
        assert _round2(0.664999) == "0.66"
        assert _round2(0.125) == "0.13"  # plain format rounding would give 0.12

    def test_row_order_fixed(self):
        cm = np.diag([1, 1, 1, 1, 1])
        lines = format_report(classification_report(cm)).splitlines()
        names = [line.split()[0] for line in lines if line.strip()][1:6]
        assert names == ["N", "S", "V", "F", "Q"]

    def test_csv_outputs(self):
        cm = confusion_matrix([0, 1, 2, 2], [0, 1, 2, 3], k=5)
        report_csv = report_to_csv(classification_report(cm))
        assert report_csv.startswith("class,precision,recall,f1,support")
        assert len(report_csv.strip().splitlines()) == 1 + 5 + 3
        counts_csv = confusion_to_csv(cm)
        assert len(counts_csv.strip().splitlines()) == 5
        got = np.array([[int(v) for v in line.split(",")] for line in counts_csv.strip().splitlines()])
        np.testing.assert_array_equal(got, cm)

    def test_deterministic(self):
        cm = confusion_matrix([0, 1, 4, 3], [0, 2, 4, 3], k=5)
        a = format_report(classification_report(cm))
        b = format_report(classification_report(cm))
        assert a == b
