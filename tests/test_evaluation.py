import math

import numpy as np
import pytest

from isoguard.errors import IsoguardError
from isoguard.evaluation import (
    ClassifierEvaluation,
    ComparisonReport,
    ConfusionCounts,
    RocCurve,
    confusion,
    evaluate_predictions,
    metrics,
    metrics_weighted,
    percent,
    render_table,
    report_to_json,
    roc,
    swap_positive,
    write_roc_csv,
)


def pairwise_auc(y_true, scores):
    """O(n^2) oracle: concordant pairs plus half the ties over pos*neg."""
    y_true = np.asarray(y_true)
    scores = np.asarray(scores, dtype=float)
    pos = scores[y_true == 1]
    neg = scores[y_true == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_enumeration(self):
        c = confusion([1, 1, 0, 0], [1, 0, 0, 1])
        assert (c.tp, c.fn, c.tn, c.fp) == (1, 1, 1, 1)

    def test_identical_vectors(self):
        c = confusion([1, 0, 1], [1, 0, 1])
        assert c.fp == 0 and c.fn == 0

    def test_all_wrong(self):
        c = confusion([1, 0], [0, 1])
        assert c.tp == 0 and c.tn == 0

    def test_length_mismatch(self):
        with pytest.raises(IsoguardError, match="length mismatch"):
            confusion([1, 0], [1])

    def test_non_binary_rejected(self):
        with pytest.raises(IsoguardError, match="0/1"):
            confusion([1, 2], [1, 0])


@pytest.mark.parametrize("measure", [confusion, roc])
def test_two_dimensional_labels_rejected(measure):
    # a matrix of 0/1 labels is not a label vector, whether or not its cells are binary
    with pytest.raises(IsoguardError, match=r"y_true must be a vector, got shape \(2, 2\)"):
        measure([[0, 1], [1, 0]], [[0.1, 0.9], [0.8, 0.2]])


class TestMetrics:
    def test_worked_example(self):
        m = metrics(ConfusionCounts(tp=9, fp=1, fn=9, tn=81))
        assert m.precision == pytest.approx(0.9)
        assert m.recall == pytest.approx(0.5)
        assert m.accuracy == pytest.approx(0.9)
        assert m.f1 == pytest.approx(0.6428571428571429)

    def test_f1_equals_p_when_p_equals_r(self):
        m = metrics(ConfusionCounts(tp=3, fp=1, fn=1, tn=5))
        assert m.precision == m.recall == pytest.approx(0.75)
        assert m.f1 == pytest.approx(0.75)

    def test_zero_denominator_flags(self):
        m = metrics(ConfusionCounts(tp=0, fp=0, fn=2, tn=3))
        assert m.precision == 0.0
        assert "precision" in m.degenerate and "f1" in m.degenerate

    def test_perfect_prediction_accuracy(self):
        for y in ([1, 0, 1], [0, 0], [1, 1, 1]):
            y_arr = np.array(y)
            c = confusion(y_arr, y_arr)
            assert metrics(c).accuracy == 1.0

    def test_f1_equals_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            c = ConfusionCounts(*(int(v) for v in rng.integers(0, 20, size=4)))
            if c.total == 0 or c.tp + c.fp == 0 or c.tp + c.fn == 0 or c.tp == 0:
                continue
            m = metrics(c)
            assert m.f1 == pytest.approx(2 * c.tp / (2 * c.tp + c.fp + c.fn), abs=1e-12)

    def test_accuracy_invariant_under_positive_swap(self):
        c = ConfusionCounts(tp=5, fp=2, fn=3, tn=10)
        assert metrics(c).accuracy == metrics(swap_positive(c)).accuracy

    def test_precision_recall_transpose_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y_true = rng.integers(0, 2, 30)
            y_pred = rng.integers(0, 2, 30)
            a = metrics(confusion(y_true, y_pred))
            b = metrics(confusion(y_pred, y_true))
            assert a.precision == pytest.approx(b.recall)

    def test_weighted_average(self):
        c = ConfusionCounts(tp=8, fp=2, fn=2, tn=88)
        w = metrics_weighted(c)
        pos, neg = metrics(c), metrics(swap_positive(c))
        support_pos, support_neg = 10, 90
        assert w.precision == pytest.approx((pos.precision * support_pos + neg.precision * support_neg) / 100)
        assert w.accuracy == pos.accuracy

    def test_empty_rejected(self):
        with pytest.raises(IsoguardError, match="zero instances"):
            metrics(ConfusionCounts(0, 0, 0, 0))


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9])
        assert curve.auc == pytest.approx(1.0)
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)

    def test_all_scores_tied(self):
        curve = roc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5])
        assert curve.auc == pytest.approx(0.5)

    def test_reversed_scores(self):
        curve = roc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1])
        assert curve.auc == pytest.approx(0.0)

    def test_single_class_rejected(self):
        with pytest.raises(IsoguardError, match="both classes"):
            roc([1, 1, 1], [0.1, 0.2, 0.3])

    def test_scores_at_both_float_limits(self):
        curve = roc([0, 1, 0, 1], [-1.7976931348623157e308, 1.7976931348623157e308, -1e308, 1e308])
        assert curve.auc == 1.0
        assert curve.thresholds.tolist() == [math.inf, 1.7976931348623157e308, 1e308, -1e308, -1.7976931348623157e308]

    def test_staircase_monotonicity(self):
        rng = np.random.default_rng(2)
        y = rng.integers(0, 2, 40)
        y[0], y[1] = 0, 1
        s = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=40)
        curve = roc(y, s)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    def test_trapezoid_matches_pairwise_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(4, 25))
            y = rng.integers(0, 2, n)
            y[0], y[1] = 0, 1
            if trial % 2 == 0:
                s = rng.normal(size=n)  # continuous scores
            else:
                s = rng.choice([0.0, 0.25, 0.5, 1.0], size=n)  # heavy ties
            curve = roc(y, s)
            assert curve.auc == pytest.approx(pairwise_auc(y, s), abs=1e-9)

    def test_auc_sums_trapezoids_left_to_right(self):
        rng = np.random.default_rng(0)  # a draw on which np.sum's pairwise order changes the last bit
        y = rng.integers(0, 2, 500)
        curve = roc(y, rng.normal(size=500))
        running = 0.0
        for i in range(1, curve.fpr.size):
            running += (curve.fpr[i] - curve.fpr[i - 1]) * (curve.tpr[i] + curve.tpr[i - 1]) / 2.0
        assert curve.auc == running  # bit for bit: report.json pins the last digit

    def test_csv_output(self, tmp_path):
        curve = roc([0, 1, 1], [0.2, 0.9, 0.4])
        path = tmp_path / "roc.csv"
        write_roc_csv(curve, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold,fpr,tpr"
        assert lines[1].startswith("inf,0.0,0.0")
        assert len(lines) == curve.fpr.size + 1


def fake_evaluation(accuracy, auc=0.9):
    """Assemble a ClassifierEvaluation with a given accuracy for table tests."""
    n = 100
    correct = round(accuracy * n)
    half_wrong = (n - correct) // 2
    c = ConfusionCounts(
        tp=correct // 2, tn=correct - correct // 2, fp=half_wrong, fn=n - correct - half_wrong
    )
    return ClassifierEvaluation(
        confusion=c,
        anomaly_positive=metrics(c),
        normal_positive=metrics(swap_positive(c)),
        weighted=metrics_weighted(c),
        roc=RocCurve(thresholds=np.array([np.inf, 0.0]), fpr=np.array([0.0, 1.0]), tpr=np.array([0.0, 1.0]), auc=auc),
    )


def report(before, after, outliers_removed=0):
    return ComparisonReport(
        models=tuple(before),
        before=before,
        after=after,
        outliers_removed=outliers_removed,
        n_train_before=100,
        n_train_after=100 - outliers_removed,
        n_test=25,
    )


class TestCompare:
    ORIGINAL = {"knn": 0.99, "svm": 0.99, "nb": 0.90, "lr": 0.96, "abc": 0.99}
    CLEANED = {"knn": 1.00, "svm": 0.99, "nb": 0.95, "lr": 0.98, "abc": 1.00}

    def build_report(self):
        before = {name: fake_evaluation(acc) for name, acc in self.ORIGINAL.items()}
        after = {name: fake_evaluation(acc) for name, acc in self.CLEANED.items()}
        return report(before, after, outliers_removed=42)

    def test_table_layout_reference_accuracies(self):
        text = render_table(self.build_report())
        lines = text.splitlines()
        assert lines[0].startswith("Dataset")
        original = [ln for ln in lines if ln.startswith("Original dataset")]
        cleaned = [ln for ln in lines if ln.startswith("Without Outlier")]
        assert len(original) == 5 and len(cleaned) == 5
        for ln, (name, acc) in zip(original, self.ORIGINAL.items()):
            assert name.upper() in ln
            assert f" {percent(acc)}" in ln
        for ln, (name, acc) in zip(cleaned, self.CLEANED.items()):
            assert f" {percent(acc)}" in ln

    def test_identical_arms_zero_deltas(self):
        before = {name: fake_evaluation(acc) for name, acc in self.ORIGINAL.items()}
        doc = report_to_json(report(before, dict(before)))
        import json

        parsed = json.loads(doc)
        assert all(v == 0.0 for v in parsed["accuracy_delta"].values())
        assert all(v == 0.0 for v in parsed["auc_delta"].values())

    def test_classifier_set_mismatch(self):
        before = {"knn": fake_evaluation(0.9)}
        after = {"svm": fake_evaluation(0.9)}
        with pytest.raises(IsoguardError, match="mismatch"):
            report(before, after)

    def test_percent_rounds_half_up(self):
        assert percent(0.995) == 100
        assert percent(0.994) == 99
        assert percent(0.645) == 65  # 64.5 rounds up, not to even


class TestEvaluatePredictions:
    def test_bundle(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 2, 60)
        y[:2] = [0, 1]
        scores = rng.random(60)
        preds = (scores >= 0.5).astype(int)
        ev = evaluate_predictions(y, preds, scores)
        assert ev.confusion.total == 60
        assert 0.0 <= ev.roc.auc <= 1.0
        assert ev.anomaly_positive.accuracy == metrics(ev.confusion).accuracy
