"""Confusion-matrix metrics, ROC curves with trapezoidal AUC, and
before/after outlier-removal comparison reports.

The positive class is the anomaly (label 1). Zero-denominator metrics are
reported as 0 and flagged degenerate instead of raising, because threshold
sweeps hit empty-prediction corners routinely. Reports also carry the
normal-positive and support-weighted variants of precision/recall/F1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import to_doc
from .data import write_table
from .errors import IsoguardError, checked_labels


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn


@dataclass(frozen=True)
class MetricSet:
    precision: float
    recall: float
    accuracy: float
    f1: float
    degenerate: tuple[str, ...] = ()


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # +inf, then the distinct scores in descending order
    fpr: np.ndarray  # with tpr, a staircase from (0, 0) to (1, 1)
    tpr: np.ndarray
    auc: float


@dataclass(frozen=True)
class ClassifierEvaluation:
    confusion: ConfusionCounts
    anomaly_positive: MetricSet
    normal_positive: MetricSet
    weighted: MetricSet
    roc: RocCurve


@dataclass(frozen=True)
class ComparisonReport:
    models: tuple[str, ...]
    before: dict[str, ClassifierEvaluation]
    after: dict[str, ClassifierEvaluation]
    outliers_removed: int
    n_train_before: int
    n_train_after: int
    n_test: int

    def __post_init__(self) -> None:
        if not set(self.models) == set(self.before) == set(self.after):
            raise IsoguardError(
                f"classifier set mismatch: models={list(self.models)} "
                f"before={sorted(self.before)} after={sorted(self.after)}"
            )


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Exact confusion counts with anomaly (1) as the positive class."""
    y_true = checked_labels(y_true, "y_true")
    y_pred = checked_labels(y_pred, "y_pred")
    if y_true.shape != y_pred.shape:
        raise IsoguardError(f"length mismatch: {y_true.shape[0]} true vs {y_pred.shape[0]} predicted")
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    return ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)


def metrics(c: ConfusionCounts) -> MetricSet:
    """precision TP/(TP+FP), recall TP/(TP+FN), accuracy, F1 = harmonic mean."""
    if c.total == 0:
        raise IsoguardError("cannot compute metrics over zero instances")
    degenerate: list[str] = []

    def ratio(name: str, num: float, den: float) -> float:
        """num / den, or 0.0 flagged degenerate when den is 0."""
        if den > 0:
            return num / den
        degenerate.append(name)
        return 0.0

    precision = ratio("precision", c.tp, c.tp + c.fp)
    recall = ratio("recall", c.tp, c.tp + c.fn)
    accuracy = (c.tp + c.tn) / c.total
    f1 = ratio("f1", 2.0 * precision * recall, precision + recall)
    return MetricSet(
        precision=precision, recall=recall, accuracy=accuracy, f1=f1, degenerate=tuple(degenerate)
    )


def swap_positive(c: ConfusionCounts) -> ConfusionCounts:
    """Confusion counts with the normal class (0) treated as positive."""
    return ConfusionCounts(tp=c.tn, tn=c.tp, fp=c.fn, fn=c.fp)


def metrics_weighted(c: ConfusionCounts) -> MetricSet:
    """Support-weighted average of the two per-class metric sets."""
    pos = metrics(c)
    neg = metrics(swap_positive(c))
    support_pos = c.tp + c.fn
    support_neg = c.tn + c.fp
    total = c.total

    def avg(a: float, b: float) -> float:
        return (a * support_pos + b * support_neg) / total

    return MetricSet(
        precision=avg(pos.precision, neg.precision),
        recall=avg(pos.recall, neg.recall),
        accuracy=pos.accuracy,
        f1=avg(pos.f1, neg.f1),
        degenerate=tuple(sorted(set(pos.degenerate) | set(neg.degenerate))),
    )


def roc(y_true, scores) -> RocCurve:
    """Threshold sweep over distinct scores (descending) with trapezoidal AUC.

    Equal scores collapse into one sweep point, which credits tied pairs
    half a concordance, matching the pairwise-ranking formulation.
    """
    y_true = checked_labels(y_true, "y_true")
    scores = np.asarray(scores, dtype=np.float64)
    if y_true.shape != scores.shape:
        raise IsoguardError("y_true and scores must have equal length")
    n_pos = int((y_true == 1).sum())
    n_neg = int((y_true == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise IsoguardError("ROC needs both classes present; AUC is undefined otherwise")

    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_true = y_true[order]
    boundaries = np.flatnonzero(sorted_scores[1:] != sorted_scores[:-1])  # a difference could overflow
    group_ends = np.concatenate((boundaries, [sorted_scores.size - 1]))
    tp_cum = np.cumsum(sorted_true)[group_ends]
    group_sizes = group_ends + 1
    fp_cum = group_sizes - tp_cum

    fpr = np.concatenate(([0.0], fp_cum / n_neg))
    tpr = np.concatenate(([0.0], tp_cum / n_pos))
    # the trapezoids summed left to right, as a running sum does; np.sum would pair them up
    auc = np.add.accumulate(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0)[-1]
    thresholds = np.concatenate(([math.inf], sorted_scores[group_ends]))
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr, auc=float(auc))


def evaluate_predictions(y_true, y_pred, scores) -> ClassifierEvaluation:
    """Bundle confusion counts, the three metric conventions, and the ROC curve."""
    c = confusion(y_true, y_pred)
    return ClassifierEvaluation(
        confusion=c,
        anomaly_positive=metrics(c),
        normal_positive=metrics(swap_positive(c)),
        weighted=metrics_weighted(c),
        roc=roc(y_true, scores),
    )


def percent(x: float) -> int:
    """Integer percent, rounded half up (display convention for the text table)."""
    return int(math.floor(x * 100.0 + 0.5))


def render_table(report: ComparisonReport) -> str:
    """Aligned text table: Dataset, model, Accuracy, Precision, Recall, F1-score.

    Values are the anomaly-positive convention, rounded to integer percent;
    the JSON report keeps the raw reals and the other conventions.
    """
    header = ["Dataset", "Model", "Accuracy (%)", "Precision (%)", "Recall (%)", "F1-score (%)"]
    rows: list[list[str]] = []
    for arm_name, arm in (("Original dataset", report.before), ("Without Outlier", report.after)):
        for model in report.models:
            ev = arm[model]
            m = ev.anomaly_positive
            rows.append(
                [
                    arm_name,
                    model.upper(),
                    str(percent(m.accuracy)),
                    str(percent(m.precision)),
                    str(percent(m.recall)),
                    str(percent(m.f1)),
                ]
            )
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    lines.append("")
    lines.append(f"outliers removed from training partition: {report.outliers_removed}")
    return "\n".join(lines) + "\n"


def _evaluation_dict(ev: ClassifierEvaluation) -> dict:
    """``ev``'s fields, with the ROC curve reduced to its AUC."""
    doc = to_doc(ev)
    doc["auc"] = doc.pop("roc")["auc"]
    return doc


def report_to_json(report: ComparisonReport) -> str:
    doc = {
        "models": list(report.models),
        "original": {name: _evaluation_dict(ev) for name, ev in report.before.items()},
        "without_outlier": {name: _evaluation_dict(ev) for name, ev in report.after.items()},
        "accuracy_delta": {
            name: report.after[name].anomaly_positive.accuracy - report.before[name].anomaly_positive.accuracy
            for name in report.models
        },
        "auc_delta": {
            name: report.after[name].roc.auc - report.before[name].roc.auc for name in report.models
        },
        "outliers_removed": report.outliers_removed,
        "n_train_before": report.n_train_before,
        "n_train_after": report.n_train_after,
        "n_test": report.n_test,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def write_roc_csv(curve: RocCurve, path: str | Path) -> None:
    """ROC points as CSV rows of (threshold, fpr, tpr)."""
    write_table(path, ["threshold", "fpr", "tpr"], [curve.thresholds, curve.fpr, curve.tpr])
