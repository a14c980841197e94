"""Walkthrough: the five baseline classifiers and ROC/AUC evaluation.

Trains KNN, Gaussian NB, logistic regression, linear SVM and AdaBoost on
one synthetic split and prints per-model confusion metrics plus AUC from
each model's continuous decision score.

Run: python demos/04_classifier_roc.py
"""
import numpy as np

from isoguard import SplitSettings, evaluate_predictions, train_test_split
from isoguard.classifiers import (
    adaboost_fit,
    gnb_fit,
    knn_fit,
    logreg_fit,
    predict_model,
    score_model,
    svm_fit,
)
from isoguard.synthetic import SyntheticSpec, generate_synthetic

ds, _ = generate_synthetic(SyntheticSpec(n_normal=600, n_anomaly=200, outlier_fraction=0.0, seed=9))
train, test = train_test_split(ds, SplitSettings(test_fraction=0.25), 1)
X, y = train.matrix(), train.target
X_test, y_test = test.matrix(), test.target
print(f"{train.n_rows} train / {test.n_rows} test rows, {ds.n_features} features\n")

models = {
    "KNN": knn_fit(X, y, k=5),
    "SVM": svm_fit(X, y),
    "NB": gnb_fit(X, y),
    "LR": logreg_fit(X, y),
    "ABC": adaboost_fit(X, y, n_stumps=30),
}

print(f"{'model':<6} {'accuracy':>8} {'precision':>9} {'recall':>7} {'f1':>7} {'auc':>7}")
for name, model in models.items():
    ev = evaluate_predictions(y_test, predict_model(model, X_test), score_model(model, X_test))
    m = ev.anomaly_positive
    print(f"{name:<6} {m.accuracy:>8.4f} {m.precision:>9.4f} {m.recall:>7.4f} {m.f1:>7.4f} {ev.roc.auc:>7.4f}")

print("\nROC staircase for NB (fpr, tpr at each distinct score):")
ev = evaluate_predictions(
    y_test, predict_model(models["NB"], X_test), score_model(models["NB"], X_test)
)
step = max(1, ev.roc.fpr.size // 10)
for fpr, tpr in zip(ev.roc.fpr[::step], ev.roc.tpr[::step]):
    print(f"  fpr={fpr:.3f}  tpr={tpr:.3f}  {'*' * int(round(40 * tpr))}")
