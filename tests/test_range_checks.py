"""The library's own range checks on fit settings; each must name the value it
rejects. The config sections ``SelectSettings``, ``SplitSettings``,
``SyntheticSpec``, ``ClassifierSettings``, ``ForestSettings`` and
``ThresholdSettings`` check themselves when built, so a library caller meets
the config's own rule and dotted message (tests/test_cli.py checks the config
itself). ``fit_forest`` checks ``t``, ``m`` and ``seed`` by the rules of
``IsolationForest``'s fields, so every forest it returns saves."""
import re

import numpy as np
import pytest

from isoguard.classifiers import adaboost_fit, gnb_fit, knn_fit, knn_score, logreg_fit, svm_fit
from isoguard.data import SplitSettings
from isoguard.errors import IsoguardError
from isoguard.feature_selection import SelectSettings, rfe_select
from isoguard.iforest import fit_forest
from isoguard.pipeline import ClassifierSettings, ForestSettings, ThresholdSettings
from isoguard.synthetic import SyntheticSpec

X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0], [4.0, 3.0], [5.0, 2.0]])
Y = np.array([0, 0, 0, 1, 1, 1])

CASES = {
    "var_smoothing": (
        lambda: gnb_fit(X, Y, ClassifierSettings(nb_var_smoothing=0.0)),
        "classifiers.nb_var_smoothing must be > 0, got 0.0",
    ),
    "epochs": (
        lambda: logreg_fit(X, Y, ClassifierSettings(lr_epochs=-1)),
        "classifiers.lr_epochs must be >= 0, got -1",
    ),
    "n_stumps": (
        lambda: adaboost_fit(X, Y, ClassifierSettings(adaboost_stumps=0)),
        "classifiers.adaboost_stumps must be >= 1, got 0",
    ),
    # each fit below once went through, or failed with a raw TypeError, or saved a model no load accepts
    "lr_learning_rate-negative": (
        lambda: logreg_fit(X, Y, ClassifierSettings(lr_learning_rate=-5)),
        "classifiers.lr_learning_rate must be > 0, got -5.0",
    ),
    "lr_l2-negative": (
        lambda: logreg_fit(X, Y, ClassifierSettings(lr_l2=-1)),
        "classifiers.lr_l2 must be >= 0, got -1.0",
    ),
    "lr_epochs-bool": (
        lambda: logreg_fit(X, Y, ClassifierSettings(lr_epochs=True)),
        "classifiers.lr_epochs must be an integer, got True",
    ),
    "svm_lambda-bool": (
        lambda: svm_fit(X, Y, ClassifierSettings(svm_lambda=True)),
        "classifiers.svm_lambda must be a finite number, got True",
    ),
    "knn_k-bool": (
        lambda: knn_fit(X, Y, ClassifierSettings(knn_k=True)),
        "classifiers.knn_k must be an integer, got True",
    ),
    "svm_epochs-float": (
        lambda: svm_fit(X, Y, ClassifierSettings(svm_epochs=2.5)),
        "classifiers.svm_epochs must be an integer, got 2.5",
    ),
    "adaboost_stumps-float": (
        lambda: adaboost_fit(X, Y, ClassifierSettings(adaboost_stumps=2.5)),
        "classifiers.adaboost_stumps must be an integer, got 2.5",
    ),
    "knn_k-float": (
        lambda: knn_score(knn_fit(X, Y, ClassifierSettings(knn_k=2.0)), X),
        "classifiers.knn_k must be an integer, got 2.0",
    ),
    "nb_var_smoothing-string": (
        lambda: gnb_fit(X, Y, ClassifierSettings(nb_var_smoothing="a")),
        "classifiers.nb_var_smoothing must be a finite number, got 'a'",
    ),
    "trees": (lambda: ForestSettings(trees=0), "forest.trees must be >= 1, got 0"),
    "tau": (lambda: ThresholdSettings(tau=0), "forest.threshold.tau must be in (0, 1], got 0.0"),
    # each fit below once failed with a raw TypeError, or returned a forest that save_forest refused
    "t-bool": (lambda: fit_forest(X, t=True, m=2), "t must be an integer, got True"),
    "t-float": (lambda: fit_forest(X, t=2.5, m=2), "t must be an integer, got 2.5"),
    "m-float": (lambda: fit_forest(X, t=2, m=2.0), "m must be an integer, got 2.0"),
    "seed-float": (lambda: fit_forest(X, t=2, m=2, seed=1.5), "seed must be an integer, got 1.5"),
    "t-numpy": (lambda: fit_forest(X, t=np.int64(2), m=2), f"t must be an integer, got {np.int64(2)!r}"),
    "m-numpy": (lambda: fit_forest(X, t=2, m=np.int64(2)), f"m must be an integer, got {np.int64(2)!r}"),
    "seed-numpy": (
        lambda: fit_forest(X, t=2, m=2, seed=np.int64(3)),
        f"seed must be an integer, got {np.int64(3)!r}",
    ),
    # without this check the elimination loop drops nothing and never ends
    "step": (
        lambda: rfe_select(X, Y, SelectSettings(target_count=1, step=0, n_trees=1)),
        "select.step must be >= 1, got 0",
    ),
    "rows": (lambda: fit_forest(X[:1], t=1, m=2), "need at least 2 rows to fit, got 1"),
    "min_samples_split": (
        lambda: SelectSettings(min_samples_split=-3),
        "select.min_samples_split must be >= 2, got -3",
    ),
    "max_depth-float": (lambda: SelectSettings(max_depth=2.5), "select.max_depth must be an integer, got 2.5"),
    "n_trees-float": (lambda: SelectSettings(n_trees=2.0), "select.n_trees must be an integer, got 2.0"),
    "max_depth-zero": (lambda: SelectSettings(max_depth=0), "select.max_depth must be >= 1, got 0"),
    "stratified": (lambda: SplitSettings(stratified="no"), "split.stratified must be a boolean, got 'no'"),
    "separation": (
        lambda: SyntheticSpec(separation=float("nan")),
        "synthetic.separation must be a finite number, got nan",
    ),
    "n_normal-bool": (lambda: SyntheticSpec(n_normal=True), "synthetic.n_normal must be an integer, got True"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_range_check_names_the_value(name):
    call, message = CASES[name]
    with pytest.raises(IsoguardError, match=re.escape(message)):
        call()
