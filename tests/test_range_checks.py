"""The library's own range checks on fit settings; each must name the value it
rejects. ``SelectSettings``, ``SplitSettings`` and ``SyntheticSpec`` are config
sections and check themselves when built, so a library caller meets the
config's own rule and dotted message (tests/test_cli.py checks the config
itself). The other fits check their keyword settings when called."""
import re

import numpy as np
import pytest

from isoguard.classifiers import adaboost_fit, gnb_fit, logreg_fit
from isoguard.data import SplitSettings
from isoguard.errors import IsoguardError
from isoguard.feature_selection import SelectSettings, rfe_select
from isoguard.iforest import fit_forest
from isoguard.synthetic import SyntheticSpec

X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0], [4.0, 3.0], [5.0, 2.0]])
Y = np.array([0, 0, 0, 1, 1, 1])

CASES = {
    "var_smoothing": (lambda: gnb_fit(X, Y, var_smoothing=0.0), "var_smoothing must be > 0, got 0.0"),
    "epochs": (lambda: logreg_fit(X, Y, epochs=-1), "epochs must be >= 0, got -1"),
    "n_stumps": (lambda: adaboost_fit(X, Y, n_stumps=0), "n_stumps must be >= 1, got 0"),
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
