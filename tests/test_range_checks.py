"""The library's own range checks on fit settings. A pipeline config is checked
by its field types first (tests/test_cli.py), so only a library caller reaches
these; each must name the value it rejects."""
import re

import numpy as np
import pytest

from isoguard.classifiers import adaboost_fit, gnb_fit, logreg_fit
from isoguard.errors import IsoguardError
from isoguard.feature_selection import ExtraTreesParams, rfe_select
from isoguard.iforest import fit_forest

X = np.array([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0], [3.0, 1.0], [4.0, 3.0], [5.0, 2.0]])
Y = np.array([0, 0, 0, 1, 1, 1])

CASES = {
    "var_smoothing": (lambda: gnb_fit(X, Y, var_smoothing=0.0), "var_smoothing must be > 0, got 0.0"),
    "epochs": (lambda: logreg_fit(X, Y, epochs=-1), "epochs must be >= 0, got -1"),
    "n_stumps": (lambda: adaboost_fit(X, Y, n_stumps=0), "n_stumps must be >= 1, got 0"),
    # without this check the elimination loop drops nothing and never ends
    "step": (lambda: rfe_select(X, Y, 1, step=0, params=ExtraTreesParams(n_trees=1)), "step must be >= 1, got 0"),
    "rows": (lambda: fit_forest(X[:1], t=1, m=2), "need at least 2 rows to fit, got 1"),
}


@pytest.mark.parametrize("name", list(CASES))
def test_range_check_names_the_value(name):
    call, message = CASES[name]
    with pytest.raises(IsoguardError, match=re.escape(message)):
        call()
