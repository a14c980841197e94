import hashlib
import json
import math
import re

import numpy as np
import pytest

from isoguard import classifiers
from isoguard.classifiers import (
    AdaBoostModel,
    ClassifierSettings,
    GaussianNbModel,
    KnnModel,
    LinearSvmModel,
    LogisticModel,
    Stump,
    _best_stump,
    _knn_positive_counts,
    adaboost_fit,
    adaboost_score,
    gnb_fit,
    gnb_score,
    knn_fit,
    knn_score,
    labels_from_scores,
    load_model,
    logreg_fit,
    logreg_loss_grad,
    logreg_score,
    model_to_json,
    predict_model,
    save_model,
    score_model,
    svm_fit,
    svm_objective_grad,
    svm_score,
)
from isoguard.errors import IsoguardError, checked_matrix
from isoguard.evaluation import confusion, roc
from isoguard.feature_selection import SelectSettings, fit_extra_trees, rfe_select


def blobs(rng, n_per_class=40, d=3, sep=3.0):
    X0 = rng.normal(0.0, 1.0, size=(n_per_class, d))
    X1 = rng.normal(sep, 1.0, size=(n_per_class, d))
    X = np.vstack((X0, X1))
    y = np.array([0] * n_per_class + [1] * n_per_class)
    return X, y


def reference_knn_counts(model, X):
    """Per-row loop over the k nearest: the oracle for the vectorized vote count."""
    train = model.X
    d2 = (train * train).sum(axis=1)[None, :] - 2.0 * (X @ train.T) + (X * X).sum(axis=1)[:, None]
    np.maximum(d2, 0.0, out=d2)
    kth = np.partition(d2, model.k - 1, axis=1)[:, model.k - 1]
    counts = np.empty(X.shape[0], dtype=np.int64)
    for i in range(X.shape[0]):
        candidates = np.flatnonzero(d2[i] <= kth[i])
        if candidates.size > model.k:
            candidates = candidates[np.argsort(d2[i, candidates], kind="stable")][: model.k]
        counts[i] = model.y[candidates].sum()
    return counts


def reference_knn_predict(model, X):
    """The per-kind predict functions that ``predict_model`` replaced: oracles for the label rules."""
    counts = _knn_positive_counts(model, X)
    return (2 * counts > model.k).astype(np.int64)


def reference_gnb_predict(model, X):
    return (gnb_score(model, X) >= 0.5).astype(np.int64)


def reference_logreg_predict(model, X):
    return (logreg_score(model, X) >= 0.5).astype(np.int64)


def reference_svm_predict(model, X):
    return (svm_score(model, X) >= 0.0).astype(np.int64)


def reference_adaboost_predict(model, X):
    return (adaboost_score(model, X) >= 0.0).astype(np.int64)


def reference_best_stump(X, t, weights):
    """Per-cut loop over every threshold: the oracle for the vectorized stump search."""
    best = (np.inf, -1, 0.0, 1)
    w_pos_total = weights[t > 0].sum()
    for f in range(X.shape[1]):
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        distinct = np.flatnonzero(sv[1:] > sv[:-1]) + 1
        if distinct.size == 0:
            continue
        sw = weights[order]
        st = t[order]
        w_pos_prefix = np.concatenate(([0.0], np.cumsum(np.where(st > 0, sw, 0.0))))
        w_neg_prefix = np.concatenate(([0.0], np.cumsum(np.where(st < 0, sw, 0.0))))
        w_neg_total = w_neg_prefix[-1]
        for cut in distinct:
            threshold = 0.5 * (sv[cut - 1] + sv[cut])
            err_plus = w_pos_prefix[cut] + (w_neg_total - w_neg_prefix[cut])
            err_minus = (w_pos_total + w_neg_total) - err_plus
            if err_plus < best[0]:
                best = (float(err_plus), f, float(threshold), 1)
            if err_minus < best[0]:
                best = (float(err_minus), f, float(threshold), -1)
    return best


def stump_case(rng, case):
    """A (X, t, weights) stump-search input; ``case`` cycles through hard shapes."""
    n = int(rng.integers(2, 60))
    d = int(rng.integers(1, 6))
    X = rng.normal(size=(n, d))
    shape = case % 5
    if shape == 1:  # heavy value ties
        X = np.round(X)
    elif shape == 2:  # duplicate rows
        X = X[rng.integers(0, max(1, n // 3), size=n)]
    elif shape == 3:  # a constant column among tied ones
        X = np.round(X * 2.0) / 2.0
        X[:, rng.integers(0, d)] = 1.5
    elif shape == 4:  # two distinct values per feature
        X = (X > 0).astype(np.float64)
    y = rng.integers(0, 2, size=n)
    y[0], y[-1] = 0, 1
    kind = (case // 5) % 4
    if kind == 0:  # uniform
        weights = np.full(n, 1.0 / n)
    elif kind == 1:  # skewed
        weights = rng.exponential(size=n) ** 4
    elif kind == 2:  # near-degenerate: one row holds almost all weight
        weights = np.full(n, 1e-12)
        weights[rng.integers(0, n)] = 1.0
    else:  # a few small integer weights: exact error ties between cuts
        weights = rng.integers(1, 3, size=n).astype(np.float64)
    return X, 2.0 * y - 1.0, weights / weights.sum()


class TestKnn:
    def test_exact_training_point_with_k1(self):
        X = np.array([[0.0, 0.0], [5.0, 5.0]])
        model = knn_fit(X, [0, 1], ClassifierSettings(knn_k=1))
        assert predict_model(model, X).tolist() == [0, 1]

    def test_vote_and_score(self):
        X = np.array([[0.0], [0.1], [0.2], [9.0]])
        y = [1, 1, 0, 0]
        model = knn_fit(X, y, ClassifierSettings(knn_k=3))
        q = np.array([[0.05]])
        assert predict_model(model, q).tolist() == [1]
        assert knn_score(model, q)[0] == pytest.approx(2.0 / 3.0)

    def test_k_equal_n_gives_global_majority(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0]])
        y = [0, 0, 0, 1, 1]
        model = knn_fit(X, y, ClassifierSettings(knn_k=5))
        assert predict_model(model, np.array([[100.0], [-5.0]])).tolist() == [0, 0]

    def test_even_vote_tie_goes_to_zero(self):
        X = np.array([[-1.0], [1.0]])
        model = knn_fit(X, [0, 1], ClassifierSettings(knn_k=2))
        assert predict_model(model, np.array([[0.0]])).tolist() == [0]

    def test_distance_tie_breaks_by_train_index(self):
        # two training points equidistant from the query; k=1 must take row 0
        X = np.array([[1.0], [-1.0], [50.0]])
        model = knn_fit(X, [1, 0, 0], ClassifierSettings(knn_k=1))
        assert predict_model(model, np.array([[0.0]])).tolist() == [1]

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 60])
    def test_vote_counts_match_per_row_loop_under_ties(self, k):
        rng = np.random.default_rng(20 + k)
        # integer grid points with duplicates: many distances tie at the k-th place
        X = rng.integers(-2, 3, size=(60, 2)).astype(np.float64)
        y = rng.integers(0, 2, size=60)
        model = knn_fit(X, y, ClassifierSettings(knn_k=k))
        queries = np.vstack((X[:20], rng.integers(-3, 4, size=(40, 2)).astype(np.float64), rng.normal(size=(10, 2))))
        np.testing.assert_array_equal(_knn_positive_counts(model, queries), reference_knn_counts(model, queries))

    @pytest.mark.parametrize("rows_per_chunk", [1, 3, 70])
    def test_vote_counts_do_not_depend_on_the_chunk_size(self, monkeypatch, rows_per_chunk):
        rng = np.random.default_rng(31)
        X = rng.integers(-2, 3, size=(60, 2)).astype(np.float64)  # distance ties at the k-th place
        model = knn_fit(X, rng.integers(0, 2, size=60), ClassifierSettings(knn_k=5))
        queries = np.vstack((X[:20], rng.integers(-3, 4, size=(40, 2)).astype(np.float64), rng.normal(size=(10, 2))))
        expected = _knn_positive_counts(model, queries)  # the default budget holds every query in one chunk
        monkeypatch.setattr(classifiers, "_KNN_CHUNK_BYTES", rows_per_chunk * 8 * X.shape[0])
        np.testing.assert_array_equal(_knn_positive_counts(model, queries), expected)
        np.testing.assert_array_equal(expected, reference_knn_counts(model, queries))

    def test_k1_training_accuracy_on_distinct_points(self):
        rng = np.random.default_rng(0)
        X, y = blobs(rng, n_per_class=25)
        model = knn_fit(X, y, ClassifierSettings(knn_k=1))
        assert (predict_model(model, X) == y).all()

    def test_invalid_k(self):
        X = np.zeros((3, 1))
        with pytest.raises(IsoguardError, match="k must"):
            knn_fit(X, [0, 1, 0], ClassifierSettings(knn_k=4))
        with pytest.raises(IsoguardError, match="k must"):
            knn_fit(X, [0, 1, 0], ClassifierSettings(knn_k=0))

    def test_empty_training_set(self):
        with pytest.raises(IsoguardError, match="empty"):
            knn_fit(np.empty((0, 2)), [], ClassifierSettings(knn_k=1))


class TestGaussianNb:
    def test_query_at_class_mean(self):
        rng = np.random.default_rng(1)
        X, y = blobs(rng, d=1, sep=6.0)
        model = gnb_fit(X, y)
        assert gnb_score(model, np.array([[6.0]]))[0] > 0.5
        assert gnb_score(model, np.array([[0.0]]))[0] < 0.5

    def test_midpoint_symmetric_classes(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = [0, 0, 1, 1]
        model = gnb_fit(X, y)
        assert gnb_score(model, np.array([[0.0]]))[0] == pytest.approx(0.5, abs=1e-9)

    def test_posterior_matches_density_product_oracle(self):
        X = np.array([[1.0, 2.0], [3.0, 0.5], [2.0, 1.0]])
        y = np.array([0, 1, 0])
        smoothing = 1e-9
        model = gnb_fit(X, y, ClassifierSettings(nb_var_smoothing=smoothing))
        query = np.array([[2.5, 1.5]])

        # brute-force: prior * product of Gaussian densities per class
        eps = smoothing * X.var(axis=0).max()
        posts = []
        for cls in (0, 1):
            rows = X[y == cls]
            mu = rows.mean(axis=0)
            var = rows.var(axis=0) + eps
            density = np.prod(
                np.exp(-((query[0] - mu) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
            )
            posts.append((rows.shape[0] / 3) * density)
        expected = posts[1] / (posts[0] + posts[1])
        assert gnb_score(model, query)[0] == pytest.approx(expected, abs=1e-12)

    def test_posteriors_sum_to_one(self):
        rng = np.random.default_rng(2)
        X, y = blobs(rng)
        model = gnb_fit(X, y)
        p1 = gnb_score(model, X)
        jll_swap = 1.0 - p1
        # complementary posterior computed directly from the other class
        from isoguard.classifiers import _gnb_joint_log_likelihood

        jll = _gnb_joint_log_likelihood(model, X)
        p0 = np.exp(jll[:, 0] - np.logaddexp(jll[:, 0], jll[:, 1]))
        np.testing.assert_allclose(p0 + p1, 1.0, atol=1e-12)
        np.testing.assert_allclose(p0, jll_swap, atol=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(IsoguardError, match="both classes"):
            gnb_fit(np.zeros((4, 2)), [0, 0, 0, 0])

    def test_label_count_other_than_row_count_rejected(self):
        with pytest.raises(IsoguardError, match="label vector length must match row count"):
            gnb_fit(np.zeros((3, 2)), [0, 1])

    def test_variances_positive_even_for_constant_data(self):
        X = np.ones((6, 2))
        model = gnb_fit(X, [0, 0, 0, 1, 1, 1])
        assert (model.variances > 0).all()


class TestLogisticRegression:
    def test_zero_epochs_scores_half(self):
        X = np.array([[1.0], [2.0]])
        model = logreg_fit(X, [0, 1], ClassifierSettings(lr_epochs=0))
        np.testing.assert_allclose(logreg_score(model, X), 0.5)

    def test_separable_two_points_converge(self):
        X = np.array([[-1.0], [1.0]])
        y = [0, 1]
        model = logreg_fit(X, y, ClassifierSettings(lr_learning_rate=0.5, lr_epochs=500, lr_l2=0.0))
        assert (predict_model(model, X) == np.array(y)).all()

    def test_gradient_at_zero_weights(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 4))
        y = rng.integers(0, 2, 20).astype(np.float64)
        _, grad_w, grad_b = logreg_loss_grad(np.zeros(4), 0.0, X, y, l2=0.0)
        expected = X.T @ (0.5 - y) / 20
        np.testing.assert_allclose(grad_w, expected, atol=1e-12)
        assert grad_b == pytest.approx(float(np.mean(0.5 - y)), abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(20):
            n, d = int(rng.integers(5, 15)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n).astype(np.float64)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            l2 = float(rng.uniform(0, 0.01))
            _, grad_w, grad_b = logreg_loss_grad(w, b, X, y, l2)
            fd = np.empty(d + 1)
            for j in range(d):
                e = np.zeros(d)
                e[j] = step
                fd[j] = (logreg_loss_grad(w + e, b, X, y, l2)[0] - logreg_loss_grad(w - e, b, X, y, l2)[0]) / (
                    2 * step
                )
            fd[d] = (logreg_loss_grad(w, b + step, X, y, l2)[0] - logreg_loss_grad(w, b - step, X, y, l2)[0]) / (
                2 * step
            )
            analytic = np.concatenate((grad_w, [grad_b]))
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            assert float(np.linalg.norm(analytic - fd)) / denom < 1e-4

    def test_divergent_rate_reported(self):
        rng = np.random.default_rng(5)
        X, y = blobs(rng, d=2, sep=8.0)
        with pytest.raises(IsoguardError, match="diverged"):
            logreg_fit(X * 100, y, ClassifierSettings(lr_learning_rate=1e6, lr_epochs=200))

    def test_loss_nonincreasing_at_modest_rate(self):
        rng = np.random.default_rng(6)
        X, y = blobs(rng)
        losses = []
        w = np.zeros(X.shape[1])
        b = 0.0
        for _ in range(50):
            loss, gw, gb = logreg_loss_grad(w, b, X, y.astype(float), 1e-4)
            losses.append(loss)
            w -= 0.1 * gw
            b -= 0.1 * gb
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


class TestLinearSvm:
    def test_zero_weights_predict_class_one(self):
        X = np.array([[1.0], [-1.0]])
        model = svm_fit(X, [0, 1], ClassifierSettings(svm_epochs=1, svm_lambda=1.0))
        # force w = 0 to probe the boundary convention
        model.weights[:] = 0.0
        model.bias = 0.0
        assert predict_model(model, X).tolist() == [1, 1]

    def test_hinge_loss_driven_to_zero_on_separated_data(self):
        rng = np.random.default_rng(7)
        X, y = blobs(rng, sep=4.0)
        model = svm_fit(X, y, ClassifierSettings(svm_lambda=1e-4, svm_epochs=300))
        t = 2.0 * y - 1.0
        final, _, _ = svm_objective_grad(model.weights, model.bias, X, t, 0.0)
        assert final < 0.05
        assert (predict_model(model, X) == y).all()

    def test_margin_homogeneity(self):
        rng = np.random.default_rng(8)
        X, y = blobs(rng)
        model = svm_fit(X, y, ClassifierSettings(svm_lambda=1e-3, svm_epochs=100))
        margins = svm_score(model, X)
        doubled = 2.0 * (X @ model.weights) + 2.0 * model.bias
        assert (np.sign(doubled) == np.sign(margins)).all() or np.allclose(margins, 0)

    def test_subgradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        step = 1e-6
        checked = 0
        while checked < 20:
            n, d = int(rng.integers(5, 15)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n)
            t = 2.0 * y - 1.0
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            lam = float(rng.uniform(1e-4, 1e-2))
            margins = t * (X @ w + b)
            if np.abs(1.0 - margins).min() < 1e-4:  # skip hinge kinks
                continue
            _, grad_w, grad_b = svm_objective_grad(w, b, X, t, lam)

            def obj(wv, bv):
                return svm_objective_grad(wv, bv, X, t, lam)[0]

            fd = np.empty(d + 1)
            for j in range(d):
                e = np.zeros(d)
                e[j] = step
                fd[j] = (obj(w + e, b) - obj(w - e, b)) / (2 * step)
            fd[d] = (obj(w, b + step) - obj(w, b - step)) / (2 * step)
            analytic = np.concatenate((grad_w, [grad_b]))
            denom = max(float(np.linalg.norm(fd)), 1e-12)
            assert float(np.linalg.norm(analytic - fd)) / denom < 1e-4
            checked += 1

    def test_parameter_validation(self):
        X = np.zeros((4, 1))
        y = [0, 1, 0, 1]
        with pytest.raises(IsoguardError, match="lam"):
            svm_fit(X, y, ClassifierSettings(svm_lambda=0.0))
        with pytest.raises(IsoguardError, match="epochs"):
            svm_fit(X, y, ClassifierSettings(svm_epochs=0))

    def test_non_finite_weights_rejected(self):
        # a subnormal svm_lambda makes the first step size 1 / lambda overflow to infinity, and the weights with it
        settings = ClassifierSettings(svm_lambda=1e-320, svm_epochs=1)
        with pytest.raises(IsoguardError, match="SVM training produced non-finite weights"):
            svm_fit([[10.0], [20.0], [-10.0], [-20.0]], [1, 1, 0, 0], settings)


class TestAdaBoost:
    def test_perfect_single_threshold_one_stump(self):
        X = np.array([[0.0], [1.0], [2.0], [10.0], [11.0], [12.0]])
        y = [0, 0, 0, 1, 1, 1]
        model = adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=10))
        assert len(model.stumps) == 1
        assert (predict_model(model, X) == np.array(y)).all()

    def test_useless_candidates_halt_training(self):
        # contradictory duplicates: the only stump errs exactly 0.5, so nothing is added
        X = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = [0, 1, 0, 1]
        model = adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=5))
        assert model.stumps == []

    def test_weight_renormalization_every_round(self):
        rng = np.random.default_rng(10)
        X, y = blobs(rng, n_per_class=20, d=2, sep=1.0)
        # reimplement the loop to observe intermediate weights
        from isoguard.classifiers import _best_stump, _stump_outputs

        t = 2.0 * y - 1.0
        weights = np.full(len(y), 1.0 / len(y))
        orders = np.argsort(X, axis=0, kind="stable")
        for _ in range(5):
            err, f, thr, pol = _best_stump(X, t, weights, orders)
            if err >= 0.5 or err < 1e-10:
                break
            alpha = 0.5 * math.log((1 - err) / err)
            weights = weights * np.exp(-alpha * t * _stump_outputs(X[:, f], thr, pol))
            weights /= weights.sum()
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_training_error_bound(self):
        rng = np.random.default_rng(11)
        X, y = blobs(rng, n_per_class=30, d=2, sep=1.5)
        model = adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=20))
        # product of 2*sqrt(eps(1-eps)) over rounds bounds the training error rate
        t = 2.0 * y - 1.0
        weights = np.full(len(y), 1.0 / len(y))
        bound = 1.0
        from isoguard.classifiers import _best_stump, _stump_outputs

        for stump in model.stumps:
            outputs = _stump_outputs(X[:, stump.feature], stump.threshold, stump.polarity)
            eps = weights[outputs != t].sum()
            bound *= 2.0 * math.sqrt(max(eps, 1e-12) * max(1.0 - eps, 1e-12))
            weights = weights * np.exp(-stump.alpha * t * outputs)
            weights /= weights.sum()
        error_rate = float((predict_model(model, X) != y).mean())
        assert error_rate <= bound + 1e-9

    def test_stump_search_matches_per_cut_loop(self):
        rng = np.random.default_rng(30)
        for case in range(80):
            X, t, weights = stump_case(rng, case)
            orders = np.argsort(X, axis=0, kind="stable")
            assert _best_stump(X, t, weights, orders) == reference_best_stump(X, t, weights), case

    def test_fit_matches_fit_driven_by_per_cut_loop(self, monkeypatch):
        rng = np.random.default_rng(31)
        inputs = [blobs(rng, n_per_class=30, d=3, sep=1.0)]
        X, y = blobs(rng, n_per_class=40, d=4, sep=0.8)
        inputs.append((np.round(X), y))
        fitted = [model_to_json(adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=15))) for X, y in inputs]
        monkeypatch.setattr(classifiers, "_best_stump", lambda X, t, w, orders: reference_best_stump(X, t, w))
        assert [model_to_json(adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=15))) for X, y in inputs] == fitted

    def test_all_constant_features_rejected(self):
        with pytest.raises(IsoguardError, match="no valid stump"):
            adaboost_fit(np.ones((6, 2)), [0, 1, 0, 1, 0, 1])

    def test_single_class_rejected(self):
        with pytest.raises(IsoguardError, match="both classes"):
            adaboost_fit(np.arange(8.0).reshape(4, 2), [1, 1, 1, 1])


class TestCommonContracts:
    def fitted_models(self):
        rng = np.random.default_rng(12)
        X, y = blobs(rng, n_per_class=25, d=3)
        return X, y, {
            "knn": knn_fit(X, y, ClassifierSettings(knn_k=3)),
            "nb": gnb_fit(X, y),
            "lr": logreg_fit(X, y, ClassifierSettings(lr_epochs=50)),
            "svm": svm_fit(X, y, ClassifierSettings(svm_epochs=50)),
            "abc": adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=10)),
        }

    def test_feature_count_mismatch_rejected(self):
        X, y, models = self.fitted_models()
        bad = np.zeros((2, 5))
        for model in models.values():
            with pytest.raises(IsoguardError, match="mismatch"):
                predict_model(model, bad)
            with pytest.raises(IsoguardError, match="mismatch"):
                score_model(model, bad)

    def test_scores_finite_and_probabilities_bounded(self):
        X, y, models = self.fitted_models()
        for name, model in models.items():
            s = score_model(model, X)
            assert np.isfinite(s).all()
            if name in ("knn", "nb", "lr"):
                assert (s >= 0.0).all() and (s <= 1.0).all()

    def test_fits_are_deterministic(self):
        rng = np.random.default_rng(13)
        X, y = blobs(rng, n_per_class=20)
        for fit in (
            lambda: knn_fit(X, y, ClassifierSettings(knn_k=3)),
            lambda: gnb_fit(X, y),
            lambda: logreg_fit(X, y, ClassifierSettings(lr_epochs=30)),
            lambda: svm_fit(X, y, ClassifierSettings(svm_epochs=30)),
            lambda: adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=5)),
        ):
            assert model_to_json(fit()) == model_to_json(fit())

    def test_json_round_trip_preserves_predictions(self, tmp_path):
        X, y, models = self.fitted_models()
        for name, model in models.items():
            path = tmp_path / f"{name}.json"
            save_model(model, path)
            reloaded = load_model(path, (X, y))
            np.testing.assert_array_equal(predict_model(reloaded, X), predict_model(model, X))
            np.testing.assert_array_equal(score_model(reloaded, X), score_model(model, X))


OVERFLOWING_MODELS = {  # parameters that load but that no fit produces; each overflows on X = 2.0
    "knn": KnnModel(k=1, X=np.array([[1e308, 1e308], [0.0, 0.0]]), y=np.array([1, 0]), n_features=2),
    "nb": GaussianNbModel(
        priors=np.array([0.5, 0.5]),
        means=np.array([[1e308, 0.0], [0.0, 0.0]]),
        variances=np.ones((2, 2)),
        var_smoothing=1e-9,
        n_features=2,
    ),
    "lr": LogisticModel(
        weights=np.array([1e308, 1e308]), bias=0.0, learning_rate=0.1, epochs=1, l2=0.0, n_features=2
    ),
    "svm": LinearSvmModel(weights=np.array([1e308, 1e308]), bias=0.0, lam=1e-4, epochs=1, n_features=2),
    "abc": AdaBoostModel(stumps=[Stump(0, 0.0, 1, 1e308), Stump(1, 0.0, 1, 1e308)], n_features=2),
}


@pytest.mark.parametrize("name", list(OVERFLOWING_MODELS))
def test_scoring_overflow_raises(name):
    with pytest.raises(IsoguardError, match="model parameters out of range: overflow encountered in"):
        score_model(OVERFLOWING_MODELS[name], np.full((3, 2), 2.0))


def label_rule_cases():
    """(name, model, queries) over random fits plus the boundary cases of every label rule."""
    rng = np.random.default_rng(50)
    cases = []
    for i in range(6):
        X, y = blobs(rng, n_per_class=int(rng.integers(8, 30)), d=int(rng.integers(1, 5)), sep=float(rng.uniform(0, 3)))
        if i % 2:
            X = np.round(X)  # value ties: equal distances, tied stumps, repeated scores
        Q = np.vstack((X, rng.normal(1.0, 2.0, size=(40, X.shape[1]))))
        for k in (1, 2, 3, 4, 6):
            cases.append((f"knn-k{k}-{i}", knn_fit(X, y, ClassifierSettings(knn_k=k)), Q))
        cases.append((f"nb-{i}", gnb_fit(X, y), Q))
        cases.append((f"lr-{i}", logreg_fit(X, y, ClassifierSettings(lr_epochs=40)), Q))
        cases.append((f"svm-{i}", svm_fit(X, y, ClassifierSettings(svm_epochs=40)), Q))
        cases.append((f"abc-{i}", adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=8)), Q))
    # even k with exact vote ties: the first three queries have one 0 and one 1 neighbour
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    even, all_tie = ClassifierSettings(knn_k=2), ClassifierSettings(knn_k=4)
    cases.append(("knn-even-ties", knn_fit(X, [0, 1, 1, 0], even), np.array([[0.5], [10.5], [0.0], [5.5]])))
    cases.append(("knn-k4-all-tie", knn_fit(X, [0, 1, 1, 0], all_tie), np.array([[0.5], [100.0]])))
    svm = svm_fit(np.array([[1.0], [-1.0]]), [0, 1], ClassifierSettings(svm_epochs=1, svm_lambda=1.0))
    svm.weights[:] = 0.0
    svm.bias = 0.0  # score exactly 0 everywhere
    cases.append(("svm-zero-weights", svm, np.array([[1.0], [-1.0], [0.0]])))
    zero_model = logreg_fit(np.array([[1.0], [2.0]]), [0, 1], ClassifierSettings(lr_epochs=0))
    cases.append(("lr-epochs-0", zero_model, np.array([[1.0], [-3.0]])))
    no_stumps = adaboost_fit(
        np.array([[0.0], [0.0], [1.0], [1.0]]), [0, 1, 0, 1], ClassifierSettings(adaboost_stumps=5)
    )
    cases.append(("abc-no-stumps", no_stumps, np.array([[0.0], [1.0]])))
    return cases


REFERENCE_PREDICT = {
    KnnModel: reference_knn_predict,
    GaussianNbModel: reference_gnb_predict,
    LogisticModel: reference_logreg_predict,
    LinearSvmModel: reference_svm_predict,
    AdaBoostModel: reference_adaboost_predict,
}


class TestLabelsFromScores:
    @pytest.mark.parametrize("name, model, Q", label_rule_cases(), ids=lambda v: v if isinstance(v, str) else "")
    def test_predict_matches_per_kind_predict(self, name, model, Q):
        expected = REFERENCE_PREDICT[type(model)](model, Q)
        got = predict_model(model, Q)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(labels_from_scores(model, score_model(model, Q)), expected)

    def test_boundary_cases_hit_the_boundary(self):
        cases = {name: (model, Q) for name, model, Q in label_rule_cases()}
        model, Q = cases["knn-even-ties"]
        counts = _knn_positive_counts(model, Q)
        assert (2 * counts == model.k).tolist() == [True, True, True, False]
        assert predict_model(model, Q).tolist() == [0, 0, 0, 1]
        model, Q = cases["knn-k4-all-tie"]
        assert score_model(model, Q).tolist() == [0.5, 0.5] and predict_model(model, Q).tolist() == [0, 0]
        for name, score in (("svm-zero-weights", 0.0), ("lr-epochs-0", 0.5), ("abc-no-stumps", 0.0)):
            model, Q = cases[name]
            assert (score_model(model, Q) == score).all(), name
            assert (predict_model(model, Q) == 1).all(), name

    def test_one_row_per_model_class(self):
        assert set(classifiers.MODEL_KINDS) == set(REFERENCE_PREDICT)
        kinds = [row.kind for row in classifiers.MODEL_KINDS.values()]
        assert kinds == ["knn", "gaussian_nb", "logistic", "linear_svm", "adaboost"]


def _set_stump(field, value):
    def edit(doc):
        doc["stumps"][0][field] = value

    return edit


def _set(key, value):
    def edit(doc):
        doc[key] = value(doc) if callable(value) else value

    return edit


def _drop(key):
    def edit(doc):
        del doc[key]

    return edit


MODEL_CORRUPTIONS = [
    ("abc", _set_stump("feature", 99), "stump 0 has feature 99 and polarity"),
    ("abc", _set_stump("feature", -1), "stump 0 has feature -1 and polarity"),
    ("abc", _set_stump("feature", 3), "need a feature in [0, 3)"),
    ("abc", _set_stump("polarity", 0), "and polarity 0; need"),
    ("abc", _set_stump("polarity", 2), "and polarity 2; need"),
    ("lr", _set("weights", lambda d: d["weights"][:-1]), "weights has shape (2,), expected (3,)"),
    ("svm", _set("weights", lambda d: [d["weights"]]), "weights has shape (1, 3), expected (3,)"),
    ("nb", _set("priors", [0.5, 0.3, 0.2]), "priors has shape (3,), expected (2,)"),
    ("nb", _set("means", lambda d: d["means"][:1]), "means has shape (1, 3), expected (2, 3)"),
    ("nb", _set("variances", lambda d: [row + [1.0] for row in d["variances"]]), "variances has shape (2, 4)"),
    ("nb", _set("priors", [0.0, 1.0]), "priors must each lie in (0, 1) and sum to 1, got [0.0, 1.0]"),
    ("nb", _set("priors", [2.0, 2.0]), "priors must each lie in (0, 1) and sum to 1, got [2.0, 2.0]"),
    ("nb", _set("variances", lambda d: [[0.0] + d["variances"][0][1:], d["variances"][1]]),
     "variances must all be > 0, got 0.0"),
    ("nb", _set("variances", lambda d: [d["variances"][0], [-1.0] + d["variances"][1][1:]]),
     "variances must all be > 0, got -1.0"),
    ("knn", _drop("rows_sha256"), "missing key 'rows_sha256'"),
    ("knn", _set("rows_sha256", lambda d: d["rows_sha256"][:-1]), "rows_sha256 must be 64 lowercase hex digits, got"),
    ("knn", _set("rows_sha256", lambda d: d["rows_sha256"].upper()), "rows_sha256 must be 64 lowercase hex digits"),
    ("knn", _set("n_rows", 0), "n_rows must be >= 1, got 0"),
    ("knn", _set("k", 0), "k must satisfy 1 <= k <= 50, got 0"),
    ("knn", _set("k", 51), "k must satisfy 1 <= k <= 50, got 51"),
    ("knn", _set("kind", "forest"), "unknown model kind 'forest'"),
    # a non-integral value is rejected, not truncated to an int
    ("abc", _set_stump("polarity", 1.9), "polarity must be an integer, got 1.9"),
    ("abc", _set_stump("feature", 0.7), "feature must be an integer, got 0.7"),
    ("knn", _set("n_rows", 4), "k must satisfy 1 <= k <= 4, got 5"),
    ("knn", _set("k", 1.5), "k must be an integer, got 1.5"),
    ("knn", _set("k", True), "k must be an integer, got True"),
    ("knn", _set("X", [[0.0, 0.0, 0.0]]), "unknown model keys: ['X']"),
    # every number must be a finite JSON number, and every key a field
    ("lr", _set("bias", "0.5"), "bias must be a finite number, got '0.5'"),
    ("svm", _set("weights", lambda d: [math.nan] + d["weights"][1:]),
     "weights element must be a finite number, got nan"),
    ("lr", _set("weights", lambda d: [True] + d["weights"][1:]), "weights element must be a finite number, got True"),
    ("nb", _set("means", lambda d: [d["means"][0], ["1.0"] * 3]), "means element must be a finite number, got '1.0'"),
    ("abc", _set_stump("alpha", None), "stumps[0].alpha must be a finite number, got None"),
    ("knn", _set("extra", 1), "unknown model keys: ['extra']"),
    ("abc", _set_stump("extra", 1), "unknown keys in model section 'stumps[0]': ['extra']"),
    ("knn", _set("rows_sha256", 5), "rows_sha256 must be a string, got 5"),
    ("knn", _set("n_rows", 50.0), "n_rows must be an integer, got 50.0"),
]


class TestLoadModelChecks:
    @pytest.fixture(scope="class")
    def rows(self):
        return blobs(np.random.default_rng(60), n_per_class=25, d=3, sep=1.5)

    @pytest.fixture(scope="class")
    def saved_docs(self, rows):
        X, y = rows
        models = {
            "knn": knn_fit(X, y, ClassifierSettings(knn_k=5)),
            "nb": gnb_fit(X, y),
            "lr": logreg_fit(X, y, ClassifierSettings(lr_epochs=20)),
            "svm": svm_fit(X, y, ClassifierSettings(svm_epochs=20)),
            "abc": adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=5)),
        }
        return {name: json.loads(model_to_json(model)) for name, model in models.items()}

    def test_unknown_model_type_is_not_written(self):
        with pytest.raises(IsoguardError, match="unknown model type object"):
            model_to_json(object())

    def test_fitted_models_pass_the_checks(self, saved_docs, rows, tmp_path):
        for name, doc in saved_docs.items():
            path = tmp_path / f"model_{name}.json"
            path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
            save_model(load_model(path, rows), tmp_path / "again.json")
            assert (tmp_path / "again.json").read_bytes() == path.read_bytes(), name

    @pytest.mark.parametrize("name, edit, message", MODEL_CORRUPTIONS)
    def test_corrupt_model_rejected_naming_the_file(self, saved_docs, rows, tmp_path, name, edit, message):
        doc = json.loads(json.dumps(saved_docs[name]))
        edit(doc)
        path = tmp_path / f"model_{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(IsoguardError) as caught:
            load_model(path, rows)
        assert str(caught.value).startswith(f"{path}: unreadable artifact (")
        assert message in str(caught.value)

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda X, y: None, "a KNN model file holds no training rows"),
            (lambda X, y: (X, np.where(np.arange(y.size) == 7, 1 - y, y)), "rows_sha256 mismatch"),
            (lambda X, y: (np.where(X == X[3, 1], np.nextafter(X, np.inf), X), y), "rows_sha256 mismatch"),
            (lambda X, y: (X[::-1], y[::-1]), "rows_sha256 mismatch"),
            (lambda X, y: (X[:-1], y[:-1]), "training rows have shape (49, 3), but the model was fit on (50, 3)"),
            (lambda X, y: (X[:, :2], y), "training rows have shape (50, 2), but the model was fit on (50, 3)"),
            (lambda X, y: (X, np.where(np.arange(y.size) == 0, 2, y)), "labels must be binary 0/1"),
        ],
        ids=["no-rows", "label-flipped", "cell-one-ulp-up", "rows-reversed", "row-missing", "column-missing", "label-2"],
    )
    def test_knn_needs_the_rows_it_was_fit_on(self, saved_docs, rows, tmp_path, change, message):
        path = tmp_path / "model_knn.json"
        path.write_text(json.dumps(saved_docs["knn"]), encoding="utf-8")
        with pytest.raises(IsoguardError) as caught:
            load_model(path, change(*rows))
        assert str(caught.value).startswith(f"{path}: unreadable artifact (")
        assert message in str(caught.value)


LAYOUT_FITS = {  # each model class's fit with its default settings, fewer stumps for speed
    KnnModel: knn_fit,
    GaussianNbModel: gnb_fit,
    LogisticModel: logreg_fit,
    LinearSvmModel: svm_fit,
    AdaBoostModel: lambda X, y: adaboost_fit(X, y, ClassifierSettings(adaboost_stumps=10)),
}


@pytest.mark.parametrize("cls", list(LAYOUT_FITS), ids=[classifiers.MODEL_KINDS[c].kind for c in LAYOUT_FITS])
def test_model_does_not_depend_on_the_memory_layout(cls):
    """A fit on a column slice of a Fortran-ordered matrix, as the pipeline's selected features are,
    and a fit on its C-ordered copy give the same model file, and each model scores both layouts of
    a query alike: the arms of an experiment may differ in their rows alone."""
    assert set(LAYOUT_FITS) == set(classifiers.MODEL_KINDS)
    rng = np.random.default_rng(62)
    columns = [0, 2, 3, 5, 6, 7, 9, 10, 11, 13, 14]
    X, y = blobs(rng, n_per_class=150, d=16, sep=0.7)
    fortran = np.asfortranarray(X)[:, columns]
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    layouts = (fortran, np.ascontiguousarray(fortran))
    models = [LAYOUT_FITS[cls](X_fit, y) for X_fit in layouts]
    assert model_to_json(models[0]) == model_to_json(models[1])
    if cls is KnnModel:
        for model, X_fit in zip(models, layouts):  # scores come from q @ X.T: keep one layout, and own it
            assert model.X.flags.c_contiguous and not np.shares_memory(model.X, X_fit)
        rows_bytes = layouts[1].tobytes() + y.astype(np.int64).tobytes()
        assert json.loads(model_to_json(models[0]))["rows_sha256"] == hashlib.sha256(rows_bytes).hexdigest()
    Q = np.asfortranarray(rng.normal(0.3, 1.5, size=(90, 16)))[:, columns]
    for model in models:
        np.testing.assert_array_equal(score_model(model, Q), score_model(model, np.ascontiguousarray(Q)))


LABEL_READERS = {  # every learner and metric that takes 0/1 labels, given labels y for rows X
    "knn_fit": knn_fit,
    "gnb_fit": gnb_fit,
    "logreg_fit": logreg_fit,
    "svm_fit": svm_fit,
    "adaboost_fit": adaboost_fit,
    "fit_extra_trees": lambda X, y: fit_extra_trees(X, y, SelectSettings(n_trees=2)),
    "confusion": lambda X, y: confusion(y, (X[:, 0] > 1.5).astype(int)),
    "roc": lambda X, y: roc(y, X[:, 0]),
}


@pytest.mark.parametrize("bad", [0.6, 1.9])
@pytest.mark.parametrize("name", list(LABEL_READERS))
def test_fractional_labels_rejected_not_truncated(name, bad):
    X, y = blobs(np.random.default_rng(3), n_per_class=10)
    y = y.astype(np.float64)
    y[[0, -1]] = bad
    with pytest.raises(IsoguardError, match="must be binary 0/1"):
        LABEL_READERS[name](X, y)


def test_checked_matrix_copies_only_other_layouts():
    X = np.arange(12.0).reshape(4, 3)
    assert checked_matrix(X) is X
    for other in (np.asfortranarray(X), X.astype(np.int64), X.tolist()):
        out = checked_matrix(other)
        assert out.dtype == np.float64 and out.flags.c_contiguous
        np.testing.assert_array_equal(out, X)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cls", list(LAYOUT_FITS), ids=[classifiers.MODEL_KINDS[c].kind for c in LAYOUT_FITS])
def test_fit_rejects_non_finite_cells(cls, value):
    X, y = blobs(np.random.default_rng(4), n_per_class=10, d=2)
    X[5, 1] = value
    with pytest.raises(IsoguardError, match="X holds NaN or infinite values"):
        LAYOUT_FITS[cls](X, y)


@pytest.mark.parametrize("shape", [(4, 0), (0, 3), (4,)], ids=["no-columns", "no-rows", "vector"])
@pytest.mark.parametrize("cls", list(LAYOUT_FITS), ids=[classifiers.MODEL_KINDS[c].kind for c in LAYOUT_FITS])
def test_fit_rejects_misshapen_matrix(cls, shape):
    y = np.arange(shape[0]) % 2
    with pytest.raises(IsoguardError, match=re.escape(f"X must be a non-empty 2-D matrix, got shape {shape}")):
        LAYOUT_FITS[cls](np.zeros(shape), y)


NON_NUMERIC_MATRICES = {
    "strings": [["a", "b"], ["c", "d"], ["e", "f"]],
    "object": np.array([[1.0, "x"], [2.0, "y"], [3.0, "z"]], dtype=object),
    "dict-cell": [[{}, 1.0], [2.0, 3.0], [4.0, 5.0]],
    "ragged": [[1.0, 2.0], [3.0], [4.0, 5.0]],
}
MATRIX_FITS = {  # every fit that reads a feature matrix through checked_matrix
    "knn_fit": knn_fit,
    "gnb_fit": gnb_fit,
    "logreg_fit": logreg_fit,
    "svm_fit": svm_fit,
    "adaboost_fit": adaboost_fit,
    "fit_extra_trees": lambda X, y: fit_extra_trees(X, y, SelectSettings(n_trees=2)),
    "rfe_select": lambda X, y: rfe_select(X, y, SelectSettings(target_count=1, n_trees=2)),
}
SCORERS = {"knn": knn_score, "nb": gnb_score, "lr": logreg_score, "svm": svm_score, "abc": adaboost_score}


@pytest.mark.parametrize("matrix", list(NON_NUMERIC_MATRICES))
@pytest.mark.parametrize("name", list(MATRIX_FITS))
def test_fit_rejects_non_numeric_matrix(name, matrix):
    with pytest.raises(IsoguardError, match="expected a matrix of numbers: "):
        MATRIX_FITS[name](NON_NUMERIC_MATRICES[matrix], np.array([0, 1, 0]))


@pytest.mark.parametrize("matrix", list(NON_NUMERIC_MATRICES))
@pytest.mark.parametrize("name", list(SCORERS))
def test_score_rejects_non_numeric_matrix(name, matrix):
    _, _, models = TestCommonContracts().fitted_models()
    with pytest.raises(IsoguardError, match="expected a matrix of numbers: "):
        SCORERS[name](models[name], NON_NUMERIC_MATRICES[matrix])


def test_knn_fit_makes_one_copy(monkeypatch):
    """The model owns its rows: the copy checked_matrix makes of another layout is kept as it is,
    and rows already C-ordered float64 are copied once."""
    checked = []

    def recording(X):
        checked.append(checked_matrix(X))
        return checked[-1]

    monkeypatch.setattr(classifiers, "checked_matrix", recording)
    X, y = blobs(np.random.default_rng(5), n_per_class=10)
    for X_fit in (np.asfortranarray(X), X.astype(np.float32), X.tolist()):
        assert knn_fit(X_fit, y).X is checked[-1]
    for X_fit in (X, X[:15]):  # C-ordered float64 rows, owning their memory or a view
        model = knn_fit(X_fit, y[: len(X_fit)])
        assert checked[-1] is X_fit and model.X.flags.owndata and not np.shares_memory(model.X, X_fit)
        np.testing.assert_array_equal(model.X, X_fit)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["knn", "nb", "lr", "svm", "abc"])
def test_score_rejects_non_finite_cells(name, value):
    _, _, models = TestCommonContracts().fitted_models()
    Q = np.zeros((3, 3))
    Q[1, 0] = value
    with pytest.raises(IsoguardError, match="X holds NaN or infinite values"):
        score_model(models[name], Q)


@pytest.mark.parametrize("name", ["knn", "nb", "lr", "svm", "abc"])
def test_score_of_no_rows_is_empty(name):
    _, _, models = TestCommonContracts().fitted_models()
    scores = score_model(models[name], np.empty((0, 3)))
    assert scores.shape == (0,)
