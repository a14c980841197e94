"""Five baseline binary classifiers. Each has one score function, oriented
so larger means more likely class 1, and a label rule that turns the score
into a 0/1 label:

    model     kind          score                             label 1 when
    KNN       knn           fraction of the k nearest with 1  score > 0.5
    NB        gaussian_nb   posterior P(class=1 | x)          score >= 0.5
    LR        logistic      sigmoid probability               score >= 0.5
    SVM       linear_svm    margin w.x + b                    score >= 0.0
    AdaBoost  adaboost      weighted stump vote sum           score >= 0.0

The SVM and AdaBoost margins are uncalibrated (rank-based ROC analysis
does not need calibration). Tie-break conventions are fixed: KNN resolves
distance ties by ascending training-row index and sends an even vote split
(score exactly 0.5) to label 0; margin models map a score of exactly zero
to class 1. ``MODEL_KINDS`` holds one row per model class, and the model
files name its ``kind`` values.
"""
from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import IntArray, from_doc, to_doc
from .errors import IsoguardError, artifact_reader

# ---------------------------------------------------------------------------
# shared helpers


def _as_matrix(X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise IsoguardError(f"expected a 2-D matrix, got shape {X.shape}")
    return X


def _as_labels(y, n: int) -> np.ndarray:
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (n,):
        raise IsoguardError("label vector length must match row count")
    if not np.isin(y, (0, 1)).all():
        raise IsoguardError("labels must be binary 0/1")
    return y


def _check_features(n_expected: int, X: np.ndarray) -> np.ndarray:
    X = _as_matrix(X)
    if X.shape[1] != n_expected:
        raise IsoguardError(f"feature count mismatch: model expects {n_expected}, got {X.shape[1]}")
    return X


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


# ---------------------------------------------------------------------------
# k-nearest neighbors


@dataclass
class KnnModel:
    k: int
    X: np.ndarray
    y: IntArray
    n_features: int


def knn_fit(X, y, k: int = 5) -> KnnModel:
    X = _as_matrix(X)
    if X.shape[0] == 0:
        raise IsoguardError("cannot fit KNN on an empty training set")
    y = _as_labels(y, X.shape[0])
    if not 1 <= k <= X.shape[0]:
        raise IsoguardError(f"k must satisfy 1 <= k <= {X.shape[0]}, got {k}")
    return KnnModel(k=k, X=X.copy(), y=y.copy(), n_features=X.shape[1])


_KNN_CHUNK_BYTES = 4 << 20  # bytes of the float64 distance block (query rows x training rows) one chunk fills


def _knn_positive_counts(model: KnnModel, X) -> np.ndarray:
    """Number of the k nearest training rows labeled 1, per query row."""
    X = _check_features(model.n_features, X)
    train = model.X
    n_train = train.shape[0]
    k = model.k
    counts = np.empty(X.shape[0], dtype=np.int64)
    train_sq = (train * train).sum(axis=1)
    positive = model.y == 1
    chunk = max(1, _KNN_CHUNK_BYTES // (8 * max(n_train, 1)))
    for start in range(0, X.shape[0], chunk):
        q = X[start : start + chunk]
        # train_sq - 2.0 * (q @ train.T) + q_sq, same operations and order, without full-size temporaries
        d2 = q @ train.T
        d2 *= 2.0
        np.subtract(train_sq[None, :], d2, out=d2)
        d2 += (q * q).sum(axis=1)[:, None]
        np.maximum(d2, 0.0, out=d2)
        if k == n_train:
            counts[start : start + q.shape[0]] = model.y.sum()
            continue
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1].copy()  # copy frees the partitioned matrix
        within = d2 <= kth[:, None]
        n_within = np.count_nonzero(within, axis=1)
        within &= positive[None, :]
        chunk_counts = np.count_nonzero(within, axis=1)
        # more than k rows tie at the k-th distance: keep the lowest training indices
        for i in np.flatnonzero(n_within > k):
            candidates = np.flatnonzero(d2[i] <= kth[i])  # ascending index already
            candidates = candidates[np.argsort(d2[i, candidates], kind="stable")][:k]
            chunk_counts[i] = model.y[candidates].sum()
        counts[start : start + q.shape[0]] = chunk_counts
    return counts


def knn_score(model: KnnModel, X) -> np.ndarray:
    """Fraction of the k nearest neighbors labeled 1."""
    return _knn_positive_counts(model, X) / model.k


# ---------------------------------------------------------------------------
# Gaussian naive Bayes


@dataclass
class GaussianNbModel:
    priors: np.ndarray  # (2,)
    means: np.ndarray  # (2, d)
    variances: np.ndarray  # (2, d), smoothing already added
    var_smoothing: float
    n_features: int


def gnb_fit(X, y, var_smoothing: float = 1e-9) -> GaussianNbModel:
    X = _as_matrix(X)
    y = _as_labels(y, X.shape[0])
    if not var_smoothing > 0.0:
        raise IsoguardError(f"var_smoothing must be > 0, got {var_smoothing}")
    if len(np.unique(y)) < 2:
        raise IsoguardError("Gaussian NB needs both classes in the training data")
    means = np.empty((2, X.shape[1]))
    variances = np.empty((2, X.shape[1]))
    priors = np.empty(2)
    for cls in (0, 1):
        rows = X[y == cls]
        priors[cls] = rows.shape[0] / X.shape[0]
        means[cls] = rows.mean(axis=0)
        variances[cls] = rows.var(axis=0)
    eps = var_smoothing * X.var(axis=0).max()
    if eps == 0.0:
        eps = var_smoothing  # all-constant features: keep variances positive
    variances += eps
    return GaussianNbModel(
        priors=priors, means=means, variances=variances, var_smoothing=var_smoothing, n_features=X.shape[1]
    )


def _gnb_joint_log_likelihood(model: GaussianNbModel, X: np.ndarray) -> np.ndarray:
    jll = np.empty((X.shape[0], 2))
    for cls in (0, 1):
        var = model.variances[cls]
        log_det = np.log(2.0 * np.pi * var).sum()
        sq = ((X - model.means[cls]) ** 2 / var).sum(axis=1)
        jll[:, cls] = math.log(model.priors[cls]) - 0.5 * (log_det + sq)
    return jll


def gnb_score(model: GaussianNbModel, X) -> np.ndarray:
    """Posterior P(class=1 | x) via log-sum-exp normalization."""
    X = _check_features(model.n_features, X)
    jll = _gnb_joint_log_likelihood(model, X)
    return np.exp(jll[:, 1] - np.logaddexp(jll[:, 0], jll[:, 1]))


# ---------------------------------------------------------------------------
# logistic regression


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    learning_rate: float
    epochs: int
    l2: float
    n_features: int


def logreg_loss_grad(
    w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, l2: float
) -> tuple[float, np.ndarray, float]:
    """L2-regularized mean log loss and its gradient (bias unregularized).

    Overflow to inf is allowed through quietly; the caller reports a
    non-finite loss as training divergence.
    """
    with np.errstate(over="ignore"):
        z = X @ w + b
        loss = float(np.mean(np.logaddexp(0.0, z) - y * z) + 0.5 * l2 * (w @ w))
        p = _sigmoid(z)
        grad_w = X.T @ (p - y) / X.shape[0] + l2 * w
        grad_b = float(np.mean(p - y))
    return loss, grad_w, grad_b


def logreg_fit(X, y, learning_rate: float = 0.1, epochs: int = 300, l2: float = 1e-4) -> LogisticModel:
    """Full-batch gradient descent from zero-initialized weights.

    epochs=0 returns the zero model (score 0.5 everywhere). A non-finite
    loss is reported as a training failure rather than silently clipped.
    """
    X = _as_matrix(X)
    y = _as_labels(y, X.shape[0])
    if epochs < 0:
        raise IsoguardError(f"epochs must be >= 0, got {epochs}")
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        loss, grad_w, grad_b = logreg_loss_grad(w, b, X, y.astype(np.float64), l2)
        if not math.isfinite(loss):
            raise IsoguardError("logistic regression training diverged (non-finite loss); lower the learning rate")
        w = w - learning_rate * grad_w
        b = b - learning_rate * grad_b
    if not (np.isfinite(w).all() and math.isfinite(b)):
        raise IsoguardError("logistic regression training diverged (non-finite weights); lower the learning rate")
    return LogisticModel(
        weights=w, bias=b, learning_rate=learning_rate, epochs=epochs, l2=l2, n_features=X.shape[1]
    )


def logreg_score(model: LogisticModel, X) -> np.ndarray:
    X = _check_features(model.n_features, X)
    return _sigmoid(X @ model.weights + model.bias)


# ---------------------------------------------------------------------------
# linear SVM (primal sub-gradient descent, step 1/(lambda * t))


@dataclass
class LinearSvmModel:
    weights: np.ndarray
    bias: float
    lam: float
    epochs: int
    n_features: int


def svm_objective_grad(
    w: np.ndarray, b: float, X: np.ndarray, t: np.ndarray, lam: float
) -> tuple[float, np.ndarray, float]:
    """lam/2 ||w||^2 + mean hinge loss over +-1 labels, with a sub-gradient."""
    margins = t * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    objective = float(0.5 * lam * (w @ w) + hinge.mean())
    violators = margins < 1.0
    n = X.shape[0]
    grad_w = lam * w - (t[violators] @ X[violators]) / n
    grad_b = float(-t[violators].sum() / n)
    return objective, grad_w, grad_b


def svm_fit(X, y, lam: float = 1e-4, epochs: int = 300) -> LinearSvmModel:
    X = _as_matrix(X)
    y = _as_labels(y, X.shape[0])
    if lam <= 0.0:
        raise IsoguardError(f"lam must be > 0, got {lam}")
    if epochs < 1:
        raise IsoguardError(f"epochs must be >= 1, got {epochs}")
    t = 2.0 * y - 1.0
    w = np.zeros(X.shape[1])
    b = 0.0
    for step in range(1, epochs + 1):
        eta = 1.0 / (lam * step)
        _, grad_w, grad_b = svm_objective_grad(w, b, X, t, lam)
        w = w - eta * grad_w
        b = b - eta * grad_b
        if not (np.isfinite(w).all() and math.isfinite(b)):
            raise IsoguardError("SVM training produced non-finite weights")
    return LinearSvmModel(weights=w, bias=b, lam=lam, epochs=epochs, n_features=X.shape[1])


def svm_score(model: LinearSvmModel, X) -> np.ndarray:
    """Raw margin w.x + b; uncalibrated but rank-correct for ROC."""
    X = _check_features(model.n_features, X)
    return X @ model.weights + model.bias


# ---------------------------------------------------------------------------
# AdaBoost over axis-aligned decision stumps


@dataclass
class Stump:
    feature: int
    threshold: float
    polarity: int  # +1: predict +1 when x >= threshold; -1: the reverse
    alpha: float


@dataclass
class AdaBoostModel:
    stumps: list[Stump]
    n_features: int


def _stump_outputs(feature_values: np.ndarray, threshold: float, polarity: int) -> np.ndarray:
    out = np.where(feature_values >= threshold, 1.0, -1.0)
    return polarity * out


def _best_stump(
    X: np.ndarray, t: np.ndarray, weights: np.ndarray, orders: np.ndarray | None = None
) -> tuple[float, int, float, int]:
    """Minimal weighted error over all midpoint thresholds, both polarities.

    ``orders`` is ``np.argsort(X, axis=0, kind="stable")``; pass it to reuse
    one presort across boosting rounds (only the weights change between
    them), or leave it out to sort here.

    Ties resolve toward the lower feature index, then the smaller
    threshold, then polarity +1. Within a feature the errors of every cut
    are laid out as ``[plus, minus]`` pairs in ascending threshold order,
    so the first-occurrence ``argmin`` picks the smallest threshold and,
    at that threshold, polarity +1; across features only a strictly
    smaller error replaces the best so far, which keeps the lower feature.
    """
    if orders is None:
        orders = np.argsort(X, axis=0, kind="stable")
    best = (np.inf, -1, 0.0, 1)
    w_pos_total = weights[t > 0].sum()
    for f in range(X.shape[1]):
        order = orders[:, f]
        sv = X[order, f]
        distinct = np.flatnonzero(sv[1:] > sv[:-1]) + 1  # cut positions between distinct values
        if distinct.size == 0:
            continue
        sw = weights[order]
        st = t[order]
        w_pos_prefix = np.concatenate(([0.0], np.cumsum(np.where(st > 0, sw, 0.0))))
        w_neg_prefix = np.concatenate(([0.0], np.cumsum(np.where(st < 0, sw, 0.0))))
        w_neg_total = w_neg_prefix[-1]
        errors = np.empty(2 * distinct.size)
        # polarity +1: rows below the cut predict -1, at/above predict +1
        errors[0::2] = w_pos_prefix[distinct] + (w_neg_total - w_neg_prefix[distinct])
        errors[1::2] = (w_pos_total + w_neg_total) - errors[0::2]
        i = int(np.argmin(errors))
        if errors[i] < best[0]:
            cut = distinct[i // 2]
            threshold = 0.5 * (sv[cut - 1] + sv[cut])
            best = (float(errors[i]), f, float(threshold), 1 if i % 2 == 0 else -1)
    return best


def adaboost_fit(X, y, n_stumps: int = 50) -> AdaBoostModel:
    """Discrete AdaBoost. Stops early when the best stump is no better than
    chance (error >= 0.5) or when the data is perfectly classified."""
    X = _as_matrix(X)
    y = _as_labels(y, X.shape[0])
    if n_stumps < 1:
        raise IsoguardError(f"n_stumps must be >= 1, got {n_stumps}")
    if len(np.unique(y)) < 2:
        raise IsoguardError("AdaBoost needs both classes in the training data")
    if all((X[:, f] == X[0, f]).all() for f in range(X.shape[1])):
        raise IsoguardError("no valid stump: every feature is constant")
    t = 2.0 * y - 1.0
    n = X.shape[0]
    weights = np.full(n, 1.0 / n)
    orders = np.argsort(X, axis=0, kind="stable")
    stumps: list[Stump] = []
    for _ in range(n_stumps):
        err, feature, threshold, polarity = _best_stump(X, t, weights, orders)
        if err >= 0.5:
            break
        eps = min(max(err, 1e-10), 1.0 - 1e-10)
        alpha = 0.5 * math.log((1.0 - eps) / eps)
        stumps.append(Stump(feature=feature, threshold=threshold, polarity=polarity, alpha=alpha))
        outputs = _stump_outputs(X[:, feature], threshold, polarity)
        weights = weights * np.exp(-alpha * t * outputs)
        weights = weights / weights.sum()
        if err < 1e-10:  # perfect stump: nothing left to learn
            break
    return AdaBoostModel(stumps=stumps, n_features=X.shape[1])


def adaboost_score(model: AdaBoostModel, X) -> np.ndarray:
    """Weighted stump vote sum in the +-1 convention (an uncalibrated margin)."""
    X = _check_features(model.n_features, X)
    total = np.zeros(X.shape[0])
    for stump in model.stumps:
        total += stump.alpha * _stump_outputs(X[:, stump.feature], stump.threshold, stump.polarity)
    return total


# ---------------------------------------------------------------------------
# one row per model kind: score, label rule, load checks, persistence


def _check_shape(name: str, a: np.ndarray, shape: tuple[int, ...]) -> None:
    if a.shape != shape:
        raise IsoguardError(f"{name} has shape {a.shape}, expected {shape}")


def _check_knn(model: KnnModel) -> None:
    n = model.y.size
    _check_shape("y", model.y, (n,))
    _check_shape("X", model.X, (n, model.n_features))
    if not np.isin(model.y, (0, 1)).all():
        raise IsoguardError("y must hold only 0/1 labels")
    if not 1 <= model.k <= n:
        raise IsoguardError(f"k must satisfy 1 <= k <= {n}, got {model.k}")


def _check_gnb(model: GaussianNbModel) -> None:
    _check_shape("priors", model.priors, (2,))
    _check_shape("means", model.means, (2, model.n_features))
    _check_shape("variances", model.variances, (2, model.n_features))
    if not ((model.priors > 0.0) & (model.priors < 1.0)).all() or abs(model.priors.sum() - 1.0) > 1e-9:
        raise IsoguardError(f"priors must each lie in (0, 1) and sum to 1, got {model.priors.tolist()}")
    if not (model.variances > 0.0).all():
        raise IsoguardError(f"variances must all be > 0, got {model.variances.min()}")


def _check_linear(model: LogisticModel | LinearSvmModel) -> None:
    _check_shape("weights", model.weights, (model.n_features,))


def _check_adaboost(model: AdaBoostModel) -> None:
    for i, s in enumerate(model.stumps):
        if not 0 <= s.feature < model.n_features or s.polarity not in (1, -1):
            raise IsoguardError(
                f"stump {i} has feature {s.feature} and polarity {s.polarity}; "
                f"need a feature in [0, {model.n_features}) and polarity 1 or -1"
            )


@dataclass(frozen=True)
class ModelKind:
    kind: str  # the "kind" value of the model JSON
    score: Callable[..., np.ndarray]  # (model, X) -> scores, larger means more likely class 1
    label: Callable[[np.ndarray], np.ndarray]  # scores -> True where the label is 1
    check: Callable[..., None]  # a loaded model's shape and range checks


MODEL_KINDS: dict[type, ModelKind] = {
    KnnModel: ModelKind("knn", knn_score, lambda s: s > 0.5, _check_knn),
    GaussianNbModel: ModelKind("gaussian_nb", gnb_score, lambda s: s >= 0.5, _check_gnb),
    LogisticModel: ModelKind("logistic", logreg_score, lambda s: s >= 0.5, _check_linear),
    LinearSvmModel: ModelKind("linear_svm", svm_score, lambda s: s >= 0.0, _check_linear),
    AdaBoostModel: ModelKind("adaboost", adaboost_score, lambda s: s >= 0.0, _check_adaboost),
}
_CLASS_OF_KIND = {row.kind: cls for cls, row in MODEL_KINDS.items()}

ClassifierModel = KnnModel | GaussianNbModel | LogisticModel | LinearSvmModel | AdaBoostModel


def score_model(model: ClassifierModel, X) -> np.ndarray:
    return MODEL_KINDS[type(model)].score(model, X)


def labels_from_scores(model: ClassifierModel, scores: np.ndarray) -> np.ndarray:
    """0/1 labels from ``model``'s scores by its kind's label rule."""
    return MODEL_KINDS[type(model)].label(scores).astype(np.int64)


def predict_model(model: ClassifierModel, X) -> np.ndarray:
    return labels_from_scores(model, score_model(model, X))


def model_to_json(model: ClassifierModel) -> str:
    if type(model) not in MODEL_KINDS:
        raise IsoguardError(f"unknown model type {type(model).__name__}")
    return json.dumps({"kind": MODEL_KINDS[type(model)].kind, **to_doc(model)}, sort_keys=True)


def model_from_json(text: str) -> ClassifierModel:
    """Parse a model document; shapes and ranges that do not fit ``n_features`` raise IsoguardError."""
    doc = json.loads(text)
    kind = doc.pop("kind", None)
    cls = _CLASS_OF_KIND.get(kind)
    if cls is None:
        raise IsoguardError(f"unknown model kind {kind!r}")
    model = from_doc(cls, doc, "model")
    MODEL_KINDS[cls].check(model)
    return model


def save_model(model: ClassifierModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> ClassifierModel:
    with artifact_reader(path):
        return model_from_json(Path(path).read_text(encoding="utf-8"))
