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

Every fit takes the config's ``classifiers`` section, ``ClassifierSettings``,
which checks its own types and ranges when built, so each setting is stated
once, in its field's annotation. Only ``k <= n_rows`` depends on the data;
a KNN fit and a KNN load check it.

Every fit and every score reads its input through ``errors.checked_matrix``:
C-ordered float64 rows of finite values, copied only when the caller's are
laid out otherwise. A fit needs at least one row, and a score the model's
feature count (it may hold no rows). BLAS products round by layout, so this
keeps every model and every score a function of the values alone: the
experiment's two arms differ in their training rows only.

A model file holds every fitted parameter, except that KNN, a lazy
learner, has none but ``k`` and its training rows. Its file holds ``k``,
``n_features``, ``n_rows`` and ``rows_sha256``, the sha256 of the rows'
C-ordered float64 bytes followed by the labels' int64 bytes, and
``load_model`` is given the rows and checks them against that digest.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .codec import IntArray, check_types, from_doc, to_doc
from .errors import IsoguardError, artifact_reader, checked_labels, checked_matrix


@dataclass(frozen=True)
class ClassifierSettings:
    """The config's ``classifiers`` section: the settings of the five fits."""

    knn_k: Annotated[int, ">= 1"] = 5
    nb_var_smoothing: Annotated[float, "> 0"] = 1e-9
    lr_learning_rate: Annotated[float, "> 0"] = 0.1
    lr_epochs: Annotated[int, ">= 0"] = 300
    lr_l2: Annotated[float, ">= 0"] = 1e-4
    svm_lambda: Annotated[float, "> 0"] = 1e-4
    svm_epochs: Annotated[int, ">= 1"] = 300
    adaboost_stumps: Annotated[int, ">= 1"] = 50

    def __post_init__(self) -> None:
        check_types(self, "config", "classifiers")


# ---------------------------------------------------------------------------
# shared helpers


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


def _knn_model(X, y, k: int) -> KnnModel:
    """A KNN model holding its own C-ordered copies of the training rows. A fit and a load both build it here."""
    rows = checked_matrix(X)  # a new array only when the caller's is laid out otherwise
    X = rows if rows is not X and rows.flags.owndata else rows.copy()  # so one copy, whatever the layout
    y = checked_labels(y, n=X.shape[0])
    if not 1 <= k <= X.shape[0]:
        raise IsoguardError(f"k must satisfy 1 <= k <= {X.shape[0]}, got {k}")
    return KnnModel(k=k, X=X, y=y.copy(), n_features=X.shape[1])


def knn_fit(X, y, settings: ClassifierSettings = ClassifierSettings()) -> KnnModel:
    return _knn_model(X, y, settings.knn_k)


@dataclass
class KnnReference:
    """What a KNN model file holds: ``k`` and which training rows the model keeps."""

    k: int
    n_features: int
    n_rows: Annotated[int, ">= 1"]
    rows_sha256: str


def _rows_sha256(model: KnnModel) -> str:
    """Hex sha256 of the C-ordered float64 bytes of ``model.X``, then the int64 bytes of ``model.y``."""
    digest = hashlib.sha256(np.ascontiguousarray(model.X, dtype=np.float64))
    digest.update(np.ascontiguousarray(model.y, dtype=np.int64))
    return digest.hexdigest()


def _knn_reference(model: KnnModel) -> KnnReference:
    return KnnReference(k=model.k, n_features=model.n_features, n_rows=model.y.size, rows_sha256=_rows_sha256(model))


def _knn_from_reference(ref: KnnReference, rows) -> KnnModel:
    """The model ``ref`` describes, built from the training rows ``rows`` = (X, y), which must be the ones it was fit on."""
    if rows is None:
        raise IsoguardError("a KNN model file holds no training rows; load it with the rows it was fit on")
    X, y = rows
    fit_shape = (ref.n_rows, ref.n_features)
    if np.shape(X) != fit_shape:
        raise IsoguardError(f"training rows have shape {np.shape(X)}, but the model was fit on {fit_shape}")
    model = _knn_model(X, y, ref.k)
    if _rows_sha256(model) != ref.rows_sha256:
        raise IsoguardError("training rows differ from the ones the model was fit on (rows_sha256 mismatch)")
    return model


_KNN_CHUNK_BYTES = 4 << 20  # bytes of the float64 distance block (query rows x training rows) one chunk fills


def _knn_positive_counts(model: KnnModel, X) -> np.ndarray:
    """Number of the k nearest training rows labeled 1, per query row."""
    X = checked_matrix(X, n_features=model.n_features)
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


def gnb_fit(X, y, settings: ClassifierSettings = ClassifierSettings()) -> GaussianNbModel:
    X = checked_matrix(X)
    y = checked_labels(y, n=X.shape[0])
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
    var_smoothing = settings.nb_var_smoothing
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
    X = checked_matrix(X, n_features=model.n_features)
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


def logreg_fit(X, y, settings: ClassifierSettings = ClassifierSettings()) -> LogisticModel:
    """Full-batch gradient descent from zero-initialized weights.

    lr_epochs=0 returns the zero model (score 0.5 everywhere). A non-finite
    loss is reported as a training failure rather than silently clipped.
    """
    X = checked_matrix(X)
    y = checked_labels(y, n=X.shape[0]).astype(np.float64)
    learning_rate, epochs, l2 = settings.lr_learning_rate, settings.lr_epochs, settings.lr_l2
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(epochs):
        loss, grad_w, grad_b = logreg_loss_grad(w, b, X, y, l2)
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
    X = checked_matrix(X, n_features=model.n_features)
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


def svm_fit(X, y, settings: ClassifierSettings = ClassifierSettings()) -> LinearSvmModel:
    X = checked_matrix(X)
    y = checked_labels(y, n=X.shape[0])
    lam, epochs = settings.svm_lambda, settings.svm_epochs
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
    X = checked_matrix(X, n_features=model.n_features)
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
    X: np.ndarray, t: np.ndarray, weights: np.ndarray, orders: np.ndarray
) -> tuple[float, int, float, int]:
    """Minimal weighted error over all midpoint thresholds, both polarities.

    ``orders`` is ``np.argsort(X, axis=0, kind="stable")``, one presort
    that serves every boosting round (only the weights change between them).

    Ties resolve toward the lower feature index, then the smaller
    threshold, then polarity +1. Within a feature the errors of every cut
    are laid out as ``[plus, minus]`` pairs in ascending threshold order,
    so the first-occurrence ``argmin`` picks the smallest threshold and,
    at that threshold, polarity +1; across features only a strictly
    smaller error replaces the best so far, which keeps the lower feature.
    """
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


def adaboost_fit(X, y, settings: ClassifierSettings = ClassifierSettings()) -> AdaBoostModel:
    """Discrete AdaBoost with at most ``settings.adaboost_stumps`` stumps. Stops early when the
    best stump is no better than chance (error >= 0.5) or when the data is perfectly classified."""
    X = checked_matrix(X)
    y = checked_labels(y, n=X.shape[0])
    if len(np.unique(y)) < 2:
        raise IsoguardError("AdaBoost needs both classes in the training data")
    if all((X[:, f] == X[0, f]).all() for f in range(X.shape[1])):
        raise IsoguardError("no valid stump: every feature is constant")
    t = 2.0 * y - 1.0
    n = X.shape[0]
    weights = np.full(n, 1.0 / n)
    orders = np.argsort(X, axis=0, kind="stable")
    stumps: list[Stump] = []
    for _ in range(settings.adaboost_stumps):
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
    X = checked_matrix(X, n_features=model.n_features)
    total = np.zeros(X.shape[0])
    for stump in model.stumps:
        total += stump.alpha * _stump_outputs(X[:, stump.feature], stump.threshold, stump.polarity)
    return total


# ---------------------------------------------------------------------------
# one row per model kind: score, label rule, load checks, persistence


def _check_shape(name: str, a: np.ndarray, shape: tuple[int, ...]) -> None:
    if a.shape != shape:
        raise IsoguardError(f"{name} has shape {a.shape}, expected {shape}")


def _check_knn(ref: KnnReference) -> None:
    if not re.fullmatch(r"[0-9a-f]{64}", ref.rows_sha256):
        raise IsoguardError(f"rows_sha256 must be 64 lowercase hex digits, got {ref.rows_sha256!r}")


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
    check: Callable[..., None]  # shape and range checks of what a model file holds


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
    """``model``'s scores on ``X``. An overflow or an invalid operation raises
    IsoguardError: it means parameters no fit produces (a weight of 1e308,
    say), and checking the scores afterwards would miss it, since the sigmoid
    maps an infinite margin to 1.0."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return MODEL_KINDS[type(model)].score(model, X)
    except FloatingPointError as e:
        raise IsoguardError(f"model parameters out of range: {e}") from None


def labels_from_scores(model: ClassifierModel, scores: np.ndarray) -> np.ndarray:
    """0/1 labels from ``model``'s scores by its kind's label rule."""
    return MODEL_KINDS[type(model)].label(scores).astype(np.int64)


def predict_model(model: ClassifierModel, X) -> np.ndarray:
    return labels_from_scores(model, score_model(model, X))


def model_to_json(model: ClassifierModel) -> str:
    if type(model) not in MODEL_KINDS:
        raise IsoguardError(f"unknown model type {type(model).__name__}")
    stored = _knn_reference(model) if isinstance(model, KnnModel) else model
    return json.dumps({"kind": MODEL_KINDS[type(model)].kind, **to_doc(stored)}, sort_keys=True)


def model_from_json(text: str, rows=None) -> ClassifierModel:
    """Parse a model document; shapes and ranges that do not fit ``n_features`` raise IsoguardError.

    ``rows`` = (X, y) are the training rows a KNN document refers to; the
    other kinds hold all they need and ignore it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise IsoguardError(f"model must be an object, got {doc!r}")
    kind = doc.pop("kind", None)
    cls = _CLASS_OF_KIND.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise IsoguardError(f"unknown model kind {kind!r}")
    stored = from_doc(KnnReference if cls is KnnModel else cls, doc, "model")
    MODEL_KINDS[cls].check(stored)
    return _knn_from_reference(stored, rows) if cls is KnnModel else stored


def save_model(model: ClassifierModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model) + "\n", encoding="utf-8")


def load_model(path: str | Path, rows=None) -> ClassifierModel:
    """The model saved at ``path``; a KNN model is given its training ``rows`` = (X, y)."""
    with artifact_reader(path):
        return model_from_json(Path(path).read_text(encoding="utf-8"), rows)
