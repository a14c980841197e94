"""Isolation forest outlier detection.

Each isolation tree recursively partitions a random subsample with a
uniformly random feature and a uniformly random threshold between that
feature's node-local min and max. Outliers isolate close to the root, so
the ensemble-average path length E(h(x)), normalized by the average
unsuccessful-search depth c(m) of a binary search tree over m nodes,
yields an anomaly score

    s(x, m) = 2 ** (-E(h(x)) / c(m))

in (0, 1]: near 1 flags an outlier, below 0.5 looks normal. Trees are
truncated at height ceil(log2(m)); an external node reached early stands
in for an unbuilt subtree of `size` training rows and contributes
c(size) extra path length.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IsoguardError, artifact_reader
from .parallel import run_indexed
from .prng import derive_seed

EULER_MASCHERONI = 0.5772156649  # truncated constant used by the score normalizer


def harmonic_number(i: int) -> float:
    """Logarithmic estimate ln(i) + Euler-Mascheroni of the i-th harmonic number."""
    if i < 1:
        raise IsoguardError(f"harmonic_number requires i >= 1, got {i}")
    return math.log(i) + EULER_MASCHERONI


def expected_path_length(m: int) -> float:
    """Average unsuccessful-search path length c(m) in a BST holding m nodes.

    c(m) = 2*H(m-1) - 2*(m-1)/m for m > 2, c(2) = 1, and 0 for m < 2.
    """
    if m < 0:
        raise IsoguardError(f"expected_path_length requires m >= 0, got {m}")
    if m > 2:
        return 2.0 * harmonic_number(m - 1) - 2.0 * (m - 1) / m
    if m == 2:
        return 1.0
    return 0.0


@dataclass
class External:
    """Leaf carrying the count of training rows that terminated here."""

    size: int


@dataclass
class Internal:
    feature: int
    value: float
    left: "Internal | External"
    right: "Internal | External"


ITreeNode = Internal | External


@dataclass
class IsolationForest:
    trees: list[ITreeNode]
    t: int
    m: int
    height_limit: int
    seed: int
    n_features: int


@dataclass(frozen=True)
class AnomalyScore:
    s: float
    mean_path_length: float


@dataclass(frozen=True)
class OutlierVerdict:
    label: int  # +1 normal, -1 outlier
    score: AnomalyScore


def build_itree(sample: np.ndarray, depth: int, height_limit: int, rng: np.random.Generator) -> ITreeNode:
    """Grow one isolation tree over ``sample`` (rows x features).

    A node goes external when it holds <= 1 row, the height limit is
    reached, or no feature varies within the node. Rows with feature value
    strictly below the split go left.
    """
    n = sample.shape[0]
    if n == 0:
        raise IsoguardError("cannot build a tree over an empty sample")
    if n <= 1 or depth >= height_limit:
        return External(size=n)
    lo = sample.min(axis=0)
    hi = sample.max(axis=0)
    varying = np.flatnonzero(hi > lo)
    if varying.size == 0:
        return External(size=n)
    feature = int(varying[rng.integers(varying.size)])
    split = float(rng.uniform(lo[feature], hi[feature]))
    if split <= lo[feature]:  # guard against a degenerate float draw
        split = float(np.nextafter(lo[feature], hi[feature]))
    mask = sample[:, feature] < split
    return Internal(
        feature=feature,
        value=split,
        left=build_itree(sample[mask], depth + 1, height_limit, rng),
        right=build_itree(sample[~mask], depth + 1, height_limit, rng),
    )


def fit_forest(X: np.ndarray, t: int = 100, m: int = 256, seed: int = 0) -> IsolationForest:
    """Build t isolation trees, each over its own without-replacement subsample of size m.

    Per-tree seeds are derived from the master seed, so the result does not
    depend on build order. Trees are built serially: the build is GIL-bound
    Python, which threads only slow down.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise IsoguardError(f"expected a 2-D matrix, got shape {X.shape}")
    n = X.shape[0]
    if t < 1:
        raise IsoguardError(f"tree count must be >= 1, got {t}")
    if n < 2:
        raise IsoguardError(f"need at least 2 rows to fit, got {n}")
    if m < 2:
        raise IsoguardError(f"subsample size must be >= 2, got {m}")
    if m > n:
        raise IsoguardError(f"subsample size {m} exceeds row count {n}")
    height_limit = math.ceil(math.log2(m))

    def _one(i: int) -> ITreeNode:
        rng = np.random.default_rng(derive_seed(seed, "tree", i))
        sample_idx = rng.choice(n, size=m, replace=False)
        return build_itree(X[sample_idx], 0, height_limit, rng)

    trees = [_one(i) for i in range(t)]
    return IsolationForest(trees=trees, t=t, m=m, height_limit=height_limit, seed=seed, n_features=X.shape[1])


def path_length(tree: ITreeNode, x: np.ndarray, depth: int = 0) -> float:
    """Path length h(x): edges walked plus c(size) at the reached external node."""
    node = tree
    d = depth
    while isinstance(node, Internal):
        node = node.left if x[node.feature] < node.value else node.right
        d += 1
    return d + expected_path_length(node.size)


def _path_lengths(tree: ITreeNode, X: np.ndarray) -> np.ndarray:
    out = np.empty(X.shape[0], dtype=np.float64)
    stack: list[tuple[ITreeNode, np.ndarray, int]] = [(tree, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if isinstance(node, External):
            out[idx] = depth + expected_path_length(node.size)
            continue
        mask = X[idx, node.feature] < node.value
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
    return out


def mean_path_lengths(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """E(h(x)) per row: average path length across all trees."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise IsoguardError(
            f"feature count mismatch: forest expects {forest.n_features}, got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    depths = run_indexed(lambda i: _path_lengths(forest.trees[i], X), forest.t)
    return np.mean(np.stack(depths, axis=0), axis=0)


def score_batch(forest: IsolationForest, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anomaly scores and mean path lengths for every row of X."""
    mean_h = mean_path_lengths(forest, X)
    c = expected_path_length(forest.m)
    return np.power(2.0, -mean_h / c), mean_h


def score(forest: IsolationForest, x: np.ndarray) -> AnomalyScore:
    """Anomaly score of a single feature vector."""
    s, mean_h = score_batch(forest, np.asarray(x, dtype=np.float64).reshape(1, -1))
    return AnomalyScore(s=float(s[0]), mean_path_length=float(mean_h[0]))


def predict(
    forest: IsolationForest,
    X: np.ndarray,
    threshold: float | None = None,
    contamination: float | None = None,
) -> list[OutlierVerdict]:
    """Label every row +1 (normal) or -1 (outlier).

    Fixed-threshold mode (default threshold 0.5) labels -1 iff s >= threshold;
    the boundary score counts as an outlier. Contamination mode labels -1 the
    top ceil(fraction * n) scores, ties broken by ascending row index.
    """
    if threshold is not None and contamination is not None:
        raise IsoguardError("pass either a fixed threshold or a contamination fraction, not both")
    s, mean_h = score_batch(forest, X)
    n = s.size
    if contamination is not None:
        if not 0.0 < contamination <= 0.5:
            raise IsoguardError(f"contamination must be in (0, 0.5], got {contamination}")
        k = math.ceil(contamination * n)
        order = np.argsort(-s, kind="stable")
        labels = np.ones(n, dtype=np.int64)
        labels[order[:k]] = -1
    else:
        tau = 0.5 if threshold is None else threshold
        labels = np.where(s >= tau, -1, 1)
    return [
        OutlierVerdict(label=int(lbl), score=AnomalyScore(s=float(si), mean_path_length=float(hi)))
        for lbl, si, hi in zip(labels, s, mean_h)
    ]


def _node_to_dict(node: ITreeNode) -> dict:
    if isinstance(node, External):
        return {"size": node.size}
    return {
        "feature": node.feature,
        "value": node.value,
        "left": _node_to_dict(node.left),
        "right": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict) -> ITreeNode:
    if "size" in doc:
        return External(size=int(doc["size"]))
    return Internal(
        feature=int(doc["feature"]),
        value=float(doc["value"]),
        left=_node_from_dict(doc["left"]),
        right=_node_from_dict(doc["right"]),
    )


def forest_to_json(forest: IsolationForest) -> str:
    """Serialize to JSON; float values round-trip exactly, so a reloaded
    forest reproduces scores bit for bit."""
    doc = {
        "t": forest.t,
        "m": forest.m,
        "height_limit": forest.height_limit,
        "seed": forest.seed,
        "n_features": forest.n_features,
        "trees": [_node_to_dict(tree) for tree in forest.trees],
    }
    return json.dumps(doc, sort_keys=True)


def forest_from_json(text: str) -> IsolationForest:
    doc = json.loads(text)
    return IsolationForest(
        trees=[_node_from_dict(t) for t in doc["trees"]],
        t=int(doc["t"]),
        m=int(doc["m"]),
        height_limit=int(doc["height_limit"]),
        seed=int(doc["seed"]),
        n_features=int(doc["n_features"]),
    )


def save_forest(forest: IsolationForest, path: str | Path) -> None:
    Path(path).write_text(forest_to_json(forest) + "\n", encoding="utf-8")


def load_forest(path: str | Path) -> IsolationForest:
    with artifact_reader(path):
        return forest_from_json(Path(path).read_text(encoding="utf-8"))
