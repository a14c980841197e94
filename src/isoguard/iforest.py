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

Each tree is a set of parallel per-node arrays in depth-first pre-order
(the layout of scikit-learn's ``Tree``), and a leaf's two children are
the leaf itself. Scoring walks every row of a batch through one tree a
level at a time: ``height_limit`` steps of numpy gathers over a
feature-major copy of the batch, with no per-node or per-row Python.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IsoguardError, artifact_reader, checked_int
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


@dataclass(frozen=True, eq=False)
class ITree:
    """One isolation tree; node 0 is the root and every child id exceeds its parent's.

    Rows with ``x[feature] < threshold`` go to ``left``, all others (NaN
    included) to ``right``. At a leaf ``feature`` is -1, ``threshold`` is
    NaN and both children are the leaf's own id.
    """

    feature: np.ndarray  # int64
    threshold: np.ndarray  # float64
    left: np.ndarray  # int64
    right: np.ndarray  # int64
    size: np.ndarray  # int64 training rows that reached the node
    depth: np.ndarray  # int64 edges from the root


@dataclass
class IsolationForest:
    trees: list[ITree]
    t: int
    m: int
    height_limit: int
    seed: int
    n_features: int


@dataclass(frozen=True, slots=True)
class AnomalyScore:
    s: float
    mean_path_length: float


@dataclass(frozen=True, slots=True)
class OutlierVerdict:
    label: int  # +1 normal, -1 outlier
    score: AnomalyScore


class _Nodes:
    """The per-node columns of a tree being written in pre-order."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.size: list[int] = []
        self.depth: list[int] = []

    def add_leaf(self, size: int, depth: int) -> int:
        """Append a leaf and return its id; a caller may turn it into a split."""
        i = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(math.nan)
        self.left.append(i)
        self.right.append(i)
        self.size.append(size)
        self.depth.append(depth)
        return i

    def tree(self) -> ITree:
        ints = (np.array(a, dtype=np.int64) for a in (self.left, self.right, self.size, self.depth))
        return ITree(np.array(self.feature, dtype=np.int64), np.array(self.threshold, dtype=np.float64), *ints)


def build_itree(sample: np.ndarray, height_limit: int, rng: np.random.Generator) -> ITree:
    """Grow one isolation tree over ``sample`` (rows x features).

    A node goes external when it holds <= 1 row, the height limit is
    reached, or no feature varies within the node. Nodes are numbered and
    their draws taken in depth-first pre-order, left subtree first.
    """
    nodes = _Nodes()

    def grow(rows: np.ndarray, d: int) -> int:
        n = rows.shape[0]
        if n == 0:
            raise IsoguardError("cannot build a tree over an empty sample")
        i = nodes.add_leaf(n, d)
        if n <= 1 or d >= height_limit:
            return i
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        varying = np.flatnonzero(hi > lo)
        if varying.size == 0:
            return i
        f = int(varying[rng.integers(varying.size)])
        split = float(rng.uniform(lo[f], hi[f]))
        if split <= lo[f]:  # guard against a degenerate float draw
            split = float(np.nextafter(lo[f], hi[f]))
        mask = rows[:, f] < split
        nodes.feature[i] = f
        nodes.threshold[i] = split
        nodes.left[i] = grow(rows[mask], d + 1)
        nodes.right[i] = grow(rows[~mask], d + 1)
        return i

    grow(sample, 0)
    return nodes.tree()


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
    if np.isinf(X).any():
        raise IsoguardError("cannot fit on a matrix that holds an infinite value")
    with np.errstate(over="ignore"):
        span = np.fmax.reduce(X) - np.fmin.reduce(X)  # NaN only for an all-NaN column
    overflowing = np.flatnonzero(np.isinf(span))
    if overflowing.size:
        raise IsoguardError(f"cannot fit on column {overflowing[0]}: its max - min overflows")
    height_limit = math.ceil(math.log2(m))

    def _one(i: int) -> ITree:
        rng = np.random.default_rng(derive_seed(seed, "tree", i))
        sample_idx = rng.choice(n, size=m, replace=False)
        return build_itree(X[sample_idx], height_limit, rng)

    trees = [_one(i) for i in range(t)]
    return IsolationForest(trees=trees, t=t, m=m, height_limit=height_limit, seed=seed, n_features=X.shape[1])


def _walk(tree: ITree, XT: np.ndarray, rows: np.ndarray, c: np.ndarray, height_limit: int) -> np.ndarray:
    """Path length h(x) of every row in one tree: edges walked plus c(size) at the reached leaf.

    ``XT`` is the batch flattened feature-major, so row r's value of
    feature f sits at ``f * n + r``. Node ids are kept doubled: slot
    ``2i`` holds node i's right child and ``2i + 1`` its left, so adding
    ``x < threshold`` picks the branch. A leaf routes to itself, which
    lets every row take exactly ``height_limit`` steps.
    """
    n = rows.size
    offset = np.repeat(np.maximum(tree.feature, 0) * n, 2)  # a leaf reads column 0, then stays put
    threshold = np.repeat(tree.threshold, 2)
    child = 2 * np.stack((tree.right, tree.left), axis=1).ravel()
    node = np.zeros(n, dtype=np.int64)
    for _ in range(height_limit):
        node = child.take(node + (XT.take(offset.take(node) + rows) < threshold.take(node)))
    return np.repeat(tree.depth + c.take(tree.size), 2).take(node)


def mean_path_lengths(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """E(h(x)) per row: average path length across all trees."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise IsoguardError(
            f"feature count mismatch: forest expects {forest.n_features}, got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    XT = np.ascontiguousarray(X.T).ravel()
    rows = np.arange(X.shape[0])
    c = np.array([expected_path_length(size) for size in range(forest.m + 1)])
    depths = run_indexed(lambda i: _walk(forest.trees[i], XT, rows, c, forest.height_limit), forest.t)
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


def label_scores(s: np.ndarray, threshold: float | None = None, contamination: float | None = None) -> np.ndarray:
    """Label every score +1 (normal) or -1 (outlier).

    Fixed-threshold mode (default threshold 0.5) labels -1 iff s >= threshold;
    the boundary score counts as an outlier. Contamination mode labels -1 the
    top ceil(fraction * n) scores, ties broken by ascending row index.
    """
    if threshold is not None and contamination is not None:
        raise IsoguardError("pass either a fixed threshold or a contamination fraction, not both")
    if contamination is None:
        return np.where(s >= (0.5 if threshold is None else threshold), -1, 1)
    if not 0.0 < contamination <= 0.5:
        raise IsoguardError(f"contamination must be in (0, 0.5], got {contamination}")
    labels = np.ones(s.size, dtype=np.int64)
    labels[np.argsort(-s, kind="stable")[: math.ceil(contamination * s.size)]] = -1
    return labels


def predict(
    forest: IsolationForest,
    X: np.ndarray,
    threshold: float | None = None,
    contamination: float | None = None,
) -> list[OutlierVerdict]:
    """``label_scores`` of every row of X, boxed as one OutlierVerdict per row."""
    s, mean_h = score_batch(forest, X)
    labels = label_scores(s, threshold, contamination)
    return [
        OutlierVerdict(lbl, AnomalyScore(si, hi))
        for lbl, si, hi in zip(labels.tolist(), s.tolist(), mean_h.tolist())
    ]


def _tree_to_doc(tree: ITree, i: int = 0) -> dict:
    if tree.feature[i] < 0:
        return {"size": int(tree.size[i])}
    return {
        "feature": int(tree.feature[i]),
        "value": float(tree.threshold[i]),
        "left": _tree_to_doc(tree, int(tree.left[i])),
        "right": _tree_to_doc(tree, int(tree.right[i])),
    }


def _tree_from_doc(doc: dict, n_features: int, height_limit: int, m: int) -> ITree:
    """Flatten one nested tree document, checking it is a binary tree no
    deeper than ``height_limit`` whose leaves hold >= 1 row and m in all."""
    nodes = _Nodes()

    def visit(node: dict, d: int) -> int:
        if d > height_limit:
            raise IsoguardError(f"tree deeper than height_limit {height_limit}")
        i = nodes.add_leaf(0, d)
        if "size" in node:
            nodes.size[i] = checked_int(node["size"], "leaf size", 1)
            return i
        nodes.feature[i] = checked_int(node["feature"], "split feature", 0, n_features)
        nodes.threshold[i] = float(node["value"])
        left = nodes.left[i] = visit(node["left"], d + 1)
        right = nodes.right[i] = visit(node["right"], d + 1)
        nodes.size[i] = nodes.size[left] + nodes.size[right]
        return i

    visit(doc, 0)
    if nodes.size[0] != m:
        raise IsoguardError(f"tree leaves hold {nodes.size[0]} rows, expected m = {m}")
    return nodes.tree()


def forest_to_json(forest: IsolationForest) -> str:
    """Serialize to JSON; float values round-trip exactly, so a reloaded
    forest reproduces scores bit for bit."""
    doc = {
        "t": forest.t,
        "m": forest.m,
        "height_limit": forest.height_limit,
        "seed": forest.seed,
        "n_features": forest.n_features,
        "trees": [_tree_to_doc(tree) for tree in forest.trees],
    }
    return json.dumps(doc, sort_keys=True)


def forest_from_json(text: str) -> IsolationForest:
    """Parse a forest document; anything but t well-formed trees raises IsoguardError."""
    doc = json.loads(text)
    t = checked_int(doc["t"], "t", 1)
    m = checked_int(doc["m"], "m", 2)
    n_features = checked_int(doc["n_features"], "n_features", 1)
    height_limit = checked_int(doc["height_limit"], "height_limit", 1)
    if height_limit != math.ceil(math.log2(m)):
        raise IsoguardError(f"height_limit {height_limit!r} does not match m = {m}")
    if len(doc["trees"]) != t:
        raise IsoguardError(f"holds {len(doc['trees'])} trees, expected t = {t}")
    return IsolationForest(
        trees=[_tree_from_doc(tree, n_features, height_limit, m) for tree in doc["trees"]],
        t=t,
        m=m,
        height_limit=height_limit,
        seed=checked_int(doc["seed"], "seed"),
        n_features=n_features,
    )


def save_forest(forest: IsolationForest, path: str | Path) -> None:
    Path(path).write_text(forest_to_json(forest) + "\n", encoding="utf-8")


def load_forest(path: str | Path) -> IsolationForest:
    with artifact_reader(path):
        return forest_from_json(Path(path).read_text(encoding="utf-8"))
