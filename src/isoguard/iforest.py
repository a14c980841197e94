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
the leaf itself. forest.json stores exactly these arrays, one set per
tree, and the loader checks that they link up into such a tree. Scoring
walks every row of a batch through one tree a level at a time:
``height_limit`` steps of numpy gathers over a feature-major copy of the
batch, with no per-node or per-row Python.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .codec import IntArray, from_doc, to_doc
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
    """One tree of either forest; node 0 is the root and every child id exceeds its parent's.

    Rows with ``x[feature] < threshold`` go to ``left``, all others (NaN
    included) to ``right``. At a leaf ``feature`` is -1, ``threshold`` is
    0.0 (never read, like scikit-learn's ``TREE_UNDEFINED``) and both
    children are the leaf's own id. The same six arrays, as lists, are an
    isolation tree's entry in forest.json.
    """

    feature: IntArray
    threshold: np.ndarray
    left: IntArray
    right: IntArray
    size: IntArray  # training rows that reached the node
    depth: IntArray  # edges from the root


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


class TreeWriter:
    """The per-node columns of a tree being written in pre-order; both the
    isolation trees and feature_selection's extra-trees are grown through it."""

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
        self.threshold.append(0.0)
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
    nodes = TreeWriter()

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
    # counted on the fraction's decimal value: 0.07 of 100 rows is 7, where the float product is 7.000000000000001
    n_flagged = math.ceil(Fraction(str(float(contamination))) * s.size)
    labels = np.ones(s.size, dtype=np.int64)
    labels[np.argsort(-s, kind="stable")[:n_flagged]] = -1
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


def _check_tree(tree: ITree, j: int, forest: IsolationForest) -> None:
    """Raise unless tree ``j`` is a binary tree in ``forest``'s bounds: a leaf
    (feature -1) is its own two children, every other node has exactly one
    parent, which precedes it, depths follow the links up to height_limit,
    and each split holds the rows of its two children, down to leaves of
    1..m rows that hold m in all."""

    def fail(message: str):
        raise IsoguardError(f"trees[{j}]: {message}")

    k = tree.feature.size
    shapes = [a.shape for a in (tree.feature, tree.threshold, tree.left, tree.right, tree.size, tree.depth)]
    if k == 0 or shapes != [(k,)] * 6:
        fail(f"node arrays must share one non-zero length, got shapes {shapes}")
    bad = tree.feature[(tree.feature < -1) | (tree.feature >= forest.n_features)]
    if bad.size:
        fail(f"split feature must be an integer in [0, {forest.n_features}), got {bad[0]}")
    ids = np.arange(k)
    leaf = tree.feature == -1
    if (leaf & ((tree.left != ids) | (tree.right != ids))).any():
        fail("a leaf's children must be the leaf itself")
    split = ids[~leaf]
    parents = np.concatenate((split, split))
    children = np.concatenate((tree.left[split], tree.right[split]))
    if ((children <= parents) | (children >= k)).any():
        fail("a split's children must be later nodes of the tree")
    if (np.bincount(children, minlength=k) != (ids > 0)).any():
        fail("every node but the root must have exactly one parent")
    if tree.depth[0] != 0 or (tree.depth[children] != tree.depth[parents] + 1).any():
        fail("node depths do not match the child links")
    if tree.depth.max() > forest.height_limit:
        fail(f"tree deeper than height_limit {forest.height_limit}")
    leaf_size = tree.size[leaf]
    bad = leaf_size[(leaf_size < 1) | (leaf_size > forest.m)]
    if bad.size:
        fail(f"leaf size must be an integer in [1, {forest.m}], got {bad[0]}")
    if leaf_size.sum() != forest.m:
        fail(f"tree leaves hold {leaf_size.sum()} rows, expected m = {forest.m}")
    if (tree.size[split] != tree.size[tree.left[split]] + tree.size[tree.right[split]]).any():
        fail("a split's size must be the sum of its children's")


def forest_to_json(forest: IsolationForest) -> str:
    """Serialize to JSON; float values round-trip exactly, so a reloaded
    forest reproduces scores bit for bit."""
    return json.dumps(to_doc(forest), sort_keys=True)


def forest_from_json(text: str) -> IsolationForest:
    """Parse a forest document; anything but t well-formed trees raises IsoguardError."""
    forest = from_doc(IsolationForest, json.loads(text), "forest")
    checked_int(forest.t, "t", 1)
    checked_int(forest.m, "m", 2)
    checked_int(forest.n_features, "n_features", 1)
    if forest.height_limit != math.ceil(math.log2(forest.m)):
        raise IsoguardError(f"height_limit {forest.height_limit!r} does not match m = {forest.m}")
    if len(forest.trees) != forest.t:
        raise IsoguardError(f"holds {len(forest.trees)} trees, expected t = {forest.t}")
    for j, tree in enumerate(forest.trees):
        _check_tree(tree, j, forest)
    return forest


def save_forest(forest: IsolationForest, path: str | Path) -> None:
    Path(path).write_text(forest_to_json(forest) + "\n", encoding="utf-8")


def load_forest(path: str | Path) -> IsolationForest:
    with artifact_reader(path):
        return forest_from_json(Path(path).read_text(encoding="utf-8"))
