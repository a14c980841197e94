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

Each tree is three arrays in depth-first pre-order: the split feature of
every node (-1 at a leaf), the threshold of every split and the
training-row count of every leaf. That one form is used in memory and in
forest.json. The split/leaf flags fix a full binary tree (Jacobson's
succinct trees), so the loader checks that they form one, and scoring
derives every node's children and depth for all trees at once. Scoring
splits a batch's rows into one block per worker, never more blocks than
rows; a block walks its rows through a few trees at a time, a level at a
time: ``height_limit`` steps of numpy gathers over a feature-major copy
of the batch, with no per-node or per-row Python. Each tree's path
lengths go into a running sum per row, in tree order, so no trees x rows
matrix is held, and the score divides the sums by t.

``predict`` returns a ``Verdicts``: the batch's labels, scores and mean
path lengths as three read-only arrays. Only the benchmark gate reads it
row by row, by iterating it.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Annotated

import numpy as np

from .codec import IntArray, check_fields, from_doc, to_doc
from .errors import IsoguardError, artifact_reader, checked_real
from .parallel import run_indexed, worker_count
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
    """One isolation tree, in depth-first pre-order, left subtree first.

    ``feature`` holds every node's split feature, -1 at a leaf;
    ``threshold`` one value per split and ``leaf_size`` the training rows
    of each leaf, both in pre-order. Rows with ``x[feature] < threshold``
    go left, all others (NaN included) right. The split/leaf flags fix
    every link, so this is also a tree's form in forest.json, and scoring
    derives the links.
    """

    feature: IntArray
    threshold: np.ndarray
    leaf_size: IntArray


@dataclass
class IsolationForest:
    trees: list[ITree]
    t: Annotated[int, ">= 1"]
    m: Annotated[int, ">= 2"]
    height_limit: int
    seed: int
    n_features: Annotated[int, ">= 1"]


@dataclass(frozen=True, slots=True)
class AnomalyScore:
    s: float
    mean_path_length: float


@dataclass(frozen=True, slots=True)
class OutlierVerdict:
    label: int  # +1 normal, -1 outlier
    score: AnomalyScore


@dataclass(frozen=True, eq=False)
class Verdicts:
    """``predict``'s result for a batch: per row its label (int64, +1
    normal, -1 outlier), its score s and its mean path length E(h), as
    three read-only arrays.

    Iterating it yields each row's ``OutlierVerdict``, with Python int
    and float values, built as it is reached; the benchmark gate is the
    one reader that does. ROADMAP item 4 deletes ``__iter__``,
    ``OutlierVerdict`` and ``AnomalyScore`` once that gate reads arrays.
    """

    labels: IntArray
    scores: np.ndarray
    mean_path_lengths: np.ndarray

    def __post_init__(self) -> None:
        for name in ("labels", "scores", "mean_path_lengths"):
            view = np.asarray(getattr(self, name)).view()  # read-only without freezing the caller's array
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __iter__(self) -> Iterator[OutlierVerdict]:
        for label, s, mean_h in zip(self.labels.tolist(), self.scores.tolist(), self.mean_path_lengths.tolist()):
            yield OutlierVerdict(label, AnomalyScore(s, mean_h))


def build_itree(sample: np.ndarray, height_limit: int, rng: np.random.Generator) -> ITree:
    """Grow one isolation tree over ``sample`` (rows x features).

    A node goes external when it holds <= 1 row, the height limit is
    reached, or no feature varies within the node. Nodes are written and
    their draws taken in depth-first pre-order, left subtree first.
    """
    feature: list[int] = []
    threshold: list[float] = []
    leaf_size: list[int] = []

    def grow(rows: np.ndarray, d: int) -> None:
        n = rows.shape[0]
        if n == 0:
            raise IsoguardError("cannot build a tree over an empty sample")
        if n > 1 and d < height_limit:
            lo = rows.min(axis=0)
            hi = rows.max(axis=0)
            varying = np.flatnonzero(hi > lo)
            if varying.size:
                f = int(varying[rng.integers(varying.size)])
                split = float(rng.uniform(lo[f], hi[f]))
                if split <= lo[f]:  # guard against a degenerate float draw
                    split = float(np.nextafter(lo[f], hi[f]))
                feature.append(f)
                threshold.append(split)
                mask = rows[:, f] < split
                grow(rows[mask], d + 1)
                grow(rows[~mask], d + 1)
                return
        feature.append(-1)
        leaf_size.append(n)

    grow(sample, 0)
    return ITree(
        np.array(feature, dtype=np.int64), np.array(threshold, dtype=np.float64), np.array(leaf_size, dtype=np.int64)
    )


def _as_matrix(X) -> np.ndarray:
    """``X`` as a 2-D float64 matrix. NaN and infinite cells pass: fitting
    refuses an infinite one, and scoring takes both."""
    try:
        X = np.asarray(X, dtype=np.float64)
    except (TypeError, ValueError) as e:  # a string or object cell, or ragged rows
        raise IsoguardError(f"expected a matrix of numbers: {e}") from None
    if X.ndim != 2:
        raise IsoguardError(f"expected a 2-D matrix, got shape {X.shape}")
    return X


def fit_forest(X: np.ndarray, t: int = 100, m: int = 256, seed: int = 0) -> IsolationForest:
    """Build t isolation trees, each over its own without-replacement subsample of size m.

    ``t``, ``m`` and ``seed`` meet the rules of ``IsolationForest``'s fields
    of those names, so every forest this returns saves. Per-tree seeds are
    derived from the master seed, so the result does not depend on build
    order. Trees are built serially: the build is GIL-bound Python, which
    threads only slow down.
    """
    check_fields(IsolationForest, t=t, m=m, seed=seed)
    X = _as_matrix(X)
    n = X.shape[0]
    if n < 2:
        raise IsoguardError(f"need at least 2 rows to fit, got {n}")
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


@dataclass(frozen=True)
class _Nodes:
    """Every node of a list of trees, laid end to end, with global node ids."""

    root: IntArray  # per tree, its root's id
    feature: IntArray
    threshold: np.ndarray  # 0.0 at a leaf
    left: IntArray  # a leaf's children are the leaf itself
    right: IntArray
    depth: IntArray  # edges from the tree's root
    leaf_size: IntArray  # 0 at a split


def _balance(feature: np.ndarray, root: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each node's step, +1 at a split and -1 at a leaf, and the running
    balance after it, counted within its tree from 0 before the root."""
    step = np.where(feature == -1, -1, 1)
    after = np.cumsum(step)
    after -= np.repeat(after[root] - step[root], counts)
    return step, after


def _nodes(trees: list[ITree]) -> _Nodes:
    """The walk tables of ``trees``, each a full binary tree in pre-order.

    The split/leaf flags alone fix a tree: a node's subtree ends at the
    first node from it whose balance after it is one below the balance
    before it. All trees are derived together, with no Python per node.
    """
    counts = np.array([tree.feature.size for tree in trees])
    root = np.cumsum(counts) - counts
    feature = np.concatenate([tree.feature for tree in trees])
    n = feature.size
    step, after = _balance(feature, root, counts)
    ids = np.arange(n)
    # sorted by (balance after the node, node), so one search finds, from any node on, the first that leaves a balance
    keys = np.sort((after + 1) * n + ids)
    end = keys[np.searchsorted(keys, (after - step) * n + ids)] % n
    leaf = step < 0
    split = ids[~leaf]
    # a node's depth counts the splits above it, whose (split, end] ranges hold it: a difference array over those ranges
    depth = np.cumsum(np.bincount(split + 1, minlength=n + 1) - np.bincount(end[split] + 1, minlength=n + 1))[:-1]
    threshold = np.zeros(n)
    threshold[split] = np.concatenate([tree.threshold for tree in trees])
    left, right = ids.copy(), ids.copy()
    left[split] = split + 1
    right[split] = end[split + 1] + 1
    leaf_size = np.zeros(n, dtype=np.int64)
    leaf_size[leaf] = np.concatenate([tree.leaf_size for tree in trees])
    return _Nodes(root, feature, threshold, left, right, depth, leaf_size)


def _walk_tables(forest: IsolationForest, n: int) -> tuple[np.ndarray, ...]:
    """Per tree its root's doubled id, and per doubled node id the offset of
    its feature's column in a feature-major batch of n rows, its threshold,
    its child and the path length h of a row that ends there. The derivation's
    own arrays are freed on return, before any row is walked."""
    c = np.array([expected_path_length(size) for size in range(forest.m + 1)])
    nodes = _nodes(forest.trees)
    offset = np.repeat(np.maximum(nodes.feature, 0) * n, 2)  # a leaf reads column 0, then stays put
    threshold = np.repeat(nodes.threshold, 2)
    child = 2 * np.stack((nodes.right, nodes.left), axis=1).ravel()
    h = np.repeat(nodes.depth + c.take(nodes.leaf_size), 2)
    return 2 * nodes.root, offset, threshold, child, h


def mean_path_lengths(forest: IsolationForest, X: np.ndarray) -> np.ndarray:
    """E(h(x)) per row: average path length across all trees.

    h(x) in one tree is the edges walked plus c(size) at the reached leaf.
    ``XT`` is the batch flattened feature-major, so row r's value of
    feature f sits at ``f * n + r``. Node ids are kept doubled: slot
    ``2i`` holds node i's right child and ``2i + 1`` its left, so adding
    ``x < threshold`` picks the branch. A leaf routes to itself, which
    lets every row take exactly ``height_limit`` steps.

    The rows split into one contiguous block per worker, at most one per
    row, so a one-row batch starts no thread pool. A block walks as many
    trees at a time as there are blocks, one row of ``node`` each, so every
    numpy call still covers about n row-tree pairs, and adds each tree's
    path lengths to its rows' running sums in tree order: the bits of
    averaging a trees x rows matrix down its columns, for any worker count.
    """
    X = _as_matrix(X)
    if X.shape[1] != forest.n_features:
        raise IsoguardError(f"feature count mismatch: forest expects {forest.n_features}, got {X.shape[1]}")
    n = X.shape[0]
    XT = np.ascontiguousarray(X.T).ravel()
    root, offset, threshold, child, h = _walk_tables(forest, n)
    blocks = min(worker_count(), n)
    total = np.zeros(n)

    def _block(b: int) -> None:
        lo, hi = n * b // blocks, n * (b + 1) // blocks
        rows = np.arange(lo, hi)
        block_total = total[lo:hi]
        for first in range(0, forest.t, blocks):
            node = np.repeat(root[first : first + blocks, None], rows.size, axis=1)
            for _ in range(forest.height_limit):
                node = child.take(node + (XT.take(offset.take(node) + rows) < threshold.take(node)))
            for path_lengths in h.take(node):
                block_total += path_lengths

    run_indexed(_block, blocks)
    total /= forest.t
    return total


def score_batch(forest: IsolationForest, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Anomaly scores and mean path lengths for every row of X."""
    mean_h = mean_path_lengths(forest, X)
    c = expected_path_length(forest.m)
    return np.power(2.0, -mean_h / c), mean_h


def label_scores(s: np.ndarray, threshold: float | None = None, contamination: float | None = None) -> np.ndarray:
    """Label every score +1 (normal) or -1 (outlier).

    Fixed-threshold mode (default threshold 0.5, in (0, 1]) labels -1 iff
    s >= threshold; the boundary score counts as an outlier. Contamination
    mode labels -1 the top ceil(fraction * n) scores, ties broken by
    ascending row index. Either value is a real number or a 0-d float
    array; a bool is refused, not read as 1.0.
    """
    if threshold is not None and contamination is not None:
        raise IsoguardError("pass either a fixed threshold or a contamination fraction, not both")
    if contamination is None:
        threshold = 0.5 if threshold is None else checked_real(threshold, "threshold")
        if not 0.0 < threshold <= 1.0:  # scores lie in (0, 1]; a NaN threshold would label every row normal
            raise IsoguardError(f"threshold must be in (0, 1], got {threshold}")
        return np.where(s >= threshold, -1, 1)
    contamination = checked_real(contamination, "contamination")
    if not 0.0 < contamination <= 0.5:
        raise IsoguardError(f"contamination must be in (0, 0.5], got {contamination}")
    # counted on the fraction's decimal value: 0.07 of 100 rows is 7, where the float product is 7.000000000000001
    n_flagged = math.ceil(Fraction(str(contamination)) * s.size)
    labels = np.ones(s.size, dtype=np.int64)
    labels[np.argsort(-s, kind="stable")[:n_flagged]] = -1
    return labels


def predict(
    forest: IsolationForest,
    X: np.ndarray,
    threshold: float | None = None,
    contamination: float | None = None,
) -> Verdicts:
    """``score_batch`` and ``label_scores`` of every row of X, as arrays:
    ``.labels``, ``.scores`` and ``.mean_path_lengths``. No per-row object
    is built."""
    s, mean_h = score_batch(forest, X)
    return Verdicts(label_scores(s, threshold, contamination), s, mean_h)


def _check_trees(forest: IsolationForest) -> None:
    """Raise unless each tree is one full binary tree in pre-order within
    the forest's bounds: with a running balance of +1 per split and -1 per
    leaf, counted from 0 before the root, only the last node ends below 0."""
    trees = forest.trees
    for j, tree in enumerate(trees):
        for column in ("feature", "threshold", "leaf_size"):
            ndim = getattr(tree, column).ndim
            if ndim != 1:
                raise IsoguardError(f"trees[{j}].{column} must be a flat list of numbers, got {ndim} levels of nesting")
    counts = np.array([tree.feature.size for tree in trees])
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise IsoguardError(f"trees[{empty[0]}]: feature must hold at least one node")
    root = np.cumsum(counts) - counts
    tree_of = np.repeat(np.arange(counts.size), counts)
    feature = np.concatenate([tree.feature for tree in trees])
    bad = np.flatnonzero((feature < -1) | (feature >= forest.n_features))
    if bad.size:
        j, got = tree_of[bad[0]], feature[bad[0]]
        raise IsoguardError(f"trees[{j}]: split feature must be an integer in [0, {forest.n_features}), got {got}")
    _, after = _balance(feature, root, counts)
    last = np.zeros(feature.size, dtype=bool)
    last[root + counts - 1] = True
    bad = np.flatnonzero((after < 0) != last)
    if bad.size:
        raise IsoguardError(f"trees[{tree_of[bad[0]]}]: split/leaf flags do not form one full binary tree in pre-order")
    for column, n_nodes, noun in (("threshold", counts // 2, "split"), ("leaf_size", counts // 2 + 1, "leaf")):
        held = np.array([getattr(tree, column).size for tree in trees])
        bad = np.flatnonzero(held != n_nodes)
        if bad.size:
            j = bad[0]
            raise IsoguardError(f"trees[{j}]: holds {held[j]} {column} values for {n_nodes[j]} {noun} nodes")
    leaf_size = np.concatenate([tree.leaf_size for tree in trees])
    bad = np.flatnonzero((leaf_size < 1) | (leaf_size > forest.m))
    if bad.size:
        j, got = tree_of[feature == -1][bad[0]], leaf_size[bad[0]]
        raise IsoguardError(f"trees[{j}]: leaf size must be an integer in [1, {forest.m}], got {got}")
    total = np.array([tree.leaf_size.sum() for tree in trees])
    bad = np.flatnonzero(total != forest.m)
    if bad.size:
        raise IsoguardError(f"trees[{bad[0]}]: tree leaves hold {total[bad[0]]} rows, expected m = {forest.m}")
    bad = np.flatnonzero(_nodes(trees).depth > forest.height_limit)
    if bad.size:
        raise IsoguardError(f"trees[{tree_of[bad[0]]}]: tree deeper than height_limit {forest.height_limit}")


def forest_to_json(forest: IsolationForest) -> str:
    """Serialize to JSON, each tree as its pre-order ``feature``, split
    ``threshold``s and ``leaf_size``s. Raises unless ``forest_from_json``
    accepts the text, so every saved file loads. Float values round-trip
    exactly, so a reloaded forest reproduces scores bit for bit."""
    text = json.dumps(to_doc(forest), sort_keys=True, separators=(",", ":"))
    forest_from_json(text)
    return text


def forest_from_json(text: str) -> IsolationForest:
    """Parse a forest document; anything but t well-formed trees raises IsoguardError."""
    forest = from_doc(IsolationForest, json.loads(text), "forest")
    if forest.height_limit != math.ceil(math.log2(forest.m)):
        raise IsoguardError(f"height_limit {forest.height_limit!r} does not match m = {forest.m}")
    if len(forest.trees) != forest.t:
        raise IsoguardError(f"holds {len(forest.trees)} trees, expected t = {forest.t}")
    _check_trees(forest)
    return forest


def save_forest(forest: IsolationForest, path: str | Path) -> None:
    Path(path).write_text(forest_to_json(forest) + "\n", encoding="utf-8")


def load_forest(path: str | Path) -> IsolationForest:
    with artifact_reader(path):
        return forest_from_json(Path(path).read_text(encoding="utf-8"))
