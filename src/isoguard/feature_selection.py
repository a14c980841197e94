"""Feature ranking with extremely randomized trees, plus recursive elimination.

Each tree trains on the full sample (no bootstrap). At every node a
pseudo-random subset of ceil(sqrt(d)) candidate features is drawn, one
uniform threshold between each candidate's node-local min and max, and the
candidate with the greatest Gini impurity decrease wins. All draws are
keyed by (seed, tree, node, feature key) hashes: no tree depends on the
order in which trees are built, and permuting columns together with their
keys permutes the result identically.

Each tree is an ``iforest.ITree``, the isolation forest's one tree form
(pre-order split features, split thresholds and leaf sizes), written by
its ``TreeWriter``. The node in a draw key is not the array index: it
counts, in pre-order, only the nodes that reach the draw, so a leaf cut
off by purity, size or depth takes no id.

The trees of one fit grow in lockstep. Each tree keeps its own stack of
pending nodes and pops them in pre-order, left child first, writing the
nodes that are cut off as leaves, until it reaches a node that draws. One
step gathers that node from every live tree and finds all their best
splits with one set of numpy calls over the concatenated rows (node-local
bounds by ``reduceat``, thresholds, class counts, Gini, a per-node
argmax). A short Python pass then writes each of those nodes into its
tree, as a split or, when no candidate splits, as a leaf, and pushes the
children. A tree takes no further step until its drawing node is
written, so its nodes still go out in pre-order. The draws stay per tree
and in pre-order, because a node's id, and so its hashes, depend on how
many nodes before it in its own tree reached the draw: a level-by-level
or cross-tree numbering would draw different numbers. Each tree also
keeps its own importance row, summed in its own pre-order, so every
result equals a tree built alone.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import from_doc, to_doc
from .errors import IsoguardError, artifact_reader, checked_labels, checked_matrix
from .iforest import ITree, TreeWriter
from .parallel import run_indexed  # noqa: F401  (not called here; perfbench's tracer rebinds it)
from .prng import extend_hashes, hash64, unit_uniforms

_CANDIDATE_TAG = 0x5EED_CA9D
_THRESHOLD_TAG = 0x5EED_7442
_DRAW_BLOCK = 64  # node ids whose draws are hashed in one batch


@dataclass(frozen=True)
class ExtraTreesParams:
    n_trees: int = 50
    max_depth: int | None = None
    min_samples_split: int = 2
    seed: int = 0


@dataclass
class ExtraTreesEstimator:
    trees: list[ITree]  # split features are column indices within the fitted matrix
    # per-tree importances normalized to sum 1; None for trees with no split
    tree_importances: list[np.ndarray | None]

    @property
    def importances(self) -> np.ndarray:
        """Mean over trees of per-tree normalized impurity decrease; nonnegative, summing to 1."""
        vecs = [v for v in self.tree_importances if v is not None]
        if not vecs:
            raise IsoguardError("no split anywhere in the ensemble; importances are undefined")
        return np.mean(np.stack(vecs, axis=0), axis=0)


@dataclass(frozen=True)
class RfeResult:
    selected: tuple[int, ...]  # surviving indices in original column order
    trace: tuple[tuple[int, int, float], ...]  # (round, removed feature, importance)
    final_importances: np.ndarray = field(default_factory=lambda: np.empty(0))


def _gini_counts(n0: np.ndarray | float, n1: np.ndarray | float) -> np.ndarray | float:
    total = n0 + n1
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - p0 * p0 - p1 * p1


def _node_draws(
    tree_hash: int, first: int, count: int, keys: np.ndarray, n_candidates: int
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate columns and threshold uniforms for node ids first..first+count-1.

    Node ``i`` of a tree draws from hash64(seed, tree, i, tag). The draws
    depend on those hashes and the feature keys only, never on the data,
    so a block of node ids is drawn at once.
    """
    ids = np.arange(first, first + count, dtype=np.uint64)
    cand_base = extend_hashes(tree_hash, ids, _CANDIDATE_TAG)
    order = np.argsort(unit_uniforms(cand_base[:, None], keys), axis=1, kind="stable")
    candidates = order[:, :n_candidates]
    thr_base = extend_hashes(tree_hash, ids, _THRESHOLD_TAG)
    return candidates, unit_uniforms(thr_base[:, None], keys[candidates])


class _GrowingTree:
    """One tree of a lockstep build: its writer, its stack of pending nodes,
    its importance row and its own draw-id counter and draw blocks."""

    __slots__ = ("nodes", "stack", "importances", "tree_hash", "blocks", "next_id")

    def __init__(self, tree_hash: int, importances: np.ndarray, root: tuple[np.ndarray, int]) -> None:
        self.nodes = TreeWriter()
        self.stack: list[tuple[np.ndarray, int, int]] = [(*root, 0)]  # (rows, class-1 count, depth)
        self.importances = importances
        self.tree_hash = tree_hash
        self.blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (candidates, draws) per _DRAW_BLOCK ids
        self.next_id = 0

    def next_draw(
        self, keys: np.ndarray, n_candidates: int, min_split: int, max_depth: int | None
    ) -> tuple[np.ndarray, int, int, np.ndarray, np.ndarray] | None:
        """Write pending nodes in pre-order as leaves up to the first that
        draws, and return that one, unwritten, as (rows, class-1 count,
        depth, candidates, draws); None once the tree is complete."""
        stack = self.stack
        while stack:
            rows, n1, depth = stack.pop()
            n_node = rows.size
            if n1 == 0 or n1 == n_node or n_node < min_split or (max_depth is not None and depth >= max_depth):
                self.nodes.leaf(n_node)
                continue
            # depth-first pre-order ids of the nodes that draw: they decide
            # which hashes a node draws, so a leaf cut off above takes none
            block, slot = divmod(self.next_id, _DRAW_BLOCK)
            if block == len(self.blocks):
                self.blocks.append(_node_draws(self.tree_hash, self.next_id, _DRAW_BLOCK, keys, n_candidates))
            self.next_id += 1
            candidates, draws = self.blocks[block]
            return rows, n1, depth, candidates[slot], draws[slot]
        return None


def _best_splits(
    X: np.ndarray, rows: Sequence[np.ndarray], n1: Sequence[int], candidates: np.ndarray, draws: np.ndarray
) -> tuple[list[tuple[float, int, float, int, int]], np.ndarray, np.ndarray]:
    """The best candidate split of every node in a batch, in one set of numpy calls.

    Node ``b`` holds ``rows[b]``, its ``n1[b]`` class-1 rows first, and
    draws candidate columns ``candidates[b]`` with threshold uniforms
    ``draws[b]``. Returns, per node, the best candidate's impurity
    decrease (not finite when no candidate splits), its column, its
    threshold, and the size and class-1 count of its left side; then the
    rows that go left and the rows that go right, each concatenated in
    node order, so each child's class-1 rows still come first.

    The work arrays hold one row per candidate slot and one column per
    row of the batch (or per node), so every reduction runs along
    contiguous memory.
    """
    k = candidates.shape[1]
    # the class-1 rows, then the class-0 rows, of each node: both classes
    # are present at a node that draws, so no part is empty
    part_sizes = np.array([size for r, a in zip(rows, n1) for size in (a, r.size - a)])
    sizes = part_sizes[0::2] + part_sizes[1::2]
    parts = np.cumsum(part_sizes) - part_sizes
    starts = parts[0::2]
    rows_all = np.concatenate(rows)
    # X[rows_all, candidates of each row's node].T, gathered from the flat matrix
    sub = X.ravel().take(rows_all * X.shape[1] + candidates.T.repeat(sizes, axis=1))
    lo = np.minimum.reduceat(sub, starts, axis=1)
    hi = np.maximum.reduceat(sub, starts, axis=1)
    # a draw that rounds onto lo moves to the next float above it
    thresholds = np.maximum(lo + (hi - lo) * draws.T, np.nextafter(lo, hi))
    left_masks = sub < thresholds.repeat(sizes, axis=1)
    # per candidate, its left sides and then its right sides; per node, a
    # column of class-1 counts and a column of class-0 counts. The counts
    # are exact integers, whatever the order they are summed in.
    counts = np.empty((2 * k, parts.size))
    np.add.reduceat(left_masks, parts, axis=1, dtype=np.float64, out=counts[:k])
    np.subtract(part_sizes, counts[:k], out=counts[k:])
    c1 = counts[:, 0::2]
    c0 = counts[:, 1::2]
    # the same Gini terms as _gini_counts for all sides at once, weighted by side size
    side_sizes = c0 + c1
    p0 = c0 / side_sizes
    p0 *= p0
    p1 = c1 / side_sizes
    p1 *= p1
    side = side_sizes * (1.0 - p0 - p1)
    child_gini = (side[:k] + side[k:]) / sizes
    node_counts = part_sizes.astype(np.float64)
    parent_gini = _gini_counts(node_counts[1::2], node_counts[0::2])
    decrease = np.where(hi > lo, parent_gini - child_gini, -np.inf)

    best = decrease.argmax(axis=0)
    nodes = np.arange(best.size)
    at = (best, nodes)  # each node's best candidate in the (candidate, node) arrays
    # each row's left mask at its node's best candidate
    goes_left = left_masks.ravel().take(best.repeat(sizes) * rows_all.size + np.arange(rows_all.size))
    splits = [
        (dec, column, thr, int(n), int(a))
        for dec, column, thr, n, a in zip(
            decrease[at].tolist(),
            candidates[nodes, best].tolist(),
            thresholds[at].tolist(),
            side_sizes[at].tolist(),
            c1[at].tolist(),
        )
    ]
    return splits, rows_all[goes_left], rows_all[~goes_left]


def _build_trees(
    X: np.ndarray,
    y: np.ndarray,
    keys: np.ndarray,
    params: ExtraTreesParams,
    tree_indices: Sequence[int],
    importances: Sequence[np.ndarray],
) -> list[ITree]:
    """Grow the trees ``tree_indices`` in lockstep, adding each tree's
    weighted impurity decreases into its row of ``importances``.

    Each step takes the next drawing node of every live tree and splits
    all of them with one ``_best_splits`` call; each tree's nodes, draws
    and importance sums still follow that tree's own pre-order. ``X`` is
    C-ordered (``checked_matrix``), so ``_best_splits``' ``X.ravel()`` makes
    no copy.
    """
    n_total, d = X.shape
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    # every node's rows list its class-1 rows first; the children keep that
    # order, as each takes its rows from the parent's in order
    is_one = y == 1
    root = (np.concatenate((np.flatnonzero(is_one), np.flatnonzero(~is_one))), int(is_one.sum()))
    # hash64 is a left fold: each node only folds its id and a tag onto a tree's hash
    trees = [_GrowingTree(int(hash64(params.seed, t)), acc, root) for t, acc in zip(tree_indices, importances)]
    live = trees
    # an empty side's Gini is 0/0 = nan: masked to -inf for a constant
    # candidate, and otherwise picked by argmax, which leaves the node a leaf
    with np.errstate(invalid="ignore", divide="ignore"):
        while live:
            batch = []
            for tree in live:
                node = tree.next_draw(keys, n_candidates, params.min_samples_split, params.max_depth)
                if node is not None:
                    batch.append((tree, *node))
            if not batch:
                break
            live = [entry[0] for entry in batch]
            _, rows, n1, _, candidates, draws = zip(*batch)
            splits, left_rows, right_rows = _best_splits(X, rows, n1, np.array(candidates), np.array(draws))
            at_left = at_right = 0
            for (tree, node_rows, node_n1, depth, _, _), split in zip(batch, splits):
                decrease, feature, threshold, n_left, n1_left = split
                n_node = node_rows.size
                left = left_rows[at_left : at_left + n_left]
                right = right_rows[at_right : at_right + n_node - n_left]
                at_left += n_left
                at_right += n_node - n_left
                if not math.isfinite(decrease):
                    tree.nodes.leaf(n_node)
                    continue
                tree.importances[feature] += (n_node / n_total) * decrease
                tree.nodes.split(feature, threshold)
                tree.stack.append((right, node_n1 - n1_left, depth + 1))
                tree.stack.append((left, n1_left, depth + 1))
    return [tree.nodes.tree() for tree in trees]


def _checked_keys(feature_keys: np.ndarray | None, d: int) -> np.ndarray:
    """Each of the ``d`` columns' draw key: ``feature_keys``, or by default the column positions."""
    keys = np.arange(d, dtype=np.uint64) if feature_keys is None else np.asarray(feature_keys, dtype=np.uint64)
    if keys.shape != (d,):
        raise IsoguardError("feature_keys must provide one key per column")
    return keys


def fit_extra_trees(
    X: np.ndarray,
    y: np.ndarray,
    params: ExtraTreesParams = ExtraTreesParams(),
    feature_keys: np.ndarray | None = None,
) -> ExtraTreesEstimator:
    """Fit the ensemble. ``feature_keys`` names each column's random stream;
    the default keys are the column positions."""
    X = checked_matrix(X)
    if params.n_trees < 1:
        raise IsoguardError(f"n_trees must be >= 1, got {params.n_trees}")
    y = checked_labels(y, n=X.shape[0])
    if len(np.unique(y)) < 2:
        raise IsoguardError("training labels contain a single class; importances are undefined")
    d = X.shape[1]
    keys = _checked_keys(feature_keys, d)

    # the trees grow together in one thread: a lockstep step is a handful of
    # numpy calls plus per-node Python that holds the GIL, so threads only add overhead
    acc = np.zeros((params.n_trees, d), dtype=np.float64)
    trees = _build_trees(X, y, keys, params, range(params.n_trees), acc)
    tree_importances = [row / total if (total := row.sum()) > 0.0 else None for row in acc]
    return ExtraTreesEstimator(trees=trees, tree_importances=tree_importances)


def rfe_select(
    X: np.ndarray,
    y: np.ndarray,
    target_count: int,
    step: int = 1,
    params: ExtraTreesParams = ExtraTreesParams(),
    feature_keys: np.ndarray | None = None,
) -> RfeResult:
    """Recursive feature elimination down to ``target_count`` features.

    Each round refits the estimator on the survivors and drops the ``step``
    lowest-importance features (never dropping below the target). Equal
    importances are resolved by removing the higher original index first.
    """
    X = checked_matrix(X)
    d = X.shape[1]
    if not 1 <= target_count < d:
        raise IsoguardError(f"target_count must satisfy 1 <= target < {d}, got {target_count}")
    if step < 1:
        raise IsoguardError(f"step must be >= 1, got {step}")
    keys = _checked_keys(feature_keys, d)

    surviving = np.arange(d)
    trace: list[tuple[int, int, float]] = []
    round_no = 0
    while surviving.size > target_count:
        round_no += 1
        imp = fit_extra_trees(X.take(surviving, axis=1), y, params, feature_keys=keys[surviving]).importances
        n_drop = min(step, surviving.size - target_count)
        # importance ascending; ties resolved toward the higher original index
        removal_order = np.lexsort((-surviving, imp))
        doomed = removal_order[:n_drop]
        for j in doomed:
            trace.append((round_no, int(surviving[j]), float(imp[j])))
        keep = np.ones(surviving.size, dtype=bool)
        keep[doomed] = False
        surviving = surviving[keep]

    return RfeResult(
        selected=tuple(int(i) for i in surviving),
        trace=tuple(trace),
        final_importances=fit_extra_trees(
            X.take(surviving, axis=1), y, params, feature_keys=keys[surviving]
        ).importances,
    )


@dataclass(frozen=True)
class _TraceEntry:
    round: int
    removed: int
    importance: float


@dataclass(frozen=True)
class _RfeDoc:
    """The five keys of rfe.json."""

    selected: list[int]
    trace: list[_TraceEntry]
    column_names: list[str]
    selected_names: list[str]
    final_importances: np.ndarray


def rfe_to_json(result: RfeResult, column_names: list[str]) -> str:
    doc = _RfeDoc(
        selected=list(result.selected),
        trace=[_TraceEntry(*entry) for entry in result.trace],
        column_names=list(column_names),
        selected_names=[column_names[i] for i in result.selected],
        final_importances=result.final_importances,
    )
    return json.dumps(to_doc(doc), sort_keys=True)


def rfe_from_json(text: str) -> tuple[RfeResult, list[str]]:
    """Parse an RFE document; ``selected`` must be strictly increasing column
    indices, one per final importance and each named in ``selected_names``,
    or IsoguardError is raised."""
    doc = from_doc(_RfeDoc, json.loads(text), "rfe")
    selected, n = doc.selected, len(doc.column_names)
    if not selected or selected[0] < 0 or selected[-1] >= n or any(a >= b for a, b in zip(selected, selected[1:])):
        raise IsoguardError(f"selected must be strictly increasing column indices in [0, {n}), got {selected}")
    if doc.final_importances.shape != (len(selected),):
        raise IsoguardError(
            f"selected holds {len(selected)} indices but final_importances has shape {doc.final_importances.shape}"
        )
    names = [doc.column_names[i] for i in selected]
    if doc.selected_names != names:
        raise IsoguardError(f"selected_names must be the column_names at selected, {names}, got {doc.selected_names}")
    trace = tuple((e.round, e.removed, e.importance) for e in doc.trace)
    return RfeResult(selected=tuple(selected), trace=trace, final_importances=doc.final_importances), doc.column_names


def save_rfe(result: RfeResult, column_names: list[str], path: str | Path) -> None:
    Path(path).write_text(rfe_to_json(result, column_names) + "\n", encoding="utf-8")


def load_rfe(path: str | Path) -> tuple[RfeResult, list[str]]:
    with artifact_reader(path):
        return rfe_from_json(Path(path).read_text(encoding="utf-8"))
