"""Feature ranking with extremely randomized trees, plus recursive elimination.

Each tree trains on the full sample (no bootstrap). At every node a
pseudo-random subset of ceil(sqrt(d)) candidate features is drawn, one
uniform threshold between each candidate's node-local min and max, and the
candidate with the greatest Gini impurity decrease wins. All draws are
keyed by (seed, tree, node, feature key) hashes: no tree depends on the
order in which trees are built, and permuting columns together with their
keys permutes the result identically.

Each tree is an ``iforest.ITree``, written in pre-order by the isolation
forest's ``TreeWriter``. The node in a draw key is not the array index:
it counts, in pre-order, only the nodes that reach the draw, so a leaf
cut off by purity, size or depth takes no id.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .codec import from_doc, to_doc
from .errors import IsoguardError, artifact_reader
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
    params: ExtraTreesParams
    n_features: int
    trees: list[ITree]  # split features are column indices within the fitted matrix
    # per-tree importances normalized to sum 1; None for trees with no split
    tree_importances: list[np.ndarray | None]


@dataclass(frozen=True)
class FeatureRanking:
    """Nonnegative weights summing to 1 and the descending-importance order."""

    importances: np.ndarray
    order: np.ndarray  # feature indices, ties broken by ascending index


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


def _build_tree(
    X: np.ndarray,
    y: np.ndarray,
    keys: np.ndarray,
    params: ExtraTreesParams,
    tree_index: int,
    importances: np.ndarray,
) -> ITree:
    n_total = X.shape[0]
    d = X.shape[1]
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    # a row of class-0 and a row of class-1 indicators: their products with a
    # mask count each class among the rows the mask selects
    class_weights = np.stack((y == 0, y == 1)).astype(np.float64)
    max_depth = params.max_depth
    min_split = params.min_samples_split
    # hash64 is a left fold: each node only folds its id and a tag onto this
    tree_hash = int(hash64(params.seed, tree_index))
    blocks: list[tuple[np.ndarray, np.ndarray]] = []  # (candidates, draws) per _DRAW_BLOCK ids
    nodes = TreeWriter()
    next_id = 0

    def build(rows: np.ndarray, n1: int, depth: int) -> int:
        nonlocal next_id
        n_node = rows.size
        i = nodes.add_leaf(n_node, depth)
        if n1 == 0 or n1 == n_node or n_node < min_split or (max_depth is not None and depth >= max_depth):
            return i

        # depth-first pre-order ids of the nodes that draw: they decide which
        # hashes a node draws, so a leaf cut off above takes none
        node_id = next_id
        next_id += 1
        block, slot = divmod(node_id, _DRAW_BLOCK)
        if block == len(blocks):
            blocks.append(_node_draws(tree_hash, node_id, _DRAW_BLOCK, keys, n_candidates))
        block_candidates, block_draws = blocks[block]
        candidates = block_candidates[slot]
        sub = X.take(rows, axis=0).take(candidates, axis=1)
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        # a draw that rounds onto lo moves to the next float above it
        thresholds = np.maximum(lo + (hi - lo) * block_draws[slot], np.nextafter(lo, hi))
        left_masks = sub < thresholds
        # class counts [n0, n1] of each side, left sides first, and the same
        # Gini terms as _gini_counts for all 2k sides at once
        counts = class_weights[:, rows] @ np.concatenate((left_masks, ~left_masks), axis=1)
        sizes = counts[0] + counts[1]
        p = counts / sizes
        p *= p
        side = sizes * (1.0 - p[0] - p[1])
        child_gini = (side[:n_candidates] + side[n_candidates:]) / n_node
        decrease = np.where(hi > lo, _gini_counts(float(n_node - n1), float(n1)) - child_gini, -np.inf)

        best = int(decrease.argmax())
        local_decrease = float(decrease[best])
        if not math.isfinite(local_decrease):
            return i
        feature = int(candidates[best])
        mask = left_masks[:, best]
        importances[feature] += (n_node / n_total) * local_decrease
        n1_left = int(counts[1, best])
        nodes.feature[i] = feature
        nodes.threshold[i] = float(thresholds[best])
        nodes.left[i] = build(rows[mask], n1_left, depth + 1)
        nodes.right[i] = build(rows[~mask], n1 - n1_left, depth + 1)
        return i

    # an empty side's Gini is 0/0 = nan: masked to -inf for a constant
    # candidate, and otherwise picked by argmax, which leaves the node a leaf
    with np.errstate(invalid="ignore", divide="ignore"):
        build(np.arange(n_total), int(y.sum()), 0)
    return nodes.tree()


def fit_extra_trees(
    X: np.ndarray,
    y: np.ndarray,
    params: ExtraTreesParams = ExtraTreesParams(),
    feature_keys: np.ndarray | None = None,
) -> ExtraTreesEstimator:
    """Fit the ensemble. ``feature_keys`` names each column's random stream;
    the default keys are the column positions."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0 or X.shape[1] == 0:
        raise IsoguardError(f"expected a non-empty 2-D matrix, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise IsoguardError("label vector length must match row count")
    if not np.isin(y, (0, 1)).all():
        raise IsoguardError("labels must be binary 0/1")
    if len(np.unique(y)) < 2:
        raise IsoguardError("training labels contain a single class; importances are undefined")
    d = X.shape[1]
    keys = np.arange(d, dtype=np.uint64) if feature_keys is None else np.asarray(feature_keys, dtype=np.uint64)
    if keys.shape != (d,):
        raise IsoguardError("feature_keys must provide one key per column")

    # trees are built serially: the build is GIL-bound Python, so threads only add overhead
    trees: list[ITree] = []
    tree_importances: list[np.ndarray | None] = []
    for i in range(params.n_trees):
        acc = np.zeros(d, dtype=np.float64)
        trees.append(_build_tree(X, y, keys, params, i, acc))
        total = acc.sum()
        tree_importances.append(acc / total if total > 0.0 else None)
    return ExtraTreesEstimator(params=params, n_features=d, trees=trees, tree_importances=tree_importances)


def feature_importances(est: ExtraTreesEstimator) -> FeatureRanking:
    """Mean over trees of per-tree normalized impurity decrease."""
    vecs = [v for v in est.tree_importances if v is not None]
    if not vecs:
        raise IsoguardError("no split anywhere in the ensemble; importances are undefined")
    imp = np.mean(np.stack(vecs, axis=0), axis=0)
    order = np.lexsort((np.arange(imp.size), -imp))
    return FeatureRanking(importances=imp, order=order)


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
    X = np.asarray(X, dtype=np.float64)
    d = X.shape[1]
    if not 1 <= target_count < d:
        raise IsoguardError(f"target_count must satisfy 1 <= target < {d}, got {target_count}")
    if step < 1:
        raise IsoguardError(f"step must be >= 1, got {step}")
    keys = np.arange(d, dtype=np.uint64) if feature_keys is None else np.asarray(feature_keys, dtype=np.uint64)

    surviving = np.arange(d)
    trace: list[tuple[int, int, float]] = []
    round_no = 0
    while surviving.size > target_count:
        round_no += 1
        est = fit_extra_trees(X[:, surviving], y, params, feature_keys=keys[surviving])
        imp = feature_importances(est).importances
        n_drop = min(step, surviving.size - target_count)
        # importance ascending; ties resolved toward the higher original index
        removal_order = np.lexsort((-surviving, imp))
        doomed = removal_order[:n_drop]
        for j in doomed:
            trace.append((round_no, int(surviving[j]), float(imp[j])))
        keep = np.ones(surviving.size, dtype=bool)
        keep[doomed] = False
        surviving = surviving[keep]

    final_est = fit_extra_trees(X[:, surviving], y, params, feature_keys=keys[surviving])
    final_imp = feature_importances(final_est).importances
    return RfeResult(
        selected=tuple(int(i) for i in surviving),
        trace=tuple(trace),
        final_importances=final_imp,
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
