"""Feature ranking with extremely randomized trees, plus recursive elimination.

A fit takes the config's ``select`` section, ``SelectSettings``, which
checks its own ranges when built, and a seed for its draws.

Each tree trains on the full sample (no bootstrap). At every node a
pseudo-random subset of ceil(sqrt(d)) candidate features is drawn, one
uniform threshold between each candidate's node-local min and max, and the
candidate with the greatest Gini impurity decrease wins. All draws are
keyed by (seed, tree, node, feature key) hashes: no tree depends on the
order in which trees are built, and permuting columns together with their
keys permutes the result identically.

A fit keeps only each tree's importance row: no tree is stored. The trees
of one fit grow in lockstep, each from its own stack of nodes that can
draw; a node cut off by purity, size or depth never enters it. Each step
pops the next node of every live tree and splits them all with one set
of numpy calls over the concatenated rows. A tree pops one node per step
until its stack empties, so a node's draw id is the step that splits
it: its pre-order position among its own tree's drawing nodes. A tree's
draws and importance sums thus follow its own pre-order, and every
result equals a tree built alone.
"""
from __future__ import annotations

import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated

import numpy as np

from .codec import check_types, from_doc, to_doc
from .errors import IsoguardError, artifact_reader, checked_labels, checked_matrix
from .parallel import run_indexed  # noqa: F401  (not called here; perfbench's tracer rebinds it)
from .prng import extend_hashes, hash64, unit_uniforms

_CANDIDATE_TAG = 0x5EED_CA9D
_THRESHOLD_TAG = 0x5EED_7442
_DRAW_BLOCK = 64  # node ids whose draws are hashed in one batch


@dataclass(frozen=True)
class SelectSettings:
    """The config's ``select`` section: the RFE target and step, and the extra-trees settings of each fit."""

    target_count: Annotated[int, ">= 1"] = 15
    step: Annotated[int, ">= 1"] = 1
    n_trees: Annotated[int, ">= 1"] = 50
    max_depth: Annotated[int, ">= 1"] | None = None
    min_samples_split: Annotated[int, ">= 2"] = 2
    sample_cap: Annotated[int, ">= 1"] | None = None  # optional row cap for the selector fits on large data

    def __post_init__(self) -> None:
        check_types(self, "config", "select")


@dataclass
class ExtraTreesEstimator:
    # each tree's importance row, normalized to sum 1, over the fitted
    # matrix's columns; None for a tree with no split
    trees: list[np.ndarray | None]

    @property
    def importances(self) -> np.ndarray:
        """Mean over trees of per-tree normalized impurity decrease; nonnegative, summing to 1."""
        vecs = [v for v in self.trees if v is not None]
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
    tree_hashes: np.ndarray, first: int, count: int, keys: np.ndarray, n_candidates: int
) -> tuple[np.ndarray, np.ndarray]:
    """Candidate columns and threshold uniforms for node ids first..first+count-1
    of every tree, indexed ``[tree, slot]``.

    Node ``i`` of a tree draws from hash64(seed, tree, i, tag). The draws
    depend on those hashes and the feature keys only, never on the data,
    so a block of node ids is drawn at once.
    """
    ids = np.arange(first, first + count, dtype=np.uint64)
    cand_base = extend_hashes(tree_hashes[:, None], ids, _CANDIDATE_TAG)
    order = np.argsort(unit_uniforms(cand_base[..., None], keys), axis=-1, kind="stable")
    candidates = order[..., :n_candidates]
    thr_base = extend_hashes(tree_hashes[:, None], ids, _THRESHOLD_TAG)
    return candidates, unit_uniforms(thr_base[..., None], keys[candidates])


def _best_splits(
    X: np.ndarray, rows: Sequence[np.ndarray], n1: Sequence[int], candidates: np.ndarray, draws: np.ndarray
) -> tuple[list[tuple[float, int, int, int]], np.ndarray, np.ndarray]:
    """The best candidate split of every node in a batch, in one set of numpy calls.

    Node ``b`` holds ``rows[b]``, its ``n1[b]`` class-1 rows first, and
    draws candidate columns ``candidates[b]`` with threshold uniforms
    ``draws[b]``. Returns, per node, the best candidate's impurity
    decrease (not finite when no candidate splits), its column, and the
    size and class-1 count of its left side; then the rows that go left
    and the rows that go right, each concatenated in node order, so each
    child's class-1 rows still come first.

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
        (dec, column, int(n), int(a))
        for dec, column, n, a in zip(
            decrease[at].tolist(),
            candidates[nodes, best].tolist(),
            side_sizes[at].tolist(),
            c1[at].tolist(),
        )
    ]
    return splits, rows_all[goes_left], rows_all[~goes_left]


def _build_trees(
    X: np.ndarray,
    y: np.ndarray,
    keys: np.ndarray,
    settings: SelectSettings,
    seed: int,
    tree_indices: Sequence[int],
) -> np.ndarray:
    """Grow the trees ``tree_indices`` in lockstep and return their weighted
    impurity decreases, one row per tree.

    Each step splits the next node of every live tree with one
    ``_best_splits`` call, and a node's draw id is the step that splits
    it. ``X`` is C-ordered (``checked_matrix``), so ``_best_splits``'
    ``X.ravel()`` makes no copy.
    """
    n_total, d = X.shape
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    min_split, max_depth = settings.min_samples_split, settings.max_depth

    def push(stack: list, rows: np.ndarray, n1: int, depth: int) -> None:
        """Push a node that can draw: it holds both classes, enough rows and sits above max_depth."""
        size = rows.size
        if 0 < n1 < size and size >= min_split and (max_depth is None or depth < max_depth):
            stack.append((rows, n1, depth))

    # every node's rows list its class-1 rows first; the children keep that
    # order, as each takes its rows from the parent's in order
    is_one = y == 1
    root, root_n1 = np.concatenate((np.flatnonzero(is_one), np.flatnonzero(~is_one))), int(is_one.sum())
    # hash64 is a left fold: each node only folds its id and a tag onto a tree's hash
    tree_hashes = np.array([hash64(seed, t) for t in tree_indices], dtype=np.uint64)
    importances = np.zeros((tree_hashes.size, d))
    stacks: list[list[tuple[np.ndarray, int, int]]] = [[] for _ in tree_indices]  # (rows, class-1 count, depth)
    for stack in stacks:
        push(stack, root, root_n1, 0)
    step = 0
    # an empty side's Gini is 0/0 = nan: masked to -inf for a constant
    # candidate, and otherwise picked by argmax, which leaves the node unsplit
    with np.errstate(invalid="ignore", divide="ignore"):
        while live := [t for t, stack in enumerate(stacks) if stack]:
            slot = step % _DRAW_BLOCK
            if slot == 0:
                candidates, draws = _node_draws(tree_hashes, step, _DRAW_BLOCK, keys, n_candidates)
            step += 1
            nodes = [stacks[t].pop() for t in live]
            rows, n1, _ = zip(*nodes)
            splits, left_rows, right_rows = _best_splits(X, rows, n1, candidates[live, slot], draws[live, slot])
            at_left = at_right = 0
            for t, (node_rows, node_n1, depth), (decrease, feature, n_left, n1_left) in zip(live, nodes, splits):
                n_node = node_rows.size
                left = left_rows[at_left : at_left + n_left]
                right = right_rows[at_right : at_right + n_node - n_left]
                at_left += n_left
                at_right += n_node - n_left
                if not math.isfinite(decrease):
                    continue
                importances[t, feature] += (n_node / n_total) * decrease
                push(stacks[t], right, node_n1 - n1_left, depth + 1)
                push(stacks[t], left, n1_left, depth + 1)
    return importances


def _checked_keys(feature_keys: np.ndarray | None, d: int) -> np.ndarray:
    """Each of the ``d`` columns' draw key: ``feature_keys``, or by default the column positions."""
    keys = np.arange(d, dtype=np.uint64) if feature_keys is None else np.asarray(feature_keys, dtype=np.uint64)
    if keys.shape != (d,):
        raise IsoguardError("feature_keys must provide one key per column")
    return keys


def fit_extra_trees(
    X: np.ndarray,
    y: np.ndarray,
    settings: SelectSettings = SelectSettings(),
    seed: int = 0,
    feature_keys: np.ndarray | None = None,
) -> ExtraTreesEstimator:
    """Fit ``settings.n_trees`` trees of at most ``settings.max_depth`` levels, splitting
    nodes of at least ``settings.min_samples_split`` rows; every draw derives from ``seed``.
    ``feature_keys`` names each column's random stream; the default keys are the column
    positions."""
    X = checked_matrix(X)
    y = checked_labels(y, n=X.shape[0])
    if len(np.unique(y)) < 2:
        raise IsoguardError("training labels contain a single class; importances are undefined")
    d = X.shape[1]
    keys = _checked_keys(feature_keys, d)

    # the trees grow together in one thread: a lockstep step is a handful of
    # numpy calls plus per-node Python that holds the GIL, so threads only add overhead
    acc = _build_trees(X, y, keys, settings, seed, range(settings.n_trees))
    return ExtraTreesEstimator(trees=[row / total if (total := row.sum()) > 0.0 else None for row in acc])


def rfe_select(
    X: np.ndarray,
    y: np.ndarray,
    settings: SelectSettings = SelectSettings(),
    seed: int = 0,
    feature_keys: np.ndarray | None = None,
) -> RfeResult:
    """Recursive feature elimination down to ``settings.target_count`` features.

    Each round refits the estimator (``fit_extra_trees`` with ``settings``
    and ``seed``) on the survivors and drops the ``settings.step``
    lowest-importance features (never dropping below the target). Equal
    importances are resolved by removing the higher original index first.
    ``settings.sample_cap`` is not read here: the select stage draws the
    capped rows before it calls this.
    """
    X = checked_matrix(X)
    d = X.shape[1]
    target_count = settings.target_count
    if target_count >= d:
        raise IsoguardError(f"target_count must satisfy 1 <= target < {d}, got {target_count}")
    keys = _checked_keys(feature_keys, d)

    surviving = np.arange(d)
    trace: list[tuple[int, int, float]] = []
    round_no = 0
    while surviving.size > target_count:
        round_no += 1
        imp = fit_extra_trees(X.take(surviving, axis=1), y, settings, seed, keys[surviving]).importances
        n_drop = min(settings.step, surviving.size - target_count)
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
        final_importances=fit_extra_trees(X.take(surviving, axis=1), y, settings, seed, keys[surviving]).importances,
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
