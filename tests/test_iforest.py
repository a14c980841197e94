import json
import math
import re
import sys
import tracemalloc
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
import pytest

from isoguard import iforest, parallel
from isoguard.errors import ArtifactError, IsoguardError
from isoguard.iforest import (
    AnomalyScore,
    IsolationForest,
    ITree,
    build_itree,
    expected_path_length,
    fit_forest,
    forest_from_json,
    forest_to_json,
    harmonic_number,
    label_scores,
    load_forest,
    mean_path_lengths,
    OutlierVerdict,
    predict,
    save_forest,
    score_batch,
    Verdicts,
)
from isoguard.prng import derive_seed

GAMMA = 0.5772156649


def exact_harmonic(i):
    return sum(1.0 / k for k in range(1, i + 1))


def exact_c(m):
    """Independent oracle: the same piecewise formula with the exact harmonic sum."""
    if m > 2:
        return 2.0 * exact_harmonic(m - 1) - 2.0 * (m - 1) / m
    return 1.0 if m == 2 else 0.0


class TestHarmonic:
    def test_h1_is_the_constant(self):
        assert harmonic_number(1) == pytest.approx(GAMMA, abs=1e-15)

    def test_h2(self):
        assert harmonic_number(2) == pytest.approx(1.2703628454599452, abs=1e-12)

    def test_h10(self):
        assert harmonic_number(10) == pytest.approx(2.8798007578940457, abs=1e-12)

    def test_rejects_zero(self):
        with pytest.raises(IsoguardError):
            harmonic_number(0)


class TestExpectedPathLength:
    def test_m2_is_one(self):
        assert expected_path_length(2) == 1.0

    def test_small_m_is_zero(self):
        assert expected_path_length(0) == 0.0
        assert expected_path_length(1) == 0.0

    def test_c256(self):
        # 2*(ln 255 + gamma) - 2*255/256, frozen from direct evaluation
        assert expected_path_length(256) == pytest.approx(10.244770920116851, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(IsoguardError):
            expected_path_length(-1)

    def test_approximation_tracks_exact_harmonic_for_m_at_least_12(self):
        # the log estimate of H(i) is ~1/(2i) low; doubled, the gap drops
        # below 0.09 from m = 12 onward and shrinks monotonically
        worst = 0.0
        h = exact_harmonic(11)  # running exact harmonic sum H(m-1)
        for m in range(12, 10_001):
            c_exact = 2.0 * h - 2.0 * (m - 1) / m
            worst = max(worst, abs(expected_path_length(m) - c_exact))
            h += 1.0 / m
        assert worst < 0.09

    def test_approximation_gap_is_largest_at_smallest_m(self):
        gaps = [abs(expected_path_length(m) - exact_c(m)) for m in range(3, 50)]
        assert gaps == sorted(gaps, reverse=True)


def flat_tree(feature, threshold, leaf_size) -> ITree:
    """An ITree from plain lists: pre-order features (-1 at a leaf), one threshold per split, one size per leaf."""
    return ITree(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        leaf_size=np.array(leaf_size, dtype=np.int64),
    )


def leaf_tree(size: int) -> ITree:
    return flat_tree([-1], [], [size])


def node_arrays(tree: ITree) -> SimpleNamespace:
    """Every node's feature, threshold (0.0 at a leaf), children (a leaf's
    are itself), size and depth, rebuilt from the pre-order arrays by
    following the split/leaf flags from the root."""
    k = tree.feature.size
    thresholds, sizes = iter(tree.threshold.tolist()), iter(tree.leaf_size.tolist())
    out = {name: [0] * k for name in ("threshold", "left", "right", "size", "depth")}

    def visit(i, d):
        """Fill in node i's subtree and return the id after it."""
        out["depth"][i] = d
        if tree.feature[i] < 0:
            out["threshold"][i], out["left"][i], out["right"][i], out["size"][i] = 0.0, i, i, next(sizes)
            return i + 1
        out["threshold"][i], out["left"][i] = next(thresholds), i + 1
        right = out["right"][i] = visit(i + 1, d + 1)
        end = visit(right, d + 1)
        out["size"][i] = out["size"][i + 1] + out["size"][right]
        return end

    assert visit(0, 0) == k
    assert next(thresholds, None) is None and next(sizes, None) is None
    return SimpleNamespace(feature=tree.feature, **{name: np.array(values) for name, values in out.items()})


def walk_leaves(tree: ITree):
    """(node id, depth) of every leaf, found by following the child links from the root."""
    nodes = node_arrays(tree)
    out = []

    def visit(i, d):
        if tree.feature[i] < 0:
            assert nodes.left[i] == i and nodes.right[i] == i
            out.append((i, d))
        else:
            assert nodes.left[i] > i and nodes.right[i] > i
            visit(int(nodes.left[i]), d + 1)
            visit(int(nodes.right[i]), d + 1)

    visit(0, 0)
    return out


def one_tree_path_length(tree: ITree, x) -> float:
    """h(x) in a single tree, through the batch path."""
    x = np.asarray(x, dtype=np.float64)
    nodes = node_arrays(tree)
    forest = IsolationForest(
        trees=[tree],
        t=1,
        m=int(nodes.size.max()),
        height_limit=int(nodes.depth.max()),
        seed=0,
        n_features=x.size,
    )
    return float(mean_path_lengths(forest, x.reshape(1, -1))[0])


class TestBuildItree:
    def test_single_row_is_external(self):
        rng = np.random.default_rng(0)
        tree = build_itree(np.array([[1.0, 2.0]]), 8, rng)
        assert tree.feature.tolist() == [-1]
        assert node_arrays(tree).size.tolist() == [1]
        assert walk_leaves(tree) == [(0, 0)]

    def test_two_distinct_rows_forced_partition(self):
        rng = np.random.default_rng(0)
        tree = build_itree(np.array([[0.0], [1.0]]), 1, rng)
        nodes = node_arrays(tree)
        assert tree.feature.tolist() == [0, -1, -1]
        assert (nodes.left[0], nodes.right[0]) == (1, 2)
        assert nodes.size.tolist() == [2, 1, 1]
        assert 0.0 < tree.threshold[0] <= 1.0

    def test_identical_rows_external_immediately(self):
        rng = np.random.default_rng(0)
        tree = build_itree(np.full((7, 3), 4.2), 8, rng)
        assert tree.feature.tolist() == [-1]
        assert node_arrays(tree).size.tolist() == [7]

    def test_empty_sample_rejected(self):
        with pytest.raises(IsoguardError):
            build_itree(np.empty((0, 2)), 8, np.random.default_rng(0))

    def test_height_limit_respected(self):
        rng = np.random.default_rng(1)
        sample = rng.normal(size=(64, 2))
        tree = build_itree(sample, 3, rng)
        leaves = walk_leaves(tree)
        assert max(d for _, d in leaves) <= 3
        # the depths that scoring derives from the flags
        assert all(iforest._nodes([tree]).depth[i] == d for i, d in leaves)

    def test_split_strictly_between_min_and_max(self):
        rng = np.random.default_rng(5)
        sample = rng.normal(size=(32, 3))
        tree = build_itree(sample, 5, rng)
        nodes = node_arrays(tree)

        def check(i, rows):
            assert nodes.size[i] == rows.shape[0]
            if tree.feature[i] < 0:
                return
            values = rows[:, tree.feature[i]]
            assert values.min() < nodes.threshold[i] <= values.max()
            mask = values < nodes.threshold[i]
            check(int(nodes.left[i]), rows[mask])
            check(int(nodes.right[i]), rows[~mask])

        check(0, sample)

    def test_draw_at_the_minimum_splits_just_above_it(self):
        """A uniform draw equal to its low bound would send no row left; the
        split moves to the next float up, so every split isolates its minimum."""

        class LowBoundRng:
            def __init__(self, seed):
                self.rng = np.random.default_rng(seed)

            def integers(self, *args, **kwargs):
                return self.rng.integers(*args, **kwargs)

            def uniform(self, low, high):
                return low

        sample = np.random.default_rng(6).normal(size=(32, 3))
        tree = build_itree(sample, 5, LowBoundRng(7))
        nodes = node_arrays(tree)

        def check(i, rows):
            assert nodes.size[i] == rows.shape[0]
            if tree.feature[i] < 0:
                return
            values = rows[:, tree.feature[i]]
            assert nodes.threshold[i] == np.nextafter(values.min(), values.max())
            mask = values < nodes.threshold[i]
            check(int(nodes.left[i]), rows[mask])
            check(int(nodes.right[i]), rows[~mask])

        check(0, sample)
        assert tree.threshold.size > 0 and tree.leaf_size.sum() == 32
        forest = IsolationForest(trees=[tree], t=1, m=32, height_limit=5, seed=0, n_features=3)
        (back,) = forest_from_json(forest_to_json(forest)).trees
        for name in ("feature", "threshold", "leaf_size"):
            assert getattr(back, name).tobytes() == getattr(tree, name).tobytes()


NON_NUMERIC_MATRICES = [
    [["a", "b"], ["c", "d"]],
    np.array([[1.0, "x"], [2.0, "y"]], dtype=object),
    [[{}, 1.0], [2.0, 3.0]],
    [[1.0, 2.0], [3.0]],  # ragged rows
]


class TestFitForest:
    def test_shape_invariants(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(300, 4))
        forest = fit_forest(X, t=20, m=64, seed=9)
        assert forest.height_limit == 6
        for tree in forest.trees:
            leaves = walk_leaves(tree)
            assert sum(node_arrays(tree).size[i] for i, _ in leaves) == 64
            assert max(d for _, d in leaves) <= 6

    def test_determinism(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        a = forest_to_json(fit_forest(X, t=10, m=32, seed=7))
        b = forest_to_json(fit_forest(X, t=10, m=32, seed=7))
        assert a == b

    def test_seed_changes_forest(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(100, 3))
        assert forest_to_json(fit_forest(X, t=5, m=32, seed=1)) != forest_to_json(
            fit_forest(X, t=5, m=32, seed=2)
        )

    def test_m_equal_n_uses_every_row(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(16, 2))
        forest = fit_forest(X, t=3, m=16, seed=0)
        for tree in forest.trees:
            assert sum(node_arrays(tree).size[i] for i, _ in walk_leaves(tree)) == 16

    def test_errors(self):
        X = np.zeros((10, 2))
        with pytest.raises(IsoguardError, match="exceeds"):
            fit_forest(X, t=5, m=11)
        with pytest.raises(IsoguardError, match="t must be >= 1, got 0"):
            fit_forest(X, t=0, m=4)
        with pytest.raises(IsoguardError, match=">= 2"):
            fit_forest(X, t=5, m=1)
        for shape in ((5,), (4, 2, 2)):
            with pytest.raises(IsoguardError, match=re.escape(f"expected a 2-D matrix, got shape {shape}")):
                fit_forest(np.zeros(shape), t=2, m=2)

    @pytest.mark.parametrize("X", NON_NUMERIC_MATRICES)
    def test_non_numeric_matrix_rejected(self, X):
        with pytest.raises(IsoguardError, match="expected a matrix of numbers"):
            fit_forest(X, t=2, m=2)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_value_rejected(self, value):
        with pytest.raises(IsoguardError, match="infinite value"):
            fit_forest([[0.0], [value], [1.0], [2.0]], t=3, m=4)
        fit_forest([[0.0], [np.nan], [1.0], [2.0]], t=3, m=4)  # NaN cells still fit

    def test_overflowing_column_range_rejected(self):
        with pytest.raises(IsoguardError, match="column 1: its max - min overflows"):
            fit_forest([[0.0, -1e308], [1.0, 1e308], [2.0, 0.0], [3.0, 1.0]], t=3, m=4)
        fit_forest([[-1e307], [1e307], [0.0], [1.0]], t=3, m=4)  # a wide but finite range still fits
        fit_forest([[np.nan, 0.0], [np.nan, 1.0], [np.nan, 2.0], [np.nan, 3.0]], t=3, m=4)  # all-NaN column


class TestPathLength:
    def test_single_external_node(self):
        assert one_tree_path_length(leaf_tree(1), [0.0]) == 0.0

    def test_depth_one(self):
        tree = flat_tree([0, -1, -1], [0.5], [1, 1])
        assert one_tree_path_length(tree, [0.2]) == 1.0
        assert one_tree_path_length(tree, [0.9]) == 1.0

    def test_external_size_adjustment(self):
        # external of size 2 at depth 3 contributes c(2) = 1
        d3 = flat_tree(feature=[0, 0, 0, -1, -1, -1, -1], threshold=[0.5, 0.25, 0.125], leaf_size=[2, 1, 1, 1])
        assert one_tree_path_length(d3, [0.01]) == 4.0

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(50, 3))
        forest = fit_forest(X, t=8, m=32, seed=11)
        batch = mean_path_lengths(forest, X)
        singles = np.concatenate([score_batch(forest, x.reshape(1, -1))[1] for x in X])
        np.testing.assert_allclose(batch, singles, rtol=0, atol=1e-12)


class TestScore:
    def constant_forest(self, m, t=10):
        # fitting identical rows gives t single-external-node trees of size m
        X = np.full((m, 2), 3.0)
        return fit_forest(X, t=t, m=m, seed=0)

    def test_mean_path_equal_to_c_scores_half(self):
        forest = self.constant_forest(m=32)
        s, mean_h = score_batch(forest, np.array([[3.0, 3.0]]))
        assert mean_h[0] == pytest.approx(expected_path_length(32), abs=1e-12)
        assert s[0] == pytest.approx(0.5, abs=1e-12)

    def test_zero_mean_path_scores_one(self):
        forest = IsolationForest(trees=[leaf_tree(1)] * 4, t=4, m=2, height_limit=1, seed=0, n_features=1)
        s, mean_h = score_batch(forest, np.array([[0.0]]))
        assert mean_h[0] == 0.0
        assert s[0] == 1.0

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(400, 3))
        forest = fit_forest(X, t=25, m=128, seed=5)
        s, _ = score_batch(forest, X)
        assert (s > 0.0).all() and (s <= 1.0).all()

    def test_monotone_decreasing_in_mean_path(self):
        forest = self.constant_forest(m=64)
        c = expected_path_length(64)
        values = [2.0 ** (-h / c) for h in (0.0, 1.0, 3.0, 8.0)]
        assert values == sorted(values, reverse=True)

    def test_identical_rows_score_equally(self):
        X = np.full((40, 2), 1.5)
        forest = fit_forest(X, t=10, m=40, seed=3)
        s, _ = score_batch(forest, X)
        assert np.unique(s).size == 1

    def test_dimension_mismatch(self):
        forest = self.constant_forest(m=8)
        with pytest.raises(IsoguardError, match="mismatch"):
            score_batch(forest, np.zeros((3, 5)))

    @pytest.mark.parametrize("shape", [(2,), (3,), (2, 2, 1)])
    def test_batch_that_is_not_a_matrix_names_its_shape(self, shape):
        forest = self.constant_forest(m=8)
        with pytest.raises(IsoguardError, match=re.escape(f"expected a 2-D matrix, got shape {shape}")):
            mean_path_lengths(forest, np.zeros(shape))

    @pytest.mark.parametrize("X", NON_NUMERIC_MATRICES)
    def test_non_numeric_batch_rejected(self, X):
        forest = self.constant_forest(m=8)
        with pytest.raises(IsoguardError, match="expected a matrix of numbers"):
            score_batch(forest, X)


class TestMeanPathLengthsInPlace:
    """The rows split into one block per worker, and each block adds every
    tree's path lengths to its rows' running sums in tree order, a set of
    ``blocks`` trees per walk; the mean keeps the bits of averaging the
    stacked per-tree vectors, and no trees x rows buffer is held."""

    @pytest.mark.parametrize("t, n", [(17, 0), (17, 1), (17, 2), (1, 3), (5, 300), (64, 57), (6, 301)])
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bits_match_the_stacked_per_tree_mean(self, monkeypatch, t, n, threads):
        monkeypatch.setenv("ISOGUARD_THREADS", threads)
        rng = np.random.default_rng(t * 1000 + n)
        forest = fit_forest(rng.normal(size=(200, 3)), t=t, m=32, seed=n)
        X = rng.normal(scale=3.0, size=(n, 3))
        per_tree = [mean_path_lengths(replace(forest, trees=[tree], t=1), X) for tree in forest.trees]
        expected = np.mean(np.stack(per_tree, axis=0), axis=0)
        assert mean_path_lengths(forest, X).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("blocks", [1, 2, 3, 5, 8])
    def test_bits_do_not_depend_on_the_block_count(self, monkeypatch, blocks):
        """One thread per block, up to more threads than CPUs and, at 8, a
        block count capped at the 7 rows; a 1 us switch interval interleaves
        the threads' in-place sums, so a lost update would show."""
        rng = np.random.default_rng(blocks)
        forest = fit_forest(rng.normal(size=(200, 3)), t=11, m=32, seed=blocks)
        batches = [rng.normal(scale=3.0, size=(n, 3)) for n in (7, 1001)]
        expected = [
            np.mean(np.stack([mean_path_lengths(replace(forest, trees=[tree], t=1), X) for tree in forest.trees]), axis=0)
            for X in batches
        ]
        monkeypatch.setattr(iforest, "worker_count", lambda: blocks)
        monkeypatch.setattr(parallel, "worker_count", lambda: blocks)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [mean_path_lengths(forest, X) for X in batches]
        finally:
            sys.setswitchinterval(interval)
        assert [g.tobytes() for g in got] == [e.tobytes() for e in expected]

    def test_one_row_starts_no_thread_pool(self, monkeypatch):
        rng = np.random.default_rng(9)
        forest = fit_forest(rng.normal(size=(200, 3)), t=11, m=32, seed=9)
        monkeypatch.setattr(iforest, "worker_count", lambda: 2)
        monkeypatch.setattr(parallel, "worker_count", lambda: 2)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-row batch started a thread pool")

        monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
        s, mean_h = score_batch(forest, rng.normal(size=(1, 3)))
        assert s.shape == mean_h.shape == (1,)

    @pytest.mark.parametrize("t", [50, 200])
    def test_peak_memory_holds_no_trees_by_rows_buffer(self, monkeypatch, t):
        """The bound has no t term: a t x n matrix of path lengths would
        take 160 kB per tree here, and four times the trees fit the same bound."""
        monkeypatch.setenv("ISOGUARD_THREADS", "2")
        n = 20_000
        rng = np.random.default_rng(0)
        forest = fit_forest(rng.normal(size=(1000, 3)), t=t, m=64, seed=1)
        X = rng.normal(size=(n, 3))
        tracemalloc.start()
        try:
            mean_path_lengths(forest, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the feature-major copy of X, the running sums and a few row vectors per worker
        assert peak < X.nbytes + 16 * n * 8


class TestPredict:
    def test_boundary_score_is_outlier(self):
        X = np.full((16, 2), 3.0)
        forest = fit_forest(X, t=5, m=16, seed=0)  # every score is exactly 0.5
        verdicts = predict(forest, X, threshold=0.5)
        assert all(v.label == -1 for v in verdicts)
        assert all(v.score.s == pytest.approx(0.5, abs=1e-12) for v in verdicts)

    def test_threshold_above_everything_keeps_all(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(100, 2))
        forest = fit_forest(X, t=20, m=64, seed=1)
        verdicts = predict(forest, X, threshold=1.0)
        assert all(v.label == 1 for v in verdicts)

    def test_contamination_counts(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(100, 2))
        forest = fit_forest(X, t=20, m=64, seed=2)
        verdicts = predict(forest, X, contamination=0.1)
        assert sum(1 for v in verdicts if v.label == -1) == 10

    def test_contamination_count_is_exact_for_decimal_fractions(self):
        s = np.linspace(0.3, 0.9, 100)
        assert 0.07 * 100 > 7  # the float product rounds up, so its ceil would flag 8
        assert int((label_scores(s, contamination=0.07) == -1).sum()) == 7
        assert int((label_scores(s, contamination=np.float64(0.07)) == -1).sum()) == 7

    def test_contamination_tie_break_ascending_index(self):
        X = np.full((10, 1), 2.0)  # all scores identical
        forest = fit_forest(X, t=5, m=10, seed=0)
        verdicts = predict(forest, X, contamination=0.3)
        flagged = [i for i, v in enumerate(verdicts) if v.label == -1]
        assert flagged == [0, 1, 2]

    def test_contamination_range(self):
        forest = fit_forest(np.random.default_rng(0).normal(size=(20, 2)), t=3, m=8, seed=0)
        for bad in (0.0, 0.6, -0.1):
            with pytest.raises(IsoguardError, match="contamination"):
                predict(forest, np.zeros((4, 2)), contamination=bad)

    def test_both_modes_rejected(self):
        forest = fit_forest(np.random.default_rng(0).normal(size=(20, 2)), t=3, m=8, seed=0)
        with pytest.raises(IsoguardError, match="not both"):
            predict(forest, np.zeros((4, 2)), threshold=0.5, contamination=0.1)

    @pytest.mark.parametrize("kwargs", [{}, {"threshold": 0.55}, {"contamination": 0.1}, {"contamination": 0.5}])
    def test_predict_boxes_label_scores(self, kwargs):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(60, 3))
        forest = fit_forest(X, t=10, m=32, seed=3)
        s, mean_h = score_batch(forest, X)
        labels = label_scores(s, **kwargs)
        verdicts = predict(forest, X, **kwargs)
        assert labels.tolist() == [v.label for v in verdicts]
        assert s.tolist() == [v.score.s for v in verdicts]
        assert mean_h.tolist() == [v.score.mean_path_length for v in verdicts]

    def test_label_scores_modes(self):
        s = np.array([0.2, 0.7, 0.5, 0.7, 0.1])
        assert label_scores(s).tolist() == [1, -1, -1, -1, 1]
        assert label_scores(s, threshold=0.6).tolist() == [1, -1, 1, -1, 1]
        assert label_scores(s, contamination=0.2).tolist() == [1, -1, 1, 1, 1]  # tie broken by lower index
        with pytest.raises(IsoguardError, match="not both"):
            label_scores(s, threshold=0.5, contamination=0.1)
        with pytest.raises(IsoguardError, match="contamination"):
            label_scores(s, contamination=0.6)

    @pytest.mark.parametrize("bad", [math.nan, 0.0, -0.5, 1.5, math.inf])
    def test_fixed_threshold_outside_the_score_range_rejected(self, bad):
        with pytest.raises(IsoguardError, match=re.escape(f"threshold must be in (0, 1], got {bad}")):
            label_scores(np.array([0.9, 0.1]), threshold=bad)

    @pytest.mark.parametrize("mode", ["threshold", "contamination"])
    @pytest.mark.parametrize(
        "bad",
        [True, False, np.bool_(True), "0.5", 0.5 + 0j, [0.5], np.array([0.5])]
        + [np.array(True), np.array(1), np.array("0.5")],
    )
    def test_value_that_is_not_a_real_number_rejected(self, mode, bad):
        with pytest.raises(IsoguardError, match=f"^{mode} must be a real number, got "):
            label_scores(np.array([0.9, 0.1]), **{mode: bad})

    @pytest.mark.parametrize("mode, value", [("threshold", 0.5), ("threshold", 1), ("contamination", 0.25)])
    def test_numpy_scalars_and_0d_float_arrays_accepted(self, mode, value):
        s = np.array([0.9, 0.5, 0.1, 0.7])
        want = label_scores(s, **{mode: value})
        for same in (np.float64(value), np.float32(value), np.array(value, dtype=np.float64)):
            assert label_scores(s, **{mode: same}).tolist() == want.tolist()

    def test_far_point_gets_max_score(self):
        rng = np.random.default_rng(12)
        X = np.vstack([rng.normal(size=(500, 2)), [[10.0, 10.0]]])
        forest = fit_forest(X, t=50, m=128, seed=4)
        s, _ = score_batch(forest, X)
        assert int(np.argmax(s)) == 500


class TestVerdicts:
    @pytest.fixture()
    def verdicts(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(40, 3))
        return predict(fit_forest(X, t=6, m=16, seed=2), X, contamination=0.2)

    def test_arrays(self, verdicts):
        assert isinstance(verdicts, Verdicts)
        assert verdicts.labels.dtype == np.int64 and verdicts.labels.shape == (40,)
        assert set(verdicts.labels.tolist()) == {-1, 1}
        assert verdicts.scores.dtype == np.float64 and verdicts.mean_path_lengths.dtype == np.float64

    def test_arrays_are_read_only(self, verdicts):
        for name in ("labels", "scores", "mean_path_lengths"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(verdicts, name)[0] = 0
        with pytest.raises(AttributeError):
            verdicts.labels = np.ones(40, dtype=np.int64)

    def test_caller_arrays_stay_writable(self):
        labels, s, mean_h = np.array([1, -1]), np.array([0.4, 0.7]), np.array([6.0, 3.0])
        Verdicts(labels, s, mean_h)
        labels[0] = -1
        assert labels.flags.writeable and s.flags.writeable and mean_h.flags.writeable

    def test_empty_batch(self):
        forest = fit_forest(np.random.default_rng(0).normal(size=(20, 2)), t=3, m=8, seed=0)
        verdicts = predict(forest, np.empty((0, 2)))
        assert verdicts.labels.size == 0 and list(verdicts) == []
        assert verdicts.labels.shape == verdicts.scores.shape == verdicts.mean_path_lengths.shape == (0,)

    def test_predict_builds_no_row_object(self, monkeypatch):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(1000, 4))
        forest = fit_forest(X, t=10, m=64, seed=5)
        s, mean_h = score_batch(forest, X)

        def boxed(*args, **kwargs):
            raise AssertionError("predict must not box rows")

        monkeypatch.setattr(iforest, "OutlierVerdict", boxed)
        monkeypatch.setattr(iforest, "AnomalyScore", boxed)
        verdicts = predict(forest, X, threshold=0.55)
        assert verdicts.labels.size == 1000
        assert np.array_equal(verdicts.labels, label_scores(s, threshold=0.55))
        assert np.array_equal(verdicts.scores, s) and np.array_equal(verdicts.mean_path_lengths, mean_h)


class TestPersistence:
    @pytest.mark.parametrize(
        "shape, t, m, seed, cells",
        [
            ((10, 2), 1, 2, 0, "plain"),
            ((40, 3), 5, 40, 1, "identical"),
            ((300, 5), 12, 64, 2, "nan"),
            ((200, 1), 7, 100, 3, "plain"),
            ((500, 8), 30, 256, 4, "integer"),
            ((64, 4), 3, 64, 5, "nan"),
            ((200, 4), 15, 64, 21, "plain"),
        ],
    )
    def test_rebuilt_arrays_text_and_scores_are_the_fitted_ones(self, shape, t, m, seed, cells):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=shape)
        if cells == "identical":  # every tree is a single root leaf
            X[:] = 1.25
        elif cells == "nan":
            X[rng.random(shape) < 0.1] = np.nan
        elif cells == "integer":
            X = rng.integers(0, 4, size=shape).astype(np.float64)
        forest = fit_forest(X, t=t, m=m, seed=seed)
        text = forest_to_json(forest)
        reloaded = forest_from_json(text)
        for tree, again in zip(forest.trees, reloaded.trees, strict=True):
            for name in ("feature", "threshold", "leaf_size"):
                fitted, rebuilt = getattr(tree, name), getattr(again, name)
                assert rebuilt.dtype == fitted.dtype and np.array_equal(rebuilt, fitted), name
        assert forest_to_json(reloaded) == text
        Y = np.vstack([X, rng.normal(size=shape) * 3])
        for fitted, rebuilt in zip(score_batch(forest, Y), score_batch(reloaded, Y)):
            assert fitted.tobytes() == rebuilt.tobytes()


# The node-object isolation tree and its stack walk as they stood before
# trees became flat arrays, kept verbatim as the oracle for
# `build_itree` and the level-wise scorer.
@dataclass
class OracleExternal:
    size: int


@dataclass
class OracleInternal:
    feature: int
    value: float
    left: "OracleInternal | OracleExternal"
    right: "OracleInternal | OracleExternal"


def oracle_build_itree(sample, depth, height_limit, rng):
    n = sample.shape[0]
    if n == 0:
        raise IsoguardError("cannot build a tree over an empty sample")
    if n <= 1 or depth >= height_limit:
        return OracleExternal(size=n)
    lo = sample.min(axis=0)
    hi = sample.max(axis=0)
    varying = np.flatnonzero(hi > lo)
    if varying.size == 0:
        return OracleExternal(size=n)
    feature = int(varying[rng.integers(varying.size)])
    split = float(rng.uniform(lo[feature], hi[feature]))
    if split <= lo[feature]:
        split = float(np.nextafter(lo[feature], hi[feature]))
    mask = sample[:, feature] < split
    return OracleInternal(
        feature=feature,
        value=split,
        left=oracle_build_itree(sample[mask], depth + 1, height_limit, rng),
        right=oracle_build_itree(sample[~mask], depth + 1, height_limit, rng),
    )


def oracle_path_lengths(tree, X):
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(tree, np.arange(X.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        if isinstance(node, OracleExternal):
            out[idx] = depth + expected_path_length(node.size)
            continue
        mask = X[idx, node.feature] < node.value
        stack.append((node.left, idx[mask], depth + 1))
        stack.append((node.right, idx[~mask], depth + 1))
    return out


def oracle_forest(X, t, m, seed):
    """The trees fit_forest grew before, from the same per-tree seeds and subsamples."""
    height_limit = math.ceil(math.log2(m))
    trees = []
    for i in range(t):
        rng = np.random.default_rng(derive_seed(seed, "tree", i))
        sample_idx = rng.choice(X.shape[0], size=m, replace=False)
        trees.append(oracle_build_itree(X[sample_idx], 0, height_limit, rng))
    return trees


def oracle_mean_path_lengths(trees, X):
    return np.mean(np.stack([oracle_path_lengths(tree, X) for tree in trees], axis=0), axis=0)


def to_oracle(tree: ITree):
    nodes = node_arrays(tree)

    def convert(i):
        if tree.feature[i] < 0:
            return OracleExternal(size=int(nodes.size[i]))
        return OracleInternal(
            feature=int(tree.feature[i]),
            value=float(nodes.threshold[i]),
            left=convert(int(nodes.left[i])),
            right=convert(int(nodes.right[i])),
        )

    return convert(0)


def assert_flat_layout(tree: ITree):
    """Split/leaf flags that form one full binary tree in pre-order, one
    threshold per split and one size of at least 1 per leaf."""
    splits = int(np.count_nonzero(tree.feature >= 0))
    assert (tree.feature.dtype, tree.threshold.dtype, tree.leaf_size.dtype) == (np.int64, np.float64, np.int64)
    assert tree.threshold.shape == (splits,) and tree.leaf_size.shape == (splits + 1,)
    assert (tree.leaf_size >= 1).all()
    node_arrays(tree)  # follows the flags from the root through every node


def _data(case: str):
    """(training matrix, scoring batch, m) for each equivalence case."""
    rng = np.random.default_rng(sum(map(ord, case)))
    X = rng.normal(size=(300, 5))
    if case == "plain":
        return X, rng.normal(size=(200, 5)), 64
    if case == "nan-inf-cells":
        Y = rng.normal(size=(400, 5)) * 3
        cells = rng.random(Y.shape)
        Y[cells < 0.05] = np.nan
        Y[(cells >= 0.05) & (cells < 0.1)] = np.inf
        Y[(cells >= 0.1) & (cells < 0.15)] = -np.inf
        Y[0] = np.nan  # a row with no value at all
        return X, Y, 64
    if case == "constant-columns":
        X[:, 1] = 2.5
        X[:, 3] = -1.0
        Y = rng.normal(size=(100, 5))
        Y[:50, 1] = 2.5
        return X, Y, 128
    if case == "identical-rows":  # every tree is a single root leaf
        X = np.full((40, 3), 1.25)
        return X, np.vstack([X[:5], rng.normal(size=(5, 3))]), 40
    if case == "m2":  # height_limit 1
        return X, rng.normal(size=(50, 5)), 2
    if case == "m-equals-n":
        X = X[:64]
        return X, X, 64
    if case == "m-not-power-of-two":
        return X, rng.normal(size=(150, 5)), 100
    if case == "one-feature":
        X = rng.normal(size=(200, 1))
        return X, np.vstack([X, [[np.nan], [np.inf], [-np.inf], [40.0]]]), 50
    if case == "integer-ties":
        X = rng.integers(0, 4, size=(300, 4)).astype(np.float64)
        return X, rng.integers(-1, 5, size=(120, 4)).astype(np.float64), 256
    if case == "empty-batch":
        return X, np.empty((0, 5)), 64
    if case == "one-row-batch":
        return X, rng.normal(size=(1, 5)), 64
    if case == "odd-row-batch":  # blocks of unequal size
        return X, rng.normal(size=(151, 5)), 64
    raise AssertionError(case)


EQUIVALENCE_CASES = (
    "plain",
    "nan-inf-cells",
    "constant-columns",
    "identical-rows",
    "m2",
    "m-equals-n",
    "m-not-power-of-two",
    "one-feature",
    "integer-ties",
    "empty-batch",
    "one-row-batch",
    "odd-row-batch",
)


class TestMatchesNodeObjectOracle:
    @pytest.mark.parametrize("case", EQUIVALENCE_CASES)
    def test_trees_node_for_node(self, case):
        X, _, m = _data(case)
        forest = fit_forest(X, t=12, m=m, seed=31)
        expected = oracle_forest(X, 12, m, 31)
        assert len(forest.trees) == len(expected)
        for tree, old in zip(forest.trees, expected):
            assert_flat_layout(tree)
            assert to_oracle(tree) == old

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("case", EQUIVALENCE_CASES)
    def test_mean_path_lengths_bit_for_bit(self, case, threads, monkeypatch):
        monkeypatch.setenv("ISOGUARD_THREADS", threads)
        X, Y, m = _data(case)
        for t in (12, 13):  # at 13 trees on two workers, the last set of trees walked together holds one
            forest = fit_forest(X, t=t, m=m, seed=31)
            expected = oracle_mean_path_lengths(oracle_forest(X, t, m, 31), Y)
            got = mean_path_lengths(forest, Y)
            assert got.shape == (Y.shape[0],)
            assert np.array_equal(got, expected), t
            reloaded = forest_from_json(forest_to_json(forest))
            assert np.array_equal(mean_path_lengths(reloaded, Y), expected), t

    def test_rows_on_split_thresholds_go_right(self):
        # thresholds are continuous draws, so random rows never sit on one;
        # rows built from the thresholds themselves exercise the tie
        X, _, m = _data("plain")
        forest = fit_forest(X, t=12, m=m, seed=31)
        values = np.concatenate([tree.threshold for tree in forest.trees])
        Y = np.repeat(values[:, None], X.shape[1], axis=1)
        got = mean_path_lengths(forest, Y)
        assert np.array_equal(got, oracle_mean_path_lengths(oracle_forest(X, 12, m, 31), Y))

    def test_single_root_leaf_trees(self):
        X, Y, m = _data("identical-rows")
        forest = fit_forest(X, t=5, m=m, seed=0)
        for tree in forest.trees:
            assert tree.feature.tolist() == [-1] and tree.leaf_size.tolist() == [40]
        assert np.array_equal(mean_path_lengths(forest, Y), np.full(Y.shape[0], expected_path_length(40)))

    def test_hand_built_three_array_forest(self):
        trees = [
            flat_tree([1, -1, 0, -1, -1], [0.0, 0.5], [3, 2, 3]),
            flat_tree([0, 0, -1, -1, -1], [0.25, -1.0], [1, 5, 2]),
            leaf_tree(8),
        ]
        expected = [
            OracleInternal(1, 0.0, OracleExternal(3), OracleInternal(0, 0.5, OracleExternal(2), OracleExternal(3))),
            OracleInternal(0, 0.25, OracleInternal(0, -1.0, OracleExternal(1), OracleExternal(5)), OracleExternal(2)),
            OracleExternal(8),
        ]
        assert [to_oracle(tree) for tree in trees] == expected
        forest = IsolationForest(trees=trees, t=3, m=8, height_limit=3, seed=0, n_features=2)
        # rows on each threshold, on either side of it, and NaN or infinite cells
        values = [-1.0, -0.5, 0.0, 0.25, 0.5, 0.75, np.nan, np.inf, -np.inf]
        Y = np.array([[a, b] for a in values for b in values])
        want = oracle_mean_path_lengths(expected, Y)
        assert np.array_equal(mean_path_lengths(forest, Y), want)
        assert np.array_equal(mean_path_lengths(forest_from_json(forest_to_json(forest)), Y), want)

    def test_derived_links_and_depths_follow_the_flags(self):
        X, _, m = _data("plain")
        forest = fit_forest(X, t=12, m=m, seed=31)
        trees = forest.trees + [leaf_tree(3), flat_tree([0, -1, -1], [0.5], [1, 2])]
        derived = iforest._nodes(trees)
        assert derived.root.tolist() == np.cumsum([0] + [tree.feature.size for tree in trees[:-1]]).tolist()
        for tree, root in zip(trees, derived.root.tolist()):
            nodes = node_arrays(tree)
            span = slice(root, root + tree.feature.size)
            assert np.array_equal(derived.feature[span], tree.feature)
            assert np.array_equal(derived.threshold[span], nodes.threshold)
            assert np.array_equal(derived.left[span], nodes.left + root)
            assert np.array_equal(derived.right[span], nodes.right + root)
            assert np.array_equal(derived.depth[span], nodes.depth)
            assert np.array_equal(derived.leaf_size[span], np.where(tree.feature < 0, nodes.size, 0))

    def test_predict_verdicts_match_oracle_scores(self):
        X, Y, m = _data("nan-inf-cells")
        forest = fit_forest(X, t=12, m=m, seed=31)
        mean_h = oracle_mean_path_lengths(oracle_forest(X, 12, m, 31), Y)
        s = np.power(2.0, -mean_h / expected_path_length(m))
        verdicts = predict(forest, Y, contamination=0.1)
        assert [v.score.mean_path_length for v in verdicts] == mean_h.tolist()
        assert [v.score.s for v in verdicts] == s.tolist()
        assert all(type(v.label) is int and type(v.score.s) is float for v in verdicts)
        s, mean_h = score_batch(forest, Y)
        boxes = [
            OutlierVerdict(label, AnomalyScore(si, hi))
            for label, si, hi in zip(label_scores(s, contamination=0.1).tolist(), s.tolist(), mean_h.tolist())
        ]
        assert verdicts.labels.size == len(boxes) == Y.shape[0]
        rows = list(verdicts)
        assert rows == boxes
        for got in rows:
            assert type(got.label) is int
            assert type(got.score.s) is float and type(got.score.mean_path_length) is float


class TestLoadForestChecks:
    @pytest.fixture()
    def saved(self, tmp_path):
        X = np.random.default_rng(40).normal(size=(120, 3))
        path = tmp_path / "forest.json"
        save_forest(fit_forest(X, t=4, m=32, seed=2), path)
        return path, json.loads(path.read_text(encoding="utf-8"))

    @staticmethod
    def first_tree(doc):
        tree = doc["trees"][0]
        assert tree["feature"][0] >= 0 and tree["feature"][1] >= 0, "tree 0 should split at its root and node 1"
        return tree

    def test_saved_forest_loads(self, saved):
        path, doc = saved
        assert sorted(doc["trees"][0]) == ["feature", "leaf_size", "threshold"]
        forest = load_forest(path)
        assert forest.t == 4 and len(forest.trees) == 4
        for tree in forest.trees:
            assert_flat_layout(tree)
        assert forest_to_json(forest) + "\n" == path.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "corruption, message",
        [
            ("feature-out-of-range", "trees[0]: split feature must be an integer in [0, 3), got 3"),
            ("feature-negative", "trees[0]: split feature must be an integer in [0, 3), got -2"),
            ("feature-float", "trees[0].feature element must be an integer, got 1.0"),
            ("missing-leaf-sizes", "missing key 'trees[0].leaf_size'"),
            ("wrong-t", "holds 4 trees, expected t = 5"),
            ("leaf-size-zero", "trees[0]: leaf size must be an integer in [1, 32], got 0"),
            ("leaf-size-above-m", "trees[0]: leaf size must be an integer in [1, 32], got 33"),
            ("leaf-sizes-off-m", "trees[0]: tree leaves hold 33 rows, expected m = 32"),
            ("too-deep", "trees[0]: tree deeper than height_limit 5"),
            ("height-limit-off-m", "height_limit 6 does not match m = 32"),
            ("seed-float", "seed must be an integer, got 1.9"),
            ("value-nan", "trees[0].threshold element must be a finite number, got nan"),
            ("value-string", "trees[0].threshold element must be a finite number, got '0.25'"),
            ("value-bool", "trees[0].threshold element must be a finite number, got True"),
            ("node-not-an-object", "trees[1] must be an object, got [1, 2]"),
            ("truncated", "unreadable artifact"),
            ("one-threshold-extra", "trees[0]: holds {extra} threshold values for {splits} split nodes"),
            ("one-leaf-size-short", "trees[0]: holds {short} leaf_size values for {leaves} leaf nodes"),
            ("empty-tree", "trees[0]: feature must hold at least one node"),
            ("split-relabelled-as-leaf", "trees[0]: split/leaf flags do not form one full binary tree in pre-order"),
            ("leaf-relabelled-as-split", "trees[0]: split/leaf flags do not form one full binary tree in pre-order"),
            ("node-after-the-tree", "trees[0]: split/leaf flags do not form one full binary tree in pre-order"),
            ("old-six-array-form", "unknown keys in forest section 'trees[0]': ['depth', 'left', 'right', 'size']"),
            ("m-one", "m must be >= 2, got 1"),
        ],
    )
    def test_corruption_raises_naming_the_file(self, saved, corruption, message):
        path, doc = saved
        tree = self.first_tree(doc)
        splits, leaves = len(tree["threshold"]), len(tree["leaf_size"])
        message = message.format(extra=splits + 1, splits=splits, short=leaves - 1, leaves=leaves)
        if corruption == "feature-out-of-range":
            tree["feature"][0] = 3
        elif corruption == "feature-negative":
            tree["feature"][0] = -2  # -1 marks a leaf
        elif corruption == "feature-float":
            tree["feature"][0] = 1.0
        elif corruption == "missing-leaf-sizes":
            del tree["leaf_size"]
        elif corruption == "wrong-t":
            doc["t"] = 5
        elif corruption == "leaf-size-zero":
            tree["leaf_size"][0] = 0
        elif corruption == "leaf-size-above-m":
            tree["leaf_size"][0] = 33
        elif corruption == "leaf-sizes-off-m":
            tree["leaf_size"][0] += 1
        elif corruption == "too-deep":  # six splits down the left, one more than height_limit allows
            doc["trees"][0] = {"feature": [0] * 6 + [-1] * 7, "threshold": [0.5] * 6, "leaf_size": [26] + [1] * 6}
        elif corruption == "height-limit-off-m":
            doc["height_limit"] = 6
        elif corruption == "seed-float":
            doc["seed"] = 1.9
        elif corruption.startswith("value-"):
            bad = {"value-nan": math.nan, "value-string": "0.25", "value-bool": True}
            tree["threshold"][0] = bad[corruption]
        elif corruption == "node-not-an-object":
            doc["trees"][1] = [1, 2]
        elif corruption == "one-threshold-extra":
            tree["threshold"].append(0.5)
        elif corruption == "one-leaf-size-short":
            tree["leaf_size"].pop()
        elif corruption == "empty-tree":
            for column in tree.values():
                column.clear()
        elif corruption == "split-relabelled-as-leaf":
            tree["feature"][1] = -1
        elif corruption == "leaf-relabelled-as-split":
            tree["feature"][-1] = 0
        elif corruption == "node-after-the-tree":
            tree["feature"].append(-1)
        elif corruption == "old-six-array-form":  # every node's threshold, links, size and depth
            for stored, loaded in zip(doc["trees"], load_forest(path).trees):
                nodes = node_arrays(loaded)
                del stored["leaf_size"]
                for name in ("threshold", "left", "right", "size", "depth"):
                    stored[name] = getattr(nodes, name).tolist()
        elif corruption == "m-one":
            doc["m"] = 1
        if corruption == "truncated":
            text = path.read_text(encoding="utf-8")
            path.write_text(text[: len(text) * 2 // 3], encoding="utf-8")
        else:
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        with pytest.raises(ArtifactError) as caught:
            load_forest(path)
        assert caught.value.paths == (path,)
        assert str(path) in str(caught.value)
        assert message in str(caught.value)

    @pytest.mark.parametrize("column", ["feature", "threshold", "leaf_size"])
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("nesting, levels", [("list-in-a-list", 2), ("scalar", 0)])
    def test_column_that_is_not_a_flat_list_is_refused(self, tmp_path, column, t, nesting, levels):
        """With one tree, a nested column would load and save back nested;
        with more, numpy would fail to join the trees' columns."""
        path = tmp_path / "forest.json"
        save_forest(fit_forest(np.random.default_rng(40).normal(size=(120, 3)), t=t, m=32, seed=2), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        tree = doc["trees"][t - 1]
        tree[column] = [tree[column]] if nesting == "list-in-a-list" else tree[column][0]
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        message = f"trees[{t - 1}].{column} must be a flat list of numbers, got {levels} levels of nesting"
        with pytest.raises(ArtifactError, match=re.escape(message)):
            load_forest(path)

    def test_every_cut_of_a_saved_forest_is_refused(self, tmp_path):
        path = tmp_path / "forest.json"
        save_forest(fit_forest([[0.0, 1.0], [2.0, 1.5], [0.5, 3.0]], t=2, m=2, seed=5), path)
        data = path.read_bytes()
        for cut in range(len(data) - 1):  # the last byte is the newline after a complete document
            path.write_bytes(data[:cut])
            with pytest.raises(ArtifactError) as caught:
                load_forest(path)
            assert caught.value.paths == (path,) and str(path) in str(caught.value), cut


class TestSaveForestChecks:
    @pytest.fixture()
    def forest(self):
        forest = fit_forest(np.random.default_rng(41).normal(size=(120, 3)), t=3, m=32, seed=6)
        assert forest.trees[1].feature[0] >= 0
        return forest

    def test_forest_without_trees_is_refused(self, forest):
        forest.trees.clear()
        with pytest.raises(IsoguardError, match=re.escape("holds 0 trees, expected t = 3")):
            forest_to_json(forest)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"t": 4}, "holds 3 trees, expected t = 4"),
            ({"height_limit": 9}, "height_limit 9 does not match m = 32"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ],
    )
    def test_forest_the_loader_refuses_is_not_saved(self, forest, tmp_path, change, message):
        path = tmp_path / "forest.json"
        with pytest.raises(IsoguardError, match=re.escape(message)):
            save_forest(replace(forest, **change), path)
        assert not path.exists()
