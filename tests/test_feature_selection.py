import dataclasses
import json
import math
import re

import numpy as np
import pytest

from isoguard.errors import IsoguardError
from isoguard.feature_selection import (
    _CANDIDATE_TAG,
    _DRAW_BLOCK,
    _THRESHOLD_TAG,
    ExtraTreesEstimator,
    ExtraTreesParams,
    RfeResult,
    _build_trees,
    fit_extra_trees,
    load_rfe,
    rfe_select,
    save_rfe,
)
from isoguard.iforest import IsolationForest, ITree, _check_trees
from isoguard.prng import hash64, unit_uniforms


def gini(labels):
    p1 = labels.mean()
    return 1.0 - (1.0 - p1) ** 2 - p1**2


def separable_data(rng, n=120, d=6, informative=2):
    """Feature `informative` separates the classes perfectly by a threshold."""
    X = rng.normal(size=(n, d))
    y = (X[:, informative] > 0.0).astype(np.int64)
    if y.min() == y.max():  # keep both classes present
        y[0] = 1 - y[0]
    return X, y


# both read the matrix through one rule, so each rejects the same matrices
MATRIX_READERS = {
    "fit_extra_trees": lambda X, y: fit_extra_trees(X, y, ExtraTreesParams(n_trees=2, seed=1)),
    "rfe_select": lambda X, y: rfe_select(X, y, 1, params=ExtraTreesParams(n_trees=2, seed=1)),
}


class TestFitExtraTrees:
    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(IsoguardError, match="single class"):
            fit_extra_trees(X, np.zeros(10, dtype=int))

    @pytest.mark.parametrize("shape", [(0, 3), (40, 0)], ids=["no-rows", "no-columns"])
    @pytest.mark.parametrize("read", MATRIX_READERS.values(), ids=MATRIX_READERS)
    def test_empty_matrix_rejected(self, read, shape):
        with pytest.raises(IsoguardError, match="non-empty"):
            read(np.empty(shape), np.arange(shape[0]) % 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("read", MATRIX_READERS.values(), ids=MATRIX_READERS)
    def test_non_finite_rejected(self, read, value):
        X, y = separable_data(np.random.default_rng(6), n=50, d=4)
        X[17, 2] = value
        with pytest.raises(IsoguardError, match="NaN or infinite"):
            read(X, y)

    @pytest.mark.parametrize("n_trees", [0, -1])
    def test_no_trees_rejected(self, n_trees):
        X, y = separable_data(np.random.default_rng(6), n=50, d=4)
        with pytest.raises(IsoguardError, match="n_trees must be >= 1"):
            fit_extra_trees(X, y, ExtraTreesParams(n_trees=n_trees))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X, y = separable_data(rng)
        params = ExtraTreesParams(n_trees=8, seed=5)
        a = fit_extra_trees(X, y, params).importances
        b = fit_extra_trees(X, y, params).importances
        np.testing.assert_array_equal(a, b)

    def test_single_stump_importance_is_one(self):
        rng = np.random.default_rng(2)
        X, y = separable_data(rng, d=4)
        params = ExtraTreesParams(n_trees=1, max_depth=1, seed=3)
        est = fit_extra_trees(X, y, params)
        assert np.count_nonzero(est.importances) == 1
        assert est.importances.sum() == pytest.approx(1.0, abs=1e-9)

    def test_only_varying_feature_gets_all_importance(self):
        rng = np.random.default_rng(3)
        X = np.zeros((80, 3))
        X[:, 0] = rng.normal(size=80)
        y = (X[:, 0] > 0).astype(np.int64)
        est = fit_extra_trees(X, y, ExtraTreesParams(n_trees=10, seed=1))
        imp = est.importances
        np.testing.assert_allclose(imp, [1.0, 0.0, 0.0], atol=1e-12)

    def test_separable_feature_ranks_first_across_seeds(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            X, y = separable_data(rng, n=150, d=6, informative=2)
            est = fit_extra_trees(X, y, ExtraTreesParams(n_trees=20, seed=seed))
            if est.importances.argmax() == 2:
                hits += 1
        assert hits >= 19  # >= 95% of 20 seeds

    def test_importances_sum_to_one(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 5))
        y = rng.integers(0, 2, 60)
        est = fit_extra_trees(X, y, ExtraTreesParams(n_trees=12, seed=9))
        assert est.importances.sum() == pytest.approx(1.0, abs=1e-9)

    def test_gini_decrease_matches_direct_recomputation(self):
        rng = np.random.default_rng(5)
        X, y = separable_data(rng, n=50, d=4)
        n, d = X.shape
        est = fit_extra_trees(X, y, ExtraTreesParams(n_trees=4, seed=7))

        def check(nodes, rows, acc):
            """Walk the next node in pre-order, with its subtree, over ``rows``."""
            feature, threshold, size = next(nodes)
            assert size == rows.size
            if feature == -1:
                return
            mask = X[rows, feature] < threshold
            left, right = rows[mask], rows[~mask]
            assert left.size > 0 and right.size > 0
            recomputed = gini(y[rows]) - (
                left.size * gini(y[left]) + right.size * gini(y[right])
            ) / rows.size
            assert recomputed >= -1e-15
            acc[feature] += (rows.size / n) * recomputed
            check(nodes, left, acc)
            check(nodes, right, acc)

        for tree, want in zip(est.trees, est.tree_importances):
            acc = np.zeros(d)
            check(iter(preorder(tree)), np.arange(n), acc)
            np.testing.assert_allclose(acc / acc.sum(), want, rtol=0, atol=1e-12)

    def test_no_split_anywhere_is_an_error(self):
        X = np.ones((10, 2))  # constant features: no split possible
        y = np.array([0, 1] * 5)
        est = fit_extra_trees(X, y, ExtraTreesParams(n_trees=3, seed=0))
        with pytest.raises(IsoguardError, match="no split"):
            est.importances


def stump(feature):
    """A root split on ``feature`` at 0.5 over two one-row leaves."""
    return ITree(np.array([feature, -1, -1]), np.array([0.5]), np.array([1, 1]))


class TestFeatureImportances:
    def test_mean_of_one_hot_trees(self):
        # two hand-built trees putting all weight on features 0 and 1
        est = ExtraTreesEstimator(
            trees=[stump(0), stump(1)],
            tree_importances=[np.array([1.0, 0.0]), np.array([0.0, 1.0])],
        )
        np.testing.assert_allclose(est.importances, [0.5, 0.5])


class TestRfe:
    def informative_noise_data(self, seed, n=200, informative=5, noise=10):
        rng = np.random.default_rng(seed)
        d = informative + noise
        X = rng.normal(size=(n, d))
        y = (X[:, :informative].sum(axis=1) > 0).astype(np.int64)
        X[:, informative:] = rng.uniform(-1, 1, size=(n, noise))
        return X, y

    def test_selected_count(self):
        X, y = self.informative_noise_data(0)
        result = rfe_select(X, y, target_count=5, params=ExtraTreesParams(n_trees=10, min_samples_split=20, seed=1))
        assert len(result.selected) == 5

    def test_single_round_when_target_is_d_minus_one(self):
        X, y = self.informative_noise_data(1, n=100, informative=3, noise=3)
        result = rfe_select(X, y, target_count=5, step=1, params=ExtraTreesParams(n_trees=5, seed=2))
        assert len(result.trace) == 1
        assert result.trace[0][0] == 1

    def test_monotone_containment_of_survivors(self):
        X, y = self.informative_noise_data(2, n=150, informative=4, noise=6)
        result = rfe_select(X, y, target_count=3, params=ExtraTreesParams(n_trees=8, seed=3))
        survivors = set(range(X.shape[1]))
        seen = set()
        for round_no, removed, _ in result.trace:
            assert removed in survivors
            survivors.discard(removed)
            seen.add(round_no)
        assert survivors == set(result.selected)
        assert seen == set(range(1, len(result.trace) + 1))

    def test_determinism(self):
        X, y = self.informative_noise_data(3)
        params = ExtraTreesParams(n_trees=10, min_samples_split=20, seed=4)
        a = rfe_select(X, y, target_count=6, params=params)
        b = rfe_select(X, y, target_count=6, params=params)
        assert a.selected == b.selected
        assert a.trace == b.trace

    def test_step_respects_target(self):
        X, y = self.informative_noise_data(4, n=100, informative=3, noise=4)
        result = rfe_select(X, y, target_count=4, step=5, params=ExtraTreesParams(n_trees=5, seed=5))
        assert len(result.selected) == 4
        assert len(result.trace) == 3  # one round dropping exactly d - target features

    def test_informative_features_survive(self):
        informative = 5
        hits = 0
        for seed in range(10):
            X, y = self.informative_noise_data(200 + seed, n=200, informative=informative, noise=10)
            result = rfe_select(
                X,
                y,
                target_count=5,
                params=ExtraTreesParams(n_trees=25, min_samples_split=25, seed=seed),
            )
            kept = sum(1 for i in result.selected if i < informative)
            if kept >= 4:
                hits += 1
        assert hits >= 9

    def test_invalid_target(self):
        X, y = self.informative_noise_data(5, n=60, informative=2, noise=2)
        with pytest.raises(IsoguardError, match="target_count"):
            rfe_select(X, y, target_count=4, params=ExtraTreesParams(n_trees=3))
        with pytest.raises(IsoguardError, match="target_count"):
            rfe_select(X, y, target_count=0, params=ExtraTreesParams(n_trees=3))

    def test_vector_rejected(self):
        with pytest.raises(IsoguardError, match=re.escape("X must be a non-empty 2-D matrix, got shape (5,)")):
            rfe_select(np.zeros(5), np.arange(5) % 2, 1, params=ExtraTreesParams(n_trees=2))

    @pytest.mark.parametrize("n_keys", [2, 4])
    def test_one_key_per_column(self, n_keys):
        X, y = self.informative_noise_data(5, n=40, informative=2, noise=1)
        keys = np.arange(n_keys)
        for select in (
            lambda: rfe_select(X, y, 1, params=ExtraTreesParams(n_trees=2), feature_keys=keys),
            lambda: fit_extra_trees(X, y, ExtraTreesParams(n_trees=2), feature_keys=keys),
        ):
            with pytest.raises(IsoguardError, match="feature_keys must provide one key per column"):
                select()

    def test_permutation_equivariance_with_traveling_keys(self):
        X, y = self.informative_noise_data(6, n=120, informative=3, noise=5)
        d = X.shape[1]
        params = ExtraTreesParams(n_trees=6, seed=11)
        base = rfe_select(X, y, target_count=4, params=params)
        perm = np.random.default_rng(0).permutation(d)
        keys = np.arange(d, dtype=np.uint64)[perm]  # keys travel with their columns
        permuted = rfe_select(X[:, perm], y, target_count=4, params=params, feature_keys=keys)
        mapped = sorted(int(perm[j]) for j in permuted.selected)
        assert mapped == sorted(base.selected)

    def test_json_round_trip(self, tmp_path):
        X, y = self.informative_noise_data(7, n=80, informative=3, noise=3)
        result = rfe_select(X, y, target_count=3, params=ExtraTreesParams(n_trees=5, seed=6))
        names = [f"col{j}" for j in range(X.shape[1])]
        save_rfe(result, names, tmp_path / "rfe.json")
        loaded, loaded_names = load_rfe(tmp_path / "rfe.json")
        assert loaded.selected == result.selected
        assert loaded.trace == result.trace
        assert loaded_names == names
        np.testing.assert_allclose(loaded.final_importances, result.final_importances)

    @pytest.mark.parametrize(
        "selected, importances",
        [
            ([0, 2, 9], [0.5, 0.3, 0.2]),  # past the 6 columns
            ([-1, 2, 4], [0.5, 0.3, 0.2]),  # would wrap to the last column
            ([0, 2, 2], [0.5, 0.3, 0.2]),  # repeated
            ([2, 0, 4], [0.5, 0.3, 0.2]),  # out of order
            ([0, 2.0, 4], [0.5, 0.3, 0.2]),  # not an int
            ([0, True, 4], [0.5, 0.3, 0.2]),
            ([], []),
            ([0, 2, 4], [0.5, 0.5]),  # one importance short
            ([0, 2, 4], [[0.5], [0.3], [0.2]]),
        ],
    )
    def test_load_rejects_bad_selection(self, tmp_path, selected, importances):
        names = [f"col{j}" for j in range(6)]
        good = RfeResult(selected=(0, 2, 4), trace=(), final_importances=np.array([0.5, 0.3, 0.2]))
        save_rfe(good, names, tmp_path / "rfe.json")
        assert load_rfe(tmp_path / "rfe.json")[0].selected == (0, 2, 4)
        doc = json.loads((tmp_path / "rfe.json").read_text(encoding="utf-8"))
        doc.update(selected=selected, final_importances=importances)
        (tmp_path / "rfe.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(IsoguardError, match="selected") as caught:
            load_rfe(tmp_path / "rfe.json")
        assert str(tmp_path / "rfe.json") in str(caught.value)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("final_importances", [0.5, "0.6", 0.2], "final_importances element must be a finite number, got '0.6'"),
            ("final_importances", [0.5, math.nan, 0.2], "final_importances element must be a finite number, got nan"),
            ("trace", [{"round": 1, "removed": 1.9, "importance": 0.1}], "trace[0].removed must be an integer, got 1.9"),
            ("trace", [{"round": True, "removed": 1, "importance": 0.1}], "trace[0].round must be an integer, got True"),
            ("column_names", ["col0", 1, "col2", "col3", "col4", "col5"], "column_names[1] must be a string, got 1"),
            ("selected_names", ["col0", "col2", "col5"], "selected_names must be the column_names at selected"),
            ("selected", "12", "selected must be a list, got '12'"),
            ("selected", 7, "selected must be a list, got 7"),
        ],
    )
    def test_load_rejects_bad_types(self, tmp_path, key, value, message):
        names = [f"col{j}" for j in range(6)]
        good = RfeResult(selected=(0, 2, 4), trace=(), final_importances=np.array([0.5, 0.3, 0.2]))
        save_rfe(good, names, tmp_path / "rfe.json")
        doc = json.loads((tmp_path / "rfe.json").read_text(encoding="utf-8"))
        (tmp_path / "rfe.json").write_text(json.dumps(doc | {key: value}), encoding="utf-8")
        with pytest.raises(IsoguardError) as caught:
            load_rfe(tmp_path / "rfe.json")
        assert str(tmp_path / "rfe.json") in str(caught.value)
        assert message in str(caught.value)


# ---------------------------------------------------------------------------
# oracle: the node-by-node build as first written, hashing every node's
# draws with scalar hash64 calls


def _oracle_gini_counts(n0, n1):
    total = n0 + n1
    p0 = n0 / total
    p1 = n1 / total
    return 1.0 - p0 * p0 - p1 * p1


def oracle_build_tree(X, y, keys, params, tree_index, importances):
    n_total = X.shape[0]
    d = X.shape[1]
    n_candidates = max(1, math.ceil(math.sqrt(d)))
    counter = [0]
    y_float = y.astype(np.float64)
    max_depth = params.max_depth
    min_split = params.min_samples_split
    seed = params.seed
    out = []  # (feature, threshold, n) per node in pre-order; a leaf is (-1, 0.0, n)

    def build(rows, depth):
        n_node = rows.size
        labels = y_float[rows]
        n1 = labels.sum()
        n0 = n_node - n1
        if (
            n0 == 0.0
            or n1 == 0.0
            or n_node < min_split
            or (max_depth is not None and depth >= max_depth)
        ):
            out.append((-1, 0.0, n_node))
            return

        node_id = counter[0]
        counter[0] += 1
        cand_base = hash64(seed, tree_index, node_id, _CANDIDATE_TAG)
        order = np.argsort(unit_uniforms(cand_base, keys), kind="stable")
        candidates = order[:n_candidates]

        sub = X[rows[:, None], candidates[None, :]]
        lo = sub.min(axis=0)
        hi = sub.max(axis=0)
        valid = hi > lo
        if not valid.any():
            out.append((-1, 0.0, n_node))
            return

        thr_base = hash64(seed, tree_index, node_id, _THRESHOLD_TAG)
        draws = unit_uniforms(thr_base, keys[candidates])
        thresholds = lo + (hi - lo) * draws
        degenerate = valid & (thresholds <= lo)
        if degenerate.any():
            thresholds = np.where(degenerate, np.nextafter(lo, hi), thresholds)

        left_masks = sub < thresholds
        lm = left_masks.astype(np.float64)
        nl = lm.sum(axis=0)
        n1l = labels @ lm
        n0l = nl - n1l
        nr = n_node - nl
        n1r = n1 - n1l
        n0r = n0 - n0l
        parent_gini = _oracle_gini_counts(n0, n1)
        with np.errstate(invalid="ignore", divide="ignore"):
            child_gini = (nl * _oracle_gini_counts(n0l, n1l) + nr * _oracle_gini_counts(n0r, n1r)) / n_node
        decrease = np.where(valid, parent_gini - child_gini, -np.inf)

        best = int(np.argmax(decrease))
        if not np.isfinite(decrease[best]):
            out.append((-1, 0.0, n_node))
            return
        feature = int(candidates[best])
        threshold = float(thresholds[best])
        local_decrease = float(decrease[best])

        mask = left_masks[:, best]
        importances[feature] += (n_node / n_total) * local_decrease
        out.append((feature, threshold, n_node))
        build(rows[mask], depth + 1)
        build(rows[~mask], depth + 1)

    build(np.arange(n_total), 0)
    return out


def preorder(tree):
    """The (feature, threshold, n) rows of an ITree in pre-order: a leaf is
    (-1, 0.0, its size), and a split's n sums its subtree's leaves."""
    thresholds, sizes = iter(tree.threshold.tolist()), iter(tree.leaf_size.tolist())
    out = []

    def visit():  # the next node in pre-order, with its subtree; returns its n
        feature = int(tree.feature[len(out)])
        if feature == -1:
            out.append((-1, 0.0, next(sizes)))
            return out[-1][2]
        at = len(out)
        out.append((feature, next(thresholds)))
        out[at] += (visit() + visit(),)
        return out[at][2]

    visit()
    assert len(out) == tree.feature.size
    assert next(thresholds, None) is None and next(sizes, None) is None
    return out


def oracle_cases():
    """(X, y, keys or None, params): random inputs with the awkward shapes spelled out."""
    rng = np.random.default_rng(31)
    cases = []
    for i, d in enumerate((1, 2, 3, 5, 9, 16, 41)):
        n = int(rng.integers(20, 260))
        X = rng.normal(size=(n, d))
        y = (X[:, 0] + rng.normal(scale=1.0, size=n) > 0.3).astype(np.int64)
        cases.append((X, y, None, ExtraTreesParams(n_trees=3, seed=i)))
    # constant columns next to varying ones, and an all-constant node subset
    X = rng.normal(size=(150, 7))
    X[:, [1, 4]] = 2.5
    X[:40, :] = 0.0
    y = rng.integers(0, 2, size=150)
    cases.append((X, y, None, ExtraTreesParams(n_trees=4, seed=40)))
    # duplicate rows with conflicting labels: pure leaves are unreachable
    base = rng.normal(size=(30, 6))
    X = np.repeat(base, 5, axis=0)
    y = rng.integers(0, 2, size=X.shape[0])
    cases.append((X, y, None, ExtraTreesParams(n_trees=4, seed=41)))
    # heavy ties: three distinct values per column
    X = rng.integers(0, 3, size=(200, 12)).astype(np.float64)
    y = ((X[:, 2] + X[:, 5] + rng.integers(0, 2, size=200)) > 2).astype(np.int64)
    cases.append((X, y, None, ExtraTreesParams(n_trees=4, seed=42)))
    # a column whose spread is one float: draws round onto lo
    X = rng.normal(size=(90, 4))
    X[:, 3] = np.where(rng.random(90) < 0.5, 1.0, np.nextafter(1.0, 2.0))
    y = rng.integers(0, 2, size=90)
    cases.append((X, y, None, ExtraTreesParams(n_trees=4, seed=43)))
    # depth and split-size limits
    X = rng.normal(size=(300, 10))
    y = (X[:, 1] * X[:, 2] > 0).astype(np.int64)
    for max_depth, min_split in ((1, 2), (3, 2), (6, 40), (None, 25), (0, 2)):
        cases.append((X, y, None, ExtraTreesParams(n_trees=3, max_depth=max_depth, min_samples_split=min_split, seed=44)))
    # permuted and arbitrary 64-bit feature keys
    X = rng.normal(size=(180, 13))
    y = (X[:, 3] - X[:, 7] > 0).astype(np.int64)
    cases.append((X, y, rng.permutation(13).astype(np.uint64), ExtraTreesParams(n_trees=3, seed=45)))
    cases.append((X, y, rng.integers(0, 2**63, size=13).astype(np.uint64) * np.uint64(2), ExtraTreesParams(n_trees=3, seed=2**64 - 1)))
    return cases


def deep_data():
    """Random labels on 600 rows: every tree passes more than 2 * _DRAW_BLOCK split nodes."""
    rng = np.random.default_rng(8)
    return rng.normal(size=(600, 5)), rng.integers(0, 2, size=600)


class TestBuildTreeOracle:
    @pytest.mark.parametrize("case", range(len(oracle_cases())))
    def test_trees_and_importances_equal_the_oracle(self, case):
        X, y, keys, params = oracle_cases()[case]
        d = X.shape[1]
        keys = np.arange(d, dtype=np.uint64) if keys is None else keys
        est = fit_extra_trees(X, y, params, feature_keys=keys)
        for i in range(params.n_trees):
            want_imp = np.zeros(d)
            want = oracle_build_tree(X, y, keys, params, i, want_imp)
            got_imp = np.zeros(d)
            [got] = _build_trees(X, y, keys, params, [i], [got_imp])
            assert preorder(got) == want
            assert np.array_equal(got_imp, want_imp)
            assert preorder(est.trees[i]) == want
            total = want_imp.sum()
            if total > 0.0:
                assert np.array_equal(est.tree_importances[i], want_imp / total)
            else:
                assert est.tree_importances[i] is None

    @pytest.mark.parametrize("case", range(len(oracle_cases())))
    def test_trees_are_well_formed(self, case):
        # the isolation forest loader's tree checks (the split/leaf flags form one full binary tree in
        # pre-order, one threshold per split and one size per leaf, the leaves hold every row), with every
        # row as the sample and no height limit to speak of
        X, y, keys, params = oracle_cases()[case]
        n, d = X.shape
        est = fit_extra_trees(X, y, params, feature_keys=keys)
        assert len(est.trees) == params.n_trees
        _check_trees(IsolationForest(trees=est.trees, t=params.n_trees, m=n, height_limit=n, seed=0, n_features=d))

    def test_deep_tree_crosses_node_draw_blocks(self):
        # more than two blocks of split nodes, so later node ids draw from later blocks
        X, y = deep_data()
        keys = np.arange(5, dtype=np.uint64)
        params = ExtraTreesParams(n_trees=1, seed=3)
        want = oracle_build_tree(X, y, keys, params, 0, np.zeros(5))
        assert sum(feature != -1 for feature, _, _ in want) > 2 * _DRAW_BLOCK
        [got] = _build_trees(X, y, keys, params, [0], [np.zeros(5)])
        assert preorder(got) == want

    def test_lockstep_trees_equal_trees_built_alone(self):
        X, y = deep_data()
        cases = oracle_cases() + [(X, y, None, ExtraTreesParams(n_trees=3, seed=12))]
        split_counts = []
        for X, y, keys, params in cases:
            d = X.shape[1]
            keys = np.arange(d, dtype=np.uint64) if keys is None else keys
            together_imp = np.zeros((params.n_trees, d))
            together = _build_trees(X, y, keys, params, range(params.n_trees), together_imp)
            split_counts.append([np.count_nonzero(tree.feature != -1) for tree in together])
            for i, tree in enumerate(together):
                alone_imp = np.zeros(d)
                [alone] = _build_trees(X, y, keys, params, [i], [alone_imp])
                for f in dataclasses.fields(ITree):
                    assert np.array_equal(getattr(tree, f.name), getattr(alone, f.name)), f.name
                assert np.array_equal(together_imp[i], alone_imp)
        # some tree finishes while others in its fit still step
        assert any(len(set(counts)) > 1 for counts in split_counts)
        # the last case: each of its trees crosses more than two draw blocks
        assert min(split_counts[-1]) > 2 * _DRAW_BLOCK
