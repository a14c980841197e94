"""Acceptance suite: one test per release criterion, each at its stated
tolerance and runtime budget. Run with `pytest -v tests/test_acceptance.py`
to get one pass/fail line per criterion.

Criterion 5 needs a real 41-feature intrusion CSV and is skipped unless
ISOGUARD_KAGGLE_CSV points at one.
"""
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from isoguard.classifiers import logreg_loss_grad, svm_objective_grad
from isoguard.data import write_csv
from isoguard.evaluation import confusion, metrics, roc
from isoguard.feature_selection import rfe_select
from isoguard.iforest import (
    IsolationForest,
    ITree,
    expected_path_length,
    fit_forest,
    score_batch,
)
from isoguard.pipeline import (
    MODELS,
    ForestSettings,
    PipelineConfig,
    SelectSettings,
    ThresholdSettings,
    run_pipeline,
)
from isoguard.synthetic import SyntheticSpec, generate_synthetic

MASTER_SEEDS = (1000, 1001, 1002, 1003, 1004)


def improvement_config(tmp_path: Path, master_seed: int) -> PipelineConfig:
    """The synthetic before/after experiment used by criteria 4 and 9.

    The contamination fraction sits just under the planted-outlier rate so
    the removal stays inside the injected rows.
    """
    tmp_path.mkdir(parents=True, exist_ok=True)
    ds, _ = generate_synthetic(SyntheticSpec(seed=master_seed))
    csv_path = tmp_path / f"synthetic_{master_seed}.csv"
    write_csv(ds, csv_path)
    return PipelineConfig(
        input=str(csv_path),
        seed=master_seed,
        out_dir=str(tmp_path / f"run_{master_seed}"),
        select=SelectSettings(target_count=10, step=1, n_trees=25, min_samples_split=25),
        forest=ForestSettings(
            trees=100,
            subsample=256,
            threshold=ThresholdSettings(mode="contamination", fraction=0.045),
        ),
    )


class TestCriterion1ScoreNormalizationAnchor:
    def test_criterion_01_score_anchors(self):
        start = time.perf_counter()
        # fitting identical rows yields single-external-node trees, so every
        # instance's mean path length equals c(m) exactly
        m = 64
        forest = fit_forest(np.full((m, 3), 2.0), t=25, m=m, seed=0)
        anchored, anchored_h = score_batch(forest, np.array([[2.0, 2.0, 2.0]]))
        assert anchored_h[0] == pytest.approx(expected_path_length(m), abs=1e-12)
        assert abs(anchored[0] - 0.5) <= 1e-12

        one_leaf = ITree(feature=np.array([-1]), threshold=np.array([]), leaf_size=np.array([1]))
        shallow = IsolationForest(trees=[one_leaf] * 10, t=10, m=2, height_limit=1, seed=0, n_features=2)
        unit, unit_h = score_batch(shallow, np.array([[0.0, 0.0]]))
        assert unit_h[0] == 0.0
        assert unit[0] == 1.0
        elapsed = time.perf_counter() - start
        print(f"criterion 1: s(E=c(m))={anchored[0]!r}, s(E=0)={unit[0]!r}, {elapsed:.3f}s")
        assert elapsed < 1.0


def exact_harmonic(i: int) -> float:
    return sum(1.0 / k for k in range(1, i + 1))


def exact_path_length(m: int) -> float:
    if m > 2:
        return 2.0 * exact_harmonic(m - 1) - 2.0 * (m - 1) / m
    return 1.0 if m == 2 else 0.0


class TestCriterion2PathLengthOracle:
    def test_criterion_02_exact_small_values(self):
        start = time.perf_counter()
        assert expected_path_length(2) == 1.0
        assert expected_path_length(1) == 0.0
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m", [2, 3, 10, 100, 256, 4096])
    def test_criterion_02_c_matches_exact_harmonic_sum(self, m):
        # agreement bound under test: 0.09 absolute. The log estimate of the
        # harmonic number undershoots by ~1/(2i); doubled by the path-length
        # formula, the true gap is 0.459 at m=3 and 0.109 at m=10, so those
        # two cases exceed the bound. They are kept failing rather than
        # widened; the gap is below 0.09 for every m >= 12.
        start = time.perf_counter()
        approx = expected_path_length(m)
        exact = exact_path_length(m)
        gap = abs(approx - exact)
        print(f"criterion 2: m={m} approx={approx:.6f} exact={exact:.6f} gap={gap:.6f}")
        assert time.perf_counter() - start < 1.0
        assert gap < 0.09


class TestCriterion3OutlierIsolation:
    def test_criterion_03_ten_sigma_point_attains_max_score(self):
        start = time.perf_counter()
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cluster = rng.normal(0.0, 1.0, size=(1000, 2))
            outlier = np.full(2, 10.0 / math.sqrt(2.0))  # a point at 10 sigma
            X = np.vstack([cluster, outlier])
            forest = fit_forest(X, t=100, m=256, seed=seed)
            scores, _ = score_batch(forest, X)
            if int(np.argmax(scores)) == 1000:
                hits += 1
        elapsed = time.perf_counter() - start
        print(f"criterion 3: max-score hits {hits}/20, {elapsed:.1f}s")
        assert hits >= 19
        assert elapsed < 30.0


class TestCriterion4DirectionOfImprovement:
    def test_criterion_04_accuracy_improves_after_removal(self, tmp_path):
        start = time.perf_counter()
        nonneg = {"knn": 0, "nb": 0, "lr": 0}
        for master_seed in MASTER_SEEDS:
            report = run_pipeline(improvement_config(tmp_path, master_seed))
            for name in nonneg:
                delta = (
                    report.after[name].anomaly_positive.accuracy
                    - report.before[name].anomaly_positive.accuracy
                )
                if delta >= 0.0:
                    nonneg[name] += 1
        elapsed = time.perf_counter() - start
        print(f"criterion 4: non-negative deltas {nonneg} over {len(MASTER_SEEDS)} seeds, {elapsed:.0f}s")
        for name, count in nonneg.items():
            assert count >= 4, f"{name} improved in only {count}/5 seeds"
        assert elapsed < 300.0


class TestCriterion5RealDatasetCorridor:
    KAGGLE_ENV = "ISOGUARD_KAGGLE_CSV"

    @pytest.mark.skipif(
        KAGGLE_ENV not in os.environ,
        reason="set ISOGUARD_KAGGLE_CSV to a 41-feature intrusion CSV to run",
    )
    def test_criterion_05_kaggle_sanity_corridor(self, tmp_path):
        start = time.perf_counter()
        cfg = PipelineConfig(
            input=os.environ[self.KAGGLE_ENV],
            seed=20240,
            out_dir=str(tmp_path / "kaggle"),
            select=SelectSettings(
                target_count=15, step=2, n_trees=20, max_depth=12, min_samples_split=50, sample_cap=20000
            ),
            forest=ForestSettings(
                trees=100, subsample=256, threshold=ThresholdSettings(mode="contamination", fraction=0.05)
            ),
        )
        report = run_pipeline(cfg)
        rfe_doc = json.loads((Path(cfg.out_dir) / "rfe.json").read_text())
        assert len(rfe_doc["column_names"]) == 41
        assert len(rfe_doc["selected"]) == 15
        for arm in (report.before, report.after):
            for name in MODELS:
                assert arm[name].anomaly_positive.accuracy >= 0.85, name
        for name in ("knn", "abc"):
            assert report.after[name].anomaly_positive.accuracy >= 0.95, name
        elapsed = time.perf_counter() - start
        print(f"criterion 5: corridor met, {elapsed:.0f}s")
        assert elapsed < 1200.0


class TestCriterion6MetricOracles:
    def test_criterion_06_metrics_match_brute_force_exactly(self):
        start = time.perf_counter()
        rng = np.random.default_rng(60)
        for _ in range(1000):
            n = int(rng.integers(1, 51))
            y_true = rng.integers(0, 2, n)
            y_pred = rng.integers(0, 2, n)
            tp = sum(1 for a, b in zip(y_true, y_pred) if a == 1 and b == 1)
            tn = sum(1 for a, b in zip(y_true, y_pred) if a == 0 and b == 0)
            fp = sum(1 for a, b in zip(y_true, y_pred) if a == 0 and b == 1)
            fn = sum(1 for a, b in zip(y_true, y_pred) if a == 1 and b == 0)
            c = confusion(y_true, y_pred)
            assert (c.tp, c.tn, c.fp, c.fn) == (tp, tn, fp, fn)
            m = metrics(c)
            assert m.precision == (tp / (tp + fp) if tp + fp else 0.0)
            assert m.recall == (tp / (tp + fn) if tp + fn else 0.0)
            assert m.accuracy == (tp + tn) / n
            p, r = m.precision, m.recall
            assert m.f1 == (2 * p * r / (p + r) if p + r else 0.0)
        elapsed = time.perf_counter() - start
        print(f"criterion 6a: 1000 instances exact, {elapsed:.1f}s")

        for trial in range(200):
            n = int(rng.integers(4, 40))
            y = rng.integers(0, 2, n)
            y[0], y[1] = 0, 1
            s = rng.normal(size=n) if trial % 2 else rng.choice([0.0, 0.5, 1.0], size=n)
            curve = roc(y, s)
            pos = s[y == 1]
            neg = s[y == 0]
            concordant = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
            assert abs(curve.auc - concordant / (len(pos) * len(neg))) < 1e-9
        elapsed = time.perf_counter() - start
        print(f"criterion 6: AUC pairwise agreement on 200 vectors, {elapsed:.1f}s total")
        assert elapsed < 10.0


class TestCriterion7RfeRecovery:
    def test_criterion_07_informative_features_recovered(self):
        start = time.perf_counter()
        informative, noise = 5, 10
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(7000 + seed)
            X = rng.normal(size=(200, informative + noise))
            y = (X[:, :informative].sum(axis=1) > 0).astype(np.int64)
            X[:, informative:] = rng.uniform(-1.0, 1.0, size=(200, noise))
            result = rfe_select(X, y, SelectSettings(target_count=5, n_trees=25, min_samples_split=25), seed)
            if sum(1 for i in result.selected if i < informative) >= 4:
                hits += 1
        elapsed = time.perf_counter() - start
        print(f"criterion 7: recovery hits {hits}/10, {elapsed:.0f}s")
        assert hits >= 9
        assert elapsed < 60.0


class TestCriterion8GradientChecks:
    STEP = 1e-6
    REL_TOL = 1e-4

    def _relative_gap(self, analytic, fd):
        return float(np.linalg.norm(analytic - fd)) / max(float(np.linalg.norm(fd)), 1e-12)

    def test_criterion_08_gradients_match_finite_differences(self):
        start = time.perf_counter()
        rng = np.random.default_rng(80)
        worst_lr = worst_svm = 0.0
        for _ in range(20):
            n, d = int(rng.integers(5, 16)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            y = rng.integers(0, 2, n).astype(np.float64)
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            l2 = float(rng.uniform(0, 0.01))
            _, gw, gb = logreg_loss_grad(w, b, X, y, l2)
            fd = np.empty(d + 1)
            for j in range(d):
                e = np.zeros(d)
                e[j] = self.STEP
                fd[j] = (
                    logreg_loss_grad(w + e, b, X, y, l2)[0] - logreg_loss_grad(w - e, b, X, y, l2)[0]
                ) / (2 * self.STEP)
            fd[d] = (
                logreg_loss_grad(w, b + self.STEP, X, y, l2)[0]
                - logreg_loss_grad(w, b - self.STEP, X, y, l2)[0]
            ) / (2 * self.STEP)
            worst_lr = max(worst_lr, self._relative_gap(np.concatenate((gw, [gb])), fd))

        checked = 0
        while checked < 20:
            n, d = int(rng.integers(5, 16)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, d))
            t = 2.0 * rng.integers(0, 2, n) - 1.0
            w = rng.normal(scale=0.5, size=d)
            b = float(rng.normal(scale=0.5))
            lam = float(rng.uniform(1e-4, 1e-2))
            if np.abs(1.0 - t * (X @ w + b)).min() < 1e-4:  # avoid hinge kinks
                continue
            _, gw, gb = svm_objective_grad(w, b, X, t, lam)

            def obj(wv, bv):
                return svm_objective_grad(wv, bv, X, t, lam)[0]

            fd = np.empty(d + 1)
            for j in range(d):
                e = np.zeros(d)
                e[j] = self.STEP
                fd[j] = (obj(w + e, b) - obj(w - e, b)) / (2 * self.STEP)
            fd[d] = (obj(w, b + self.STEP) - obj(w, b - self.STEP)) / (2 * self.STEP)
            worst_svm = max(worst_svm, self._relative_gap(np.concatenate((gw, [gb])), fd))
            checked += 1
        elapsed = time.perf_counter() - start
        print(f"criterion 8: worst rel gap lr={worst_lr:.2e} svm={worst_svm:.2e}, {elapsed:.1f}s")
        assert worst_lr < self.REL_TOL
        assert worst_svm < self.REL_TOL
        assert elapsed < 10.0


class TestCriterion9Determinism:
    ARTIFACTS = ("report.json", "forest.json") + tuple(f"model_{m}.json" for m in MODELS) + tuple(
        f"model_{m}_clean.json" for m in MODELS
    )

    def test_criterion_09_byte_identical_reruns_across_thread_counts(self, tmp_path, monkeypatch):
        start = time.perf_counter()
        snapshots = {}
        for threads in ("1", "8"):
            monkeypatch.setenv("ISOGUARD_THREADS", threads)
            runs = []
            for attempt in ("x", "y"):
                base = improvement_config(tmp_path / f"t{threads}{attempt}", MASTER_SEEDS[0])
                report = run_pipeline(base)
                out = Path(base.out_dir)
                runs.append({name: (out / name).read_bytes() for name in self.ARTIFACTS})
            assert runs[0] == runs[1], f"rerun differed with {threads} thread(s)"
            snapshots[threads] = runs[0]
        assert snapshots["1"] == snapshots["8"]
        elapsed = time.perf_counter() - start
        print(f"criterion 9: 4 runs byte-identical, {elapsed:.0f}s")
        assert elapsed < 600.0
