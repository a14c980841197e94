"""Walkthrough: extra-trees importances and recursive feature elimination.

Synthesizes data where only the first five features carry signal, ranks
features with the extremely randomized ensemble, then eliminates down to
five and prints the removal trace.

Run: python demos/02_feature_ranking.py
"""
import numpy as np

from isoguard import ExtraTreesParams, fit_extra_trees, rfe_select

INFORMATIVE, NOISE = 5, 10
rng = np.random.default_rng(11)
X = rng.normal(size=(300, INFORMATIVE + NOISE))
y = (X[:, :INFORMATIVE].sum(axis=1) > 0).astype(np.int64)
X[:, INFORMATIVE:] = rng.uniform(-1.0, 1.0, size=(300, NOISE))
names = [f"signal_{i}" for i in range(INFORMATIVE)] + [f"noise_{i}" for i in range(NOISE)]

params = ExtraTreesParams(n_trees=40, min_samples_split=20, seed=2)
imp = fit_extra_trees(X, y, params).importances
print("importance ranking (mean normalized Gini decrease over trees):")
for rank, j in enumerate(np.argsort(-imp, kind="stable"), start=1):  # ties in ascending index order
    bar = "#" * int(round(60 * imp[j]))
    print(f"  {rank:>2}. {names[j]:<10} {imp[j]:.4f} {bar}")

result = rfe_select(X, y, target_count=INFORMATIVE, step=1, params=params)
print("\nelimination trace (round, removed, importance at removal):")
for round_no, removed, importance in result.trace:
    print(f"  round {round_no:>2}: dropped {names[removed]:<10} ({importance:.5f})")
print(f"\nsurvivors: {[names[i] for i in result.selected]}")
kept_signal = sum(1 for i in result.selected if i < INFORMATIVE)
print(f"{kept_signal}/{INFORMATIVE} signal features recovered")
