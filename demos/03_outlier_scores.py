"""Walkthrough: isolation forest anomaly scores.

Fits a forest on a Gaussian cluster with a handful of planted far-field
points, prints the score normalization constants, a text histogram of the
score distribution, and both verdict modes (fixed threshold vs
contamination quantile).

Run: python demos/03_outlier_scores.py
"""
import numpy as np

from isoguard import expected_path_length, fit_forest, predict, score_batch

rng = np.random.default_rng(3)
cluster = rng.normal(0.0, 1.0, size=(800, 2))
planted = np.array([[9.0, 9.0], [-8.0, 8.5], [10.0, -9.0], [-9.5, -9.5]])
X = np.vstack([cluster, planted])

forest = fit_forest(X, t=100, m=256, seed=5)
print(f"forest: {forest.t} trees, subsample m={forest.m}, height limit {forest.height_limit}")
print(f"normalizer c(m) = average BST unsuccessful-search depth = {expected_path_length(forest.m):.4f}")
print("a point whose mean path length equals c(m) scores exactly 0.5\n")

scores, mean_paths = score_batch(forest, X)
print("score distribution (804 points):")
edges = np.linspace(scores.min(), scores.max(), 13)
hist, _ = np.histogram(scores, bins=edges)
for lo, hi, count in zip(edges[:-1], edges[1:], hist):
    print(f"  [{lo:.3f}, {hi:.3f})  {'#' * int(np.ceil(count / 12)):<60} {count}")

print("\nplanted far-field points vs the cluster:")
for i in range(800, 804):
    print(f"  point {X[i].round(1)}  mean path {mean_paths[i]:6.3f}  score {scores[i]:.4f}")
print(f"  cluster median score: {np.median(scores[:800]):.4f}")

fixed = predict(forest, X, threshold=0.6)
flagged_fixed = np.flatnonzero(fixed.labels == -1).tolist()
quantile = predict(forest, X, contamination=0.005)
flagged_quant = np.flatnonzero(quantile.labels == -1).tolist()
print(f"\nfixed threshold 0.6 flags rows: {flagged_fixed}")
print(f"contamination 0.5% flags rows:  {flagged_quant}")
print("(rows 800-803 are the planted outliers)")
