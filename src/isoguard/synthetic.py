"""Desk-scale synthetic stand-in for a labeled intrusion dataset.

Two Gaussian class clusters live on the informative features (normal at 0,
anomaly offset by ``separation`` per dimension); noise features are uniform
on [-1, 1]. A fraction of the majority-class rows is replaced by far-field
points at ``outlier_magnitude`` with random signs, still carrying the
majority label. Those injected rows are the planted outliers a detector
should isolate; the generator returns their mask as ground truth.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import ColumnKind, Dataset, share_count, write_table
from .errors import IsoguardError
from .prng import derive_seed


@dataclass(frozen=True)
class SyntheticSpec:
    n_normal: int = 1000
    n_anomaly: int = 100
    n_informative: int = 5
    n_noise: int = 10
    separation: float = 1.5
    outlier_magnitude: float = 12.0
    outlier_fraction: float = 0.05
    seed: int = 0


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Returns (dataset, injected_mask); mask rows are the planted outliers."""
    if spec.n_normal < 1 or spec.n_anomaly < 1:
        raise IsoguardError("both class counts must be >= 1")
    if spec.n_informative < 1:
        raise IsoguardError("degenerate spec: need at least 1 informative feature")
    if spec.n_noise < 0:
        raise IsoguardError(f"n_noise must be >= 0, got {spec.n_noise}")
    if not 0.0 <= spec.outlier_fraction < 1.0:
        raise IsoguardError(f"outlier_fraction must be in [0, 1), got {spec.outlier_fraction}")
    rng = np.random.default_rng(derive_seed(spec.seed, "synthetic"))
    n_total = spec.n_normal + spec.n_anomaly
    d = spec.n_informative + spec.n_noise

    majority = 0 if spec.n_normal >= spec.n_anomaly else 1
    majority_count = spec.n_normal if majority == 0 else spec.n_anomaly
    n_inject = 0
    if spec.outlier_fraction > 0.0:
        n_inject = min(majority_count - 1, max(1, share_count(spec.outlier_fraction, n_total)))

    X = np.empty((n_total, d))
    y = np.concatenate((np.zeros(spec.n_normal, dtype=np.int64), np.ones(spec.n_anomaly, dtype=np.int64)))
    inf = slice(0, spec.n_informative)
    X[: spec.n_normal, inf] = rng.normal(0.0, 1.0, size=(spec.n_normal, spec.n_informative))
    X[spec.n_normal :, inf] = rng.normal(spec.separation, 1.0, size=(spec.n_anomaly, spec.n_informative))
    if spec.n_noise > 0:
        X[:, spec.n_informative :] = rng.uniform(-1.0, 1.0, size=(n_total, spec.n_noise))

    injected = np.zeros(n_total, dtype=bool)
    if n_inject > 0:
        block = np.flatnonzero(y == majority)[-n_inject:]
        signs = rng.choice((-1.0, 1.0), size=(n_inject, spec.n_informative))
        X[np.ix_(block, np.arange(spec.n_informative))] = spec.outlier_magnitude * signs
        injected[block] = True

    order = rng.permutation(n_total)
    X = X[order]
    y = y[order]
    injected = injected[order]

    names = tuple(
        [f"inf_{i + 1:02d}" for i in range(spec.n_informative)]
        + [f"noise_{i + 1:02d}" for i in range(spec.n_noise)]
    )
    ds = Dataset(
        feature_names=names,
        kinds=tuple([ColumnKind.NUMERIC] * d),
        rows=X,
        target=y,
        target_name="class",
    )
    return ds, injected


def write_injection_mask(mask: np.ndarray, path: str | Path) -> None:
    """Ground-truth mask CSV: (row, injected) with injected in {0, 1}."""
    write_table(path, ["row", "injected"], [np.arange(len(mask)), np.asarray(mask, dtype=np.int64)])
