"""Desk-scale synthetic stand-in for a labeled intrusion dataset.

Two Gaussian class clusters live on the informative features (normal at 0,
anomaly offset by ``separation`` per dimension); noise features are uniform
on [-1, 1]. A fraction of the majority-class rows is replaced by far-field
points at ``outlier_magnitude`` with random signs, still carrying the
majority label. Those injected rows are the planted outliers a detector
should isolate; the generator returns their mask as ground truth.

``SyntheticSpec`` is the config's ``synthetic`` section and checks its own
ranges when built, so a spec that reaches ``generate_synthetic`` is valid.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Annotated

import numpy as np

from .codec import check_types
from .data import ColumnKind, Dataset, share_count, write_table
from .prng import derive_seed


@dataclass(frozen=True)
class SyntheticSpec:
    n_normal: Annotated[int, ">= 1"] = 1000
    n_anomaly: Annotated[int, ">= 1"] = 100
    n_informative: Annotated[int, ">= 1"] = 5
    n_noise: Annotated[int, ">= 0"] = 10
    separation: float = 1.5
    outlier_magnitude: float = 12.0
    outlier_fraction: Annotated[float, "in [0, 1)"] = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        check_types(self, "config", "synthetic")


_DRAW_CHUNK_ROWS = 4096  # rows drawn at a time; bounds generation's transient memory


def _fill(draw, out: np.ndarray) -> None:
    """Fill the feature-major block ``out`` (features × rows) with what ``draw(size=(rows, features))``
    gives, ``_DRAW_CHUNK_ROWS`` rows at a time. A Generator's stream continues across calls, so
    the values and their order are those of one draw of the whole block."""
    n = out.shape[1]
    for start in range(0, n, _DRAW_CHUNK_ROWS):
        stop = min(start + _DRAW_CHUNK_ROWS, n)
        out[:, start:stop] = draw(size=(stop - start, out.shape[0])).T


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, np.ndarray]:
    """Returns (dataset, injected_mask); mask rows are the planted outliers.

    The table is built once, in a feature-major buffer: the draws are taken
    ``_DRAW_CHUNK_ROWS`` rows at a time, the planted rows written into it and
    the final shuffle applied one feature at a time. So generation holds the
    table plus one chunk, and the dataset's ``rows`` are column-major (the
    buffer's transpose); ``rows.tobytes()`` is the same as a row-major
    table's.
    """
    rng = np.random.default_rng(derive_seed(spec.seed, "synthetic"))
    n_total = spec.n_normal + spec.n_anomaly
    d = spec.n_informative + spec.n_noise

    majority = 0 if spec.n_normal >= spec.n_anomaly else 1
    majority_count = spec.n_normal if majority == 0 else spec.n_anomaly
    n_inject = 0
    if spec.outlier_fraction > 0.0:
        n_inject = min(majority_count - 1, max(1, share_count(spec.outlier_fraction, n_total)))

    XT = np.empty((d, n_total))
    inf = XT[: spec.n_informative]
    _fill(partial(rng.normal, 0.0, 1.0), inf[:, : spec.n_normal])
    _fill(partial(rng.normal, spec.separation, 1.0), inf[:, spec.n_normal :])
    _fill(partial(rng.uniform, -1.0, 1.0), XT[spec.n_informative :])
    y = np.zeros(n_total, dtype=np.int64)
    y[spec.n_normal :] = 1

    majority_end = spec.n_normal if majority == 0 else n_total
    planted = slice(majority_end - n_inject, majority_end)  # the majority class's last n_inject rows
    injected = np.zeros(n_total, dtype=bool)
    if n_inject > 0:
        signs = rng.choice((-1.0, 1.0), size=(n_inject, spec.n_informative))
        inf[:, planted] = spec.outlier_magnitude * signs.T
        injected[planted] = True

    order = rng.permutation(n_total)
    for feature in XT:
        feature[:] = feature[order]

    names = tuple(
        [f"inf_{i + 1:02d}" for i in range(spec.n_informative)]
        + [f"noise_{i + 1:02d}" for i in range(spec.n_noise)]
    )
    ds = Dataset(
        feature_names=names,
        kinds=tuple([ColumnKind.NUMERIC] * d),
        rows=XT.T,
        target=y[order],
        target_name="class",
    )
    return ds, injected[order]


def write_injection_mask(mask: np.ndarray, path: str | Path) -> None:
    """Ground-truth mask CSV: (row, injected) with injected in {0, 1}."""
    write_table(path, ["row", "injected"], [np.arange(len(mask)), np.asarray(mask, dtype=np.int64)])
