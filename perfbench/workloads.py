"""Workload inputs and job definitions for the isoguard benchmark.

Every input is a pure function of the workload seed, so two runs with the
same seed hand the program byte-identical inputs. The program itself only
ever sees the generated CSV (pipeline workloads) or matrices (scoring).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from isoguard.data import ColumnKind, Dataset, write_csv
from isoguard.synthetic import SyntheticSpec, generate_synthetic

# NSL-KDD-like nominal columns: protocol_type (3), service (70), flag (11).
NOMINAL_COLUMNS = (
    ("protocol_type", ("tcp", "udp", "icmp")),
    ("service", tuple(f"svc_{i:02d}" for i in range(70))),
    ("flag", ("SF", "S0", "REJ", "RSTR", "SH", "RSTO", "S1", "RSTOS0", "S3", "S2", "OTH")),
)
# Each category appears at least this often, so a stratified 80/20 split
# practically never leaves a category only in the test partition (which
# the label encoder would reject as unseen).
MIN_CATEGORY_COUNT = 10


def _nominal_column(
    rng: np.random.Generator, y: np.ndarray, categories: tuple[str, ...], popularity: list[np.ndarray]
) -> np.ndarray:
    """Zipf-skewed categories with per-class popularity and a floor per category."""
    n = y.size
    k = len(categories)
    if n < k * MIN_CATEGORY_COUNT:
        raise ValueError(f"{n} rows cannot hold {k} categories {MIN_CATEGORY_COUNT} times each")
    codes = np.empty(n, dtype=np.int64)
    floor = rng.permutation(n)[: k * MIN_CATEGORY_COUNT]
    codes[floor] = np.repeat(np.arange(k), MIN_CATEGORY_COUNT)
    rest = np.ones(n, dtype=bool)
    rest[floor] = False
    for cls in (0, 1):
        rows = np.flatnonzero(rest & (y == cls))
        codes[rows] = rng.choice(k, size=rows.size, p=popularity[cls])
    return np.array(categories, dtype=object)[codes]


def _popularity(k: int, cls: int) -> np.ndarray:
    """Fixed per-class category weights: Zipf over a class-specific ranking.

    The ranking does not depend on the workload seed, so every seed's
    nominal columns are equally informative and only the row draws vary.
    """
    weights = 1.0 / np.arange(1, k + 1)
    ranked = weights[np.random.default_rng([k, cls]).permutation(k)]
    return ranked / ranked.sum()


def intrusion_dataset(n_normal: int, n_anomaly: int, seed: int) -> Dataset:
    """41-feature intrusion layout: 10 informative + 28 noise numeric columns
    from ``generate_synthetic`` (5% planted far-field outliers) plus three
    nominal columns after the first numeric one, as in NSL-KDD."""
    spec = SyntheticSpec(n_normal=n_normal, n_anomaly=n_anomaly, n_informative=10, n_noise=28, seed=seed)
    numeric, _ = generate_synthetic(spec)
    rng = np.random.default_rng([seed, 0x1D5])
    nominal = [
        _nominal_column(rng, numeric.target, cats, [_popularity(len(cats), cls) for cls in (0, 1)])
        for _, cats in NOMINAL_COLUMNS
    ]
    rows = np.empty((numeric.n_rows, numeric.n_features + len(nominal)), dtype=object)
    rows[:, 0] = numeric.rows[:, 0]
    for j, col in enumerate(nominal, start=1):
        rows[:, j] = col
    rows[:, 1 + len(nominal) :] = numeric.rows[:, 1:]
    names = numeric.feature_names
    kinds = numeric.kinds
    return replace(
        numeric,
        feature_names=(names[0], *(name for name, _ in NOMINAL_COLUMNS), *names[1:]),
        kinds=(kinds[0], *([ColumnKind.NOMINAL] * len(nominal)), *kinds[1:]),
        rows=rows,
    )


@dataclass(frozen=True)
class LoadCheck:
    """The traced run confirms the workload loads its layer: the named
    per-layer metrics must add up to at least ``min_share`` of wall_s."""

    metrics: tuple[str, ...]
    min_share: float


@dataclass(frozen=True)
class PipelineWorkload:
    """An ``isoguard pipeline`` run over one generated intrusion CSV."""

    name: str
    n_normal: int
    n_anomaly: int
    config: dict  # pipeline config sections; input, seed and out_dir are filled per run
    loads: LoadCheck

    kind = "pipeline"

    def build_input(self, seed: int, work: Path) -> Path:
        ds = intrusion_dataset(self.n_normal, self.n_anomaly, seed)
        path = work / "input.csv"
        write_csv(ds, path)
        return path

    def config_path(self, seed: int, work: Path, out: Path) -> Path:
        doc = dict(self.config, input=str(work / "input.csv"), seed=seed, out_dir=str(out))
        path = out.parent / f"{out.name}.config.json"
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return path

    @property
    def rows(self) -> int:
        return self.n_normal + self.n_anomaly


@dataclass(frozen=True)
class ScoreWorkload:
    """Library-API scoring: fit a forest, save/load it, predict fresh batches."""

    name: str
    fit_rows: int
    n_batches: int
    batch_rows: int
    n_features: int
    trees: int
    subsample: int
    threshold: float
    loads: LoadCheck

    kind = "score"

    def build_input(self, seed: int, work: Path | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(training matrix, scoring matrix) drawn from one synthetic distribution."""

        def draw(rows: int, stream: int) -> np.ndarray:
            spec = SyntheticSpec(
                n_normal=rows - rows // 11,
                n_anomaly=rows // 11,
                n_informative=10,
                n_noise=self.n_features - 10,
                seed=2 * seed + stream,
            )
            return generate_synthetic(spec)[0].rows

        return draw(self.fit_rows, 0), draw(self.rows, 1)

    @property
    def rows(self) -> int:
        return self.n_batches * self.batch_rows


# Sizes are cut from the paper-scale settings so that one run, with its
# serial reference, stays well under a minute on 2 CPUs; each workload
# still loads the layer it is named for.
WORKLOADS = {
    w.name: w
    for w in (
        # the paper's 41 -> 15 RFE at step 1 (27 extra-trees fits); small
        # fits and few stumps keep a job near 3 s, so a run times several
        # jobs and its median does not rest on one or two of them
        PipelineWorkload(
            name="rfe-1k",
            n_normal=1000,
            n_anomaly=100,
            config={
                "select": {"target_count": 15, "step": 1, "n_trees": 4},
                "classifiers": {"adaboost_stumps": 10},
            },
            loads=LoadCheck(("pipeline.select_s",), 1 / 2),
        ),
        # tall data: sample_cap bounds select, so train, evaluate and CSV I/O dominate
        PipelineWorkload(
            name="train-11k",
            n_normal=10000,
            n_anomaly=1000,
            config={
                "select": {
                    "target_count": 15,
                    "step": 2,
                    "n_trees": 6,
                    "max_depth": 12,
                    "min_samples_split": 50,
                    "sample_cap": 2000,
                },
                "forest": {"threshold": {"mode": "contamination", "fraction": 0.05}},
                "classifiers": {"adaboost_stumps": 15},
            },
            loads=LoadCheck(("pipeline.train_s",), 1 / 3),
        ),
        # the detect layer used as a scorer, through the library API
        ScoreWorkload(
            name="score-220k",
            fit_rows=8800,
            n_batches=11,
            batch_rows=20000,
            n_features=15,
            trees=100,
            subsample=256,
            threshold=0.5,
            loads=LoadCheck(("iforest.score_batch_s", "iforest.predict_box_s"), 1 / 2),
        ),
    )
}
