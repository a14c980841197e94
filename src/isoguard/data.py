"""CSV ingestion, label encoding, standard scaling and train/test splitting.

Feature columns are either Nominal (string-valued) or Numeric. Nominal
columns get lexicographically ordered integer codes; after encoding every
feature column is standardized to mean 0 / population std 1. Encoder and
scaler are meant to be fitted on the training partition only and then
applied to both partitions.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import IsoguardError, artifact_reader, checked_float, checked_int


class ColumnKind(Enum):
    NOMINAL = "nominal"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Dataset:
    """Feature table plus binary target labels (0 = normal, 1 = anomaly).

    ``rows`` holds raw strings in nominal columns until the label encoder
    has been applied, after which it is a plain float64 matrix.
    """

    feature_names: tuple[str, ...]
    kinds: tuple[ColumnKind, ...]
    rows: np.ndarray
    target: np.ndarray
    target_name: str = "class"

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    @property
    def is_encoded(self) -> bool:
        return self.rows.dtype == np.float64

    def matrix(self) -> np.ndarray:
        """Float feature matrix; only valid once every column is numeric."""
        if not self.is_encoded:
            raise IsoguardError("dataset still holds raw nominal strings; encode it first")
        return self.rows

    def column_index(self, name: str) -> int:
        try:
            return self.feature_names.index(name)
        except ValueError:
            raise IsoguardError(f"unknown column {name!r}") from None

    def take_rows(self, indices: np.ndarray) -> Dataset:
        return replace(self, rows=self.rows[indices], target=self.target[indices])


@dataclass(frozen=True)
class EncoderState:
    """Per nominal column: ordered category -> code mapping (codes 0..k-1)."""

    mappings: dict[str, dict[str, int]]

    def encode(self, column: str, value: str) -> int:
        mapping = self.mappings.get(column)
        if mapping is None:
            raise IsoguardError(f"encoder was not fitted for column {column!r}")
        code = mapping.get(value)
        if code is None:
            raise IsoguardError(f"unseen category {value!r} in column {column!r}")
        return code


@dataclass(frozen=True)
class ScalerState:
    """Per-column mean and population standard deviation, in feature units."""

    feature_names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray


@dataclass(frozen=True)
class SplitSpec:
    test_fraction: float
    seed: int
    stratified: bool = True


def load_csv(path: str | Path, target_column: str = "class") -> Dataset:
    """Load an RFC-4180 CSV with header row into a Dataset.

    A feature column whose every cell is a finite number (as ``float``
    reads it) is Numeric; any other column, including one holding ``nan``,
    ``inf`` or ``1e999``, is Nominal and keeps its strings. The target
    column must have exactly two distinct values; they map to 0/1 with
    "normal" (case-insensitive) taking 0, literal "0"/"1" kept as-is, and
    otherwise the lexicographically smaller value taking 0. Missing cells
    and ragged rows are errors.
    """
    path = Path(path)
    if not path.is_file():
        raise IsoguardError(f"no such file: {path}")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            records = list(reader)
        except StopIteration:
            raise IsoguardError(f"{path}: file is empty, expected a header row") from None
        except UnicodeDecodeError:
            raise IsoguardError(f"{path}: not UTF-8 text") from None

    if len(set(header)) != len(header):
        raise IsoguardError(f"{path}: duplicate column names in header")
    width = len(header)
    if any(len(rec) != width or "" in rec for rec in records):
        for rownum, rec in enumerate(records, start=2):
            if len(rec) != width:
                raise IsoguardError(f"{path}: row {rownum} has {len(rec)} cells, expected {width}")
            for col, cell in zip(header, rec):
                if cell == "":
                    raise IsoguardError(f"{path}: missing value at row {rownum}, column {col!r}")
    if not records:
        raise IsoguardError(f"{path}: no data rows")

    if target_column not in header:
        raise IsoguardError(f"{path}: target column {target_column!r} not found")
    target_pos = header.index(target_column)
    feature_names = tuple(n for n in header if n != target_column)

    columns = list(zip(*records))
    target = _encode_target(columns.pop(target_pos), target_column, path)

    n = len(records)
    kinds: list[ColumnKind] = []
    data_cols: list[np.ndarray] = []
    for values in columns:
        try:
            numbers = np.fromiter(map(float, values), np.float64, count=n)
        except ValueError:
            numbers = None
        if numbers is not None and np.isfinite(numbers).all():
            kinds.append(ColumnKind.NUMERIC)
            data_cols.append(numbers)
        else:
            kinds.append(ColumnKind.NOMINAL)
            data_cols.append(np.array(values, dtype=object))
    rows = np.column_stack(data_cols) if data_cols else np.empty((n, 0))

    return Dataset(
        feature_names=feature_names,
        kinds=tuple(kinds),
        rows=rows,
        target=target,
        target_name=target_column,
    )


def _encode_target(raw: tuple[str, ...], name: str, path: Path) -> np.ndarray:
    distinct = sorted(set(raw))
    if len(distinct) != 2:
        raise IsoguardError(
            f"{path}: target column {name!r} must be binary, found {len(distinct)} distinct values"
        )
    lowered = [v.lower() for v in distinct]
    if "normal" in lowered:
        zero = distinct[lowered.index("normal")]
    elif distinct == ["0", "1"]:
        zero = "0"
    else:
        zero = distinct[0]
    return np.array([0 if v == zero else 1 for v in raw], dtype=np.int64)


def fit_label_encoder(ds: Dataset) -> EncoderState:
    """Assign codes 0..k-1 to each nominal column's lexicographically sorted categories."""
    mappings: dict[str, dict[str, int]] = {}
    for name, kind in zip(ds.feature_names, ds.kinds):
        if kind is not ColumnKind.NOMINAL:
            continue
        j = ds.column_index(name)
        categories = sorted({str(v) for v in ds.rows[:, j]})
        mappings[name] = {cat: code for code, cat in enumerate(categories)}
    return EncoderState(mappings=mappings)


def apply_label_encoder(ds: Dataset, enc: EncoderState) -> Dataset:
    """Replace nominal strings with fitted codes; unseen categories are an error."""
    nominal = [n for n, k in zip(ds.feature_names, ds.kinds) if k is ColumnKind.NOMINAL]
    if not nominal:
        return ds
    out = np.empty(ds.rows.shape, dtype=np.float64)
    for j, (name, kind) in enumerate(zip(ds.feature_names, ds.kinds)):
        if kind is ColumnKind.NOMINAL:
            out[:, j] = [float(enc.encode(name, str(v))) for v in ds.rows[:, j]]
        else:
            out[:, j] = ds.rows[:, j].astype(np.float64)
    return replace(ds, rows=out)


def fit_scaler(ds: Dataset) -> ScalerState:
    """Mean and population (1/n) standard deviation per feature column."""
    if ds.n_rows == 0:
        raise IsoguardError("cannot fit scaler on an empty dataset")
    X = ds.matrix()
    means = X.mean(axis=0)
    stds = X.std(axis=0)  # ddof=0: population convention
    return ScalerState(feature_names=ds.feature_names, means=means, stds=stds)


def apply_scaler(ds: Dataset, sc: ScalerState) -> Dataset:
    """Map every cell x to (x - mean) / std; constant columns map to 0.

    Columns are matched by name so a reloaded scaler works regardless of
    serialization order.
    """
    if set(ds.feature_names) != set(sc.feature_names):
        missing = set(ds.feature_names) ^ set(sc.feature_names)
        raise IsoguardError(f"scaler/dataset column mismatch: {sorted(missing)}")
    pos = {name: i for i, name in enumerate(sc.feature_names)}
    order = [pos[name] for name in ds.feature_names]
    means = sc.means[order]
    stds = sc.stds[order]
    X = ds.matrix()
    safe = np.where(stds == 0.0, 1.0, stds)
    scaled = (X - means) / safe
    scaled[:, stds == 0.0] = 0.0
    return replace(ds, rows=scaled)


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def train_test_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic, optionally stratified split into (train, test).

    Partitions are disjoint, cover all rows, and preserve original row
    order. Under stratification each class contributes
    round(test_fraction * class size) test rows, clamped so both
    partitions keep at least one row per class.
    """
    if not 0.0 < spec.test_fraction < 1.0:
        raise IsoguardError(f"test_fraction must be in (0, 1), got {spec.test_fraction}")
    rng = np.random.default_rng(spec.seed)
    test_parts: list[np.ndarray] = []
    if spec.stratified:
        for cls in (0, 1):
            members = np.flatnonzero(ds.target == cls)
            if members.size < 2:
                raise IsoguardError(
                    f"stratified split needs >= 2 rows per class, class {cls} has {members.size}"
                )
            k = min(max(_round_half_up(spec.test_fraction * members.size), 1), members.size - 1)
            test_parts.append(rng.permutation(members)[:k])
    else:
        n = ds.n_rows
        if n < 2:
            raise IsoguardError("split needs at least 2 rows")
        k = min(max(_round_half_up(spec.test_fraction * n), 1), n - 1)
        test_parts.append(rng.permutation(n)[:k])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.zeros(ds.n_rows, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    return ds.take_rows(train_idx), ds.take_rows(test_idx)


def save_transforms(enc: EncoderState, sc: ScalerState, path: str | Path) -> None:
    """Persist encoder mappings and scaler statistics as one JSON document."""
    doc = {
        "encoders": {col: dict(mapping) for col, mapping in enc.mappings.items()},
        "scaler": {
            name: {"mean": float(m), "std": float(s)}
            for name, m, s in zip(sc.feature_names, sc.means, sc.stds)
        },
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_transforms(path: str | Path) -> tuple[EncoderState, ScalerState]:
    """Read what ``save_transforms`` wrote; a malformed file or a non-numeric
    code, mean or std raises IsoguardError naming the file."""
    with artifact_reader(path):
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        enc = EncoderState(
            mappings={
                col: {k: checked_int(v, f"encoders.{col}[{k!r}]") for k, v in mapping.items()}
                for col, mapping in doc["encoders"].items()
            }
        )
        scaler = doc["scaler"]
        names = tuple(scaler.keys())
        means = np.array([checked_float(scaler[n]["mean"], f"scaler.{n}.mean") for n in names])
        stds = np.array([checked_float(scaler[n]["std"], f"scaler.{n}.std") for n in names])
    return enc, ScalerState(feature_names=names, means=means, stds=stds)


def write_table(path: str | Path, header: list[str], columns: list) -> None:
    """Write equal-length columns as a CSV with a header row.

    Cells come from ``tolist()``, so a float is written by ``repr`` and
    reloads to the same bits; every other value is written by ``str``.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*(np.asarray(c).tolist() for c in columns), strict=True))


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write features plus target column; floats use repr so reloads are exact."""
    columns = [
        col.astype(np.float64) if ds.is_encoded or kind is ColumnKind.NUMERIC else col.astype(str)
        for col, kind in zip(ds.rows.T, ds.kinds)
    ]
    write_table(path, [*ds.feature_names, ds.target_name], [*columns, ds.target.astype(np.int64)])
