"""CSV ingestion, label encoding, standard scaling and train/test splitting.

Feature columns are either Nominal (string-valued) or Numeric. Nominal
columns get lexicographically ordered integer codes; after encoding every
feature column is standardized to mean 0 / population std 1. Encoder and
scaler are meant to be fitted on the training partition only and then
applied to both partitions.
"""
from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Annotated

import numpy as np

from .codec import check_types, from_doc, to_doc
from .errors import IsoguardError, artifact_reader


class ColumnKind(Enum):
    NOMINAL = "nominal"
    NUMERIC = "numeric"


@dataclass(frozen=True)
class Dataset:
    """Feature table plus binary target labels (0 = normal, 1 = anomaly).

    ``rows`` holds raw strings in nominal columns until the label encoder
    has been applied, after which it is a plain float64 matrix. A table
    from ``load_csv`` is row-major; one from ``generate_synthetic`` is
    column-major (each feature contiguous). Every fit and score that
    reduces or multiplies rows lays them out C-ordered first, so no
    artifact depends on which.
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
class SplitSettings:
    """The config's ``split`` section."""

    test_fraction: Annotated[float, "in (0, 1)"] = 0.2
    stratified: bool = True

    def __post_init__(self) -> None:
        check_types(self, "config", "split")


# load_csv's parse memo: (sha256 of the file's bytes, target column) -> an all-Numeric Dataset.
# load_csv stores what it parsed and write_csv what it wrote. Two entries hold the train and
# test partitions that ingest writes and the later stages re-read.
_PARSED_MAX = 2
_parsed: OrderedDict[tuple[bytes, str], Dataset] = OrderedDict()
_parsed_lock = threading.Lock()


def _remember(key: tuple[bytes, str], ds: Dataset) -> None:
    """Keep ``ds`` as the most recently used memo entry, dropping the least recently used past two."""
    with _parsed_lock:
        _parsed[key] = ds
        _parsed.move_to_end(key)
        if len(_parsed) > _PARSED_MAX:
            _parsed.popitem(last=False)


def load_csv(path: str | Path, target_column: str = "class") -> Dataset:
    """Load an RFC-4180 CSV with header row into a Dataset.

    A feature column whose every cell is a finite number (as ``float``
    reads it) is Numeric; any other column, including one holding ``nan``,
    ``inf`` or ``1e999``, is Nominal and keeps its strings. The target
    column must have exactly two distinct values; they map to 0/1 with
    "normal" (case-insensitive) taking 0, literal "0"/"1" kept as-is, and
    otherwise the lexicographically smaller value taking 0. Missing cells
    and ragged rows are errors.

    The file is parsed ``_PARSE_CHUNK_ROWS`` records at a time, so a parse
    holds the file's bytes, one chunk of records and the typed columns at
    once. The first fault found is the one reported, in this order: header
    faults (an empty file, duplicate column names, a missing target
    column); then, chunk by chunk in file order, row faults (text that is
    not UTF-8 or not CSV, a ragged row, an empty cell); then an empty
    table; then a target column that is not binary.

    Every call reads the file, but identical bytes are parsed once per
    process: a table whose features are all Numeric is memoized under the
    sha256 of its bytes and ``target_column``, at most two of them, least
    recently used first out. ``write_csv`` puts what it wrote into the same
    memo, so a file this process wrote and nothing changed since is not
    parsed at all. A memo hit returns a Dataset equal to a fresh parse, with
    its own copies of ``rows`` and ``target``. Errors are never memoized,
    and a table with a Nominal column is never kept.
    """
    path = Path(path)
    if not path.is_file():
        raise IsoguardError(f"no such file: {path}")
    raw = path.read_bytes()
    key = (hashlib.sha256(raw).digest(), target_column)
    with _parsed_lock:
        hit = _parsed.get(key)
        if hit is not None:
            _parsed.move_to_end(key)
            return _copy_arrays(hit)
    feature_names, columns, target = _parse_columns(raw, path, target_column)
    del raw  # freed before the columns are stacked, which sets the parse's peak memory
    ds = Dataset(
        feature_names=feature_names,
        kinds=tuple(ColumnKind.NUMERIC if c.dtype == np.float64 else ColumnKind.NOMINAL for c in columns),
        rows=np.column_stack(columns) if columns else np.empty((target.size, 0)),
        target=target,
        target_name=target_column,
    )
    if ds.is_encoded:
        _remember(key, _copy_arrays(ds))
    return ds


def _copy_arrays(ds: Dataset) -> Dataset:
    return replace(ds, rows=ds.rows.copy(), target=ds.target.copy())


def _decoded(raw: bytes) -> io.TextIOWrapper:
    """The CSV bytes ``raw`` as the text ``csv.reader`` parses."""
    # utf-8-sig drops a leading byte-order mark, which would otherwise join the first column's name
    return io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="")


def _records(raw: bytes, path: Path):
    """The header, then each data record, of the CSV bytes ``raw`` as ``csv.reader`` reads them."""
    with _decoded(raw) as fh:
        reader = csv.reader(fh)
        try:
            yield next(reader)
            yield from reader
        except StopIteration:
            raise IsoguardError(f"{path}: file is empty, expected a header row") from None
        except UnicodeDecodeError:
            raise IsoguardError(f"{path}: not UTF-8 text") from None
        except csv.Error as e:  # a cell longer than csv.field_size_limit(), say
            raise IsoguardError(f"{path}: unreadable CSV at line {reader.line_num}: {e}") from None


_PARSE_CHUNK_ROWS = 1024  # records checked and typed at a time; bounds the parse's transient memory


def _parse_columns(raw: bytes, path: Path, target_column: str) -> tuple[tuple[str, ...], list[np.ndarray], np.ndarray]:
    """Feature names, feature columns and 0/1 target of the CSV bytes ``raw``.

    Records are checked and typed ``_PARSE_CHUNK_ROWS`` at a time. A column
    stays float64 while every cell so far is a finite float; once one is
    not, it keeps its strings, and those of the chunks before are read
    again from ``raw``.
    """
    records = _records(raw, path)
    header = next(records)
    if len(set(header)) != len(header):
        raise IsoguardError(f"{path}: duplicate column names in header")
    if target_column not in header:
        raise IsoguardError(f"{path}: target column {target_column!r} not found")
    target_pos = header.index(target_column)
    features = [j for j in range(len(header)) if j != target_pos]

    numbers: dict[int, list[np.ndarray]] = {j: [] for j in features}  # column -> its float64 chunks
    strings: dict[int, list[str]] = {}  # column -> its cells, once one is not a finite float
    target_values: dict[str, int] = {}  # distinct target value -> its first-seen order
    target_codes: list[np.ndarray] = []
    n = 0
    while chunk := list(itertools.islice(records, _PARSE_CHUNK_ROWS)):
        _check_grid(chunk, header, n + 2, path)
        cells = list(zip(*chunk))
        codes = [target_values.setdefault(v, len(target_values)) for v in cells[target_pos]]
        target_codes.append(np.array(codes, dtype=np.int64))
        turned = [j for j in numbers if not _append_finite(numbers[j], cells[j])]
        for j in turned:
            del numbers[j]
        if turned:
            strings.update(_leading_cells(raw, path, turned, n))
        for j, column in strings.items():
            column.extend(cells[j])
        n += len(chunk)
    if n == 0:
        raise IsoguardError(f"{path}: no data rows")
    target = _encode_target(np.concatenate(target_codes), list(target_values), target_column, path)
    columns = [
        np.concatenate(numbers.pop(j)) if j in numbers else np.array(strings.pop(j), dtype=object) for j in features
    ]
    return tuple(header[j] for j in features), columns, target


def _check_grid(records: list[list[str]], header: list[str], first_row: int, path: Path) -> None:
    """Raise on the first of ``records`` (data rows ``first_row`` on) that is ragged or has an empty cell."""
    width = len(header)
    for rownum, rec in enumerate(records, start=first_row):
        if len(rec) != width:
            raise IsoguardError(f"{path}: row {rownum} has {len(rec)} cells, expected {width}")
        if "" in rec:
            raise IsoguardError(f"{path}: missing value at row {rownum}, column {header[rec.index('')]!r}")


def _append_finite(chunks: list[np.ndarray], cells: tuple[str, ...]) -> bool:
    """Append ``cells`` to ``chunks`` as float64 and return True when every one is a finite float."""
    try:
        numbers = np.fromiter(map(float, cells), np.float64, count=len(cells))
    except ValueError:
        return False
    if not np.isfinite(numbers).all():
        return False
    chunks.append(numbers)
    return True


def _leading_cells(raw: bytes, path: Path, columns: list[int], n_rows: int) -> dict[int, list[str]]:
    """The cells of ``columns`` in the first ``n_rows`` data records of ``raw``, read again."""
    cells: dict[int, list[str]] = {j: [] for j in columns}
    if n_rows:
        records = _records(raw, path)
        next(records)
        for rec in itertools.islice(records, n_rows):
            for j, column in cells.items():
                column.append(rec[j])
    return cells


def _encode_target(codes: np.ndarray, values: list[str], name: str, path: Path) -> np.ndarray:
    """0/1 labels of a target column given as ``codes``, indices into its distinct ``values``."""
    distinct = sorted(values)
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
    return (codes != values.index(zero)).astype(np.int64)


def fit_label_encoder(ds: Dataset) -> EncoderState:
    """Assign codes 0..k-1 to each nominal column's lexicographically sorted categories."""
    mappings: dict[str, dict[str, int]] = {}
    for j, (name, kind) in enumerate(zip(ds.feature_names, ds.kinds)):
        if kind is not ColumnKind.NOMINAL:
            continue
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
    """Mean and population (1/n) standard deviation per feature column, reduced over C-ordered
    rows so that no bit of them depends on the memory layout of ``ds.rows``."""
    if ds.n_rows == 0:
        raise IsoguardError("cannot fit scaler on an empty dataset")
    X = np.ascontiguousarray(ds.matrix())
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


def share_count(fraction: float, n: int) -> int:
    """round(fraction * n), half up, on the fraction's decimal value: 0.29 of
    50 is 14.5 and gives 15, where the float product 14.499999999999998 gives 14."""
    return math.floor(Fraction(str(float(fraction))) * n + Fraction(1, 2))


def train_test_split(ds: Dataset, split: SplitSettings, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic split into (train, test), stratified when ``split.stratified``,
    drawn from ``seed``.

    Partitions are disjoint, cover all rows, and preserve original row
    order. Under stratification each class contributes
    round(split.test_fraction * class size) test rows, clamped so both
    partitions keep at least one row per class.
    """
    rng = np.random.default_rng(seed)
    groups = [np.flatnonzero(ds.target == cls) for cls in (0, 1)] if split.stratified else [np.arange(ds.n_rows)]
    test_parts: list[np.ndarray] = []
    for cls, members in enumerate(groups):
        if members.size < 2:
            raise IsoguardError(
                f"stratified split needs >= 2 rows per class, class {cls} has {members.size}"
                if split.stratified
                else "split needs at least 2 rows"
            )
        k = min(max(share_count(split.test_fraction, members.size), 1), members.size - 1)
        test_parts.append(rng.permutation(members)[:k])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.zeros(ds.n_rows, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    return ds.take_rows(train_idx), ds.take_rows(test_idx)


@dataclass
class _ColumnStats:
    mean: float
    std: float


@dataclass
class _TransformsDoc:
    """What transforms.json holds: each nominal column's category codes, and each column's scaler statistics."""

    encoders: dict[str, dict[str, int]]
    scaler: dict[str, _ColumnStats]


def save_transforms(enc: EncoderState, sc: ScalerState, path: str | Path) -> None:
    """Persist encoder mappings and scaler statistics as one JSON document."""
    doc = _TransformsDoc(
        encoders=enc.mappings,
        scaler={name: _ColumnStats(float(m), float(s)) for name, m, s in zip(sc.feature_names, sc.means, sc.stds)},
    )
    Path(path).write_text(json.dumps(to_doc(doc), indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_transforms(path: str | Path) -> tuple[EncoderState, ScalerState]:
    """Read what ``save_transforms`` wrote; a malformed file, an unknown key or
    a value of the wrong type raises IsoguardError naming the file and the field."""
    with artifact_reader(path):
        doc = from_doc(_TransformsDoc, json.loads(Path(path).read_text(encoding="utf-8")), "transforms")
    stats = doc.scaler.values()
    means, stds = np.array([c.mean for c in stats]), np.array([c.std for c in stats])
    return EncoderState(mappings=doc.encoders), ScalerState(feature_names=tuple(doc.scaler), means=means, stds=stds)


_WRITE_CHUNK_ROWS = 256  # rows encoded, hashed and written at a time; bounds the writer's transient memory


def write_table(path: str | Path, header: list[str], columns: list) -> bytes:
    """Write equal-length columns as a CSV with a header row; return the
    sha256 digest of the bytes written.

    Cells come from ``tolist()``, so a float is written by ``repr`` and
    reloads to the same bits; every other value is written by ``str``. When
    every column is numeric (integer or float), each row is its cells'
    ``repr`` joined by commas, the bytes ``csv.writer`` gives them; the
    header row, and every row of a table with any other column, go through
    ``csv.writer``. Rows are encoded, hashed and written in chunks of
    ``_WRITE_CHUNK_ROWS``.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _csv_chunks(header, [np.asarray(c) for c in columns]):
            chunk = text.encode("utf-8")
            digest.update(chunk)
            fh.write(chunk)
    return digest.digest()


def _csv_chunks(header: list[str], columns: list[np.ndarray]):
    """The CSV text of the header row, then of each chunk of up to ``_WRITE_CHUNK_ROWS`` rows."""
    yield _csv_text([header])
    numeric = all(c.ndim == 1 and c.dtype.kind in "fiu" for c in columns)
    n = max((len(c) for c in columns), default=0)
    for start in range(0, n, _WRITE_CHUNK_ROWS):
        rows = zip(*(c[start : start + _WRITE_CHUNK_ROWS].tolist() for c in columns), strict=True)
        yield "".join([",".join(map(repr, row)) + "\r\n" for row in rows]) if numeric else _csv_text(rows)


def _csv_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them."""
    text = io.StringIO()  # a fresh one per chunk: StringIO appends fastest before any seek
    csv.writer(text).writerows(rows)
    return text.getvalue()


def write_csv(ds: Dataset, path: str | Path) -> None:
    """Write features plus target column; floats use repr so reloads are exact.
    A float column is written from a view of ``ds.rows``, not a copy.

    When a parse of the written bytes would return ``ds`` with every feature
    Numeric, ``load_csv``'s memo keeps that parse's result under the bytes'
    sha256, so reading the unchanged file back in this process parses nothing.
    """
    columns = [
        col.astype(np.float64, copy=False) if ds.is_encoded or kind is ColumnKind.NUMERIC else col.astype(str)
        for col, kind in zip(ds.rows.T, ds.kinds)
    ]
    header = [*ds.feature_names, ds.target_name]
    target = ds.target.astype(np.int64)  # the memo's own copy
    digest = write_table(path, header, [*columns, target])
    parsed = _as_parsed(ds, header, target)
    if parsed is not None:
        _remember((digest, ds.target_name), parsed)


def _as_parsed(ds: Dataset, header: list[str], target: np.ndarray) -> Dataset | None:
    """What ``load_csv`` returns for ``write_csv``'s bytes of ``ds`` when it
    accepts them and types every feature Numeric; otherwise None.

    That takes float64 rows, every cell finite, unique names that read back
    as written, and a target of 0 and 1 with both present (so no empty table)."""
    if not (ds.is_encoded and ds.rows.shape[1] == len(ds.kinds) == len(header) - 1):
        return None
    if not np.isfinite(ds.rows).all() or not np.array_equal(np.unique(target), [0, 1]):
        return None
    with _decoded(_csv_text([header]).encode("utf-8")) as fh:
        try:
            names = next(csv.reader(fh))
        except csv.Error:  # a name past csv's field size limit
            return None
    if names != header or len(set(names)) != len(names):
        return None
    return Dataset(
        feature_names=tuple(names[:-1]),
        kinds=(ColumnKind.NUMERIC,) * len(ds.kinds),
        rows=np.array(ds.rows, dtype=np.float64, order="C"),
        target=target,
        target_name=names[-1],
    )
