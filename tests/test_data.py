import csv
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isoguard import data
from isoguard.data import (
    ColumnKind,
    Dataset,
    EncoderState,
    SplitSettings,
    apply_label_encoder,
    apply_scaler,
    fit_label_encoder,
    fit_scaler,
    load_csv,
    load_transforms,
    save_transforms,
    train_test_split,
    write_csv,
    write_table,
)
from isoguard.errors import IsoguardError
from isoguard.synthetic import SyntheticSpec, generate_synthetic

NSL_KDD_COLUMNS = [
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins", "logged_in",
    "num_compromised", "root_shell", "su_attempted", "num_root", "num_file_creations",
    "num_shells", "num_access_files", "num_outbound_cmds", "is_host_login",
    "is_guest_login", "count", "srv_count", "serror_rate", "srv_serror_rate",
    "rerror_rate", "srv_rerror_rate", "same_srv_rate", "diff_srv_rate",
    "srv_diff_host_rate", "dst_host_count", "dst_host_srv_count",
    "dst_host_same_srv_rate", "dst_host_diff_srv_rate", "dst_host_same_src_port_rate",
    "dst_host_srv_diff_host_rate", "dst_host_serror_rate", "dst_host_srv_serror_rate",
    "dst_host_rerror_rate", "dst_host_srv_rerror_rate",
]


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def finite_float(text):
    """The finite float ``text`` spells, else None (``nan``, ``inf`` and ``1e999`` included)."""
    try:
        value = float(text)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def load_columns_against_oracle(tmp_path, columns, bom=False, lineterminator="\n"):
    """Load ``columns`` (name -> cell strings), written by ``csv.writer``,
    through ``load_csv`` and check each column against ``finite_float``:
    Numeric with the oracle's bits when every cell is a finite float, else
    Nominal with its strings."""
    names = list(columns)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator=lineterminator)
    writer.writerow(names + ["class"])
    for i in range(len(columns[names[0]])):
        writer.writerow([columns[n][i] for n in names] + [["normal", "anomaly"][i % 2]])
    ds = load_csv(write(tmp_path, ("\ufeff" if bom else "") + text.getvalue()))
    assert ds.feature_names == tuple(names)
    for j, name in enumerate(names):
        parsed = [finite_float(v) for v in columns[name]]
        if all(p is not None for p in parsed):
            assert ds.kinds[j] is ColumnKind.NUMERIC, name
            got = np.array(ds.rows[:, j], dtype=np.float64)
            assert got.view(np.uint64).tolist() == np.array(parsed).view(np.uint64).tolist(), name
        else:
            assert ds.kinds[j] is ColumnKind.NOMINAL, name
            assert ds.rows[:, j].tolist() == columns[name], name
    return ds


FINITE_SPELLINGS = [
    "0", "42", "-7", "+3", "-2.5", "+1.25e-3", "6E+2", ".5", "5.", "1e308", "-1e308",
    "-0", "-0.0", " 7 ", "\t1.5", "1_000", "1_0.2_5", "4.9e-324",
]
OTHER_SPELLINGS = [
    "0x10", "nan", "NaN", "-nan", "+NAN", "inf", "-Infinity", "+INF", "infinity",
    "1e999", "-1E999", "tcp", "abc", "1.2.3", "e5", "--1", "1__0", "_1",
]


def numeric_dataset(values, target, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = tuple(names or (f"f{j}" for j in range(values.shape[1])))
    return Dataset(
        feature_names=names,
        kinds=tuple([ColumnKind.NUMERIC] * values.shape[1]),
        rows=values,
        target=np.asarray(target, dtype=np.int64),
    )


class TestLoadCsv:
    def test_kind_inference(self, tmp_path):
        path = write(
            tmp_path,
            "duration,protocol_type,class\n"
            "1,tcp,normal\n2,udp,anomaly\n3,tcp,normal\n4.5,icmp,anomaly\n",
        )
        ds = load_csv(path)
        assert ds.kinds == (ColumnKind.NUMERIC, ColumnKind.NOMINAL)
        assert ds.target.tolist() == [0, 1, 0, 1]
        assert ds.feature_names == ("duration", "protocol_type")

    def test_mixed_column_becomes_nominal(self, tmp_path):
        path = write(tmp_path, "duration,class\n1,normal\nabc,anomaly\n3,normal\n")
        ds = load_csv(path)
        assert ds.kinds == (ColumnKind.NOMINAL,)

    def test_nsl_kdd_style_file_has_three_nominal_columns(self, tmp_path):
        header = ",".join(NSL_KDD_COLUMNS + ["class"])
        rows = []
        for i in range(6):
            cells = []
            for name in NSL_KDD_COLUMNS:
                if name == "protocol_type":
                    cells.append(["tcp", "udp", "icmp"][i % 3])
                elif name == "service":
                    cells.append(["http", "smtp"][i % 2])
                elif name == "flag":
                    cells.append(["SF", "S0"][i % 2])
                else:
                    cells.append(str(i * 0.5))
            rows.append(",".join(cells + [["normal", "anomaly"][i % 2]]))
        ds = load_csv(write(tmp_path, header + "\n" + "\n".join(rows) + "\n"))
        assert ds.n_features == 41
        nominal = [n for n, k in zip(ds.feature_names, ds.kinds) if k is ColumnKind.NOMINAL]
        assert nominal == ["protocol_type", "service", "flag"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(IsoguardError, match="no such file"):
            load_csv(tmp_path / "absent.csv")
        with pytest.raises(IsoguardError, match="no such file"):
            load_csv(tmp_path)  # a directory

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(IsoguardError, match=re.escape(f"{path}: file is empty, expected a header row")):
            load_csv(path)

    def test_matrix_of_raw_nominals_is_refused(self, tmp_path):
        ds = load_csv(write(tmp_path, "a,class\nx,0\ny,1\n"))
        with pytest.raises(IsoguardError, match="dataset still holds raw nominal strings; encode it first"):
            ds.matrix()

    def test_ragged_rows(self, tmp_path):
        path = write(tmp_path, "a,b,class\n1,2,normal\n3,anomaly\n4,5,6,normal\n")
        with pytest.raises(IsoguardError, match="row 3 has 2 cells, expected 3"):
            load_csv(path)

    def test_missing_cell(self, tmp_path):
        path = write(tmp_path, "a,b,class\n1,2,normal\n1,,normal\n,3,anomaly\n")
        with pytest.raises(IsoguardError, match="missing value at row 3, column 'b'"):
            load_csv(path)

    def test_number_parse_matches_per_cell_parse(self, tmp_path):
        columns = {
            "plain": ["1", "2.5", "-3e2", "4"],
            "nan": ["1", "nan", "2", "3"],
            "minus_nan": ["1", "-nan", "2", "+nan"],
            "inf": ["inf", "1", "2", "3"],
            "overflow": ["1e999", "-1e999", "2", "3"],
            "spaced": [" 2 ", "3", "\t4", "5"],
            "underscored": ["1_000", "2", "3", "4"],
            "word": ["1", "NaN", "x", "4"],
        }
        ds = load_columns_against_oracle(tmp_path, columns)
        # a non-finite spelling ("-nan", "1e999") is not a number, so only plain, spaced and underscored stay numeric
        assert ds.kinds.count(ColumnKind.NUMERIC) == 3

    def test_kind_rule_on_seeded_spelling_corpus(self, tmp_path):
        """Random columns of cell spellings: a column is Numeric exactly when
        every cell is a finite float, and its values keep the oracle's bits."""
        finite, other = FINITE_SPELLINGS, OTHER_SPELLINGS
        rng = random.Random(20211)
        n_rows, n_cols = 12, 80
        columns = {}
        for j in range(n_cols):
            cells = [rng.choice(finite) for _ in range(n_rows)]
            if rng.random() < 0.5:  # one or more cells that are not a finite number
                for i in rng.sample(range(n_rows), rng.randint(1, 3)):
                    cells[i] = rng.choice(other)
            columns[f"c{j}"] = cells
        ds = load_columns_against_oracle(tmp_path, columns)
        assert 0 < ds.kinds.count(ColumnKind.NUMERIC) < n_cols

    def test_overflowing_column_loads_nominal(self, tmp_path):
        ds = load_csv(write(tmp_path, "x,y,class\n1e999,1,normal\n2,2,anomaly\n"))
        assert ds.kinds == (ColumnKind.NOMINAL, ColumnKind.NUMERIC)
        assert ds.rows[:, 0].tolist() == ["1e999", "2"]

    @pytest.mark.parametrize(
        "text",
        [
            "a,proto,class\n0.1,tcp,normal\n-2.5e3,udp,anomaly\n7,tcp,normal\n",
            "class,a,proto\nnormal,0.1,tcp\nanomaly,-2.5e3,udp\nnormal,7,tcp\n",
        ],
    )
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, text):
        plain = load_csv(write(tmp_path, text, "plain.csv"))
        marked = load_csv(write(tmp_path, "\ufeff" + text, "marked.csv"))
        assert (tmp_path / "marked.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert marked.feature_names == plain.feature_names == ("a", "proto")
        assert marked.kinds == plain.kinds == (ColumnKind.NUMERIC, ColumnKind.NOMINAL)
        assert marked.rows[:, 1].tolist() == plain.rows[:, 1].tolist() == ["tcp", "udp", "tcp"]
        assert marked.rows[:, 0].astype(np.float64).tobytes() == plain.rows[:, 0].astype(np.float64).tobytes()
        assert marked.target.tolist() == plain.target.tolist() == [0, 1, 0]

    def test_unknown_target_column(self, tmp_path):
        path = write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(IsoguardError, match="target column"):
            load_csv(path)

    def test_non_binary_target(self, tmp_path):
        path = write(tmp_path, "a,class\n1,x\n2,y\n3,z\n")
        with pytest.raises(IsoguardError, match="binary"):
            load_csv(path)

    def test_target_column_override(self, tmp_path):
        path = write(tmp_path, "a,label\n1,normal\n2,anomaly\n")
        ds = load_csv(path, target_column="label")
        assert ds.target.tolist() == [0, 1]


def same_dataset(a, b):
    assert (a.feature_names, a.kinds, a.target_name) == (b.feature_names, b.kinds, b.target_name)
    assert a.rows.dtype == b.rows.dtype and a.rows.shape == b.rows.shape
    if a.rows.dtype == object:  # str cells in Nominal columns, float cells in Numeric ones
        numeric = np.array([k is ColumnKind.NUMERIC for k in a.kinds], dtype=bool)
        assert a.rows[:, ~numeric].tolist() == b.rows[:, ~numeric].tolist()
        assert {type(v) for v in a.rows[:, numeric].ravel()} <= {float}
        assert {type(v) for v in b.rows[:, numeric].ravel()} <= {float}
        assert a.rows[:, numeric].astype(np.float64).tobytes() == b.rows[:, numeric].astype(np.float64).tobytes()
    else:
        assert a.rows.tobytes() == b.rows.tobytes()
    assert a.rows.flags.c_contiguous == b.rows.flags.c_contiguous
    assert a.target.dtype == b.target.dtype and a.target.tolist() == b.target.tolist()


NUMERIC_TEXT = "x,y,class\n0.1,-2.5e3,normal\n7,1e-300,anomaly\n3.25,0,normal\n"


class TestParseMemo:
    def test_hit_matches_fresh_parse(self, tmp_path, parses):
        path = write(tmp_path, NUMERIC_TEXT)
        fresh = load_csv(path)
        hit = load_csv(path)
        assert parses == ["data.csv"]
        same_dataset(hit, fresh)
        data._parsed.clear()
        same_dataset(hit, load_csv(path))
        assert parses == ["data.csv", "data.csv"]

    def test_hit_arrays_are_not_shared(self, tmp_path, parses):
        path = write(tmp_path, NUMERIC_TEXT)
        for _ in range(2):  # mutate the parse's result, then a hit's
            ds = load_csv(path)
            ds.rows[:] = 99.0
            ds.target[:] = 1
        ds = load_csv(path)
        assert ds.rows.tolist() == [[0.1, -2500.0], [7.0, 1e-300], [3.25, 0.0]]
        assert ds.target.tolist() == [0, 1, 0]
        assert parses == ["data.csv"]

    def test_same_size_rewrite_with_restored_mtime_is_reparsed(self, tmp_path, parses):
        path = write(tmp_path, "x,class\n1,normal\n2,anomaly\n")
        assert load_csv(path).rows.ravel().tolist() == [1.0, 2.0]
        before = path.stat()
        write(tmp_path, "x,class\n5,normal\n6,anomaly\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = path.stat()
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load_csv(path).rows.ravel().tolist() == [5.0, 6.0]
        assert parses == ["data.csv", "data.csv"]

    def test_parse_error_is_not_cached(self, tmp_path, parses):
        path = write(tmp_path, NUMERIC_TEXT)
        good = load_csv(path)
        write(tmp_path, NUMERIC_TEXT.replace("7,1e-300", "7"))
        for _ in range(2):
            with pytest.raises(IsoguardError, match="row 3 has 2 cells, expected 3"):
                load_csv(path)
        write(tmp_path, NUMERIC_TEXT)
        same_dataset(load_csv(path), good)
        assert parses == ["data.csv"] * 3
        assert len(data._parsed) == 1

    def test_target_column_is_part_of_the_key(self, tmp_path, parses):
        path = write(tmp_path, "a,class,label\n1.5,0,1\n2.5,1,1\n3.5,1,0\n")
        by_class = load_csv(path)
        by_label = load_csv(path, target_column="label")
        assert by_class.feature_names == ("a", "label") and by_class.target.tolist() == [0, 1, 1]
        assert by_label.feature_names == ("a", "class") and by_label.target.tolist() == [1, 1, 0]
        assert by_label.target_name == "label"
        assert parses == ["data.csv", "data.csv"]

    def test_nominal_table_is_never_stored(self, tmp_path, parses):
        path = write(tmp_path, "duration,protocol_type,class\n1,tcp,normal\n2,udp,anomaly\n")
        load_csv(path)
        load_csv(path)
        assert parses == ["data.csv", "data.csv"]
        assert not data._parsed

    def test_holds_at_most_two_tables_least_recently_used_first_out(self, tmp_path, parses):
        paths = {
            name: write(tmp_path, NUMERIC_TEXT.replace("0.1", str(i)), f"{name}.csv")
            for i, name in enumerate("abc")
        }
        for name in "abac":  # the hit on a makes b the least recently used
            load_csv(paths[name])
            assert len(data._parsed) <= 2
        assert parses == ["a.csv", "b.csv", "c.csv"]
        load_csv(paths["a"])
        load_csv(paths["b"])
        assert parses == ["a.csv", "b.csv", "c.csv", "b.csv"]


EXTREME_FLOATS = [-0.0, 5e-324, 1e-300, 1e22, 1.7976931348623157e308, -1.7976931348623157e308]


def extreme_dataset(names=("x", "y"), target=(0, 1, 1, 0, 1, 0), target_name="class", order="F"):
    """Six rows holding ``EXTREME_FLOATS`` forwards in one column and backwards in the other."""
    rows = np.array([EXTREME_FLOATS, EXTREME_FLOATS[::-1]], order=order).T
    return Dataset(tuple(names), (ColumnKind.NUMERIC,) * 2, rows, np.asarray(target), target_name)


def with_cell(ds, value):
    rows = ds.rows.copy()
    rows[2, 1] = value
    return replace(ds, rows=rows)


class TestWriteMemory:
    def test_peak_is_the_memo_copy_and_one_chunk(self, tmp_path):
        """Writing an encoded table copies none of its columns: the peak above what was
        allocated before is the memo's C-ordered copy and one chunk of rows as text. A copy
        of each column ahead of the write would take about another table."""
        ds, _ = generate_synthetic(SyntheticSpec(n_normal=20_000, n_anomaly=2_000, seed=3))
        tracemalloc.start()
        try:
            write_csv(ds, tmp_path / "synthetic.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * ds.rows.nbytes


class TestWriteThrough:
    """write_csv keeps exactly what a fresh parse of its bytes returns, and
    nothing when that parse would fail or type a column Nominal."""

    @pytest.mark.parametrize(
        "ds",
        [
            extreme_dataset(),
            extreme_dataset(order="C"),
            extreme_dataset(names=("a,b", 'say "hi"')),
            extreme_dataset(names=("two\nlines", "cr\rhere")),
            extreme_dataset(names=("x", "\ufeffy")),  # only a leading byte-order mark is dropped on reload
            extreme_dataset(target=np.array([0, 1, 1, 0, 1, 0], dtype=np.int32), target_name="label"),
            extreme_dataset(target=np.array([False, True, True, False, True, False])),
        ],
        ids=["fortran-order", "c-order", "comma-and-quote", "newlines", "inner-bom", "int32-target", "bool-target"],
    )
    def test_hit_equals_fresh_parse(self, tmp_path, parses, ds):
        path = tmp_path / "w.csv"
        write_csv(ds, path)
        (kept,) = data._parsed.values()
        hit = load_csv(path, target_column=ds.target_name)
        assert parses == []
        data._parsed.clear()
        fresh = load_csv(path, target_column=ds.target_name)
        assert parses == ["w.csv"]
        assert fresh.kinds == (ColumnKind.NUMERIC,) * 2
        same_dataset(hit, fresh)
        same_dataset(kept, fresh)

    def test_kept_arrays_are_not_shared(self, tmp_path, parses):
        ds = extreme_dataset()
        write_csv(ds, tmp_path / "w.csv")
        ds.rows[:] = 1.0
        ds.target[:] = 0
        hit = load_csv(tmp_path / "w.csv")
        assert hit.rows[:, 0].tolist() == EXTREME_FLOATS and hit.target.tolist() == [0, 1, 1, 0, 1, 0]
        assert parses == []

    def test_rewrite_of_the_same_bytes_is_most_recently_used(self, tmp_path, parses):
        for name, cell in (("a", 1.0), ("b", 2.0), ("a", 1.0), ("c", 3.0)):
            write_csv(with_cell(extreme_dataset(), cell), tmp_path / f"{name}.csv")
        assert len(data._parsed) == 2
        for name in "acb":  # b was the least recently written, so c pushed it out
            load_csv(tmp_path / f"{name}.csv")
        assert parses == ["b.csv"]

    @pytest.mark.parametrize(
        "ds, outcome",
        [
            (extreme_dataset(target=[1] * 6), "target column 'class' must be binary, found 1 distinct values"),
            (extreme_dataset(target=[0, 2, 2, 0, 2, 0]), lambda back: back.target.tolist() == [0, 1, 1, 0, 1, 0]),
            (with_cell(extreme_dataset(), math.nan), lambda back: back.kinds[1] is ColumnKind.NOMINAL),
            (with_cell(extreme_dataset(), math.inf), lambda back: back.kinds[1] is ColumnKind.NOMINAL),
            (with_cell(extreme_dataset(), -math.inf), lambda back: back.kinds[1] is ColumnKind.NOMINAL),
            (numeric_dataset(np.empty((0, 2)), []), "no data rows"),
            (extreme_dataset(names=("x", "x")), "duplicate column names"),
            (extreme_dataset(names=("class", "y")), "duplicate column names"),
            (extreme_dataset(names=("\ufeffx", "y")), lambda back: back.feature_names == ("x", "y")),
            (replace(extreme_dataset(), feature_names=("x",), kinds=(ColumnKind.NUMERIC,)),
             lambda back: back.rows[:, 0].tolist() == EXTREME_FLOATS and back.n_features == 1),
        ],
        ids=[
            "one-class", "target-0-2", "nan", "inf", "-inf", "no-rows", "duplicate", "feature-named-class", "bom",
            "fewer-kinds-than-columns",
        ],
    )
    def test_table_a_parse_would_change_is_not_kept(self, tmp_path, parses, ds, outcome):
        path = tmp_path / "w.csv"
        write_csv(ds, path)
        assert not data._parsed
        if isinstance(outcome, str):
            with pytest.raises(IsoguardError, match=re.escape(outcome)):
                load_csv(path)
        else:
            assert outcome(load_csv(path))
        assert parses == ["w.csv"]


def chunked_table(seed):
    """Seeded columns (name -> cell strings) of 2 to 10 rows: numbers, spellings
    ``float`` reads, words, text needing quotes, and columns whose only
    non-finite or non-numeric cell is the last or a random row. Seeds 4 and
    up keep only the columns that stay Numeric."""
    rng = random.Random(seed)
    n = rng.randint(2, 10)

    def numbers():
        return [repr(rng.uniform(-1e6, 1e6)) for _ in range(n)]

    columns = {
        "number": numbers(),
        "spelled": [rng.choice(FINITE_SPELLINGS) for _ in range(n)],
        "proto": [rng.choice(["tcp", "udp", "icmp"]) for _ in range(n)],
        "quoted": [rng.choice(["a,b", 'say "hi"', "two\nlines", "cr\r\nlf", "plain"]) for _ in range(n)],
    }
    for late in ("nan", "inf", "1e999", "abc"):
        columns[f"last_{late}"] = numbers()[:-1] + [late]
    word_at_random_row = [rng.choice(FINITE_SPELLINGS) for _ in range(n)]
    word_at_random_row[rng.randrange(n)] = rng.choice(OTHER_SPELLINGS)
    columns["word_at_random_row"] = word_at_random_row
    if seed >= 4:
        columns = {name: columns[name] for name in ("number", "spelled")}
    return columns


def faulty_table(n_rows, bad_row, fault):
    """``a,b,class`` with ``n_rows`` rows, data row ``bad_row`` (0-based) ragged or with ``b`` empty."""
    lines = ["a,b,class"]
    for i in range(n_rows):
        label = ["normal", "anomaly"][i % 2]
        if i != bad_row:
            lines.append(f"{i},{i / 8},{label}")
        else:
            lines.append(f"{i},{label}" if fault == "ragged" else f"{i},,{label}")
    return "\n".join(lines) + "\n"


class TestChunkedParse:
    """load_csv checks and types records _PARSE_CHUNK_ROWS at a time; the
    chunk size changes neither the result nor the error."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3])
    def test_result_is_independent_of_the_chunk_size(self, tmp_path, monkeypatch, parses, chunk_rows, seed):
        columns = chunked_table(seed)
        style = {"bom": seed % 2 == 1, "lineterminator": "\r\n" if seed // 2 % 2 else "\n"}
        whole = load_columns_against_oracle(tmp_path, columns, **style)
        data._parsed.clear()
        monkeypatch.setattr(data, "_PARSE_CHUNK_ROWS", chunk_rows)
        chunked = load_columns_against_oracle(tmp_path, columns, **style)
        assert parses == ["data.csv", "data.csv"]
        same_dataset(chunked, whole)
        assert chunked.rows.flags.c_contiguous
        assert (ColumnKind.NOMINAL in chunked.kinds) is (seed < 4)

    @pytest.mark.parametrize("fault", ["ragged", "empty"])
    @pytest.mark.parametrize(
        "edge", ["first of the first", "last of the first", "first of the second", "last of the second"]
    )
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, None])
    def test_row_fault_at_a_chunk_edge(self, tmp_path, monkeypatch, chunk_rows, edge, fault):
        if chunk_rows is not None:
            monkeypatch.setattr(data, "_PARSE_CHUNK_ROWS", chunk_rows)
        size = data._PARSE_CHUNK_ROWS
        bad_row = {"first of the first": 0, "last of the first": size - 1,
                   "first of the second": size, "last of the second": 2 * size - 1}[edge]
        path = write(tmp_path, faulty_table(2 * size + 1, bad_row, fault))
        rownum = bad_row + 2  # the header is row 1
        message = (f"row {rownum} has 2 cells, expected 3" if fault == "ragged"
                   else f"missing value at row {rownum}, column 'b'")
        with pytest.raises(IsoguardError, match=re.escape(f"{path}: {message}")):
            load_csv(path)


class TestErrorOrder:
    """Header faults come first, then row faults chunk by chunk in file order."""

    def test_ragged_row_wins_over_a_later_decode_error(self, tmp_path):
        lines = faulty_table(5000, 1, "ragged").encode("utf-8").split(b"\n")
        lines[4001] = b"\xff" + lines[4001]  # several chunks (and decode blocks) after row 3
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(IsoguardError, match=re.escape(f"{path}: row 3 has 2 cells, expected 3")):
            load_csv(path)

    def test_decode_error_wins_over_a_later_ragged_row(self, tmp_path):
        lines = faulty_table(5000, 4500, "ragged").encode("utf-8").split(b"\n")
        lines[3] = b"\xff" + lines[3]
        path = tmp_path / "data.csv"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(IsoguardError, match=re.escape(f"{path}: not UTF-8 text")):
            load_csv(path)

    @pytest.mark.parametrize(
        "header, message",
        [("a,a,class", "duplicate column names in header"), ("a,b,label", "target column 'class' not found")],
    )
    def test_header_fault_wins_over_a_row_fault(self, tmp_path, header, message):
        rows = faulty_table(3, 0, "ragged").split("\n", 1)[1]  # row 2 is ragged
        with pytest.raises(IsoguardError, match=re.escape(message)):
            load_csv(write(tmp_path, header + "\n" + rows))

    def test_row_fault_wins_over_a_non_binary_target(self, tmp_path):
        path = write(tmp_path, "a,class\n1,x\n2\n3,z\n4,w\n")
        with pytest.raises(IsoguardError, match="row 3 has 1 cells, expected 2"):
            load_csv(path)


class TestParseMemory:
    def test_peak_is_the_file_the_dataset_and_one_chunk(self, tmp_path):
        """A mixed table of several chunks parses within its file's bytes, the
        Dataset it returns and one chunk of records; a record list of the
        whole file and its transpose would take about twice that."""
        rng = random.Random(3)
        n_rows = 8 * data._PARSE_CHUNK_ROWS
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow([f"c{j}" for j in range(12)] + ["class"])
        for i in range(n_rows):
            nominal = [rng.choice(["tcp", "udp", "icmp"]) for _ in range(2)]
            numeric = [repr(rng.uniform(-1e3, 1e3)) for _ in range(10)]
            writer.writerow(nominal + numeric + [["normal", "anomaly"][i % 2]])
        path = write(tmp_path, text.getvalue())
        tracemalloc.start()
        try:
            ds = load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.kinds == (ColumnKind.NOMINAL,) * 2 + (ColumnKind.NUMERIC,) * 10
        dataset_bytes = ds.rows.nbytes + sum(map(sys.getsizeof, ds.rows.ravel().tolist())) + ds.target.nbytes
        records = list(csv.reader(io.StringIO(text.getvalue())))[1 : 1 + data._PARSE_CHUNK_ROWS]
        chunk_bytes = sum(sys.getsizeof(rec) + sum(map(sys.getsizeof, rec)) for rec in records)
        assert peak < path.stat().st_size + dataset_bytes + chunk_bytes


class TestLabelEncoder:
    def make(self):
        rows = np.empty((3, 2), dtype=object)
        rows[:, 0] = ["tcp", "udp", "icmp"]
        rows[:, 1] = [1.0, 2.0, 3.0]
        return Dataset(
            feature_names=("protocol_type", "duration"),
            kinds=(ColumnKind.NOMINAL, ColumnKind.NUMERIC),
            rows=rows,
            target=np.array([0, 1, 0]),
        )

    def test_lexicographic_codes(self):
        enc = fit_label_encoder(self.make())
        assert enc.mappings["protocol_type"] == {"icmp": 0, "tcp": 1, "udp": 2}

    def test_single_category(self):
        rows = np.empty((2, 1), dtype=object)
        rows[:, 0] = ["S0", "S0"]
        ds = Dataset(("flag",), (ColumnKind.NOMINAL,), rows, np.array([0, 1]))
        enc = fit_label_encoder(ds)
        assert enc.mappings["flag"] == {"S0": 0}

    def test_columns_encoded_independently(self):
        rows = np.empty((2, 2), dtype=object)
        rows[:, 0] = ["b", "a"]
        rows[:, 1] = ["a", "c"]
        ds = Dataset(("u", "v"), (ColumnKind.NOMINAL, ColumnKind.NOMINAL), rows, np.array([0, 1]))
        enc = fit_label_encoder(ds)
        assert enc.mappings["u"] == {"a": 0, "b": 1}
        assert enc.mappings["v"] == {"a": 0, "c": 1}

    def test_apply_lookup(self):
        ds = self.make()
        enc = fit_label_encoder(ds)
        out = apply_label_encoder(ds, enc)
        assert out.rows[:, 0].tolist() == [1.0, 2.0, 0.0]
        assert out.is_encoded

    def test_unseen_category(self):
        ds = self.make()
        enc = fit_label_encoder(ds)
        bad = np.empty((1, 2), dtype=object)
        bad[0] = ["sctp", 9.0]
        probe = Dataset(ds.feature_names, ds.kinds, bad, np.array([0]))
        with pytest.raises(IsoguardError, match="unseen category 'sctp' in column 'protocol_type'"):
            apply_label_encoder(probe, enc)

    def test_column_without_a_fitted_encoder(self):
        with pytest.raises(IsoguardError, match="encoder was not fitted for column 'proto'"):
            EncoderState({}).encode("proto", "tcp")

    def test_no_nominal_columns_is_identity(self):
        ds = numeric_dataset([[1.0, 2.0]], [0])
        assert apply_label_encoder(ds, fit_label_encoder(ds)) is ds


class TestScaler:
    def test_mean_and_population_std(self):
        ds = numeric_dataset([[1.0], [2.0], [3.0]], [0, 1, 0])
        sc = fit_scaler(ds)
        assert sc.means[0] == pytest.approx(2.0, abs=1e-15)
        # population convention: sqrt(2/3)
        assert sc.stds[0] == pytest.approx(0.816496580927726, abs=1e-15)

    def test_constant_column_flagged_and_scaled_to_zero(self):
        ds = numeric_dataset([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0], names=("c", "v"))
        sc = fit_scaler(ds)
        out = apply_scaler(ds, sc)
        assert out.rows[:, 0].tolist() == [0.0, 0.0, 0.0]

    def test_symmetric_column(self):
        ds = numeric_dataset([[-1.0], [1.0]], [0, 1])
        sc = fit_scaler(ds)
        assert sc.means[0] == 0.0
        assert sc.stds[0] == 1.0

    def test_definition(self):
        ds = numeric_dataset([[1.0], [3.0]], [0, 1])
        sc = fit_scaler(ds)
        out = apply_scaler(numeric_dataset([[3.0]], [0]), sc)
        assert out.rows[0, 0] == pytest.approx(1.0)

    def test_fit_apply_idempotent_on_standardized_data(self):
        rng = np.random.default_rng(7)
        ds = numeric_dataset(rng.normal(3.0, 2.5, size=(40, 4)), rng.integers(0, 2, 40))
        once = apply_scaler(ds, fit_scaler(ds))
        twice = apply_scaler(once, fit_scaler(once))
        np.testing.assert_allclose(twice.rows, once.rows, atol=1e-9)

    def test_standardized_moments(self):
        rng = np.random.default_rng(11)
        ds = numeric_dataset(rng.uniform(-10, 50, size=(100, 3)), rng.integers(0, 2, 100))
        out = apply_scaler(ds, fit_scaler(ds)).rows
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.std(axis=0) - 1.0).max() < 1e-9

    def test_fit_does_not_depend_on_the_memory_layout(self):
        rng = np.random.default_rng(12)
        values = np.asfortranarray(rng.normal(3.0, 2.5, size=(3000, 9)))
        fortran = numeric_dataset(values, rng.integers(0, 2, 3000))
        assert fortran.rows.flags.f_contiguous and not fortran.rows.flags.c_contiguous
        a = fit_scaler(fortran)
        b = fit_scaler(replace(fortran, rows=np.ascontiguousarray(values)))
        assert a.means.tobytes() == b.means.tobytes() and a.stds.tobytes() == b.stds.tobytes()

    def test_column_mismatch(self):
        sc = fit_scaler(numeric_dataset([[1.0], [2.0]], [0, 1], names=("a",)))
        with pytest.raises(IsoguardError, match="mismatch"):
            apply_scaler(numeric_dataset([[1.0], [2.0]], [0, 1], names=("b",)), sc)

    def test_empty_dataset(self):
        ds = numeric_dataset(np.empty((0, 2)), [])
        with pytest.raises(IsoguardError, match="empty"):
            fit_scaler(ds)


class TestSplit:
    def make(self, n0=90, n1=10, seed=3):
        rng = np.random.default_rng(seed)
        target = np.array([0] * n0 + [1] * n1)
        return numeric_dataset(rng.normal(size=(n0 + n1, 3)), target)

    def test_counts(self):
        train, test = train_test_split(self.make(), SplitSettings(test_fraction=0.2), 1)
        assert (train.n_rows, test.n_rows) == (80, 20)

    def test_same_seed_identical(self):
        ds = self.make()
        a = train_test_split(ds, SplitSettings(test_fraction=0.3), 42)
        b = train_test_split(ds, SplitSettings(test_fraction=0.3), 42)
        np.testing.assert_array_equal(a[0].rows, b[0].rows)
        np.testing.assert_array_equal(a[1].rows, b[1].rows)
        np.testing.assert_array_equal(a[1].target, b[1].target)

    def test_different_seed_differs(self):
        ds = self.make()
        a = train_test_split(ds, SplitSettings(test_fraction=0.3), 1)
        b = train_test_split(ds, SplitSettings(test_fraction=0.3), 2)
        assert not np.array_equal(a[1].rows, b[1].rows)

    def test_stratified_class_ratio(self):
        _, test = train_test_split(self.make(), SplitSettings(test_fraction=0.2, stratified=True), 5)
        assert int((test.target == 0).sum()) == 18
        assert int((test.target == 1).sum()) == 2

    def test_stratified_test_size_is_exact_for_decimal_fractions(self):
        ds = numeric_dataset(np.arange(60, dtype=np.float64).reshape(-1, 1), [0] * 50 + [1] * 10)
        assert 0.29 * 50 < 14.5  # the float product rounds down, so half up would give 14
        _, test = train_test_split(ds, SplitSettings(test_fraction=0.29, stratified=True), 1)
        assert int((test.target == 0).sum()) == 15  # 14.5 rounds half up
        assert int((test.target == 1).sum()) == 3  # 2.9

    def test_partitions_disjoint_and_cover(self):
        ds = self.make()
        train, test = train_test_split(ds, SplitSettings(test_fraction=0.25), 9)
        combined = np.concatenate((train.rows, test.rows))
        assert combined.shape[0] == ds.n_rows
        # every original row appears exactly once across the partitions
        original = {tuple(r) for r in ds.rows}
        assert {tuple(r) for r in combined} == original

    def test_small_class_rejected_when_stratified(self):
        ds = numeric_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(IsoguardError, match=">= 2 rows per class"):
            train_test_split(ds, SplitSettings(test_fraction=0.5, stratified=True), 1)

    def test_bad_fraction(self):
        with pytest.raises(IsoguardError, match="test_fraction"):
            train_test_split(self.make(), SplitSettings(test_fraction=1.5), 1)

    @staticmethod
    def indexed(n):
        """A dataset whose one feature is the row index, so a partition names its rows."""
        return numeric_dataset(np.arange(n, dtype=np.float64).reshape(-1, 1), np.zeros(n, dtype=np.int64))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unstratified_partitions_disjoint_cover_and_keep_order(self, seed):
        train, test = train_test_split(self.indexed(50), SplitSettings(test_fraction=0.3, stratified=False), seed)
        train_rows, test_rows = train.rows[:, 0], test.rows[:, 0]
        assert (np.diff(train_rows) > 0).all() and (np.diff(test_rows) > 0).all()
        assert sorted(np.concatenate((train_rows, test_rows)).tolist()) == list(range(50))

    @pytest.mark.parametrize(
        "n, fraction, expected",
        [(100, 0.2, 20), (10, 0.25, 3), (7, 0.5, 4), (5, 0.05, 1), (5, 0.95, 4), (2, 0.5, 1)],
    )
    def test_unstratified_test_size_rounds_half_up_and_clamps(self, n, fraction, expected):
        train, test = train_test_split(self.indexed(n), SplitSettings(test_fraction=fraction, stratified=False), 4)
        assert (train.n_rows, test.n_rows) == (n - expected, expected)

    def test_unstratified_one_row_rejected(self):
        with pytest.raises(IsoguardError, match="split needs at least 2 rows"):
            train_test_split(self.indexed(1), SplitSettings(test_fraction=0.5, stratified=False), 1)


def proto_dur_dataset():
    rows = np.empty((4, 2), dtype=object)
    rows[:, 0] = ["tcp", "udp", "tcp", "icmp"]
    rows[:, 1] = [1.0, 2.0, 3.0, 4.0]
    return Dataset(("proto", "dur"), (ColumnKind.NOMINAL, ColumnKind.NUMERIC), rows, np.array([0, 1, 0, 1]))


class TestTransformsRoundTrip:
    def test_json_round_trip(self, tmp_path):
        ds = proto_dur_dataset()
        enc = fit_label_encoder(ds)
        encoded = apply_label_encoder(ds, enc)
        sc = fit_scaler(encoded)
        save_transforms(enc, sc, tmp_path / "transforms.json")
        enc2, sc2 = load_transforms(tmp_path / "transforms.json")
        assert enc2.mappings == enc.mappings
        out1 = apply_scaler(encoded, sc)
        out2 = apply_scaler(encoded, sc2)
        np.testing.assert_array_equal(out1.rows, out2.rows)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text[: len(text) // 2], "unreadable artifact"),
            (lambda text: text.replace('"mean": 2.5', '"mean": "1.5"'), "scaler.dur.mean must be a finite number, got '1.5'"),
            (lambda text: text.replace('"tcp": 1', '"tcp": 1.9'), "encoders.proto['tcp'] must be an integer, got 1.9"),
        ],
        ids=["truncated", "string mean", "fractional code"],
    )
    def test_load_rejects_malformed_file(self, tmp_path, edit, message):
        ds = proto_dur_dataset()
        enc = fit_label_encoder(ds)
        save_transforms(enc, fit_scaler(apply_label_encoder(ds, enc)), tmp_path / "transforms.json")
        text = (tmp_path / "transforms.json").read_text(encoding="utf-8")
        assert '"mean": 2.5' in text and '"tcp": 1' in text
        (tmp_path / "transforms.json").write_text(edit(text), encoding="utf-8")
        with pytest.raises(IsoguardError) as caught:
            load_transforms(tmp_path / "transforms.json")
        assert str(tmp_path / "transforms.json") in str(caught.value)
        assert message in str(caught.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(extra=1), "unknown transforms keys: ['extra']"),
            (lambda doc: doc.update(scaler=[]), "scaler must be an object, got []"),
            (lambda doc: doc["encoders"].update(proto=[]), "encoders.proto must be an object, got []"),
        ],
        ids=["unknown key", "scaler list", "encoder list"],
    )
    def test_load_rejects_misshapen_document(self, tmp_path, edit, message):
        ds = proto_dur_dataset()
        enc = fit_label_encoder(ds)
        path = tmp_path / "transforms.json"
        save_transforms(enc, fit_scaler(apply_label_encoder(ds, enc)), path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(IsoguardError) as caught:
            load_transforms(path)
        assert str(caught.value).startswith(f"{path}: unreadable artifact (")
        assert message in str(caught.value)

    def test_fit_on_train_statistics_drive_test_transform(self):
        train = numeric_dataset([[0.0], [2.0]], [0, 1])
        test = numeric_dataset([[4.0]], [1])
        sc = fit_scaler(train)
        out = apply_scaler(test, sc)
        # (4 - 1) / 1 with train mean 1, train std 1
        assert out.rows[0, 0] == pytest.approx(3.0)

    def test_write_csv_read_back_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = numeric_dataset(rng.normal(size=(20, 3)), rng.integers(0, 2, 20))
        write_csv(ds, tmp_path / "round.csv")
        back = load_csv(tmp_path / "round.csv", target_column="class")
        np.testing.assert_array_equal(back.rows, ds.rows)
        np.testing.assert_array_equal(back.target, ds.target)

    def test_mixed_dataset_golden_digest(self, tmp_path):
        # Pinned bytes of a nominal/numeric write_csv, the path the benchmark input takes (Python 3.11, numpy 2.4)
        rows = np.empty((4, 3), dtype=object)
        rows[:, 0] = [0.1, -2.5, 1e-300, 3.0]
        rows[:, 1] = ["tcp", "udp", "icmp", "tcp"]
        rows[:, 2] = [np.float64(1 / 3), 7, -0.0, 12345678.9]
        kinds = (ColumnKind.NUMERIC, ColumnKind.NOMINAL, ColumnKind.NUMERIC)
        ds = Dataset(("dur", "proto", "bytes"), kinds, rows, np.array([0, 1, 0, 1]))
        write_csv(ds, tmp_path / "mixed.csv")
        digest = hashlib.sha256((tmp_path / "mixed.csv").read_bytes()).hexdigest()
        assert digest == "1f5c9fbc2084163343fa55a93f9d92ee1d7bee14720d6c9f76cce560856433b5"


def csv_writer_bytes(header, columns):
    """The bytes ``csv.writer`` gives ``header`` and the rows of ``columns``, as UTF-8."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(zip(*(np.asarray(c).tolist() for c in columns)))
    return text.getvalue().encode("utf-8")


SPECIAL_FLOATS = np.resize(EXTREME_FLOATS + [math.inf, -math.inf, math.nan, 0.1 + 0.2, 1 / 3], 600)
INT64_LIMITS = np.resize(np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, 0, -1], dtype=np.int64), 600)


class TestWriteTable:
    @pytest.mark.parametrize(
        "columns",
        [
            [SPECIAL_FLOATS, INT64_LIMITS],
            [
                np.resize(np.array([0.1, -0.0, 1e-45, np.finfo(np.float32).max, math.inf, math.nan], np.float32), 600),
                (np.arange(600) % 256).astype(np.uint8),
                np.full(600, np.iinfo(np.uint64).max, dtype=np.uint64),
            ],
            [SPECIAL_FLOATS, np.resize(np.array(["tcp", "a,b", 'say "hi"', "two\nlines", ""]), 600), INT64_LIMITS],
            [np.zeros(0), np.zeros(0, dtype=np.int64)],
        ],
        ids=["float64-int64", "float32-uint8-uint64", "with-strings", "no-rows"],
    )
    def test_bytes_match_csv_writer(self, tmp_path, columns):
        header = ["x", "a,b", "n"][: len(columns)]
        digest = write_table(tmp_path / "t.csv", header, columns)
        written = (tmp_path / "t.csv").read_bytes()
        assert written == csv_writer_bytes(header, columns)
        assert digest == hashlib.sha256(written).digest()

    def test_numpy_floats_written_plain_and_reload_exact(self, tmp_path):
        x = np.array([np.float64(0.1) + 0.2, -0.0, 1e-310, np.inf, np.nan])
        write_table(tmp_path / "t.csv", ["x", "n", "label"], [x, np.arange(5), np.array([1, -1, 1, 1, -1])])
        lines = (tmp_path / "t.csv").read_text().splitlines()
        assert lines == [
            "x,n,label",
            "0.30000000000000004,0,1",
            "-0.0,1,-1",
            "1e-310,2,1",
            "inf,3,1",
            "nan,4,-1",
        ]
        back = np.array([float(line.split(",")[0]) for line in lines[1:]])
        assert back.view(np.uint64).tolist() == x.view(np.uint64).tolist()

    def test_unequal_columns_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shorter than"):
            write_table(tmp_path / "t.csv", ["a", "b"], [np.zeros(3), np.zeros(2)])
