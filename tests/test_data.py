import hashlib
import math
import random

import numpy as np
import pytest

from isoguard.data import (
    ColumnKind,
    Dataset,
    SplitSpec,
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


def load_columns_against_oracle(tmp_path, columns):
    """Load ``columns`` (name -> cell strings) through ``load_csv`` and check
    each column against ``finite_float``: Numeric with the oracle's bits
    when every cell is a finite float, else Nominal with its strings."""
    names = list(columns)
    lines = [",".join(names + ["class"])]
    for i in range(len(columns[names[0]])):
        lines.append(",".join([columns[n][i] for n in names] + [["normal", "anomaly"][i % 2]]))
    ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"))
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
        finite = [
            "0", "42", "-7", "+3", "-2.5", "+1.25e-3", "6E+2", ".5", "5.", "1e308", "-1e308",
            "-0", "-0.0", " 7 ", "\t1.5", "1_000", "1_0.2_5", "4.9e-324",
        ]
        other = [
            "0x10", "nan", "NaN", "-nan", "+NAN", "inf", "-Infinity", "+INF", "infinity",
            "1e999", "-1E999", "tcp", "abc", "1.2.3", "e5", "--1", "1__0", "_1",
        ]
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
        train, test = train_test_split(self.make(), SplitSpec(test_fraction=0.2, seed=1))
        assert (train.n_rows, test.n_rows) == (80, 20)

    def test_same_seed_identical(self):
        ds = self.make()
        a = train_test_split(ds, SplitSpec(test_fraction=0.3, seed=42))
        b = train_test_split(ds, SplitSpec(test_fraction=0.3, seed=42))
        np.testing.assert_array_equal(a[0].rows, b[0].rows)
        np.testing.assert_array_equal(a[1].rows, b[1].rows)
        np.testing.assert_array_equal(a[1].target, b[1].target)

    def test_different_seed_differs(self):
        ds = self.make()
        a = train_test_split(ds, SplitSpec(test_fraction=0.3, seed=1))
        b = train_test_split(ds, SplitSpec(test_fraction=0.3, seed=2))
        assert not np.array_equal(a[1].rows, b[1].rows)

    def test_stratified_class_ratio(self):
        _, test = train_test_split(self.make(), SplitSpec(test_fraction=0.2, seed=5, stratified=True))
        assert int((test.target == 0).sum()) == 18
        assert int((test.target == 1).sum()) == 2

    def test_partitions_disjoint_and_cover(self):
        ds = self.make()
        train, test = train_test_split(ds, SplitSpec(test_fraction=0.25, seed=9))
        combined = np.concatenate((train.rows, test.rows))
        assert combined.shape[0] == ds.n_rows
        # every original row appears exactly once across the partitions
        original = {tuple(r) for r in ds.rows}
        assert {tuple(r) for r in combined} == original

    def test_small_class_rejected_when_stratified(self):
        ds = numeric_dataset([[0.0], [1.0], [2.0]], [0, 0, 1])
        with pytest.raises(IsoguardError, match=">= 2 rows per class"):
            train_test_split(ds, SplitSpec(test_fraction=0.5, seed=1, stratified=True))

    def test_bad_fraction(self):
        with pytest.raises(IsoguardError, match="test_fraction"):
            train_test_split(self.make(), SplitSpec(test_fraction=1.5, seed=1))

    @staticmethod
    def indexed(n):
        """A dataset whose one feature is the row index, so a partition names its rows."""
        return numeric_dataset(np.arange(n, dtype=np.float64).reshape(-1, 1), np.zeros(n, dtype=np.int64))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_unstratified_partitions_disjoint_cover_and_keep_order(self, seed):
        train, test = train_test_split(self.indexed(50), SplitSpec(test_fraction=0.3, seed=seed, stratified=False))
        train_rows, test_rows = train.rows[:, 0], test.rows[:, 0]
        assert (np.diff(train_rows) > 0).all() and (np.diff(test_rows) > 0).all()
        assert sorted(np.concatenate((train_rows, test_rows)).tolist()) == list(range(50))

    @pytest.mark.parametrize(
        "n, fraction, expected",
        [(100, 0.2, 20), (10, 0.25, 3), (7, 0.5, 4), (5, 0.05, 1), (5, 0.95, 4), (2, 0.5, 1)],
    )
    def test_unstratified_test_size_rounds_half_up_and_clamps(self, n, fraction, expected):
        train, test = train_test_split(self.indexed(n), SplitSpec(test_fraction=fraction, seed=4, stratified=False))
        assert (train.n_rows, test.n_rows) == (n - expected, expected)

    def test_unstratified_one_row_rejected(self):
        with pytest.raises(IsoguardError, match="split needs at least 2 rows"):
            train_test_split(self.indexed(1), SplitSpec(test_fraction=0.5, seed=1, stratified=False))


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


class TestWriteTable:
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
