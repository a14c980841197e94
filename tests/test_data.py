import numpy as np
import pytest

from isoguard.data import (
    ColumnKind,
    _parse_number,
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
        names = list(columns)
        lines = [",".join(names + ["class"])]
        for i in range(4):
            lines.append(",".join([columns[n][i] for n in names] + [["normal", "anomaly"][i % 2]]))
        ds = load_csv(write(tmp_path, "\n".join(lines) + "\n"))
        assert ds.feature_names == tuple(names)
        for j, name in enumerate(names):
            parsed = [_parse_number(v) for v in columns[name]]
            if all(p is not None for p in parsed):
                assert ds.kinds[j] is ColumnKind.NUMERIC, name
                got = np.array(ds.rows[:, j], dtype=np.float64)
                assert got.view(np.uint64).tolist() == np.array(parsed).view(np.uint64).tolist(), name
            else:
                assert ds.kinds[j] is ColumnKind.NOMINAL, name
                assert ds.rows[:, j].tolist() == columns[name], name
        assert [ds.kinds[j] for j in range(len(names))].count(ColumnKind.NUMERIC) == 5

    def test_declared_numeric_column_rejects_infinity(self, tmp_path):
        path = write(tmp_path, "x,class\n1,normal\ninf,anomaly\n")
        with pytest.raises(IsoguardError, match="column 'x' declared numeric but holds 'inf'"):
            load_csv(path, schema={"x": ColumnKind.NUMERIC})

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

    def test_schema_declaration_keeps_numeric_looking_column_nominal(self, tmp_path):
        path = write(tmp_path, "code,class\n1,normal\n2,anomaly\n")
        ds = load_csv(path, schema={"code": ColumnKind.NOMINAL})
        assert ds.kinds == (ColumnKind.NOMINAL,)
        assert ds.rows[:, 0].tolist() == ["1", "2"]


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

    def test_round_trip_decode(self):
        ds = self.make()
        enc = fit_label_encoder(ds)
        for cat in ("tcp", "udp", "icmp"):
            assert enc.decode("protocol_type", enc.encode("protocol_type", cat)) == cat


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
        assert sc.constant_columns == ("c",)
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


class TestTransformsRoundTrip:
    def test_json_round_trip(self, tmp_path):
        rows = np.empty((4, 2), dtype=object)
        rows[:, 0] = ["tcp", "udp", "tcp", "icmp"]
        rows[:, 1] = [1.0, 2.0, 3.0, 4.0]
        ds = Dataset(("proto", "dur"), (ColumnKind.NOMINAL, ColumnKind.NUMERIC), rows, np.array([0, 1, 0, 1]))
        enc = fit_label_encoder(ds)
        encoded = apply_label_encoder(ds, enc)
        sc = fit_scaler(encoded)
        save_transforms(enc, sc, tmp_path / "transforms.json")
        enc2, sc2 = load_transforms(tmp_path / "transforms.json")
        assert enc2.mappings == enc.mappings
        out1 = apply_scaler(encoded, sc)
        out2 = apply_scaler(encoded, sc2)
        np.testing.assert_array_equal(out1.rows, out2.rows)

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
