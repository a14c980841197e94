import hashlib
import tracemalloc

import numpy as np
import pytest

from isoguard import synthetic
from isoguard.errors import IsoguardError
from isoguard.iforest import fit_forest, score_batch
from isoguard.synthetic import SyntheticSpec, generate_synthetic, write_injection_mask


# sha256 of rows.tobytes() (C order), of target and of the injection mask, pinned before the
# generator filled its table in row chunks. The row counts sit below, at and just above the
# 4,096-row draw chunk, in the normal, anomaly and noise draws alike.
PINNED_TABLES = [
    (
        "below-chunk",
        SyntheticSpec(n_normal=3723, n_anomaly=372, seed=11),
        "f810490ca70d7338b60301cd16b40fc3ae4f08ae05ca43975be5b562a39ac337",
        "888e6b7b0167e77011a4edc233e40bb63b8381027559012b61ece9693bdd7705",
        "3340d702a69de8ef694023a00d2e1406b3e6e8600b45136ac20bb90eb1513376",
    ),
    (
        "at-chunk",
        SyntheticSpec(n_normal=3724, n_anomaly=372, seed=12),
        "b255d5cee322f0cfadbbb82462666566dbeebeb161e4ef96c6def4d7791c7047",
        "be1ae7a9f4498b41e4ea7259db5fee2839219ccabceab0bd234fb2db1542dffc",
        "48f0535f9f12d426aa396478712a784c92fba006978e7b1cbc4789763e14ffa1",
    ),
    (
        "above-chunk",
        SyntheticSpec(n_normal=3725, n_anomaly=372, seed=13),
        "2bf9fc423a8418e15418546e5aff81e12109df3bcde6392abed421d6c3173d7b",
        "a49dc6e40c9be834cc1e22e9588db00afc3b68ab09c3a9473af6a9d9d8792938",
        "8750bf9c0a64d7a3c203afdea5ad398e65c532720547cb9d6e8e24e76281878f",
    ),
    (
        "normal-rows-at-chunk",
        SyntheticSpec(n_normal=4096, n_anomaly=410, seed=14),
        "20292c66b32e9adfd6d5794dcf59dd21f9b01bfc51b2c6aada7fbb2e1744a165",
        "ec1dcd6563e8c45cb9cf50909e741a536fdeeae610e39b465e37e43c26481bd3",
        "b3be2e3eae01d06dde0c9d0f2ade55fa669b37a678e7e2dd22d9a971c02430f1",
    ),
    (
        "several-chunks",
        SyntheticSpec(n_normal=9000, n_anomaly=900, seed=15),
        "7c98c8cce9f35139aa90da18cc41e3995d1cb33a0b737061566373d0a6cca000",
        "f27081ea6f1d8c73a78b7bf4877b0b98baf88d311f6488a5a15380c02ba4c39d",
        "7650634a544e8dad19251a5351df4caa3a68c0aa003b495e7d868e153f6054d2",
    ),
    (
        "no-noise",
        SyntheticSpec(n_normal=500, n_anomaly=50, n_noise=0, seed=16),
        "e295ed89ccd9e6bd3a99d04b3242f73b3a225add40def8e06a69d542baeea145",
        "08614a10ba8c0cb27ba2674d022ce854e8860169d85252ce1ab8319ddebf60a7",
        "dcf1af328853d388455b58ce03ef7993fdcc791e8cb65312b727862cd4932382",
    ),
    (
        "no-outliers",
        SyntheticSpec(n_normal=500, n_anomaly=50, outlier_fraction=0.0, seed=17),
        "5939cf9f390a16b2d3b6e3c711ad03da3f676d4c925f897347f57445961f8701",
        "aea3896212b700cbcdc48180a47ff07d1801a521e576334f0288ad539e848827",
        "25778f162c4243167f8eaa876f1b0619e67afc158de7805600471a563ec5e8b7",
    ),
    (
        "anomaly-majority",
        SyntheticSpec(n_normal=300, n_anomaly=4200, seed=18),
        "458f02f34552f5bda884c7fe65aa9e5b8fdec801cb3659541cc57f668235ae53",
        "e0272924914df5a1c9953a6f2a913acef510dc3755be8738c0aec314dc5e9a8f",
        "c4ab1003be5f5432f4799767e83e077154390b7efdbcd02ac060d0cda804b4cc",
    ),
    (
        "one-informative",
        SyntheticSpec(n_normal=500, n_anomaly=50, n_informative=1, seed=19),
        "0b73741218e6bc7ad56c40650205e119544b58539e5632a9d70764a355388547",
        "139123a77291eacd101f3f9b373616a2f4a1faf0792b8c34be4b1cdefa5f18ed",
        "dbd4428568016fd28dce8130e1dc4e4f441d31a13fce24da7036e5d0b80de930",
    ),
]


@pytest.mark.parametrize(
    ("spec", "rows_sha", "target_sha", "mask_sha"),
    [case[1:] for case in PINNED_TABLES],
    ids=[case[0] for case in PINNED_TABLES],
)
def test_pinned_table_bytes(spec, rows_sha, target_sha, mask_sha):
    ds, mask = generate_synthetic(spec)
    assert hashlib.sha256(ds.rows.tobytes()).hexdigest() == rows_sha
    assert hashlib.sha256(ds.target.tobytes()).hexdigest() == target_sha
    assert hashlib.sha256(mask.tobytes()).hexdigest() == mask_sha


def test_generation_holds_one_table_plus_one_chunk():
    """numpy reports its buffers to tracemalloc. Generation's peak is its output (rows, target
    and mask) plus one draw chunk, the shuffle's order and one shuffled feature: never a
    second table or a draw of the whole table."""
    tracemalloc.start()
    try:
        ds, mask = generate_synthetic(SyntheticSpec(n_normal=200_000, n_anomaly=20_000, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.35 * (ds.rows.nbytes + ds.target.nbytes + mask.nbytes)


def test_rows_are_the_column_major_table():
    ds, _ = generate_synthetic(SyntheticSpec(n_normal=300, n_anomaly=30, seed=6))
    assert ds.rows.shape == (330, 15) and ds.rows.flags.f_contiguous and ds.rows.flags.writeable


def test_pinned_row_counts_straddle_the_draw_chunk():
    totals = {case[1].n_normal + case[1].n_anomaly for case in PINNED_TABLES}
    chunk = synthetic._DRAW_CHUNK_ROWS
    assert {chunk - 1, chunk, chunk + 1} <= totals
    assert any(case[1].n_normal == chunk for case in PINNED_TABLES)
    assert any(case[1].n_anomaly > chunk for case in PINNED_TABLES)
    assert any(case[1].n_normal + case[1].n_anomaly > 2 * chunk for case in PINNED_TABLES)


class TestGenerateSynthetic:
    def test_row_and_column_counts(self):
        ds, mask = generate_synthetic(SyntheticSpec(n_normal=1000, n_anomaly=100, seed=1))
        assert ds.n_rows == 1100
        assert ds.n_features == 15
        assert mask.shape == (1100,)
        assert int(ds.target.sum()) == 100

    def test_injection_count_and_labels(self):
        spec = SyntheticSpec(seed=2)
        ds, mask = generate_synthetic(spec)
        assert int(mask.sum()) == 55  # round(0.05 * 1100)
        # planted outliers carry the majority (normal) label
        assert (ds.target[mask] == 0).all()

    def test_injection_count_is_exact_for_decimal_fractions(self):
        assert 0.29 * 50 < 14.5  # the float product rounds down, so half up would give 14
        _, mask = generate_synthetic(SyntheticSpec(n_normal=40, n_anomaly=10, outlier_fraction=0.29, seed=2))
        assert int(mask.sum()) == 15

    def test_deterministic(self):
        a, mask_a = generate_synthetic(SyntheticSpec(seed=3))
        b, mask_b = generate_synthetic(SyntheticSpec(seed=3))
        np.testing.assert_array_equal(a.rows, b.rows)
        np.testing.assert_array_equal(mask_a, mask_b)

    def test_zero_separation_removes_class_signal(self):
        ds, _ = generate_synthetic(SyntheticSpec(separation=0.0, outlier_fraction=0.0, seed=4))
        X = ds.rows
        mean0 = X[ds.target == 0].mean(axis=0)
        mean1 = X[ds.target == 1].mean(axis=0)
        assert float(np.abs(mean0 - mean1).max()) < 0.4  # clusters coincide up to noise

    def test_zero_separation_downstream_accuracy_near_majority_baseline(self):
        from isoguard.classifiers import gnb_fit, predict_model
        from isoguard.data import SplitSettings, train_test_split

        ds, _ = generate_synthetic(SyntheticSpec(separation=0.0, outlier_fraction=0.0, seed=8))
        train, test = train_test_split(ds, SplitSettings(test_fraction=0.2), 1)
        model = gnb_fit(train.matrix(), train.target)
        accuracy = float((predict_model(model, test.matrix()) == test.target).mean())
        majority = max(np.bincount(test.target)) / test.n_rows
        assert abs(accuracy - majority) < 0.1

    def test_degenerate_specs_rejected(self):
        with pytest.raises(IsoguardError, match="informative"):
            generate_synthetic(SyntheticSpec(n_informative=0))
        with pytest.raises(IsoguardError, match="synthetic.n_normal must be >= 1"):
            generate_synthetic(SyntheticSpec(n_normal=0))
        with pytest.raises(IsoguardError, match="outlier_fraction"):
            generate_synthetic(SyntheticSpec(outlier_fraction=1.5))

    def test_injected_points_rank_in_top_decile_of_forest_scores(self):
        hits = 0
        for seed in range(10):
            ds, mask = generate_synthetic(SyntheticSpec(seed=seed))
            X = ds.rows
            forest = fit_forest(X, t=100, m=256, seed=seed)
            scores, _ = score_batch(forest, X)
            cutoff = np.quantile(scores, 0.9)
            if (scores[mask] >= cutoff).all():
                hits += 1
        assert hits >= 9

    def test_mask_csv(self, tmp_path):
        _, mask = generate_synthetic(SyntheticSpec(n_normal=20, n_anomaly=5, seed=5))
        write_injection_mask(mask, tmp_path / "mask.csv")
        lines = (tmp_path / "mask.csv").read_text().strip().splitlines()
        assert lines[0] == "row,injected"
        assert len(lines) == 26
        flagged = sum(1 for ln in lines[1:] if ln.endswith(",1"))
        assert flagged == int(mask.sum())
