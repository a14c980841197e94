import numpy as np
import pytest

from isoguard.errors import IsoguardError
from isoguard.iforest import fit_forest, score_batch
from isoguard.synthetic import SyntheticSpec, generate_synthetic, write_injection_mask


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
