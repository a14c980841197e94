"""Walkthrough: CSV ingestion, label encoding, standard scaling, splitting.

Builds a small intrusion-shaped CSV with nominal and numeric columns, then
shows each preprocessing step the pipeline performs: kind inference,
lexicographic label codes, train-only scaler statistics, and a stratified
deterministic split.

Run: python demos/01_preprocess_and_split.py
"""
from pathlib import Path

import numpy as np

from isoguard import (
    ColumnKind,
    SplitSettings,
    apply_label_encoder,
    apply_scaler,
    fit_label_encoder,
    fit_scaler,
    load_csv,
    train_test_split,
)

OUT = Path(__file__).parent / "_out" / "01_preprocess"
OUT.mkdir(parents=True, exist_ok=True)

rng = np.random.default_rng(7)
rows = ["duration,protocol_type,service,src_bytes,class"]
for i in range(60):
    label = int(rng.random() < 0.3)
    rows.append(
        f"{rng.normal(2 + 3 * label, 1):.3f},"
        f"{rng.choice(['tcp', 'udp', 'icmp'])},"
        f"{rng.choice(['http', 'smtp'])},"
        f"{rng.integers(40, 4000)},"
        f"{'anomaly' if label else 'normal'}"
    )
csv_path = OUT / "mini.csv"
csv_path.write_text("\n".join(rows) + "\n")

ds = load_csv(csv_path)
print(f"loaded {ds.n_rows} rows x {ds.n_features} features from {csv_path.name}")
for name, kind in zip(ds.feature_names, ds.kinds):
    print(f"  {name:<14} {kind.value}")
print(f"labels: {int((ds.target == 0).sum())} normal / {int(ds.target.sum())} anomaly")

train_raw, test_raw = train_test_split(ds, SplitSettings(test_fraction=0.25), 42)
print(f"\nstratified split: {train_raw.n_rows} train / {test_raw.n_rows} test")
print(f"  test class balance: {np.bincount(test_raw.target).tolist()}")

encoder = fit_label_encoder(train_raw)
print("\nlabel codes (lexicographic, fitted on train only):")
for column, mapping in encoder.mappings.items():
    print(f"  {column}: {mapping}")

train_enc = apply_label_encoder(train_raw, encoder)
test_enc = apply_label_encoder(test_raw, encoder)
scaler = fit_scaler(train_enc)
train = apply_scaler(train_enc, scaler)
test = apply_scaler(test_enc, scaler)

print("\ntrain statistics after scaling (should be ~0 mean, ~1 std):")
X = train.matrix()
for j, name in enumerate(train.feature_names):
    print(f"  {name:<14} mean={X[:, j].mean():+.2e}  std={X[:, j].std():.6f}")
print("\ntest partition reuses the train statistics, so its moments drift:")
Xt = test.matrix()
print(f"  test means: {np.round(Xt.mean(axis=0), 3).tolist()}")
