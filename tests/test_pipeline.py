import hashlib
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from isoguard import classifiers as clf
from isoguard import iforest, pipeline
from isoguard.data import load_csv, write_csv
from isoguard.errors import IsoguardError, PipelineError
from isoguard.pipeline import (
    MODELS,
    ClassifierSettings,
    ForestSettings,
    PipelineConfig,
    SelectSettings,
    ThresholdSettings,
    config_from_dict,
    config_to_json,
    emit_scatter,
    load_config,
    run_pipeline,
    run_stage,
    run_synth,
    stage_detect,
    stage_evaluate,
    stage_ingest,
    stage_select,
)
from isoguard.synthetic import SyntheticSpec, generate_synthetic


def small_config(tmp_path, seed=7, **overrides) -> PipelineConfig:
    """A fast pipeline config over a small synthetic dataset written to disk."""
    ds, _ = generate_synthetic(
        SyntheticSpec(n_normal=220, n_anomaly=60, n_informative=3, n_noise=4, seed=seed or 0)
    )
    csv_path = tmp_path / "input.csv"
    write_csv(ds, csv_path)
    base = dict(
        input=str(csv_path),
        seed=seed,
        out_dir=str(tmp_path / "run"),
        select=SelectSettings(target_count=4, step=1, n_trees=10, min_samples_split=20),
        forest=ForestSettings(
            trees=40, subsample=128, threshold=ThresholdSettings(mode="contamination", fraction=0.06)
        ),
        classifiers=ClassifierSettings(lr_epochs=100, svm_epochs=100, adaboost_stumps=15),
    )
    base.update(overrides)
    return PipelineConfig(**base)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nested_forest_json(forest: iforest.IsolationForest) -> str:
    """The forest.json bytes of the earlier nested writer, one object per node, kept as an oracle."""

    def node(tree, i):
        if tree.feature[i] < 0:
            return {"size": int(tree.size[i])}
        left, right = node(tree, int(tree.left[i])), node(tree, int(tree.right[i]))
        return {"feature": int(tree.feature[i]), "value": float(tree.threshold[i]), "left": left, "right": right}

    doc = {
        "t": forest.t,
        "m": forest.m,
        "height_limit": forest.height_limit,
        "seed": forest.seed,
        "n_features": forest.n_features,
        "trees": [node(tree, 0) for tree in forest.trees],
    }
    return json.dumps(doc, sort_keys=True) + "\n"


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = small_config(tmp_path)
        doc = json.loads(config_to_json(cfg))
        again = config_from_dict(doc)
        assert again == cfg

    def test_defaults_from_minimal_dict(self):
        cfg = config_from_dict({"input": "x.csv"})
        assert cfg.select.target_count == 15
        assert cfg.forest.trees == 100
        assert cfg.forest.subsample == 256
        assert cfg.forest.threshold.mode == "fixed"
        assert cfg.forest.threshold.tau == 0.5
        assert cfg.classifiers.knn_k == 5
        assert cfg.split.test_fraction == 0.2 and cfg.split.stratified

    def test_unknown_keys_rejected(self):
        with pytest.raises(IsoguardError, match="unknown config keys"):
            config_from_dict({"input": "x.csv", "typo": 1})
        with pytest.raises(IsoguardError, match="unknown keys in config section"):
            config_from_dict({"input": "x.csv", "forest": {"tres": 10}})
        with pytest.raises(IsoguardError, match="unknown keys in config section 'forest.threshold'"):
            config_from_dict({"input": "x.csv", "forest": {"threshold": {"tres": 1}}})

    def test_missing_input_rejected(self, tmp_path):
        cfg = config_from_dict({"seed": 3})  # a synth-only config loads; ingest is what needs an input
        assert cfg.input == ""
        with pytest.raises(PipelineError, match=r"^ingest: no such file: \.$"):
            stage_ingest(cfg, tmp_path)

    def test_field_types_checked(self):
        cfg = config_from_dict({"input": "x.csv", "select": {"max_depth": None}, "forest": {"threshold": {"tau": 1}}})
        assert cfg.select.max_depth is None
        assert type(cfg.forest.threshold.tau) is float and cfg.forest.threshold.tau == 1.0
        for doc, message in (
            ({"select": {"n_trees": None}}, "select.n_trees must be an integer, got None"),
            ({"forest": {"threshold": {"fraction": math.inf}}}, "forest.threshold.fraction must be a finite number"),
            ({"forest": {"threshold": 0.5}}, "forest.threshold must be an object, got 0.5"),
            ({"scatter_x": 1}, "scatter_x must be a string, got 1"),
        ):
            with pytest.raises(IsoguardError) as caught:
                config_from_dict({"input": "x.csv", **doc})
            assert message in str(caught.value)

    def test_readme_configuration_block_is_the_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
        doc = json.loads(re.sub(r"//.*", "", block))
        assert config_from_dict(doc) == PipelineConfig(input="data.csv")

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(IsoguardError, match="no such config"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(IsoguardError, match="invalid JSON"):
            load_config(bad)


class TestRunPipeline:
    def test_artifacts_and_accounting(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_pipeline(cfg)
        out = Path(cfg.out_dir)
        expected = [
            "config.resolved.json",
            "train.csv",
            "test.csv",
            "transforms.json",
            "rfe.json",
            "forest.json",
            "verdicts_train.csv",
            "verdicts_test.csv",
            "scatter_full.csv",
            "scatter_clean.csv",
            "report.json",
            "report.txt",
        ]
        expected += [f"model_{m}.json" for m in MODELS]
        expected += [f"model_{m}_clean.json" for m in MODELS]
        expected += [f"roc_{m}.csv" for m in MODELS]
        expected += [f"roc_{m}_clean.csv" for m in MODELS]
        for name in expected:
            assert (out / name).exists(), name

        # outlier-removal accounting: arm B training = arm A training - removals
        assert report.n_train_after == report.n_train_before - report.outliers_removed
        verdicts = (out / "verdicts_train.csv").read_text().strip().splitlines()[1:]
        flagged = sum(1 for ln in verdicts if ln.endswith(",-1"))
        assert flagged == report.outliers_removed
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["original"]) == set(MODELS)

    def test_report_table_layout(self, tmp_path):
        cfg = small_config(tmp_path)
        run_pipeline(cfg)
        text = (Path(cfg.out_dir) / "report.txt").read_text()
        assert text.splitlines()[0].startswith("Dataset")
        assert sum(1 for ln in text.splitlines() if ln.startswith("Original dataset")) == 5
        assert sum(1 for ln in text.splitlines() if ln.startswith("Without Outlier")) == 5

    def test_test_partition_untouched_by_arms(self, tmp_path):
        cfg = small_config(tmp_path)
        run_pipeline(cfg)
        out = Path(cfg.out_dir)
        before = digest(out / "test.csv")
        # rerunning train+evaluate must not rewrite or depend on mutated test data
        from isoguard.pipeline import stage_evaluate, stage_train

        stage_train(cfg, out)
        stage_evaluate(cfg, out)
        assert digest(out / "test.csv") == before

    def test_threshold_one_yields_identical_arms(self, tmp_path):
        cfg = small_config(
            tmp_path,
            forest=ForestSettings(trees=30, subsample=64, threshold=ThresholdSettings(mode="fixed", tau=1.0)),
        )
        report = run_pipeline(cfg)
        assert report.outliers_removed == 0
        out = Path(cfg.out_dir)
        for m in MODELS:
            assert (out / f"model_{m}.json").read_bytes() == (out / f"model_{m}_clean.json").read_bytes()
            delta = report.after[m].anomaly_positive.accuracy - report.before[m].anomaly_positive.accuracy
            assert delta == 0.0

    def test_stage_isolation_matches_monolithic(self, tmp_path):
        cfg = small_config(tmp_path)
        mono = Path(cfg.out_dir)
        run_pipeline(cfg)
        staged = tmp_path / "staged"
        staged.mkdir()
        cfg2 = replace(cfg, out_dir=str(staged))
        stage_ingest(cfg2, staged)
        stage_select(cfg2, staged)
        stage_detect(cfg2, staged)
        for name in ("train.csv", "test.csv", "transforms.json", "rfe.json", "forest.json", "verdicts_train.csv"):
            assert (staged / name).read_bytes() == (mono / name).read_bytes(), name

    def test_run_stage_calls_the_module_global(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        calls = []
        monkeypatch.setattr(pipeline, "stage_select", lambda c, out: calls.append(out))
        run_stage("select", cfg)
        assert calls == [Path(cfg.out_dir)]
        assert (Path(cfg.out_dir) / "config.resolved.json").read_text(encoding="utf-8") == config_to_json(cfg) + "\n"

    def test_run_stage_rejects_unknown_name_before_writing(self, tmp_path):
        cfg = small_config(tmp_path)
        with pytest.raises(IsoguardError, match="unknown stage 'pipeline'"):
            run_stage("pipeline", cfg)
        assert not Path(cfg.out_dir).exists()

    def test_determinism_byte_identical_reruns(self, tmp_path):
        cfg_a = small_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = replace(cfg_a, out_dir=str(tmp_path / "b"))
        run_pipeline(cfg_a)
        run_pipeline(cfg_b)
        for name in ("report.json", "forest.json", "rfe.json", "report.txt") + tuple(
            f"model_{m}.json" for m in MODELS
        ):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_golden_digests(self, tmp_path):
        # Pinned bytes of the partition, selector, forest, verdict, scatter, model, report and ROC
        # artifacts (Python 3.11, numpy 2.4).
        # The rerun and thread-count tests compare the code with itself, so only
        # a pin catches a changed draw that every run repeats.
        cfg = small_config(tmp_path)
        run_pipeline(cfg)
        out = Path(cfg.out_dir)
        assert digest(out / "rfe.json") == "e7121965e7304237cafe292a717f037e5ca339d3f1615a2516cb16453ec8e8e3"
        assert digest(out / "forest.json") == "6266fc0d844d514db6c3fbea8cfb690296312c419bbf5a38370c13622c1988a1"
        # the flat file holds the very forest the nested file held before
        nested = nested_forest_json(iforest.load_forest(out / "forest.json")).encode()
        assert hashlib.sha256(nested).hexdigest() == "bb10e3619cd397e828420116db3376e0bde9590102d3753e22d6d68a094acd2a"
        assert digest(out / "verdicts_train.csv") == "917538ee07fc7138a0c273bc42f3090fb536bec79eb6ae3fe31b5e1b244c7654"
        assert digest(out / "verdicts_test.csv") == "a01df08fae8649b9ffb73c228196ec862be5f393801abe0c70c7714e5cc9fe94"
        pins = {
            "model_knn.json": "2295e6e7b4976501c71cf656a4eebca2e2c6b6187bb0d7d7de61a43342c91bd0",
            "model_knn_clean.json": "0e5738d30bf862f27196aaa56d656dd356a2f4a5ce155e2c76c40e8ea5f73207",
            "model_svm.json": "a6af460c204e0f1676077dca72a2dee95b5e493bafaedb07a7bcc4aaf1f50164",
            "model_svm_clean.json": "31bca9c33fa225149eb5cb5dcbd3afe6306e547dd0361d3f67147a25e44928b5",
            "model_nb.json": "a70d1454edb00f15d79fe2d6d14792f61e9478a75858cccc79162314c1c08019",
            "model_nb_clean.json": "7be2b0ed8199b1f6c39138297331fc95173c7764e9cf164b48c508e941428ac0",
            "model_lr.json": "97887e3b3f3b9183edc5a533ac94a3566cf79a1671acaf9542b99e0da8314fd6",
            "model_lr_clean.json": "3cf00189af0ddc6faa583ae28a81b5945b976ff27ed5156076d8b1df0b9ce4dc",
            "model_abc.json": "235dc212f459eb2cf378762463961f4b97efed00d7c2e280e067bb5c7ee05e0b",
            "model_abc_clean.json": "f2176bf71765e2b14ac01390d1ba0b40b2776ab5fecdb3abe505ffe3d4797225",
            "report.json": "5d4952f588d0b3b6a2f549d1ec5e72bb2c92092b248b00930099565551d8fd47",
            "train.csv": "e314f55377e5a34ba2283a5f2e426f104f30770cc1c87a5ac25d20d3201b63e6",
            "test.csv": "2369108b4a368c92148d0682f47166b508b5aa08341fc761b1e7c950a5ff15cf",
            "transforms.json": "cf3dd992f715047798db1314279d25cfcc12a786e759c8d4cdde6ddefecedad5",
            "scatter_full.csv": "f00c98e0d0abe549ee291f60addb7ab8b382467cd458a3942711315d90b1ee86",
            "scatter_clean.csv": "74a671dbc988b5b03d67b448c948d7f384e4f3057f831303727f13a716da3cc0",
            "roc_knn.csv": "377bfd126066a9f62799435dc276df7995feab18acf7190f095c77b0d68d7666",
            "roc_knn_clean.csv": "6f7362f729cd4f78a212243e0ff915dd355df0d6c4f629c6458bafdf9cf229ad",
            "roc_svm.csv": "ed8f4ccc3d5851848b42a5b04f52675dccd43a101804811f85edc2e9b3aa5a14",
            "roc_svm_clean.csv": "08d36cd0b4a0a7c420e7c3cdccdc34659e420d3d60bbe9defe0584c3aa668a83",
            "roc_nb.csv": "eefc5689eb94eb1b0c0d24c132601ef91e085ebe9e0feb9d615a356926c3e6bf",
            "roc_nb_clean.csv": "40e3566c41ca52440993066ec5d3b8857c572c2f7aac07f9f3fa973629a23f17",
            "roc_lr.csv": "852ed1ff88facdad298ca75970ab5edb8e6d34373cc580da05655e31800bb59c",
            "roc_lr_clean.csv": "5e96b4c6063ae127461490e0555e57e19609148ee466863007eaa313577f7065",
            "roc_abc.csv": "02a07adeb902ef1b4df6920c9a4f29c59042c7bbba8d2d00979f197e59f4de75",
            "roc_abc_clean.csv": "51818f6cb6fade9b8d2b99205f81c3d8baa55638e224f28d2617fdfd4f1271d1",
        }
        for name, pin in pins.items():
            assert digest(out / name) == pin, name

    def test_every_csv_cell_is_a_plain_number(self, tmp_path):
        cfg = small_config(tmp_path)
        run_pipeline(cfg)
        run_synth(replace(cfg, out_dir=str(tmp_path / "synth")))
        paths = sorted(Path(cfg.out_dir).glob("*.csv")) + sorted((tmp_path / "synth").glob("*.csv"))
        assert len(paths) == 18
        for path in paths:
            for line in path.read_text(encoding="utf-8").splitlines()[1:]:
                for cell in line.split(","):
                    try:
                        int(cell)
                    except ValueError:
                        float(cell)  # raises on np.float64(...) and any other non-number

    def test_detect_writes_verdicts_without_boxing(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        out = Path(cfg.out_dir)
        run_pipeline(cfg)
        expected = {name: (out / name).read_bytes() for name in ("verdicts_train.csv", "verdicts_test.csv")}

        def boxed(*args, **kwargs):
            raise AssertionError("stage_detect must not box verdicts")

        monkeypatch.setattr(iforest, "predict", boxed)
        monkeypatch.setattr(iforest, "OutlierVerdict", boxed)
        stage_detect(cfg, out)
        for name, data in expected.items():
            assert (out / name).read_bytes() == data, name

    def test_evaluate_runs_knn_distances_once_per_arm(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        out = Path(cfg.out_dir)
        run_pipeline(cfg)
        expected = (out / "report.json").read_bytes()
        calls = []
        counts = clf._knn_positive_counts

        def counting(model, X):
            calls.append(X.shape)
            return counts(model, X)

        monkeypatch.setattr(clf, "_knn_positive_counts", counting)
        stage_evaluate(cfg, out)
        assert len(calls) == 2
        assert (out / "report.json").read_bytes() == expected

    def test_resolved_config_reproduces_run(self, tmp_path):
        cfg = small_config(tmp_path)
        run_pipeline(cfg)
        out = Path(cfg.out_dir)
        # the emitted provenance file alone must reproduce every artifact
        replayed = load_config(out / "config.resolved.json")
        replay_out = tmp_path / "replay"
        run_pipeline(replace(replayed, out_dir=str(replay_out)))
        for name in ("report.json", "forest.json", "rfe.json", "transforms.json") + tuple(
            f"model_{m}.json" for m in MODELS
        ):
            assert (replay_out / name).read_bytes() == (out / name).read_bytes(), name

    def test_emptied_class_aborts_arm_b(self, tmp_path):
        # tiny minority class sits far out; an aggressive threshold removes it entirely
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.3, size=(60, 2)), [[9.0, 9.0], [9.5, 9.0], [9.0, 9.5], [9.5, 9.5]]])
        from isoguard.data import ColumnKind, Dataset

        ds = Dataset(
            ("a", "b"),
            (ColumnKind.NUMERIC, ColumnKind.NUMERIC),
            X,
            np.array([0] * 60 + [1] * 4),
        )
        csv_path = tmp_path / "tiny.csv"
        write_csv(ds, csv_path)
        cfg = PipelineConfig(
            input=str(csv_path),
            seed=5,
            out_dir=str(tmp_path / "run"),
            select=SelectSettings(target_count=1, step=1, n_trees=10),
            forest=ForestSettings(
                trees=30, subsample=32, threshold=ThresholdSettings(mode="contamination", fraction=0.3)
            ),
            classifiers=ClassifierSettings(knn_k=3, adaboost_stumps=5, lr_epochs=50, svm_epochs=50),
        )
        with pytest.raises(PipelineError, match="train: .*emptied class"):
            run_pipeline(cfg)

    def test_stage_errors_name_the_stage(self, tmp_path):
        cfg = small_config(tmp_path, input=str(tmp_path / "missing.csv"))
        with pytest.raises(PipelineError, match="^ingest:"):
            run_pipeline(cfg)

    def test_select_requires_ingest_artifacts(self, tmp_path):
        cfg = small_config(tmp_path)
        out = Path(cfg.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        with pytest.raises(PipelineError, match="select: missing artifact train.csv"):
            stage_select(cfg, out)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_sample_cap_below_one_rejected(self, tmp_path, cap):
        cfg = small_config(tmp_path, select=SelectSettings(target_count=4, n_trees=10, sample_cap=cap))
        out = Path(cfg.out_dir)
        out.mkdir(parents=True)
        stage_ingest(cfg, out)
        with pytest.raises(PipelineError, match=rf"^select: select.sample_cap must be an integer >= 1, got {cap}$"):
            stage_select(cfg, out)
        assert not (out / "rfe.json").exists()

    def test_missing_seed_rejected(self, tmp_path):
        cfg = small_config(tmp_path, seed=None)
        with pytest.raises(IsoguardError, match="master seed"):
            run_pipeline(cfg)


class TestIntrusionShapedInput:
    def make_intrusion_csv(self, path: Path, n=400, seed=0) -> None:
        """41 feature columns, three of them nominal, binary class labels."""
        rng = np.random.default_rng(seed)
        numeric_names = [f"num_{i:02d}" for i in range(38)]
        header = ["duration", "protocol_type", "service", "flag"] + numeric_names[1:] + ["class"]
        protocols = ["tcp", "udp", "icmp"]
        services = ["http", "smtp", "ftp", "dns"]
        flags = ["SF", "S0", "REJ"]
        lines = [",".join(header)]
        labels = rng.integers(0, 2, n)
        for i in range(n):
            base = 3.0 * labels[i]
            row = [
                repr(float(rng.normal(base, 1.0))),
                protocols[int(rng.integers(3))],
                services[int(rng.integers(4))],
                flags[int(rng.integers(3))],
            ]
            row += [repr(float(rng.normal(base, 2.0))) for _ in numeric_names[1:]]
            row.append("anomaly" if labels[i] else "normal")
            lines.append(",".join(row))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    def test_41_to_15_features_end_to_end(self, tmp_path):
        csv_path = tmp_path / "intrusion.csv"
        self.make_intrusion_csv(csv_path)
        cfg = PipelineConfig(
            input=str(csv_path),
            seed=17,
            out_dir=str(tmp_path / "run"),
            select=SelectSettings(target_count=15, step=5, n_trees=10, min_samples_split=30),
            forest=ForestSettings(
                trees=30, subsample=128, threshold=ThresholdSettings(mode="contamination", fraction=0.05)
            ),
            classifiers=ClassifierSettings(lr_epochs=80, svm_epochs=80, adaboost_stumps=10),
        )
        report = run_pipeline(cfg)
        out = Path(cfg.out_dir)
        rfe = json.loads((out / "rfe.json").read_text())
        assert len(rfe["column_names"]) == 41
        assert len(rfe["selected"]) == 15
        transforms = json.loads((out / "transforms.json").read_text())
        assert set(transforms["encoders"]) == {"protocol_type", "service", "flag"}
        assert len(transforms["scaler"]) == 41
        assert set(report.models) == set(MODELS)
        text = (out / "report.txt").read_text()
        assert "Original dataset" in text and "Without Outlier" in text


class TestScatter:
    def test_default_columns_are_top_two_by_importance(self, tmp_path):
        cfg = small_config(tmp_path)
        run_pipeline(cfg)
        out = Path(cfg.out_dir)
        rfe = json.loads((out / "rfe.json").read_text())
        ranked = sorted(
            zip(rfe["final_importances"], [-i for i in rfe["selected"]]), reverse=True
        )
        top = [rfe["column_names"][-int(neg)] for _, neg in ranked[:2]]
        header = (out / "scatter_full.csv").read_text().splitlines()[0].split(",")
        assert header[:2] == top
        assert header[2:] == ["verdict", "class"]

    def test_clean_subset_row_count(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_pipeline(cfg)
        out = Path(cfg.out_dir)
        full = len((out / "scatter_full.csv").read_text().strip().splitlines()) - 1
        clean = len((out / "scatter_clean.csv").read_text().strip().splitlines()) - 1
        assert full == report.n_train_before
        assert clean == full - report.outliers_removed

    def test_explicit_columns_honored(self, tmp_path):
        cfg = small_config(tmp_path, scatter_x="noise_01", scatter_y="inf_01")
        run_pipeline(cfg)
        header = (Path(cfg.out_dir) / "scatter_full.csv").read_text().splitlines()[0]
        assert header.startswith("noise_01,inf_01")

    def test_unknown_column_rejected(self, tmp_path):
        ds, mask = generate_synthetic(SyntheticSpec(n_normal=30, n_anomaly=10, seed=1))
        labels = np.ones(ds.n_rows, dtype=np.int64)
        with pytest.raises(IsoguardError, match="unknown column"):
            emit_scatter(ds, labels, "nope", "inf_01", "f.csv", "c.csv")


class TestRunSynth:
    def test_writes_dataset_and_mask(self, tmp_path):
        cfg = PipelineConfig(
            input="",
            seed=3,
            out_dir=str(tmp_path / "synth"),
            synthetic=SyntheticSpec(n_normal=50, n_anomaly=10),
        )
        path = run_synth(cfg)
        assert path.exists()
        ds = load_csv(path)
        assert ds.n_rows == 60
        mask_lines = (tmp_path / "synth" / "synthetic_mask.csv").read_text().strip().splitlines()
        assert len(mask_lines) == 61
        spec_doc = json.loads((tmp_path / "synth" / "synthetic_spec.json").read_text())
        assert spec_doc["seed"] == 3  # master seed overrides the spec seed

    def test_golden_digests(self, tmp_path):
        # Pinned bytes of the synthetic dataset and its injection mask (Python 3.11, numpy 2.4)
        cfg = PipelineConfig(
            input="",
            seed=3,
            out_dir=str(tmp_path / "synth"),
            synthetic=SyntheticSpec(n_normal=50, n_anomaly=10),
        )
        run_synth(cfg)
        out = tmp_path / "synth"
        assert digest(out / "synthetic.csv") == "0b6621d702f4df79bdbdb509fcff1ae351e9795f3564216e2e40b6bbe8054eb6"
        assert digest(out / "synthetic_mask.csv") == "9022020502a0e05f774c78d51f2480e8f05bc01e4ca980e56114c98789cb6e27"
