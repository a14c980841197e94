import functools
import json
import operator
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from isoguard import parallel
from isoguard.classifiers import load_model
from isoguard.cli import cli_dispatch
from isoguard.data import write_csv
from isoguard.errors import IsoguardError
from isoguard.feature_selection import load_rfe
from isoguard.iforest import load_forest
from isoguard.pipeline import (
    MODELS,
    STAGES,
    WRITER,
    ForestSettings,
    PipelineConfig,
    ThresholdSettings,
    config_from_dict,
)
from isoguard.synthetic import SyntheticSpec, generate_synthetic


@pytest.fixture()
def workspace(tmp_path):
    return make_workspace(tmp_path)


def make_workspace(tmp_path):
    """A small synthetic input CSV and a fast config naming it, in ``tmp_path``."""
    ds, _ = generate_synthetic(
        SyntheticSpec(n_normal=200, n_anomaly=50, n_informative=3, n_noise=3, seed=1)
    )
    csv_path = tmp_path / "input.csv"
    write_csv(ds, csv_path)
    config = {
        "input": str(csv_path),
        "select": {"target_count": 3, "n_trees": 8, "min_samples_split": 20},
        "forest": {
            "trees": 25,
            "subsample": 64,
            "threshold": {"mode": "contamination", "fraction": 0.06},
        },
        "classifiers": {"lr_epochs": 60, "svm_epochs": 60, "adaboost_stumps": 10},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path


class TestDispatch:
    def test_pipeline_produces_artifacts(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "runs" / "a"
        code = cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "42", "--out", str(out)])
        assert code == 0
        assert (out / "report.json").exists()
        assert (out / "report.txt").exists()
        captured = capsys.readouterr()
        assert "Original dataset" in captured.out

    def test_unknown_subcommand_exits_1(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_exits_1(self, capsys):
        assert cli_dispatch([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_config_exits_1(self, capsys):
        assert cli_dispatch(["pipeline", "--seed", "1", "--out", "x"]) == 1
        err = capsys.readouterr().err
        assert "--config" in err

    def test_missing_seed_exits_1(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        code = cli_dispatch(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_out_exits_1_and_writes_nothing(self, workspace, capsys, monkeypatch):
        tmp_path, cfg_path = workspace  # the config sets no out_dir
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli_dispatch(["ingest", "--config", str(cfg_path), "--seed", "1"]) == 1
        assert "an output directory is required: pass --out or set 'out_dir' in the config" in capsys.readouterr().err
        assert list(cwd.iterdir()) == []

    def test_data_error_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        doc["input"] = str(tmp_path / "gone.csv")
        cfg_path.write_text(json.dumps(doc))
        code = cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfgdir"
        cfg_dir.mkdir()
        assert cli_dispatch(["pipeline", "--config", str(cfg_dir), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"no such config file: {cfg_dir}" in err
        assert "Errno" not in err

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_bytes(b'\xff\xfe{"input": "data.csv"}')
        assert cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: config is not UTF-8 text" in err
        assert "Traceback" not in err

    def test_input_not_utf8_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        csv_path = tmp_path / "input.csv"
        lines = csv_path.read_bytes().split(b"\n")
        lines[3] = b"\xff" + lines[3][lines[3].index(b","):]
        csv_path.write_bytes(b"\n".join(lines))
        assert cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"ingest: {csv_path}: not UTF-8 text" in err
        assert "Traceback" not in err

    def test_input_cell_past_the_csv_field_limit_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        csv_path = tmp_path / "input.csv"
        lines = csv_path.read_bytes().split(b"\n")
        lines[3] = b"1" * 200_000 + lines[3][lines[3].index(b","):]
        csv_path.write_bytes(b"\n".join(lines))
        assert cli_dispatch(["ingest", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"ingest: {csv_path}: unreadable CSV at line 4: field larger than field limit" in err
        assert "Traceback" not in err

    def test_module_entry_point_runs_main(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        missing = tmp_path / "nonexistent.json"
        result = subprocess.run(
            [sys.executable, "-m", "isoguard.cli", "pipeline", "--config", str(missing), "--seed", "1", "--out", "o"],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 2
        assert f"no such config file: {missing}" in result.stderr

    def test_stage_chain_matches_pipeline(self, workspace):
        tmp_path, cfg_path = workspace
        mono = tmp_path / "mono"
        staged = tmp_path / "staged"
        assert cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "9", "--out", str(mono)]) == 0
        for command in ("ingest", "select", "detect", "train", "evaluate"):
            code = cli_dispatch([command, "--config", str(cfg_path), "--seed", "9", "--out", str(staged)])
            assert code == 0, command
        for name in ("train.csv", "rfe.json", "forest.json", "report.json"):
            assert (staged / name).read_bytes() == (mono / name).read_bytes(), name

    def test_repeat_run_byte_identical(self, workspace):
        tmp_path, cfg_path = workspace
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pipeline", "--config", str(cfg_path), "--seed", "7"]
        assert cli_dispatch(args + ["--out", str(a)]) == 0
        assert cli_dispatch(args + ["--out", str(b)]) == 0
        for name in ("report.json", "forest.json", "report.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_synth_without_config(self, tmp_path, capsys):
        out = tmp_path / "synth"
        code = cli_dispatch(["synth", "--seed", "3", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("synthetic.csv")
        assert (out / "synthetic.csv").exists()
        assert (out / "synthetic_mask.csv").exists()

    def test_synth_requires_seed(self, tmp_path, capsys):
        assert cli_dispatch(["synth", "--out", str(tmp_path / "s")]) == 1

    def test_config_seed_suffices(self, workspace):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        doc["seed"] = 13
        doc["out_dir"] = str(tmp_path / "from-config")
        cfg_path.write_text(json.dumps(doc))
        assert cli_dispatch(["pipeline", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "from-config" / "report.json").exists()


CONFIG_TYPE_ERRORS = [
    ("select.n_trees", "4", "select.n_trees must be an integer, got '4'"),
    ("select.n_trees", 2.5, "select.n_trees must be an integer, got 2.5"),
    ("select.max_depth", "3", "select.max_depth must be an integer, got '3'"),
    ("select.target_count", True, "select.target_count must be an integer, got True"),
    ("seed", 1.7, "seed must be an integer, got 1.7"),
    ("classifiers.knn_k", 2.0, "classifiers.knn_k must be an integer, got 2.0"),
    ("split.stratified", "no", "split.stratified must be a boolean, got 'no'"),
    ("split.test_fraction", "0.2", "split.test_fraction must be a finite number, got '0.2'"),
    ("forest.threshold.tau", "0.5", "forest.threshold.tau must be a finite number, got '0.5'"),
    ("classifiers.lr_epochs", 3.5, "classifiers.lr_epochs must be an integer, got 3.5"),
    ("forest.threshold.mode", "fixd", "forest.threshold.mode must be 'fixed' or 'contamination', got 'fixd'"),
]
CONFIG_MISTYPES = CONFIG_TYPE_ERRORS + [
    # ranges that do not depend on the data
    ("split.test_fraction", 0.0, "split.test_fraction must be in (0, 1), got 0.0"),
    ("split.test_fraction", 1, "split.test_fraction must be in (0, 1), got 1.0"),
    ("select.target_count", 0, "select.target_count must be >= 1, got 0"),
    ("select.step", 0, "select.step must be >= 1, got 0"),
    ("select.n_trees", 0, "select.n_trees must be >= 1, got 0"),
    ("select.max_depth", 0, "select.max_depth must be >= 1, got 0"),
    ("select.min_samples_split", 0, "select.min_samples_split must be >= 2, got 0"),
    ("select.min_samples_split", 1, "select.min_samples_split must be >= 2, got 1"),
    ("forest.trees", 0, "forest.trees must be >= 1, got 0"),
    ("forest.subsample", 1, "forest.subsample must be >= 2, got 1"),
    ("forest.threshold", {"mode": "fixed", "tau": 0.0}, "forest.threshold.tau must be in (0, 1], got 0.0"),
    ("forest.threshold", {"mode": "fixed", "tau": -0.5}, "forest.threshold.tau must be in (0, 1], got -0.5"),
    ("forest.threshold", {"mode": "fixed", "tau": 1.5}, "forest.threshold.tau must be in (0, 1], got 1.5"),
    ("forest.threshold.fraction", 0.9, "forest.threshold.fraction must be in (0, 0.5], got 0.9"),
    ("forest.threshold.fraction", 0, "forest.threshold.fraction must be in (0, 0.5], got 0.0"),
    ("classifiers.knn_k", 0, "classifiers.knn_k must be >= 1, got 0"),
    ("classifiers.nb_var_smoothing", 0.0, "classifiers.nb_var_smoothing must be > 0, got 0.0"),
    ("classifiers.nb_var_smoothing", -1.0, "classifiers.nb_var_smoothing must be > 0, got -1.0"),
    ("classifiers.lr_learning_rate", -5, "classifiers.lr_learning_rate must be > 0, got -5.0"),
    ("classifiers.lr_epochs", -1, "classifiers.lr_epochs must be >= 0, got -1"),
    ("classifiers.lr_l2", -1, "classifiers.lr_l2 must be >= 0, got -1.0"),
    ("classifiers.svm_lambda", 0, "classifiers.svm_lambda must be > 0, got 0.0"),
    ("classifiers.svm_epochs", 0, "classifiers.svm_epochs must be >= 1, got 0"),
    ("classifiers.adaboost_stumps", 0, "classifiers.adaboost_stumps must be >= 1, got 0"),
    ("select.sample_cap", 0, "select.sample_cap must be >= 1, got 0"),
    ("select.sample_cap", -5, "select.sample_cap must be >= 1, got -5"),
    # tau and fraction are checked whichever threshold mode uses them
    ("forest.threshold", {"mode": "contamination", "tau": 1.5}, "forest.threshold.tau must be in (0, 1], got 1.5"),
    ("forest.threshold", {"mode": "fixed", "fraction": 0.9}, "forest.threshold.fraction must be in (0, 0.5], got 0.9"),
]


def _set_field(doc: dict, dotted: str, value) -> None:
    *sections, key = dotted.split(".")
    for section in sections:
        doc = doc.setdefault(section, {})
    doc[key] = value


class TestConfigMistypes:
    """A mistyped or out-of-range config value exits 2 naming the field, before the output directory exists."""

    @pytest.mark.parametrize("dotted, value, message", CONFIG_MISTYPES)
    def test_pipeline_rejects_before_any_stage(self, workspace, capsys, dotted, value, message):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        _set_field(doc, dotted, value)
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "never"
        assert cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("dotted, value, message", CONFIG_MISTYPES)
    def test_library_config_rejects(self, dotted, value, message):
        doc = {"input": "data.csv", "forest": {"threshold": {"mode": "contamination"}}}  # as in the workspace config
        _set_field(doc, dotted, value)
        with pytest.raises(IsoguardError, match=re.escape(message)):
            config_from_dict(doc)

    @pytest.mark.parametrize("dotted, value, message", CONFIG_TYPE_ERRORS)
    def test_constructor_rejects_a_mistyped_field(self, dotted, value, message):
        *sections, key = dotted.split(".")

        def rebuilt(obj, path):  # obj with the field at path set, through each dataclass's constructor
            if not path:
                return replace(obj, **{key: value})
            return replace(obj, **{path[0]: rebuilt(getattr(obj, path[0]), path[1:])})

        base = PipelineConfig(input="data.csv", forest=ForestSettings(threshold=ThresholdSettings(mode="contamination")))
        with pytest.raises(IsoguardError, match=re.escape(message)):
            rebuilt(base, sections)

    def test_constructor_rejects_a_section_of_the_wrong_class(self):
        with pytest.raises(IsoguardError, match=re.escape("select must be a SelectSettings, got {'n_trees': 4}")):
            PipelineConfig(select={"n_trees": 4})

    def test_config_nested_past_the_parser_stack_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps(doc)[:-1] + ', "select": ' + "[" * 100_000 + "]" * 100_000 + "}")
        out = tmp_path / "never"
        assert cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{cfg_path}: invalid JSON: maximum recursion depth exceeded" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_synth_config_needs_no_input(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"synthetic": {"n_normal": 40, "n_anomaly": 10}}))
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path / "out")]
        assert cli_dispatch(["synth"] + args) == 0
        assert (tmp_path / "out" / "synthetic.csv").exists()
        assert cli_dispatch(["pipeline"] + args) == 1
        assert "the config must name an input CSV path" in capsys.readouterr().err

    @pytest.mark.parametrize("axis", ["scatter_x", "scatter_y"])
    def test_unknown_scatter_axis_rejected_before_detect_writes(self, workspace, capsys, axis):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        cfg_path.write_text(json.dumps(doc | {axis: "no_such_column"}))
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli_dispatch(["ingest"] + args) == 0
        assert cli_dispatch(["select"] + args) == 0
        before = sorted(p.name for p in out.iterdir())
        assert cli_dispatch(["detect"] + args) == 2
        assert f"detect: {axis} 'no_such_column' is not a column that rfe.json records" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == before

    @pytest.mark.parametrize(
        "section, message",
        [
            ({"n_normal": "50"}, "synthetic.n_normal must be an integer, got '50'"),
            ({"n_noise": -3}, "n_noise must be >= 0, got -3"),
            ({"separation": float("nan")}, "synthetic.separation must be a finite number, got nan"),
        ],
    )
    def test_synth_rejects_before_writing(self, tmp_path, capsys, section, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"synthetic": section}))
        out = tmp_path / "never"
        assert cli_dispatch(["synth", "--config", str(cfg_path), "--seed", "3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_synth_offers_no_size_flags(self, capsys):
        with pytest.raises(SystemExit):
            cli_dispatch(["synth", "-h"])
        options = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert options == {"--help", "--config", "--seed", "--out"}


class TestArtifactMismatch:
    @pytest.mark.parametrize("stage", ["train", "evaluate"])
    def test_truncated_verdicts_exit_2(self, workspace, capsys, stage):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli_dispatch(["pipeline"] + args) == 0
        verdicts = out / "verdicts_train.csv"
        lines = verdicts.read_text(encoding="utf-8").splitlines(keepends=True)
        verdicts.write_text("".join(lines[:50]), encoding="utf-8")  # header + 49 rows
        capsys.readouterr()
        assert cli_dispatch([stage] + args) == 2
        err = capsys.readouterr().err
        assert f"{stage}: verdicts_train.csv has 49 verdict rows but train.csv has {len(lines) - 1} rows" in err

    def test_verdict_row_cut_mid_line_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli_dispatch(["pipeline"] + args) == 0
        verdicts = out / "verdicts_train.csv"
        lines = verdicts.read_text(encoding="utf-8").splitlines()
        verdicts.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(",", 1)[0]]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_dispatch(["train"] + args) == 2
        assert f"train: verdicts_train.csv: malformed verdict row at line {len(lines)}" in capsys.readouterr().err


    def test_verdict_cell_past_the_csv_field_limit_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli_dispatch(["pipeline"] + args) == 0
        verdicts = out / "verdicts_train.csv"
        lines = verdicts.read_text(encoding="utf-8").splitlines()
        row, score, rest = lines[5].split(",", 2)
        lines[5] = ",".join([row, "0." + "1" * 200_000, rest])
        verdicts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli_dispatch(["train"] + args) == 2
        err = capsys.readouterr().err
        assert "train: verdicts_train.csv: malformed verdict row at line 6; rerun the detect stage" in err
        assert "Traceback" not in err


class TestKnnTrainingRows:
    """A KNN model file refers to its training rows; evaluate rebuilds them and checks the digest."""

    @pytest.fixture()
    def trained(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        for command in ("ingest", "select", "detect", "train"):
            assert cli_dispatch([command] + args) == 0
        capsys.readouterr()
        return out, args

    def test_flipped_verdict_after_train_exits_2(self, trained, capsys):
        out, args = trained
        verdicts = out / "verdicts_train.csv"
        lines = verdicts.read_text(encoding="utf-8").splitlines()
        row, score, mean_path, label = lines[1].split(",")
        lines[1] = ",".join([row, score, mean_path, str(-int(label))])
        verdicts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli_dispatch(["evaluate"] + args) == 2
        err = capsys.readouterr().err
        assert f"evaluate: {out / 'model_knn_clean.json'}: unreadable artifact (training rows " in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_ingest_with_another_seed_exits_2(self, trained, capsys):
        out, args = trained
        reseeded = list(args)
        reseeded[args.index("--seed") + 1] = "4"
        assert cli_dispatch(["ingest"] + reseeded) == 0
        assert cli_dispatch(["evaluate"] + args) == 2
        err = capsys.readouterr().err
        expected = "unreadable artifact (training rows differ from the ones the model was fit on (rows_sha256 mismatch))"
        assert f"evaluate: {out / 'model_knn.json'}: {expected}" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    def test_untouched_rows_evaluate(self, trained):
        out, args = trained
        assert cli_dispatch(["evaluate"] + args) == 0
        assert (out / "report.json").exists()


# an integer field of each JSON artifact, as a path of keys and list indices
INT_FIELDS = {
    "rfe.json": ("trace", 0, "removed"),
    "model_abc_clean.json": ("stumps", 0, "feature"),
    "forest.json": ("trees", 0, "leaf_size", 0),
}


class TestCorruptArtifacts:
    @pytest.fixture()
    def finished_run(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli_dispatch(["pipeline"] + args) == 0
        capsys.readouterr()
        return out, args

    @staticmethod
    def drop_key(path, key):
        doc = json.loads(path.read_text(encoding="utf-8"))
        del doc[key]
        path.write_text(json.dumps(doc), encoding="utf-8")

    def test_model_missing_key_exits_2(self, finished_run, capsys):
        out, args = finished_run
        self.drop_key(out / "model_knn.json", "k")
        assert cli_dispatch(["evaluate"] + args) == 2
        err = capsys.readouterr().err
        assert f"evaluate: {out / 'model_knn.json'}: unreadable artifact (missing key 'k')" in err

    def test_rfe_missing_key_exits_2(self, finished_run, capsys):
        out, args = finished_run
        self.drop_key(out / "rfe.json", "final_importances")
        assert cli_dispatch(["detect"] + args) == 2
        err = capsys.readouterr().err
        assert f"detect: {out / 'rfe.json'}: unreadable artifact (missing key 'final_importances')" in err

    def test_rfe_nested_past_the_parser_stack_exits_2(self, finished_run, capsys):
        out, args = finished_run
        rfe = out / "rfe.json"
        rfe.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        assert cli_dispatch(["detect"] + args) == 2
        err = capsys.readouterr().err
        assert f"detect: {rfe}: unreadable artifact (maximum recursion depth exceeded" in err
        assert err.endswith("; rerun the select stage\n")
        assert "Traceback" not in err

    def test_truncated_rfe_exits_2(self, finished_run, capsys):
        out, args = finished_run
        rfe = out / "rfe.json"
        rfe.write_bytes(rfe.read_bytes()[:40])
        assert cli_dispatch(["train"] + args) == 2
        assert f"train: {rfe}: unreadable artifact (" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", ["detect", "train", "evaluate"])
    @pytest.mark.parametrize("position, index", [(-1, 999), (0, -1)])
    def test_rfe_selected_out_of_range_exits_2(self, finished_run, capsys, stage, position, index):
        out, args = finished_run
        rfe = out / "rfe.json"
        doc = json.loads(rfe.read_text(encoding="utf-8"))
        n = len(doc["column_names"])
        doc["selected"][position] = index
        rfe.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_dispatch([stage] + args) == 2
        err = capsys.readouterr().err
        expected = f"selected must be strictly increasing column indices in [0, {n})"
        assert f"{stage}: {rfe}: unreadable artifact ({expected}" in err

    @pytest.mark.parametrize("feature", [99, -1])
    def test_stump_feature_out_of_range_exits_2(self, finished_run, capsys, feature):
        out, args = finished_run
        path = out / "model_abc.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["stumps"], "the run should have fitted at least one stump"
        doc["stumps"][0]["feature"] = feature
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli_dispatch(["evaluate"] + args) == 2
        err = capsys.readouterr().err
        assert f"evaluate: {path}: unreadable artifact (stump 0 has feature {feature} and polarity" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [("[]", "model must be an object, got []"), ('{"kind": []}', "unknown model kind []")],
        ids=["list", "list-kind"],
    )
    def test_model_of_the_wrong_json_type_exits_2(self, finished_run, capsys, text, message):
        out, args = finished_run
        path = out / "model_nb.json"
        path.write_text(text, encoding="utf-8")
        assert cli_dispatch(["evaluate"] + args) == 2
        err = capsys.readouterr().err
        assert f"evaluate: {path}: unreadable artifact ({message})" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("nb", "means", lambda d: [d["means"][0], [1e308] * len(d["means"][1])]),
            ("lr", "weights", lambda d: [1e308] * len(d["weights"])),
            ("svm", "weights", lambda d: [1e308] * len(d["weights"])),
            ("abc", "stumps", lambda d: [dict(s, alpha=1e308) for s in d["stumps"]]),
        ],
    )
    def test_model_that_overflows_when_scoring_exits_2(self, finished_run, capsys, name, key, value):
        out, args = finished_run
        path = out / f"model_{name}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc[key] = value(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
        (out / "report.json").unlink()
        assert cli_dispatch(["evaluate"] + args) == 2
        err = capsys.readouterr().err
        assert f"evaluate: {path}: unreadable artifact (model parameters out of range: overflow encountered" in err
        assert "Traceback" not in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("stage", ["detect", "evaluate"])
    @pytest.mark.parametrize("value, code", [("1e308", 2), ("1e150", 0)])
    def test_test_row_whose_squared_norm_overflows_exits_2(self, finished_run, capsys, stage, value, code):
        out, args = finished_run
        _edit_csv(out / "test.csv", _set_features(3, value))
        assert cli_dispatch([stage] + args) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err.endswith(f"{stage}: test.csv: row 4 has a squared norm past the float64 range; rerun the ingest stage\n")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, loader",
        [("rfe.json", load_rfe), ("model_abc_clean.json", load_model), ("forest.json", load_forest)],
    )
    def test_every_loader_names_the_file(self, finished_run, name, loader):
        out, _ = finished_run
        path = out / name
        text = path.read_text(encoding="utf-8")
        unknown_key = json.loads(text) | {"extra": 1}
        float_for_int = json.loads(text)
        *parents, key = INT_FIELDS[name]
        holder = functools.reduce(operator.getitem, parents, float_for_int)
        holder[key] = float(holder[key])
        for corrupt in (
            text[: len(text) // 2], "[]", "{}", '{"kind": "knn"}', json.dumps(unknown_key), json.dumps(float_for_int)
        ):
            path.write_text(corrupt, encoding="utf-8")
            with pytest.raises(IsoguardError, match="unreadable artifact") as caught:
                loader(path)
            assert str(path) in str(caught.value)


def _edit_csv(path, edit):
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    edit(rows)
    # a lone surrogate cell such as "\udcff" is written as the raw byte 0xff, which is not UTF-8
    path.write_text("".join(",".join(row) + "\n" for row in rows), encoding="utf-8", errors="surrogateescape")


def _set_cell(row, col, value):
    def edit(rows):
        rows[row][col] = value

    return edit


def _set_features(row, value):
    def edit(rows):
        rows[row][:-1] = [value] * (len(rows[row]) - 1)  # every cell but the target, which is last

    return edit


def _drop_first_column(rows):
    for row in rows:
        del row[0]


def _set_labels(value, count=5):
    def edit(rows):
        for row in rows[1 : count + 1]:
            row[3] = value

    return edit


CSV_CORRUPTIONS = [
    ("bad-cell", "select", "train.csv", _set_cell(3, 1, "abc"), "train.csv: column 'inf_02' holds a non-numeric cell"),
    ("dropped-column", "detect", "test.csv", _drop_first_column, "test.csv: feature columns differ from the 6"),
    ("renamed-column", "train", "train.csv", _set_cell(0, 2, "renamed"), "train.csv: feature columns differ from"),
    ("label-0", "train", "verdicts_train.csv", _set_labels("0"), "verdicts_train.csv: verdict label 0 is not 1 or -1"),
    ("label-2", "evaluate", "verdicts_train.csv", _set_labels("2", 1), "verdicts_train.csv: verdict label 2 is not"),
    ("label-huge", "train", "verdicts_train.csv", _set_labels("99999999999999999999", 1),
     "verdicts_train.csv: verdict label 99999999999999999999 is not 1 or -1"),
    ("empty-verdicts-train", "train", "verdicts_train.csv", list.clear, "verdicts_train.csv has 0 verdict rows"),
    ("empty-verdicts-evaluate", "evaluate", "verdicts_train.csv", list.clear, "verdicts_train.csv has 0 verdict rows"),
    # {out} stands for the run directory, which the loaders name in full
    ("not-utf8-train", "select", "train.csv", _set_cell(3, 1, "\udcff"), "{out}/train.csv: not UTF-8 text"),
    ("not-utf8-test", "detect", "test.csv", _set_cell(2, 4, "\udcff"), "{out}/test.csv: not UTF-8 text"),
    ("not-utf8-verdicts", "train", "verdicts_train.csv", _set_cell(2, 0, "\udcff"), "verdicts_train.csv: not UTF-8 text"),
]


class TestCorruptCsvArtifacts:
    @pytest.mark.parametrize(
        "stage, name, edit, message", [case[1:] for case in CSV_CORRUPTIONS], ids=[case[0] for case in CSV_CORRUPTIONS]
    )
    def test_corrupt_csv_exits_2(self, workspace, capsys, stage, name, edit, message):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli_dispatch(["pipeline"] + args) == 0
        _edit_csv(out / name, edit)
        capsys.readouterr()
        assert cli_dispatch([stage] + args) == 2
        err = capsys.readouterr().err
        assert f"{stage}: {message.format(out=out)}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "stage, name, edit", [("detect", "test.csv", _drop_first_column), ("train", "train.csv", _set_cell(0, 2, "x"))]
    )
    def test_column_mismatch_names_both_writers(self, workspace, capsys, stage, name, edit):
        tmp_path, cfg_path = workspace
        out = tmp_path / "run"
        args = ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]
        assert cli_dispatch(["pipeline"] + args) == 0
        _edit_csv(out / name, edit)
        capsys.readouterr()
        assert cli_dispatch([stage] + args) == 2
        expected = f"{stage}: {name}: feature columns differ from the 6 that rfe.json records"
        assert capsys.readouterr().err == f"isoguard: error: {expected}; rerun the ingest and select stages\n"


# every (stage, artifact it reads) pair that STAGES declares
READS = [(stage.name, name) for stage in STAGES for name in stage.reads]


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _replace_with_directory(path):
    path.unlink()
    path.mkdir()


DAMAGES = {"missing": Path.unlink, "directory": _replace_with_directory, "truncated": _truncate}


class TestStageTable:
    """The STAGES table against what the stages do: each writes what it declares, needs no more than
    it declares to read, and a damaged read is blamed on the stage the table says writes it."""

    @pytest.fixture(scope="class")
    def monolith(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("monolith")
        cfg_path = make_workspace(tmp_path)[1]
        out = tmp_path / "run"
        assert cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "3", "--out", str(out)]) == 0
        return cfg_path, out

    @staticmethod
    def args(cfg_path, out):
        return ["--config", str(cfg_path), "--seed", "3", "--out", str(out)]

    def test_pipeline_writes_exactly_the_declared_artifacts(self, monolith):
        _, out = monolith
        declared = {name for stage in STAGES for name in stage.writes}
        assert sorted(p.name for p in out.iterdir()) == sorted(declared | {"config.resolved.json"})

    @pytest.mark.parametrize("stage", STAGES, ids=[stage.name for stage in STAGES])
    def test_stage_needs_only_its_declared_reads(self, monolith, tmp_path, capsys, stage):
        cfg_path, mono = monolith
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        for name in stage.reads:
            shutil.copyfile(mono / name, fresh / name)
        assert cli_dispatch([stage.name] + self.args(cfg_path, fresh)) == 0, capsys.readouterr().err
        assert sorted(p.name for p in fresh.iterdir()) == sorted({*stage.reads, *stage.writes, "config.resolved.json"})
        for name in stage.writes:
            assert (fresh / name).read_bytes() == (mono / name).read_bytes(), name

    @pytest.mark.parametrize(
        "damage, stage, name",
        [(damage, stage, name) for damage in DAMAGES for stage, name in READS],
        ids=[f"{damage}-{stage}-{name}" for damage in DAMAGES for stage, name in READS],
    )
    def test_damaged_read_names_its_writer(self, monolith, tmp_path, capsys, damage, stage, name):
        cfg_path, mono = monolith
        out = tmp_path / "run"
        shutil.copytree(mono, out)
        DAMAGES[damage](out / name)
        capsys.readouterr()
        assert cli_dispatch([stage] + self.args(cfg_path, out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"isoguard: error: {stage}: ")
        if damage == "truncated":
            assert err.endswith(f"; rerun the {WRITER[name]} stage\n")
        else:
            assert err == f"isoguard: error: {stage}: missing artifact {name}; run the {WRITER[name]} stage first\n"
        assert "Traceback" not in err

    def test_readme_artifact_table_matches_stages(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Output artifacts", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in table.splitlines():
            if not line.startswith("| `"):
                continue
            files, written_by, read_by = line.split("|")[1:4]
            stages = (tuple(re.findall(r"`(\w+)`", written_by)), tuple(re.findall(r"`(\w+)`", read_by)))
            for pattern in re.findall(r"`([^`]+)`", files):
                names = [pattern.replace("<name>", m) for m in MODELS] if "<name>" in pattern else [pattern]
                documented |= dict.fromkeys(names, stages)
        assert documented.pop("config.resolved.json") == ((), ())  # written by every command, read by none
        declared = {name: ((writer,), tuple(s.name for s in STAGES if name in s.reads)) for name, writer in WRITER.items()}
        assert documented == declared


class TestThreadsEnv:
    def test_thread_cap_does_not_change_bytes(self, workspace, monkeypatch):
        tmp_path, cfg_path = workspace
        outputs = {}
        for threads in ("1", "8"):
            monkeypatch.setenv("ISOGUARD_THREADS", threads)
            out = tmp_path / f"t{threads}"
            assert cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "5", "--out", str(out)]) == 0
            outputs[threads] = {
                name: (out / name).read_bytes()
                for name in ("report.json", "forest.json", "model_knn.json", "model_abc.json")
            }
        assert outputs["1"] == outputs["8"]

    def test_invalid_thread_env_rejected(self, workspace, monkeypatch, capsys):
        tmp_path, cfg_path = workspace
        monkeypatch.setenv("ISOGUARD_THREADS", "banana")
        code = cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "5", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "ISOGUARD_THREADS" in capsys.readouterr().err

    def test_invalid_thread_env_rejected_before_any_artifact(self, workspace, monkeypatch, capsys):
        tmp_path, cfg_path = workspace
        out = tmp_path / "never"
        monkeypatch.setenv("ISOGUARD_THREADS", "-3")
        for command in ("ingest", "select", "pipeline"):
            assert cli_dispatch([command, "--config", str(cfg_path), "--seed", "5", "--out", str(out)]) == 2
            assert "ISOGUARD_THREADS must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw, expected", [(None, 3), ("0", 3), ("1", 1), ("2", 2), ("3", 3), ("64", 3)])
    def test_worker_count_capped_at_usable_cpus(self, monkeypatch, raw, expected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 16)
        if raw is None:
            monkeypatch.delenv("ISOGUARD_THREADS", raising=False)
        else:
            monkeypatch.setenv("ISOGUARD_THREADS", raw)
        assert parallel.worker_count() == expected

    def test_worker_count_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("ISOGUARD_THREADS", "9")
        assert parallel.worker_count() == 4
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.delenv("ISOGUARD_THREADS")
        assert parallel.worker_count() == 1
