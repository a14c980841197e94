import json

import pytest

from isoguard.cli import cli_dispatch
from isoguard.data import write_csv
from isoguard.synthetic import SyntheticSpec, generate_synthetic


@pytest.fixture()
def workspace(tmp_path):
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

    def test_data_error_exits_2(self, workspace, capsys):
        tmp_path, cfg_path = workspace
        doc = json.loads(cfg_path.read_text())
        doc["input"] = str(tmp_path / "gone.csv")
        cfg_path.write_text(json.dumps(doc))
        code = cli_dispatch(["pipeline", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

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
        code = cli_dispatch(
            ["synth", "--seed", "3", "--out", str(out), "--n-normal", "40", "--n-anomaly", "10"]
        )
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
