"""Tests of the benchmark itself: span arithmetic, tracer restoration, the gate.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from isoguard import cli  # noqa: E402
from run import judge, mismatches  # noqa: E402
from tracer import Span, Tracer, layer_units, self_times, targets  # noqa: E402
from workloads import PipelineWorkload, intrusion_dataset  # noqa: E402


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 3.0, 0),
        Span(2, "b", 2.0, 5.0, 0),  # overlaps a: covered once
        Span(3, "c", 8.0, 12.0, 0),  # clipped to the parent's end
        Span(4, "a.child", 1.5, 2.0, 1),  # covers a, not root
        Span(5, "a.child2", 2.5, 3.0, 1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[1] == pytest.approx(2.0 - 0.5 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_self_time_of_a_child_spanning_its_parent_is_zero_for_the_parent():
    own = self_times([Span(0, "p", 0.0, 1.0, None), Span(1, "c", -1.0, 2.0, 0)])
    assert own[0] == pytest.approx(0.0)


def _attributes():
    sites, counted = targets()
    return [(m, a, getattr(m, a)) for m, a, *_ in sites + counted]


def test_tracer_restores_every_rebound_attribute():
    before = _attributes()
    with Tracer() as tracer:
        assert all(getattr(m, a) is not f for m, a, f in before)
        assert not tracer.restored()
    assert tracer.restored()
    assert all(getattr(m, a) is f for m, a, f in before)


def test_tracer_restores_after_an_exception():
    before = _attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert all(getattr(m, a) is f for m, a, f in before)


TINY = PipelineWorkload(
    name="tiny",
    n_normal=700,
    n_anomaly=100,
    config={"select": {"target_count": 38, "step": 1, "n_trees": 3}, "classifiers": {"adaboost_stumps": 3}},
    loads=None,
)


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    TINY.build_input(5, work)
    out = work / "ref"
    with Tracer() as tracer:
        rc = cli.cli_dispatch(["pipeline", "--config", str(TINY.config_path(5, work, out))])
    assert rc == 0
    return out, tracer.metrics(workers=1)


def test_traced_pipeline_reports_every_layer(traced_run):
    _, layers = traced_run
    assert list(layers) == [n for n in layer_units() if n != "trace.overhead_frac"]
    assert layers["data.load_csv_calls"] == 7
    assert layers["feature_selection.fit_extra_trees_calls"] == 4  # 41 -> 38 at step 1, plus the final fit
    assert layers["feature_selection.trees_built"] == 12
    assert layers["prng.hash64_calls"] > 0
    assert layers["iforest.rows_scored"] == 800  # train + test partitions
    assert 0.0 <= layers["iforest.predict_box_s"] <= layers["iforest.predict_s"]
    assert layers["classifiers.model_json_bytes"] > 0
    for stage in ("ingest", "select", "detect", "train", "evaluate"):
        assert layers[f"pipeline.{stage}_s"] > 0.0


def test_intrusion_layout_has_41_features_with_three_nominal():
    ds = intrusion_dataset(700, 70, seed=3)
    assert ds.n_features == 41
    assert [ds.kinds[i].value for i in (1, 2, 3)] == ["nominal"] * 3
    assert {len(set(ds.rows[:, j])) for j in (1, 2, 3)} == {3, 70, 11}
    again = intrusion_dataset(700, 70, seed=3)
    assert (ds.rows == again.rows).all()


def test_gate_flags_a_single_flipped_verdict_byte(traced_run, tmp_path):
    ref, _ = traced_run
    out = tmp_path / "job"
    shutil.copytree(ref, out)
    ok = {"ok": True}
    assert judge(ok, "pipeline", ref, out) is None
    verdicts = out / "verdicts_train.csv"
    data = bytearray(verdicts.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("0")
    verdicts.write_bytes(bytes(data))
    assert mismatches("pipeline", ref, out) == ["verdicts_train.csv"]
    assert "verdicts_train.csv" in judge(ok, "pipeline", ref, out)


def test_gate_flags_a_flipped_score_label(tmp_path):
    labels = np.array([1, -1, 1], dtype=np.int8)
    scores = np.array([0.4, 0.7, 0.3])
    np.savez(tmp_path / "ref.gate.npz", labels=labels, scores=scores)
    np.savez(tmp_path / "job.gate.npz", labels=labels, scores=scores)
    assert judge({"ok": True}, "score", tmp_path / "ref", tmp_path / "job") is None
    labels[2] = -1
    np.savez(tmp_path / "job.gate.npz", labels=labels, scores=scores)
    assert mismatches("score", tmp_path / "ref", tmp_path / "job") == ["labels"]


def test_failed_or_unrestored_jobs_never_pass(traced_run):
    ref, _ = traced_run
    assert judge({"ok": False, "error": "exit 2"}, "pipeline", ref, ref) == "exit 2"
    assert judge({"ok": True, "restored": False}, "pipeline", ref, ref) is not None


def test_benchmark_json_matches_what_the_benchmark_prints():
    import json

    from run import END_TO_END_UNITS
    from workloads import WORKLOADS

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layer_units()
