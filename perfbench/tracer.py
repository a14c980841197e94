"""Per-layer tracing from outside the program.

The tracer rebinds the public functions that isoguard's own callers look
up as module attributes, records a span (name, start, end, parent) around
each call, and restores every original on exit. Hot functions that run
inside worker threads (the seed hashes) only get a call count and summed
time, which keeps their overhead and memory small. Nothing under
``src/isoguard`` is modified.
"""
from __future__ import annotations

import itertools
import json
import resource
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path

MODELS = ("knn", "svm", "nb", "lr", "abc")
_MODEL_OF_CLASS = {
    "KnnModel": "knn",
    "LinearSvmModel": "svm",
    "GaussianNbModel": "nb",
    "LogisticModel": "lr",
    "AdaBoostModel": "abc",
}
STAGES = ("ingest", "select", "detect", "train", "evaluate")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    cpu_s: float = 0.0  # process CPU (all threads) over the span, when measured
    rss_mb: float = 0.0  # process RSS high-water mark at span end, when measured
    items: int = 0  # work count: rows, trees or bytes, depending on the span

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children may overlap each other (spans opened from worker threads), so
    the covered part is the union of their intervals, clipped to the parent.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for c in sorted(children[s.id], key=lambda c: c.start):
            lo, hi = max(c.start, reach, s.start), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


def _cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


# How a span counts its work, from (args, result).
def _rows_arg0(args, result) -> int:
    return int(args[0].shape[0])


def _rows_arg1(args, result) -> int:
    return int(args[1].shape[0])


def _trees(args, result) -> int:
    return len(result.trees)


def _read_bytes(args, result) -> int:
    return _file_bytes(args[0])


def _written_bytes(args, result) -> int:
    return _file_bytes(args[1])


def _by_model(suffix: str):
    return lambda args: f"classifiers.{_MODEL_OF_CLASS[type(args[0]).__name__]}_{suffix}"


def targets():
    """(module, attribute, span name, rusage?, work counter) for every traced call site."""
    from isoguard import classifiers, evaluation, feature_selection, iforest, pipeline

    sites = [(pipeline, f"stage_{s}", f"pipeline.{s}", True, None) for s in STAGES]
    sites += [
        (pipeline, "load_csv", "data.load_csv", False, _read_bytes),
        (pipeline, "write_csv", "data.write_csv", False, _written_bytes),
        (pipeline, "fit_label_encoder", "data.encode", False, None),
        (pipeline, "apply_label_encoder", "data.encode", False, None),
        (pipeline, "fit_scaler", "data.scale", False, None),
        (pipeline, "apply_scaler", "data.scale", False, None),
        (pipeline, "train_test_split", "data.split", False, None),
        (pipeline, "rfe_select", "feature_selection.rfe_select", False, None),
        (feature_selection, "fit_extra_trees", "feature_selection.fit_extra_trees", False, _trees),
        (feature_selection, "run_indexed", "parallel.run_indexed", True, None),
        (iforest, "run_indexed", "parallel.run_indexed", True, None),
        (iforest, "fit_forest", "iforest.fit_forest", False, None),
        (iforest, "score_batch", "iforest.score_batch", False, _rows_arg1),
        (iforest, "predict", "iforest.predict", False, None),
        (iforest, "save_forest", "iforest.save_forest", False, _written_bytes),
        (iforest, "load_forest", "iforest.load_forest", False, None),
        (classifiers, "knn_fit", "classifiers.knn_fit", False, _rows_arg0),
        (classifiers, "svm_fit", "classifiers.svm_fit", False, None),
        (classifiers, "gnb_fit", "classifiers.nb_fit", False, None),
        (classifiers, "logreg_fit", "classifiers.lr_fit", False, None),
        (classifiers, "adaboost_fit", "classifiers.abc_fit", False, None),
        (classifiers, "predict_model", _by_model("predict"), False, None),
        (classifiers, "score_model", _by_model("score"), False, None),
        (classifiers, "save_model", "classifiers.save_model", False, _written_bytes),
        (classifiers, "load_model", "classifiers.load_model", False, None),
        (pipeline, "evaluate_predictions", "evaluation.evaluate_predictions", False, None),
        (evaluation, "roc", "evaluation.roc", False, None),
        (pipeline, "report_to_json", "evaluation.write", False, None),
        (pipeline, "render_table", "evaluation.write", False, None),
        (pipeline, "write_roc_csv", "evaluation.write", False, None),
    ]
    counted = [
        (feature_selection, "hash64", "prng.hash64"),
        (feature_selection, "unit_uniforms", "prng.unit_uniforms"),
    ]
    return sites, counted


class Tracer:
    """Context manager: install the wrappers on enter, restore the originals on exit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count()
        self._originals: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def spanned(self, fn, name, rusage: bool = False, work=None):
        """Wrap fn in a span; ``name`` may be a function of the call's args."""

        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), name(args) if callable(name) else name, 0.0, 0.0, stack[-1] if stack else None)
            stack.append(span.id)
            cpu0 = _cpu_now() if rusage else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if rusage:
                    span.cpu_s = _cpu_now() - cpu0
                    span.rss_mb = _rss_mb()
                with self._lock:
                    self.spans.append(span)
            if work is not None:
                span.items = work(args, result)
            return result

        return wrapper

    def counted(self, fn, name: str):
        """Wrap fn with a call count and summed time only."""

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                with self._lock:
                    self.calls[name] += 1
                    self.seconds[name] += dt

        return wrapper

    def _rebind(self, module, attr: str, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __enter__(self) -> Tracer:
        sites, counted = targets()
        try:
            for module, attr, name, rusage, work in sites:
                self._rebind(module, attr, self.spanned(getattr(module, attr), name, rusage, work))
            for module, attr, name in counted:
                self._rebind(module, attr, self.counted(getattr(module, attr), name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)

    def restored(self) -> bool:
        """True once every rebound attribute holds its original function again."""
        return all(getattr(module, attr) is original for module, attr, original in self._originals)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")

    def metrics(self, workers: int) -> dict[str, float | int]:
        return layer_metrics(self.spans, self.calls, self.seconds, workers)


def layer_metrics(spans: list[Span], calls: dict[str, int], seconds: dict[str, float], workers: int) -> dict:
    """Every per-layer metric; a layer the job never entered reads 0."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def dur(name: str) -> float:
        return sum(s.duration for s in by_name[name])

    def items(name: str) -> int:
        return sum(s.items for s in by_name[name])

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else 0.0

    m: dict[str, float | int] = {}
    for stage in STAGES:
        group = by_name[f"pipeline.{stage}"]
        m[f"pipeline.{stage}_s"] = dur(f"pipeline.{stage}")
        m[f"pipeline.{stage}_cpu_s"] = sum(s.cpu_s for s in group)
        m[f"pipeline.{stage}_rss_mb"] = max((s.rss_mb for s in group), default=0.0)

    fit_s = dur("feature_selection.fit_extra_trees")
    trees = items("feature_selection.fit_extra_trees")
    m["feature_selection.rfe_select_s"] = dur("feature_selection.rfe_select")
    m["feature_selection.fit_extra_trees_s"] = fit_s
    m["feature_selection.fit_extra_trees_calls"] = len(by_name["feature_selection.fit_extra_trees"])
    m["feature_selection.trees_built"] = trees
    m["feature_selection.ms_per_tree"] = 1000.0 * ratio(fit_s, trees)

    m["prng.hash64_calls"] = calls.get("prng.hash64", 0)
    m["prng.hash64_s"] = seconds.get("prng.hash64", 0.0)
    m["prng.unit_uniforms_calls"] = calls.get("prng.unit_uniforms", 0)

    pool = by_name["parallel.run_indexed"]
    pool_s = dur("parallel.run_indexed")
    m["parallel.workers"] = workers
    m["parallel.run_indexed_calls"] = len(pool)
    m["parallel.run_indexed_s"] = pool_s
    m["parallel.run_indexed_cpu_per_wall"] = ratio(sum(s.cpu_s for s in pool), pool_s)

    own = self_times(spans)
    score_s = dur("iforest.score_batch")
    rows = items("iforest.score_batch")
    m["iforest.fit_forest_s"] = dur("iforest.fit_forest")
    m["iforest.score_batch_s"] = score_s
    m["iforest.rows_scored"] = rows
    m["iforest.score_rows_per_s"] = ratio(rows, score_s)
    m["iforest.predict_s"] = dur("iforest.predict")
    m["iforest.predict_box_s"] = sum(own[s.id] for s in by_name["iforest.predict"])
    m["iforest.save_forest_s"] = dur("iforest.save_forest")
    m["iforest.load_forest_s"] = dur("iforest.load_forest")
    m["iforest.forest_json_bytes"] = items("iforest.save_forest")

    for model in MODELS:
        for op in ("fit", "predict", "score"):
            m[f"classifiers.{model}_{op}_s"] = dur(f"classifiers.{model}_{op}")
    m["classifiers.save_model_s"] = dur("classifiers.save_model")
    m["classifiers.load_model_s"] = dur("classifiers.load_model")
    m["classifiers.model_json_bytes"] = items("classifiers.save_model")
    # the train stage fits arm A, then arm B on the rows the forest kept
    knn_rows = [s.items for s in sorted(by_name["classifiers.knn_fit"], key=lambda s: s.start)]
    m["classifiers.rows_removed"] = knn_rows[0] - knn_rows[1] if len(knn_rows) >= 2 else 0

    m["data.load_csv_s"] = dur("data.load_csv")
    m["data.load_csv_calls"] = len(by_name["data.load_csv"])
    m["data.load_csv_mb"] = items("data.load_csv") / 1e6
    m["data.write_csv_s"] = dur("data.write_csv")
    m["data.write_csv_mb"] = items("data.write_csv") / 1e6
    m["data.encode_s"] = dur("data.encode")
    m["data.scale_s"] = dur("data.scale")
    m["data.split_s"] = dur("data.split")

    m["evaluation.evaluate_predictions_s"] = dur("evaluation.evaluate_predictions")
    m["evaluation.roc_s"] = dur("evaluation.roc")
    m["evaluation.write_s"] = dur("evaluation.write")
    return m


def _unit(name: str) -> str:
    for suffix, unit in (
        ("ms_per_tree", "ms"),
        ("_per_s", "1/s"),
        ("_per_wall", "ratio"),
        ("_frac", "ratio"),
        ("_mb", "MB"),
        ("_bytes", "bytes"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def layer_units() -> dict[str, str]:
    """Unit of every per-layer metric, in report order."""
    names = [*layer_metrics([], {}, {}, 0), "trace.overhead_frac"]
    return {name: _unit(name) for name in names}
