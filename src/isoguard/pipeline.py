"""End-to-end experiment: ingest -> select -> detect -> train -> evaluate.

The experiment has two arms sharing one frozen test partition. Arm A
trains the five baseline classifiers on the full training partition; arm B
first drops the training rows the isolation forest flags as outliers, then
retrains. The report compares both arms per classifier.

Every stage reads and writes plain artifacts (CSV/JSON) in the output
directory, so the monolithic run and the stage-by-stage subcommands are
the same code path and produce identical bytes for identical seeds. All
stage seeds derive from the single master seed.

``STAGES`` states once what each stage reads and writes, and so which stage
W writes each artifact. A stage whose input is not a file stops with
``missing artifact X; run the W stage first``; any other error about an
artifact names the file and ends ``; rerun the W stage``, or, when two
files disagree, ``; rerun the W1 and W2 stages`` in stage order.

A ``PipelineConfig`` checks every field's type, and every range that does
not depend on the data, when it is built, so no command starts a stage,
or makes a directory, with a config of the wrong type or out of range. A
stage that fails raises a ``PipelineError`` whose message starts with the
stage name.
"""
from __future__ import annotations

import csv
import functools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Annotated, Literal, NamedTuple

import numpy as np

from . import classifiers as clf
from . import iforest
from .codec import check_types, from_doc, to_doc
from .data import (
    ColumnKind,
    Dataset,
    SplitSettings,
    apply_label_encoder,
    apply_scaler,
    fit_label_encoder,
    fit_scaler,
    load_csv,
    save_transforms,
    train_test_split,
    write_csv,
    write_table,
)
from .errors import ArtifactError, IsoguardError, PipelineError, artifact_reader
from .evaluation import (
    ClassifierEvaluation,
    ComparisonReport,
    evaluate_predictions,
    render_table,
    report_to_json,
    write_roc_csv,
)
from .feature_selection import RfeResult, SelectSettings, load_rfe, rfe_select, save_rfe
from .prng import derive_seed
from .synthetic import SyntheticSpec, generate_synthetic, write_injection_mask

MODELS = ("knn", "svm", "nb", "lr", "abc")
ARMS = (("before", ""), ("after", "_clean"))  # arm A trains on every row, arm B without the flagged ones
_ARM_MODELS = tuple(name + suffix for _, suffix in ARMS for name in MODELS)  # knn, ..., abc, knn_clean, ..., abc_clean


class Stage(NamedTuple):
    name: str  # also the CLI subcommand; the stage runs as the module global stage_<name>
    help: str
    reads: tuple[str, ...]  # artifacts in the output directory, each written by an earlier stage
    writes: tuple[str, ...]


STAGES = (
    Stage("ingest", "load, split and transform the input CSV", (), ("transforms.json", "train.csv", "test.csv")),
    Stage("select", "recursive feature elimination on train.csv", ("train.csv",), ("rfe.json",)),
    Stage("detect", "fit the isolation forest and emit verdicts", ("train.csv", "test.csv", "rfe.json"),
          ("verdicts_train.csv", "verdicts_test.csv", "forest.json", "scatter_full.csv", "scatter_clean.csv")),
    Stage("train", "train both classifier arms", ("train.csv", "rfe.json", "verdicts_train.csv"),
          tuple(f"model_{m}.json" for m in _ARM_MODELS)),
    Stage("evaluate", "score both arms on the test partition",
          ("train.csv", "test.csv", "rfe.json", "verdicts_train.csv", *(f"model_{m}.json" for m in _ARM_MODELS)),
          ("report.json", "report.txt", *(f"roc_{m}.csv" for m in _ARM_MODELS))),
)
STAGE_NAMES = tuple(stage.name for stage in STAGES)
WRITER = {artifact: stage.name for stage in STAGES for artifact in stage.writes}


@dataclass(frozen=True)
class ThresholdSettings:
    mode: Literal["fixed", "contamination"] = "fixed"
    tau: Annotated[float, "in (0, 1]"] = 0.5  # scores lie in (0, 1]
    fraction: Annotated[float, "in (0, 0.5]"] = 0.1


@dataclass(frozen=True)
class ForestSettings:
    trees: Annotated[int, ">= 1"] = 100
    subsample: Annotated[int, ">= 2"] = 256  # clamped to the training row count at fit time
    threshold: ThresholdSettings = field(default_factory=ThresholdSettings)


@dataclass(frozen=True)
class ClassifierSettings:
    knn_k: Annotated[int, ">= 1"] = 5
    nb_var_smoothing: Annotated[float, "> 0"] = 1e-9
    lr_learning_rate: Annotated[float, "> 0"] = 0.1
    lr_epochs: Annotated[int, ">= 0"] = 300
    lr_l2: Annotated[float, ">= 0"] = 1e-4
    svm_lambda: Annotated[float, "> 0"] = 1e-4
    svm_epochs: Annotated[int, ">= 1"] = 300
    adaboost_stumps: Annotated[int, ">= 1"] = 50


@dataclass(frozen=True)
class PipelineConfig:
    input: str = ""  # required by every command but synth
    target_column: str = "class"
    seed: int | None = None
    out_dir: str | None = None
    split: SplitSettings = field(default_factory=SplitSettings)
    select: SelectSettings = field(default_factory=SelectSettings)
    forest: ForestSettings = field(default_factory=ForestSettings)
    classifiers: ClassifierSettings = field(default_factory=ClassifierSettings)
    scatter_x: str | None = None
    scatter_y: str | None = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)

    def __post_init__(self) -> None:
        """Stop on a setting of the wrong type or outside the range its annotation states,
        naming the dotted field. None of these ranges depends on the data, so they hold
        before any stage runs."""
        check_types(self, "config")


def config_from_dict(doc: dict) -> PipelineConfig:
    return from_doc(PipelineConfig, doc, "config")


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise IsoguardError(f"no such config file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise IsoguardError(f"{path}: config is not UTF-8 text") from None
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested deeper than the parser's stack
        raise IsoguardError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise IsoguardError(f"{path}: config must be a JSON object")
    return config_from_dict(doc)


def config_to_json(section) -> str:
    """A config, or one of its sections, as indented JSON with sorted keys."""
    return json.dumps(to_doc(section), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# artifact helpers


def _require_seed(cfg: PipelineConfig) -> int:
    if cfg.seed is None:
        raise IsoguardError("a master seed is required (config field 'seed' or --seed)")
    return cfg.seed


def _read_artifact_csv(out: Path, name: str, target_column: str, column_names: list[str] | None = None) -> Dataset:
    """A partition: numeric, each row's squared norm within float64, and with rfe.json's columns when given."""
    path = out / name
    try:
        ds = load_csv(path, target_column=target_column)
    except IsoguardError as e:
        raise ArtifactError(str(e), path) from None
    nominal = [n for n, k in zip(ds.feature_names, ds.kinds) if k is not ColumnKind.NUMERIC]
    if nominal:
        raise ArtifactError(f"{name}: column {nominal[0]!r} holds a non-numeric cell", path)
    if column_names is not None and list(ds.feature_names) != column_names:
        raise ArtifactError(
            f"{name}: feature columns differ from the {len(column_names)} that rfe.json records", path, out / "rfe.json"
        )
    with np.errstate(over="ignore"):  # such a row would overflow the kNN distances
        huge = np.flatnonzero(np.isinf(np.einsum("ij,ij->i", ds.rows, ds.rows)))
    if huge.size:
        raise ArtifactError(f"{name}: row {huge[0] + 2} has a squared norm past the float64 range", path)
    return ds


def _read_selected(out: Path, target_column: str, *names: str) -> tuple[RfeResult, list[str], list[Dataset]]:
    """rfe.json's result and column names, and each named partition, which must hold those columns."""
    rfe, column_names = load_rfe(out / "rfe.json")
    return rfe, column_names, [_read_artifact_csv(out, f"{n}.csv", target_column, column_names) for n in names]


def _read_verdict_labels(path: Path, train: Dataset) -> np.ndarray:
    """Verdict labels of ``train``'s rows; the row counts must agree."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)  # the header; an empty file has no rows either, and fails the count below
            labels = [int(rec[3]) for rec in reader]
        except UnicodeDecodeError:
            raise ArtifactError(f"{path.name}: not UTF-8 text", path) from None
        except (IndexError, ValueError, csv.Error):  # csv.Error: a cell longer than csv.field_size_limit(), say
            raise ArtifactError(f"{path.name}: malformed verdict row at line {reader.line_num}", path) from None
    # checked as Python ints, so a label too large for int64 is named rather than overflowing
    bad = next((v for v in labels if v not in (1, -1)), None)
    if bad is not None:
        raise ArtifactError(f"{path.name}: verdict label {bad} is not 1 or -1", path)
    if len(labels) != train.n_rows:
        raise ArtifactError(f"{path.name} has {len(labels)} verdict rows but train.csv has {train.n_rows} rows", path)
    return np.array(labels, dtype=np.int64)


def _arm_rows(train: Dataset, selected: list[int], labels: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each arm's training rows (X, y) at the ``selected`` columns: arm A all, arm B those whose verdict is +1.
    train fits on them and evaluate rebuilds the kNN models from them, so a kNN file's rows_sha256 holds."""
    X, y = train.matrix().take(selected, axis=1), train.target
    keep = labels == 1
    return {"before": (X, y), "after": (X[keep], y[keep])}


# ---------------------------------------------------------------------------
# stages


def _stage(fn):
    """``fn`` run as the stage of its name: only once every artifact it reads is a file, and with each
    IsoguardError re-raised as a PipelineError naming the stage, plus an ArtifactError's rerun advice."""
    stage = STAGES[STAGE_NAMES.index(fn.__name__.removeprefix("stage_"))]

    @functools.wraps(fn)
    def run(cfg: PipelineConfig, out: Path):
        try:
            for name in stage.reads:
                if not (out / name).is_file():  # absent, or a directory in its place
                    raise IsoguardError(f"missing artifact {name}; run the {WRITER[name]} stage first")
            return fn(cfg, out)
        except ArtifactError as e:  # advice naming, in stage order, the stage that writes each file at fault
            at_fault = {WRITER[p.name] for p in e.paths}
            writers = [w for w in STAGE_NAMES if w in at_fault]
            advice = f"rerun the {' and '.join(writers)} stage{'s' * (len(writers) > 1)}"
            raise PipelineError(f"{stage.name}: {e}; {advice}") from e
        except IsoguardError as e:
            raise PipelineError(f"{stage.name}: {e}") from e

    return run


@_stage
def stage_ingest(cfg: PipelineConfig, out: Path) -> None:
    """Load, split, fit encoder+scaler on train only, transform both partitions."""
    seed = _require_seed(cfg)
    # each rebinding of train and test frees the form it replaces
    train, test = train_test_split(
        load_csv(cfg.input, target_column=cfg.target_column), cfg.split, derive_seed(seed, "split")
    )
    encoder = fit_label_encoder(train)
    train, test = apply_label_encoder(train, encoder), apply_label_encoder(test, encoder)
    scaler = fit_scaler(train)
    train, test = apply_scaler(train, scaler), apply_scaler(test, scaler)
    save_transforms(encoder, scaler, out / "transforms.json")
    write_csv(train, out / "train.csv")
    write_csv(test, out / "test.csv")


@_stage
def stage_select(cfg: PipelineConfig, out: Path) -> None:
    """Recursive feature elimination on the transformed training partition."""
    seed = _require_seed(cfg)
    train = _read_artifact_csv(out, "train.csv", cfg.target_column)
    X = train.matrix()
    y = train.target
    cap = cfg.select.sample_cap
    if cap is not None and cap < X.shape[0]:
        rng = np.random.default_rng(derive_seed(seed, "select-sample"))
        keep = np.sort(rng.permutation(X.shape[0])[:cap])
        X, y = X[keep], y[keep]
    result = rfe_select(X, y, cfg.select, derive_seed(seed, "select"))
    save_rfe(result, list(train.feature_names), out / "rfe.json")


@_stage
def stage_detect(cfg: PipelineConfig, out: Path) -> None:
    """Fit the isolation forest on selected training features; emit verdicts and scatter data."""
    seed = _require_seed(cfg)
    rfe, column_names, (train, test) = _read_selected(out, cfg.target_column, "train", "test")
    selected = list(rfe.selected)
    # scatter axes default to the two most important surviving features
    by_importance = np.lexsort((np.array(selected), -rfe.final_importances))
    x_col = cfg.scatter_x or column_names[selected[by_importance[0]]]
    y_col = cfg.scatter_y or column_names[selected[by_importance[min(1, len(selected) - 1)]]]
    for key, col in (("scatter_x", x_col), ("scatter_y", y_col)):
        if col not in column_names:  # checked before any output is written
            raise IsoguardError(f"{key} {col!r} is not a column that rfe.json records")
    X_train = train.matrix()[:, selected]
    m = min(cfg.forest.subsample, X_train.shape[0])
    forest = iforest.fit_forest(X_train, t=cfg.forest.trees, m=m, seed=derive_seed(seed, "forest"))
    ts = cfg.forest.threshold
    kwargs = {"threshold": ts.tau} if ts.mode == "fixed" else {"contamination": ts.fraction}
    labels = {}
    for name, X in (("train", X_train), ("test", test.matrix()[:, selected])):
        s, mean_h = iforest.score_batch(forest, X)
        labels[name] = iforest.label_scores(s, **kwargs)
        columns = [np.arange(s.size), s, mean_h, labels[name]]
        write_table(out / f"verdicts_{name}.csv", ["row", "score", "mean_path", "label"], columns)
    iforest.save_forest(forest, out / "forest.json")
    # (x, y, verdict, class) plot data: every training row, then the rows labelled +1
    header = [x_col, y_col, "verdict", train.target_name]
    xi, yi = column_names.index(x_col), column_names.index(y_col)
    columns = [train.rows[:, xi], train.rows[:, yi], labels["train"], train.target]
    write_table(out / "scatter_full.csv", header, columns)
    write_table(out / "scatter_clean.csv", header, [c[labels["train"] == 1] for c in columns])


def _fit_all(X: np.ndarray, y: np.ndarray, cs: ClassifierSettings) -> dict[str, clf.ClassifierModel]:
    return {
        "knn": clf.knn_fit(X, y, k=cs.knn_k),
        "svm": clf.svm_fit(X, y, lam=cs.svm_lambda, epochs=cs.svm_epochs),
        "nb": clf.gnb_fit(X, y, var_smoothing=cs.nb_var_smoothing),
        "lr": clf.logreg_fit(X, y, learning_rate=cs.lr_learning_rate, epochs=cs.lr_epochs, l2=cs.lr_l2),
        "abc": clf.adaboost_fit(X, y, n_stumps=cs.adaboost_stumps),
    }


@_stage
def stage_train(cfg: PipelineConfig, out: Path) -> None:
    """Train all five classifiers on both arms.

    Arm A uses the full training partition; arm B drops the rows the
    forest flagged -1. The test partition is never touched.
    """
    rfe, _, (train,) = _read_selected(out, cfg.target_column, "train")
    labels = _read_verdict_labels(out / "verdicts_train.csv", train)
    rows = _arm_rows(train, list(rfe.selected), labels)
    for arm, suffix in ARMS:
        X, y = rows[arm]
        emptied = np.setdiff1d(train.target, y)  # classes the partition has but the arm's rows lack
        if emptied.size:
            # a higher tau, or a lower fraction, flags fewer rows
            fixed = cfg.forest.threshold.mode == "fixed"
            advice = "raise forest.threshold.tau" if fixed else "lower forest.threshold.fraction"
            raise IsoguardError(f"outlier removal emptied class {emptied[0]} in the training partition; {advice}")
        for name, model in _fit_all(X, y, cfg.classifiers).items():
            clf.save_model(model, out / f"model_{name}{suffix}.json")


@_stage
def stage_evaluate(cfg: PipelineConfig, out: Path) -> ComparisonReport:
    """Evaluate both arms on the shared test partition and write the reports."""
    rfe, _, (train, test) = _read_selected(out, cfg.target_column, "train", "test")
    labels = _read_verdict_labels(out / "verdicts_train.csv", train)
    selected = list(rfe.selected)
    X_test = test.matrix().take(selected, axis=1)
    y_test = test.target
    training_rows = _arm_rows(train, selected, labels)  # the KNN files refer to these

    arms: dict[str, dict[str, ClassifierEvaluation]] = {"before": {}, "after": {}}
    for arm, suffix in ARMS:
        for name in MODELS:
            path = out / f"model_{name}{suffix}.json"
            model = clf.load_model(path, training_rows[arm])
            with artifact_reader(path):  # parameters that load but overflow when scoring
                scores = clf.score_model(model, X_test)
            arms[arm][name] = evaluate_predictions(y_test, clf.labels_from_scores(model, scores), scores)

    removed = int((labels == -1).sum())
    report = ComparisonReport(
        models=MODELS,
        before=arms["before"],
        after=arms["after"],
        outliers_removed=removed,
        n_train_before=train.n_rows,
        n_train_after=train.n_rows - removed,
        n_test=test.n_rows,
    )
    (out / "report.json").write_text(report_to_json(report) + "\n", encoding="utf-8")
    (out / "report.txt").write_text(render_table(report), encoding="utf-8")
    for name in MODELS:
        write_roc_csv(report.before[name].roc, out / f"roc_{name}.csv")
        write_roc_csv(report.after[name].roc, out / f"roc_{name}_clean.csv")
    return report


def _make_out(cfg: PipelineConfig, name: str, section) -> Path:
    """The output directory, created, with the config ``section`` written in it as the JSON file ``name``."""
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(config_to_json(section) + "\n", encoding="utf-8")
    return out


def _prepare_out(cfg: PipelineConfig) -> Path:
    _require_seed(cfg)
    return _make_out(cfg, "config.resolved.json", cfg)


def run_stage(name: str, cfg: PipelineConfig) -> ComparisonReport | None:
    """Run the stage ``name`` (ingest, select, detect, train or evaluate) alone."""
    if name not in STAGE_NAMES:
        raise IsoguardError(f"unknown stage {name!r}; expected one of {', '.join(STAGE_NAMES)}")
    return globals()[f"stage_{name}"](cfg, _prepare_out(cfg))  # the module global, as rebound if it is


def run_pipeline(cfg: PipelineConfig) -> ComparisonReport:
    """Run every stage in order into one output directory; evaluate, the last, gives the report."""
    out = _prepare_out(cfg)
    for stage in STAGES:
        result = globals()[f"stage_{stage.name}"](cfg, out)  # the module global, as rebound if it is
    return result


def run_synth(cfg: PipelineConfig) -> Path:
    """Generate the configured synthetic dataset; returns the CSV path."""
    spec = cfg.synthetic
    if cfg.seed is not None:
        spec = replace(spec, seed=cfg.seed)
    ds, mask = generate_synthetic(spec)  # a bad spec failed when the config was built
    out = _make_out(cfg, "synthetic_spec.json", spec)
    write_csv(ds, out / "synthetic.csv")
    write_injection_mask(mask, out / "synthetic_mask.csv")
    return out / "synthetic.csv"
