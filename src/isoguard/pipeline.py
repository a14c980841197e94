"""End-to-end experiment: ingest -> select -> detect -> train -> evaluate.

The experiment has two arms sharing one frozen test partition. Arm A
trains the five baseline classifiers on the full training partition; arm B
first drops the training rows the isolation forest flags as outliers, then
retrains. The report compares both arms per classifier.

Every stage reads and writes plain artifacts (CSV/JSON) in the output
directory, so the monolithic run and the stage-by-stage subcommands are
the same code path and produce identical bytes for identical seeds. All
stage seeds derive from the single master seed.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import classifiers as clf
from . import iforest
from .codec import from_doc, to_doc
from .data import (
    ColumnKind,
    Dataset,
    SplitSpec,
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
from .errors import IsoguardError, PipelineError, checked_int
from .evaluation import (
    ClassifierEvaluation,
    ComparisonReport,
    compare,
    evaluate_predictions,
    render_table,
    report_to_json,
    write_roc_csv,
)
from .feature_selection import ExtraTreesParams, RfeResult, load_rfe, rfe_select, save_rfe
from .prng import derive_seed
from .synthetic import SyntheticSpec, generate_synthetic, write_injection_mask

MODELS = ("knn", "svm", "nb", "lr", "abc")
STAGES = ("ingest", "select", "detect", "train", "evaluate")


@dataclass(frozen=True)
class SplitSettings:
    test_fraction: float = 0.2
    stratified: bool = True


@dataclass(frozen=True)
class SelectSettings:
    target_count: int = 15
    step: int = 1
    n_trees: int = 50
    max_depth: int | None = None
    min_samples_split: int = 2
    sample_cap: int | None = None  # optional row cap for the selector fits on large data


@dataclass(frozen=True)
class ThresholdSettings:
    mode: str = "fixed"  # "fixed" or "contamination"
    tau: float = 0.5
    fraction: float = 0.1


@dataclass(frozen=True)
class ForestSettings:
    trees: int = 100
    subsample: int = 256  # clamped to the training row count at fit time
    threshold: ThresholdSettings = field(default_factory=ThresholdSettings)


@dataclass(frozen=True)
class ClassifierSettings:
    knn_k: int = 5
    nb_var_smoothing: float = 1e-9
    lr_learning_rate: float = 0.1
    lr_epochs: int = 300
    lr_l2: float = 1e-4
    svm_lambda: float = 1e-4
    svm_epochs: int = 300
    adaboost_stumps: int = 50


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


def config_from_dict(doc: dict) -> PipelineConfig:
    cfg = from_doc(PipelineConfig, doc, "config")
    _threshold_kwargs(cfg.forest.threshold)  # a bad mode fails here, before any stage runs
    return cfg


def load_config(path: str | Path) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise IsoguardError(f"no such config file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise IsoguardError(f"{path}: config is not UTF-8 text") from None
    except json.JSONDecodeError as e:
        raise IsoguardError(f"{path}: invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise IsoguardError(f"{path}: config must be a JSON object")
    return config_from_dict(doc)


def config_to_json(cfg: PipelineConfig) -> str:
    return json.dumps(to_doc(cfg), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# artifact helpers


def _require_seed(cfg: PipelineConfig) -> int:
    if cfg.seed is None:
        raise IsoguardError("a master seed is required (config field 'seed' or --seed)")
    return cfg.seed


def _stage_error(stage: str, err: Exception) -> PipelineError:
    return PipelineError(f"{stage}: {err}")


def _artifact(path: Path, stage: str) -> Path:
    """``path`` if it is a file; otherwise (absent, or a directory) an error naming the stage that writes it."""
    if not path.is_file():
        raise IsoguardError(f"missing artifact {path.name}; run the {stage} stage first")
    return path


def _read_artifact_csv(out: Path, name: str, target_column: str, column_names: list[str] | None = None) -> Dataset:
    """A partition written by ingest: numeric only, and with the columns rfe.json records when given."""
    ds = load_csv(_artifact(out / name, "ingest"), target_column=target_column)
    nominal = [n for n, k in zip(ds.feature_names, ds.kinds) if k is not ColumnKind.NUMERIC]
    if nominal:
        raise IsoguardError(f"{name}: column {nominal[0]!r} holds a non-numeric cell; rerun the ingest stage")
    if column_names is not None and list(ds.feature_names) != column_names:
        raise IsoguardError(
            f"{name}: feature columns differ from the {len(column_names)} that rfe.json records; "
            "rerun the ingest and select stages"
        )
    return ds


def _read_rfe(out: Path) -> tuple[RfeResult, list[str]]:
    return load_rfe(_artifact(out / "rfe.json", "select"))


def _read_verdict_labels(path: Path, train: Dataset) -> np.ndarray:
    """Verdict labels of ``train``'s rows; the row counts must agree."""
    with open(_artifact(path, "detect"), newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            next(reader, None)  # the header; an empty file has no rows either, and fails the count below
            labels = [int(rec[3]) for rec in reader]
        except UnicodeDecodeError:
            raise IsoguardError(f"{path.name}: not UTF-8 text; rerun the detect stage") from None
        except (IndexError, ValueError):
            raise IsoguardError(
                f"{path.name}: malformed verdict row at line {reader.line_num}; rerun the detect stage"
            ) from None
    # checked as Python ints, so a label too large for int64 is named rather than overflowing
    bad = next((v for v in labels if v not in (1, -1)), None)
    if bad is not None:
        raise IsoguardError(f"{path.name}: verdict label {bad} is not 1 or -1; rerun the detect stage")
    if len(labels) != train.n_rows:
        raise IsoguardError(
            f"{path.name} has {len(labels)} verdict rows but train.csv has {train.n_rows} rows; "
            "rerun the detect stage"
        )
    return np.array(labels, dtype=np.int64)


def emit_scatter(
    ds: Dataset,
    verdict_labels: np.ndarray,
    x_col: str,
    y_col: str,
    full_path: str | Path,
    clean_path: str | Path,
) -> None:
    """Write (x, y, verdict, class) CSVs: the full data and the verdict=+1 subset."""
    xi = ds.column_index(x_col)
    yi = ds.column_index(y_col)
    if len(verdict_labels) != ds.n_rows:
        raise IsoguardError("verdicts are not aligned with the dataset rows")
    X = ds.matrix()
    verdicts = np.asarray(verdict_labels, dtype=np.int64)
    header = [x_col, y_col, "verdict", ds.target_name]
    columns = [X[:, xi], X[:, yi], verdicts, ds.target.astype(np.int64)]
    write_table(full_path, header, columns)
    write_table(clean_path, header, [c[verdicts == 1] for c in columns])


# ---------------------------------------------------------------------------
# stages


def stage_ingest(cfg: PipelineConfig, out: Path) -> None:
    """Load, split, fit encoder+scaler on train only, transform both partitions."""
    try:
        seed = _require_seed(cfg)
        raw = load_csv(cfg.input, target_column=cfg.target_column)
        split = SplitSpec(
            test_fraction=cfg.split.test_fraction,
            seed=derive_seed(seed, "split"),
            stratified=cfg.split.stratified,
        )
        train_raw, test_raw = train_test_split(raw, split)
        encoder = fit_label_encoder(train_raw)
        train_enc = apply_label_encoder(train_raw, encoder)
        test_enc = apply_label_encoder(test_raw, encoder)
        scaler = fit_scaler(train_enc)
        train = apply_scaler(train_enc, scaler)
        test = apply_scaler(test_enc, scaler)
        save_transforms(encoder, scaler, out / "transforms.json")
        write_csv(train, out / "train.csv")
        write_csv(test, out / "test.csv")
    except IsoguardError as e:
        raise _stage_error("ingest", e) from e


def stage_select(cfg: PipelineConfig, out: Path) -> None:
    """Recursive feature elimination on the transformed training partition."""
    try:
        seed = _require_seed(cfg)
        train = _read_artifact_csv(out, "train.csv", cfg.target_column)
        X = train.matrix()
        y = train.target
        cap = cfg.select.sample_cap
        if cap is not None and checked_int(cap, "select.sample_cap", 1) < X.shape[0]:
            rng = np.random.default_rng(derive_seed(seed, "select-sample"))
            keep = np.sort(rng.permutation(X.shape[0])[:cap])
            X, y = X[keep], y[keep]
        params = ExtraTreesParams(
            n_trees=cfg.select.n_trees,
            max_depth=cfg.select.max_depth,
            min_samples_split=cfg.select.min_samples_split,
            seed=derive_seed(seed, "select"),
        )
        result = rfe_select(X, y, target_count=cfg.select.target_count, step=cfg.select.step, params=params)
        save_rfe(result, list(train.feature_names), out / "rfe.json")
    except IsoguardError as e:
        raise _stage_error("select", e) from e


def _threshold_kwargs(ts: ThresholdSettings) -> dict:
    if ts.mode == "fixed":
        return {"threshold": ts.tau}
    if ts.mode == "contamination":
        return {"contamination": ts.fraction}
    raise IsoguardError(f"forest.threshold.mode must be 'fixed' or 'contamination', got {ts.mode!r}")


def stage_detect(cfg: PipelineConfig, out: Path) -> None:
    """Fit the isolation forest on selected training features; emit verdicts and scatter data."""
    try:
        seed = _require_seed(cfg)
        rfe, column_names = _read_rfe(out)
        train = _read_artifact_csv(out, "train.csv", cfg.target_column, column_names)
        test = _read_artifact_csv(out, "test.csv", cfg.target_column, column_names)
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
        kwargs = _threshold_kwargs(cfg.forest.threshold)
        labels = {}
        for name, X in (("train", X_train), ("test", test.matrix()[:, selected])):
            s, mean_h = iforest.score_batch(forest, X)
            labels[name] = iforest.label_scores(s, **kwargs)
            columns = [np.arange(s.size), s, mean_h, labels[name]]
            write_table(out / f"verdicts_{name}.csv", ["row", "score", "mean_path", "label"], columns)
        iforest.save_forest(forest, out / "forest.json")
        emit_scatter(train, labels["train"], x_col, y_col, out / "scatter_full.csv", out / "scatter_clean.csv")
    except IsoguardError as e:
        raise _stage_error("detect", e) from e


def _fit_all(X: np.ndarray, y: np.ndarray, cs: ClassifierSettings) -> dict[str, clf.ClassifierModel]:
    return {
        "knn": clf.knn_fit(X, y, k=cs.knn_k),
        "svm": clf.svm_fit(X, y, lam=cs.svm_lambda, epochs=cs.svm_epochs),
        "nb": clf.gnb_fit(X, y, var_smoothing=cs.nb_var_smoothing),
        "lr": clf.logreg_fit(X, y, learning_rate=cs.lr_learning_rate, epochs=cs.lr_epochs, l2=cs.lr_l2),
        "abc": clf.adaboost_fit(X, y, n_stumps=cs.adaboost_stumps),
    }


def stage_train(cfg: PipelineConfig, out: Path) -> None:
    """Train all five classifiers on both arms.

    Arm A uses the full training partition; arm B drops the rows the
    forest flagged -1. The test partition is never touched.
    """
    try:
        rfe, column_names = _read_rfe(out)
        train = _read_artifact_csv(out, "train.csv", cfg.target_column, column_names)
        labels = _read_verdict_labels(out / "verdicts_train.csv", train)
        X = train.matrix()[:, list(rfe.selected)]
        y = train.target

        models = _fit_all(X, y, cfg.classifiers)
        for name, model in models.items():
            clf.save_model(model, out / f"model_{name}.json")

        keep = labels == 1
        y_clean = y[keep]
        for cls in (0, 1):
            if not (y_clean == cls).any():
                raise IsoguardError(
                    f"outlier removal emptied class {cls} in the training partition; "
                    "lower the threshold or contamination fraction"
                )
        if keep.all():  # nothing removed: arm B trains on the identical data
            clean_models = models
        else:
            clean_models = _fit_all(X[keep], y_clean, cfg.classifiers)
        for name, model in clean_models.items():
            clf.save_model(model, out / f"model_{name}_clean.json")
    except IsoguardError as e:
        raise _stage_error("train", e) from e


def stage_evaluate(cfg: PipelineConfig, out: Path) -> ComparisonReport:
    """Evaluate both arms on the shared test partition and write the reports."""
    try:
        rfe, column_names = _read_rfe(out)
        train = _read_artifact_csv(out, "train.csv", cfg.target_column, column_names)
        test = _read_artifact_csv(out, "test.csv", cfg.target_column, column_names)
        labels = _read_verdict_labels(out / "verdicts_train.csv", train)
        X_test = test.matrix()[:, list(rfe.selected)]
        y_test = test.target

        arms: dict[str, dict[str, ClassifierEvaluation]] = {}
        for arm, suffix in (("before", ""), ("after", "_clean")):
            evaluations: dict[str, ClassifierEvaluation] = {}
            for name in MODELS:
                model = clf.load_model(_artifact(out / f"model_{name}{suffix}.json", "train"))
                scores = clf.score_model(model, X_test)
                evaluations[name] = evaluate_predictions(y_test, clf.labels_from_scores(model, scores), scores)
            arms[arm] = evaluations

        removed = int((labels == -1).sum())
        report = compare(
            arms["before"],
            arms["after"],
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
    except IsoguardError as e:
        raise _stage_error("evaluate", e) from e


def _prepare_out(cfg: PipelineConfig) -> Path:
    """The run's output directory, created, with ``config.resolved.json`` written in it."""
    _require_seed(cfg)
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.resolved.json").write_text(config_to_json(cfg) + "\n", encoding="utf-8")
    return out


def run_stage(name: str, cfg: PipelineConfig) -> ComparisonReport | None:
    """Run the stage ``name`` (ingest, select, detect, train or evaluate) alone."""
    if name not in STAGES:
        raise IsoguardError(f"unknown stage {name!r}; expected one of {', '.join(STAGES)}")
    return globals()[f"stage_{name}"](cfg, _prepare_out(cfg))  # the module global, as rebound if it is


def run_pipeline(cfg: PipelineConfig) -> ComparisonReport:
    """Run every stage in order into one output directory."""
    out = _prepare_out(cfg)
    stage_ingest(cfg, out)
    stage_select(cfg, out)
    stage_detect(cfg, out)
    stage_train(cfg, out)
    return stage_evaluate(cfg, out)


def run_synth(cfg: PipelineConfig) -> Path:
    """Generate the configured synthetic dataset; returns the CSV path."""
    spec = cfg.synthetic
    if cfg.seed is not None:
        spec = replace(spec, seed=cfg.seed)
    ds, mask = generate_synthetic(spec)  # a bad spec fails here, before the output directory exists
    out = Path(cfg.out_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "synthetic.csv"
    write_csv(ds, csv_path)
    write_injection_mask(mask, out / "synthetic_mask.csv")
    (out / "synthetic_spec.json").write_text(
        json.dumps(to_doc(spec), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return csv_path
