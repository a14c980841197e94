"""Isolation-forest outlier removal for binary-labeled tabular data.

The library covers the full experiment: CSV ingestion with label encoding
and standard scaling, recursive feature elimination backed by extremely
randomized trees, an isolation forest with path-length anomaly scores,
five baseline classifiers, confusion/ROC evaluation, and a reproducible
pipeline that compares classifier quality before and after removing the
training rows flagged as outliers.
"""
from .classifiers import ClassifierSettings
from .data import (
    ColumnKind,
    ColumnStats,
    Dataset,
    SplitSettings,
    apply_label_encoder,
    apply_scaler,
    fit_label_encoder,
    fit_scaler,
    load_csv,
    load_transforms,
    save_transforms,
    train_test_split,
    write_csv,
)
from .errors import IsoguardError, PipelineError
from .evaluation import (
    ClassifierEvaluation,
    ComparisonReport,
    ConfusionCounts,
    MetricSet,
    RocCurve,
    confusion,
    evaluate_predictions,
    metrics,
    metrics_weighted,
    render_table,
    roc,
)
from .feature_selection import (
    ExtraTreesEstimator,
    RfeResult,
    SelectSettings,
    fit_extra_trees,
    rfe_select,
)
from .iforest import (
    AnomalyScore,
    IsolationForest,
    ITree,
    OutlierVerdict,
    Verdicts,
    build_itree,
    expected_path_length,
    fit_forest,
    forest_from_json,
    forest_to_json,
    harmonic_number,
    mean_path_lengths,
    predict,
    score_batch,
)
from .pipeline import PipelineConfig, load_config, run_pipeline, run_synth
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"
