"""Phishing-address detection over Ethereum-style transaction graphs.

Pipeline: ingest and label transaction records, build the address graph,
extract explicit or implicit behavioral features, train a weighted-loss
graph convolutional classifier, rank features with a random forest, and
emit evaluation reports. A synthetic generator makes the whole pipeline
testable at desk scale.
"""

__version__ = "0.1.0"

from .errors import PipelineError
from .txmodel import (
    Address,
    Label,
    LabeledDataset,
    LabelProvenance,
    Transaction,
    canonicalize_address,
    parse_wei,
    to_decimal,
)
from .ingest import (
    CleanReport,
    ParseResult,
    PhishingList,
    clean,
    label_dataset,
    parse_etherscan_csv,
    parse_etherscan_json,
)
from .synthetic import SyntheticConfig, generate_synthetic
from .graph import (
    GraphBatch,
    SparseMatrix,
    TxGraph,
    build_graph,
    normalized_adjacency,
    spmv,
    to_training_inputs,
)
from .features import (
    EXPLICIT_FEATURE_NAMES,
    IMPLICIT_FEATURE_NAMES,
    FeatureMatrix,
    extract_explicit,
    extract_implicit,
    fit_minmax,
)
from .stats import (
    ClassFeatureStats,
    Forest,
    ForestConfig,
    class_feature_stats,
    feature_importance,
    train_forest,
)
from .gcn import (
    GcnConfig,
    GcnModel,
    TrainReport,
    class_weights,
    forward,
    predict,
    train,
    weighted_ce_loss,
)
from .evaluate import (
    ConfusionMatrix,
    MetricsReport,
    SplitMasks,
    confusion,
    emit_report,
    metrics,
    stratified_split,
)
from .storage import load_dataset, save_dataset

__all__ = [
    "Address",
    "CleanReport",
    "ClassFeatureStats",
    "ConfusionMatrix",
    "EXPLICIT_FEATURE_NAMES",
    "FeatureMatrix",
    "Forest",
    "ForestConfig",
    "GcnConfig",
    "GcnModel",
    "GraphBatch",
    "IMPLICIT_FEATURE_NAMES",
    "Label",
    "LabelProvenance",
    "LabeledDataset",
    "MetricsReport",
    "ParseResult",
    "PhishingList",
    "PipelineError",
    "SparseMatrix",
    "SplitMasks",
    "SyntheticConfig",
    "TrainReport",
    "Transaction",
    "TxGraph",
    "build_graph",
    "canonicalize_address",
    "class_feature_stats",
    "class_weights",
    "clean",
    "confusion",
    "emit_report",
    "extract_explicit",
    "extract_implicit",
    "feature_importance",
    "fit_minmax",
    "forward",
    "generate_synthetic",
    "label_dataset",
    "load_dataset",
    "metrics",
    "normalized_adjacency",
    "parse_etherscan_csv",
    "parse_etherscan_json",
    "parse_wei",
    "predict",
    "save_dataset",
    "spmv",
    "stratified_split",
    "to_decimal",
    "to_training_inputs",
    "train",
    "train_forest",
    "weighted_ce_loss",
]
