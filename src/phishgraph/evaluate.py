"""Stratified splitting, class weights, confusion counts, metrics, reports.

Splitting happens at the address level, stratified by address label, so all
of an address's transactions follow it into its partition. Metrics follow
the usual definitions with phishing as the positive class; every 0/0 case
collapses to 0, which is what lets a degenerate all-benign prediction report
a phishing recall of exactly zero. Values are kept at full precision and
rounded to two decimals only in the human-readable table. Class weights are
the one imbalance rule that the GCN loss and the balanced forest share. A
split ratio outside (0, 1) or a negative split seed is an ``InvalidConfig``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ClassAbsent, EmptyMask, InvalidConfig, ShapeMismatch
from .storage import write_json

_CLASSES = ("benign", "phishing")


@dataclass
class SplitMasks:
    train_mask: np.ndarray
    test_mask: np.ndarray


def stratified_split(
    labels: np.ndarray, ratio: float = 0.8, seed: int = 0
) -> SplitMasks:
    """Shuffle within each class and cut at floor(ratio * class size).

    The remainder goes to test, so per-class proportions deviate from the
    ratio by at most one element. A ratio outside (0, 1) or a negative seed
    is an ``InvalidConfig``; a split that leaves either side without an
    address is an ``EmptyMask``.
    """
    if not 0.0 < ratio < 1.0:
        raise InvalidConfig(f"split ratio must lie in (0, 1), got {ratio}")
    if seed < 0:
        raise InvalidConfig(f"split seed must be non-negative, got {seed}")
    labels = np.asarray(labels, dtype=np.int64)
    rng = np.random.default_rng(seed)
    train = np.zeros(len(labels), dtype=bool)
    test = np.zeros(len(labels), dtype=bool)
    for code in (0, 1):
        members = np.nonzero(labels == code)[0]
        if members.size == 0:
            continue
        shuffled = members[rng.permutation(members.size)]
        # floor() with a tiny nudge so exact products are not lost to float error
        cut = int(math.floor(ratio * members.size + 1e-9))
        train[shuffled[:cut]] = True
        test[shuffled[cut:]] = True
    for side, mask in (("train", train), ("test", test)):
        if not mask.any():
            raise EmptyMask(
                f"split ratio {ratio} leaves the {side} side of {len(labels)} "
                "addresses empty"
            )
    return SplitMasks(train_mask=train, test_mask=test)


def class_weights(
    labels: np.ndarray,
    mode: str = "inverse_frequency",
    manual: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """(w_benign, w_phishing) for the given training labels.

    Inverse frequency means w_c = N / (2 * N_c): with both classes present it
    makes the two classes contribute equal total weight to the loss. The mode
    and the pair are trusted: ``GcnConfig`` checks them; the forest's are fixed.
    """
    if mode == "uniform":
        return (1.0, 1.0)
    if mode == "manual":
        return (float(manual[0]), float(manual[1]))
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    counts = np.bincount(labels, minlength=2)
    if counts[0] == 0 or counts[1] == 0:
        raise ClassAbsent(
            "inverse-frequency weighting needs both classes in the training labels"
        )
    return (n / (2.0 * counts[0]), n / (2.0 * counts[1]))


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with phishing as the positive class."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(
    pred: np.ndarray, truth: np.ndarray, mask: np.ndarray | None = None
) -> ConfusionMatrix:
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise ShapeMismatch("prediction and truth vectors differ in length")
    if mask is None:
        mask = np.ones(pred.shape, dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != pred.shape:
            raise ShapeMismatch("mask length differs from vectors")
    p, t = pred[mask], truth[mask]
    return ConfusionMatrix(
        tp=int(np.sum((p == 1) & (t == 1))),
        fp=int(np.sum((p == 1) & (t == 0))),
        fn=int(np.sum((p == 0) & (t == 1))),
        tn=int(np.sum((p == 0) & (t == 0))),
    )


@dataclass
class MetricsReport:
    accuracy: float
    precision: dict[str, float]
    recall: dict[str, float]
    f1: dict[str, float]
    support: dict[str, int]
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "per_class": {
                cls: {
                    "precision": self.precision[cls],
                    "recall": self.recall[cls],
                    "f1": self.f1[cls],
                    "support": self.support[cls],
                }
                for cls in _CLASSES
            },
            "weighted": {
                "precision": self.weighted_precision,
                "recall": self.weighted_recall,
                "f1": self.weighted_f1,
            },
        }


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    """Accuracy plus per-class and support-weighted precision/recall/F1."""
    precision = {
        "phishing": _safe_div(cm.tp, cm.tp + cm.fp),
        "benign": _safe_div(cm.tn, cm.tn + cm.fn),
    }
    recall = {
        "phishing": _safe_div(cm.tp, cm.tp + cm.fn),
        "benign": _safe_div(cm.tn, cm.tn + cm.fp),
    }
    f1 = {
        cls: _safe_div(
            2 * precision[cls] * recall[cls], precision[cls] + recall[cls]
        )
        for cls in _CLASSES
    }
    support = {"phishing": cm.tp + cm.fn, "benign": cm.tn + cm.fp}
    total = cm.total

    def weighted(metric: dict[str, float]) -> float:
        return _safe_div(
            sum(metric[c] * support[c] for c in _CLASSES), sum(support.values())
        )

    return MetricsReport(
        accuracy=_safe_div(cm.tp + cm.tn, total),
        precision=precision,
        recall=recall,
        f1=f1,
        support=support,
        weighted_precision=weighted(precision),
        weighted_recall=weighted(recall),
        weighted_f1=weighted(f1),
    )


def format_metrics_table(report: MetricsReport) -> str:
    """Aligned text table: rows Precision/Recall/F1, columns per class."""
    header = f"{'Metric':<12}{'Benign':>10}{'Phishing':>10}{'Weighted Avg':>14}"
    lines = [header, "-" * len(header)]
    rows = (
        ("Precision", "precision", "weighted_precision"),
        ("Recall", "recall", "weighted_recall"),
        ("F1-Score", "f1", "weighted_f1"),
    )
    for title, attr, wattr in rows:
        per = getattr(report, attr)
        lines.append(
            f"{title:<12}{per['benign']:>10.2f}{per['phishing']:>10.2f}"
            f"{getattr(report, wattr):>14.2f}"
        )
    lines.append(
        f"{'Accuracy':<12}{report.accuracy:>10.2f}    "
        f"(support: benign {report.support['benign']}, "
        f"phishing {report.support['phishing']})"
    )
    return "\n".join(lines) + "\n"


def emit_report(
    out_dir: str | Path,
    metrics_report: MetricsReport | None = None,
    train_report=None,
) -> tuple[Path, Path]:
    """Write metrics.json (machine) and report.txt (human) into out_dir.

    Sections are omitted when their component is absent. Volatile values such
    as wall time are deliberately excluded so reruns are byte-identical.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    document: dict = {}
    if metrics_report is not None:
        document["metrics"] = metrics_report.to_dict()
    if train_report is not None:
        document["training"] = train_report.to_dict()

    json_path = out_dir / "metrics.json"
    text_path = out_dir / "report.txt"
    write_json(json_path, document)
    text = format_metrics_table(metrics_report) if metrics_report is not None else ""
    text_path.write_text(text, encoding="utf-8")
    return json_path, text_path
