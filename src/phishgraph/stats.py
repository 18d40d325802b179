"""Per-class feature statistics and a from-scratch random forest.

The forest exists to rank feature importance, not to serve as the production
classifier. Trees are grown on bootstrap samples with Gini impurity; the best
(feature, threshold) is searched over a random feature subset per node with
thresholds at midpoints of consecutive distinct values. All randomness comes
from per-tree seeds derived from one forest seed, making training fully
deterministic. ``balanced`` weighs each class by ``class_weights``'
inverse-frequency rule w_c = N / (2 * N_c), the rule the GCN loss uses;
otherwise w_c = 1. A node's class mass is w_c times its count of that class's
rows, bootstrap repeats included, so it is rounded once in either mode, and
ties in Gini gain resolve to the lowest feature index and then the lowest
threshold. One Gini rule, ``_gini``, scores parents, children and stored
nodes in plain float64 products, with no BLAS call, so the trees and their
importance do not depend on the CPU's BLAS kernel. ``ForestConfig`` checks
its fields when it is built; ``train_forest`` checks only what depends on
the data, that ``feature_subsample`` does not exceed the feature count.

The split search sorts no column per node. Each feature is rank-encoded once
per forest, and a node is the array of bootstrap rows it holds. Per drawn
feature, two histograms of the node's ranks with one bin per distinct value
(rows, phishing rows) give by cumulative sums the class counts left of every
threshold: LightGBM's histogram search (Ke et al., 2017) without its binning.

Importance is mean decrease in impurity: per tree, each split contributes its
weighted impurity decrease to the split feature; per-tree vectors are
normalized, averaged across trees, and renormalized to sum to one. Because
gains depend only on the induced partitions, positively rescaling a feature
column cannot change the ranking.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidConfig, ShapeMismatch, SingleClass
from .evaluate import _CLASSES, class_weights
from .features import FeatureMatrix
from .storage import write_json


@dataclass
class ClassFeatureStats:
    """Per feature x class mean / max / population std, plus supports."""

    feature_names: tuple[str, ...]
    mean: dict[str, np.ndarray]
    max: dict[str, np.ndarray]
    std: dict[str, np.ndarray]
    support: dict[str, int]

    def present(self, class_name: str) -> bool:
        return self.support[class_name] > 0

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["feature", "class", "support", "mean", "max", "std"])
            for i, name in enumerate(self.feature_names):
                for cls in _CLASSES:
                    if self.present(cls):
                        writer.writerow(
                            [
                                name,
                                cls,
                                self.support[cls],
                                repr(float(self.mean[cls][i])),
                                repr(float(self.max[cls][i])),
                                repr(float(self.std[cls][i])),
                            ]
                        )
                    else:
                        writer.writerow([name, cls, 0, "", "", ""])


def class_feature_stats(X: FeatureMatrix, labels: np.ndarray) -> ClassFeatureStats:
    """Raw-scale per-class statistics; an absent class is reported, not fatal."""
    labels = np.asarray(labels)
    if labels.shape != (X.rows.shape[0],):
        raise ShapeMismatch("labels length != feature rows")
    mean: dict[str, np.ndarray] = {}
    mx: dict[str, np.ndarray] = {}
    std: dict[str, np.ndarray] = {}
    support: dict[str, int] = {}
    d = X.n_features
    for code, cls in enumerate(_CLASSES):
        rows = X.rows[labels == code]
        support[cls] = rows.shape[0]
        if rows.shape[0] == 0:
            mean[cls] = np.full(d, np.nan)
            mx[cls] = np.full(d, np.nan)
            std[cls] = np.full(d, np.nan)
        else:
            mean[cls] = rows.mean(axis=0)
            mx[cls] = rows.max(axis=0)
            std[cls] = rows.std(axis=0)
    return ClassFeatureStats(X.names, mean, mx, std, support)


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 100
    max_depth: int = 12
    feature_subsample: int | None = None  # default: ceil(sqrt(n_features))
    min_leaf: int = 2
    seed: int = 0
    balanced: bool = False  # inverse-frequency class weights

    def __post_init__(self):
        if self.n_trees < 1:
            raise InvalidConfig("need at least one tree")
        if self.n_trees >= 2**63:  # one int64 seed is drawn per tree
            raise InvalidConfig(f"n_trees must be below 2**63, not {self.n_trees}")
        if self.max_depth < 1:
            raise InvalidConfig("max_depth must be positive")
        if self.min_leaf < 1:
            raise InvalidConfig("min_leaf must be positive")
        if self.seed < 0:
            raise InvalidConfig(f"forest seed must be non-negative, got {self.seed}")
        if self.feature_subsample is not None and self.feature_subsample < 1:
            raise InvalidConfig("feature_subsample must be positive")

    def resolved_subsample(self, n_features: int) -> int:
        if self.feature_subsample is not None:
            return self.feature_subsample
        return max(1, math.ceil(math.sqrt(n_features)))


@dataclass
class DecisionTree:
    """Array-of-nodes binary tree; feature == -1 marks a leaf."""

    feature: np.ndarray       # (n_nodes,) int
    threshold: np.ndarray     # (n_nodes,) float
    left: np.ndarray          # (n_nodes,) int, -1 for leaves
    right: np.ndarray
    class_counts: np.ndarray  # (n_nodes, 2) class masses, w_c * row count
    impurity: np.ndarray      # (n_nodes,) Gini at the node
    weight: np.ndarray        # (n_nodes,) total class mass at the node


@dataclass
class Forest:
    trees: list[DecisionTree]
    feature_names: tuple[str, ...]


def _gini(c0, c1):
    """Gini impurity of class masses (scalars or arrays) with a positive sum;
    squares are products, so scalar and array calls round alike."""
    p0, p1 = c0 / (c0 + c1), c1 / (c0 + c1)
    return 1.0 - (p1 * p1 + p0 * p0)


class _TreeBuilder:
    """Grows one tree; a node is the array of the forest rows it holds."""

    def __init__(
        self,
        codes: tuple[np.ndarray, ...],
        values: tuple[np.ndarray, ...],
        y: np.ndarray,
        weights: tuple[float, float],
        cfg: ForestConfig,
        rng: np.random.Generator,
    ):
        self.codes = codes      # per feature, the rank of each row's value
        self.values = values    # per feature, the ascending distinct values
        self.y = y
        self.w0, self.w1 = weights  # the mass of one benign, one phishing row
        self.cfg = cfg
        self.rng = rng
        self.n_features = len(values)
        self.k = cfg.resolved_subsample(self.n_features)
        self.nodes: list[list] = []  # [feature, threshold, left, right, counts]

    def grow(self, idx: np.ndarray, depth: int) -> int:
        y = self.y[idx]
        n1 = int(y.sum())
        counts = np.array([self.w0 * (len(idx) - n1), self.w1 * n1])
        node = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, counts])
        if (
            depth >= self.cfg.max_depth
            or len(idx) < 2 * self.cfg.min_leaf
            or not 0 < n1 < len(idx)
        ):
            return node
        split = self._best_split(idx, y, n1)
        if split is None:
            return node
        f, thr, left_idx, right_idx = split
        self.nodes[node][:2] = f, thr
        self.nodes[node][2] = self.grow(left_idx, depth + 1)
        self.nodes[node][3] = self.grow(right_idx, depth + 1)
        return node

    def _best_split(self, idx: np.ndarray, y: np.ndarray, n1: int):
        """Best (feature, threshold) by weighted Gini gain over a random subset.

        ``y`` holds the labels of the node's rows ``idx``, ``n1`` of them
        phishing. Candidate features are scanned in ascending index and
        thresholds in ascending value with strict improvement required, which
        pins the tie-break order. Returns None when no split improves impurity.
        """
        features = np.sort(
            self.rng.choice(self.n_features, size=self.k, replace=False)
        )
        n = len(idx)
        n0 = n - n1
        w0, w1 = self.w0, self.w1
        total_w = w0 * n0 + w1 * n1
        parent_gini = _gini(w0 * n0, w1 * n1)

        best_gain = 0.0
        best = None
        for f in features:
            key = self.codes[f][idx]
            count = np.bincount(key)
            present = np.flatnonzero(count)
            cut_bins = present[:-1]
            n_left = np.cumsum(count[cut_bins])
            valid = (n_left >= self.cfg.min_leaf) & (
                n - n_left >= self.cfg.min_leaf
            )
            if not valid.any():
                continue
            cuts = np.flatnonzero(valid)
            l1 = np.cumsum(np.bincount(key, weights=y)[cut_bins])[cuts]
            l0 = n_left[cuts] - l1
            lw0, lw1 = w0 * l0, w1 * l1
            rw0, rw1 = w0 * (n0 - l0), w1 * (n1 - l1)
            # no division by zero: a valid cut leaves at least min_leaf >= 1
            # rows on each side, and both class weights are positive
            child = (
                (lw0 + lw1) * _gini(lw0, lw1) + (rw0 + rw1) * _gini(rw0, rw1)
            ) / total_w
            gain = parent_gini - child
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                j = cuts[pos]
                below, above = self.values[f][present[j : j + 2]]
                thr = float((below + above) / 2.0)
                best_gain = float(gain[pos])
                best = (int(f), thr, key <= cut_bins[j])

        if best is None:
            return None
        f, thr, go_left = best
        return f, thr, idx[go_left], idx[~go_left]

    def build(self, bootstrap: np.ndarray) -> DecisionTree:
        self.grow(bootstrap, 0)
        feature, threshold, left, right, counts = zip(*self.nodes)
        counts = np.array(counts)
        return DecisionTree(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            class_counts=counts,
            impurity=_gini(counts[:, 0], counts[:, 1]),
            weight=counts[:, 0] + counts[:, 1],
        )


def train_forest(
    X: FeatureMatrix, labels: np.ndarray, cfg: ForestConfig | None = None
) -> Forest:
    cfg = cfg or ForestConfig()
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (X.rows.shape[0],):
        raise ShapeMismatch("labels length != feature rows")
    if len(np.unique(labels)) < 2:
        raise SingleClass("training requires both classes")
    if cfg.resolved_subsample(X.n_features) > X.n_features:
        raise InvalidConfig(f"feature_subsample exceeds the {X.n_features} features")

    n = len(labels)
    weights = class_weights(labels, "inverse_frequency" if cfg.balanced else "uniform")
    values, codes = zip(*(np.unique(col, return_inverse=True) for col in X.rows.T))

    seed_rng = np.random.default_rng(cfg.seed)
    trees = []
    for tree_seed in seed_rng.integers(0, 2**63, size=cfg.n_trees):
        rng = np.random.default_rng(tree_seed)
        bootstrap = rng.integers(0, n, size=n)
        builder = _TreeBuilder(codes, values, labels, weights, cfg, rng)
        trees.append(builder.build(bootstrap))
    return Forest(trees=trees, feature_names=X.names)


def feature_importance(forest: Forest) -> list[tuple[str, float]]:
    """Mean decrease in Gini impurity, normalized to sum to one, descending.

    Ties break on feature name so the ordering is total. Features never used
    in a split come out exactly zero.
    """
    d = len(forest.feature_names)
    accumulated = np.zeros(d)
    for tree in forest.trees:
        split = tree.feature >= 0
        l, r = tree.left[split], tree.right[split]
        decrease = (
            tree.weight[split] * tree.impurity[split]
            - tree.weight[l] * tree.impurity[l]
            - tree.weight[r] * tree.impurity[r]
        ) / tree.weight[0]
        # bincount adds in node order, as a loop over the nodes would
        imp = np.bincount(tree.feature[split], weights=decrease, minlength=d)
        total = imp.sum()
        if total > 0:
            accumulated += imp / total
    grand_total = accumulated.sum()
    if grand_total > 0:
        accumulated /= grand_total
    ranked = sorted(
        zip(forest.feature_names, accumulated), key=lambda kv: (-kv[1], kv[0])
    )
    return [(name, float(score)) for name, score in ranked]


def write_importance(ranking: list[tuple[str, float]], path: str | Path) -> None:
    """JSON list of {feature, score, rank}, rank 1 first."""
    entries = [
        {"feature": name, "score": score, "rank": i + 1}
        for i, (name, score) in enumerate(ranking)
    ]
    write_json(path, entries)
