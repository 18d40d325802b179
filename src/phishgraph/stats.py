"""Per-class feature statistics and a from-scratch random forest.

The forest exists to rank feature importance, not to serve as the production
classifier. Trees are grown on bootstrap samples with Gini impurity; the best
(feature, threshold) is searched over a random feature subset per node with
thresholds at midpoints of consecutive distinct values. All randomness comes
from per-tree seeds derived from one forest seed, making training fully
deterministic. With unit weights, ties in Gini gain resolve to the lowest
feature index and then the lowest threshold. With ``balanced`` weights the
gains are rounded float sums, so rounding can decide between splits whose
exact gains are equal.

The split search sorts no column per node. Each feature is rank-encoded once
per forest, and a node is the array of bootstrap rows it holds. Per drawn
feature, histograms of the node's ranks with one bin per distinct value (rows,
weight, phishing weight) give by cumulative sums the left side of every
threshold: LightGBM's histogram search (Ke et al., 2017) without its binning.
With unit weights the sums are exact integers; ``balanced`` weights are summed
per bin, so between splits whose exact gains tie they can round differently
from a running sum over sorted rows.

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
from .features import FeatureMatrix
from .storage import write_json

_CLASS_NAMES = ("benign", "phishing")


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
                for cls in _CLASS_NAMES:
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
    for code, cls in enumerate(_CLASS_NAMES):
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
    balanced: bool = False  # inverse-frequency sample weights

    def validate(self, n_features: int) -> None:
        if self.n_trees < 1:
            raise InvalidConfig("need at least one tree")
        if self.max_depth < 1:
            raise InvalidConfig("max_depth must be positive")
        if self.min_leaf < 1:
            raise InvalidConfig("min_leaf must be positive")
        if self.seed < 0:
            raise InvalidConfig(f"forest seed must be non-negative, got {self.seed}")
        k = self.resolved_subsample(n_features)
        if not 1 <= k <= n_features:
            raise InvalidConfig("feature_subsample out of range")

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
    class_counts: np.ndarray  # (n_nodes, 2) weighted counts
    impurity: np.ndarray      # (n_nodes,) Gini at the node
    weight: np.ndarray        # (n_nodes,) total sample weight at the node
    max_depth: int


@dataclass
class Forest:
    trees: list[DecisionTree]
    tree_seeds: list[int]
    feature_subsample: int
    feature_names: tuple[str, ...]
    config: ForestConfig

    @property
    def n_trees(self) -> int:
        return len(self.trees)


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts / total
    return float(1.0 - np.dot(p, p))


class _TreeBuilder:
    """Grows one tree; a node is the array of the forest rows it holds."""

    def __init__(
        self,
        codes: tuple[np.ndarray, ...],
        values: tuple[np.ndarray, ...],
        y: np.ndarray,
        weights: np.ndarray,
        cfg: ForestConfig,
        rng: np.random.Generator,
    ):
        self.codes = codes      # per feature, the rank of each row's value
        self.values = values    # per feature, the ascending distinct values
        self.y = y
        self.w = weights
        self.w1 = weights * (y == 1)
        self.cfg = cfg
        self.rng = rng
        self.n_features = len(values)
        self.k = cfg.resolved_subsample(self.n_features)
        self.nodes: list[list] = []  # [feature, threshold, left, right, counts]

    def grow(self, idx: np.ndarray, depth: int) -> int:
        y_here = self.y[idx]
        w_here = self.w[idx]
        counts = np.array(
            [w_here[y_here == 0].sum(), w_here[y_here == 1].sum()]
        )
        node = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, counts])
        if (
            depth >= self.cfg.max_depth
            or len(idx) < 2 * self.cfg.min_leaf
            or counts[0] == 0
            or counts[1] == 0
        ):
            return node
        split = self._best_split(idx)
        if split is None:
            return node
        f, thr, left_idx, right_idx = split
        self.nodes[node][:2] = f, thr
        self.nodes[node][2] = self.grow(left_idx, depth + 1)
        self.nodes[node][3] = self.grow(right_idx, depth + 1)
        return node

    def _best_split(self, idx: np.ndarray):
        """Best (feature, threshold) by weighted Gini gain over a random subset.

        Candidate features are scanned in ascending index and thresholds in
        ascending value with strict improvement required, which pins the
        tie-break order. Returns None when no split improves impurity.
        """
        features = np.sort(
            self.rng.choice(self.n_features, size=self.k, replace=False)
        )
        y = self.y[idx]
        w = self.w[idx]
        w1 = self.w1[idx]
        total_w = w.sum()
        total_w1 = w[y == 1].sum()
        parent_gini = _gini(np.array([total_w - total_w1, total_w1]))
        n = len(idx)

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
            lw = np.cumsum(np.bincount(key, weights=w)[cut_bins])[cuts]
            lw1 = np.cumsum(np.bincount(key, weights=w1)[cut_bins])[cuts]
            rw = total_w - lw
            rw1 = total_w1 - lw1
            # no division by zero: a valid cut leaves at least min_leaf >= 1
            # rows on each side, and every row's weight is positive
            gini_l = 1.0 - ((lw1 / lw) ** 2 + ((lw - lw1) / lw) ** 2)
            gini_r = 1.0 - ((rw1 / rw) ** 2 + ((rw - rw1) / rw) ** 2)
            child = (lw * gini_l + rw * gini_r) / total_w
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
        return DecisionTree(
            feature=np.array(feature, dtype=np.int64),
            threshold=np.array(threshold),
            left=np.array(left, dtype=np.int64),
            right=np.array(right, dtype=np.int64),
            class_counts=np.array(counts),
            impurity=np.array([_gini(c) for c in counts]),
            weight=np.array([float(c.sum()) for c in counts]),
            max_depth=self.cfg.max_depth,
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
    cfg.validate(X.n_features)

    n = len(labels)
    if cfg.balanced:
        counts = np.bincount(labels, minlength=2)
        per_class = n / (2.0 * counts)
        sample_weights = per_class[labels]
    else:
        sample_weights = np.ones(n)
    values, codes = zip(*(np.unique(col, return_inverse=True) for col in X.rows.T))

    seed_rng = np.random.default_rng(cfg.seed)
    tree_seeds = [int(s) for s in seed_rng.integers(0, 2**63, size=cfg.n_trees)]
    trees = []
    for tree_seed in tree_seeds:
        rng = np.random.default_rng(tree_seed)
        bootstrap = rng.integers(0, n, size=n)
        builder = _TreeBuilder(codes, values, labels, sample_weights, cfg, rng)
        trees.append(builder.build(bootstrap))
    return Forest(
        trees=trees,
        tree_seeds=tree_seeds,
        feature_subsample=cfg.resolved_subsample(X.n_features),
        feature_names=X.names,
        config=cfg,
    )


def feature_importance(forest: Forest) -> list[tuple[str, float]]:
    """Mean decrease in Gini impurity, normalized to sum to one, descending.

    Ties break on feature name so the ordering is total. Features never used
    in a split come out exactly zero.
    """
    d = len(forest.feature_names)
    accumulated = np.zeros(d)
    for tree in forest.trees:
        imp = np.zeros(d)
        root_w = tree.weight[0]
        for node in range(len(tree.feature)):
            f = tree.feature[node]
            if f < 0:
                continue
            l, r = tree.left[node], tree.right[node]
            decrease = (
                tree.weight[node] * tree.impurity[node]
                - tree.weight[l] * tree.impurity[l]
                - tree.weight[r] * tree.impurity[r]
            ) / root_w
            imp[f] += decrease
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
