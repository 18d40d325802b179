from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishgraph.errors import InvalidConfig, ShapeMismatch, SingleClass
from phishgraph.features import (
    IMPLICIT_FEATURE_NAMES,
    FeatureMatrix,
    concat_features,
    extract_explicit,
    extract_implicit,
)
from phishgraph.graph import build_graph
from phishgraph.stats import (
    ForestConfig,
    class_feature_stats,
    feature_importance,
    train_forest,
)
from phishgraph.synthetic import SyntheticConfig, generate_synthetic

from helpers import forest_vote, labels_vector, reference_forest


def implicit_matrix(rows: np.ndarray) -> FeatureMatrix:
    return FeatureMatrix(IMPLICIT_FEATURE_NAMES, rows)


def signal_only_corpus(seed: int, n: int = 200) -> tuple[FeatureMatrix, np.ndarray]:
    """All sixteen implicit columns are noise except total_val_sent."""
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < 0.4).astype(np.int64)
    rows = rng.normal(size=(n, len(IMPLICIT_FEATURE_NAMES)))
    signal_col = IMPLICIT_FEATURE_NAMES.index("total_val_sent")
    rows[:, signal_col] = labels * 4.0 + rng.normal(scale=0.5, size=n)
    return implicit_matrix(rows), labels


class TestClassFeatureStats:
    def test_hand_computed_two_point_case(self):
        X = FeatureMatrix(("f",), np.array([[1.0], [3.0]]))
        stats = class_feature_stats(X, np.array([1, 1]))
        assert stats.mean["phishing"][0] == 2.0
        assert stats.max["phishing"][0] == 3.0
        assert stats.std["phishing"][0] == 1.0  # population std
        assert not stats.present("benign")

    def test_absent_class_reported_not_fatal(self):
        X = FeatureMatrix(("f",), np.array([[1.0], [2.0]]))
        stats = class_feature_stats(X, np.array([0, 0]))
        assert stats.support == {"benign": 2, "phishing": 0}
        assert np.isnan(stats.mean["phishing"][0])

    def test_max_at_least_mean(self):
        rng = np.random.default_rng(0)
        X = FeatureMatrix(tuple(f"f{i}" for i in range(4)), rng.normal(size=(50, 4)))
        labels = (rng.random(50) < 0.3).astype(int)
        stats = class_feature_stats(X, labels)
        for cls in ("benign", "phishing"):
            assert np.all(stats.max[cls] >= stats.mean[cls] - 1e-12)
            assert np.all(stats.std[cls] >= 0.0)

    def test_synthetic_direction_phishing_sends_more(self):
        ds = generate_synthetic(
            SyntheticConfig(n_benign_addresses=80, n_phishing_addresses=20, seed=3)
        )
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        stats = class_feature_stats(X, labels_vector(ds, g))
        col = IMPLICIT_FEATURE_NAMES.index("total_val_sent")
        assert stats.mean["phishing"][col] > stats.mean["benign"][col]

    def test_csv_marks_absent_class(self, tmp_path):
        X = FeatureMatrix(("f",), np.array([[1.0]]))
        stats = class_feature_stats(X, np.array([0]))
        path = tmp_path / "stats.csv"
        stats.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "feature,class,support,mean,max,std"
        phishing_row = [l for l in lines if ",phishing," in l][0]
        assert phishing_row.endswith(",0,,,")


def separable_toy(seed: int = 0, n: int = 20):
    rng = np.random.default_rng(seed)
    labels = np.array([0] * (n // 2) + [1] * (n - n // 2), dtype=np.int64)
    rows = rng.normal(size=(n, 2)) * 0.3
    rows[:, 0] += labels * 5.0
    return FeatureMatrix(("a", "b"), rows), labels


class TestForest:
    @pytest.mark.parametrize("field", ["n_trees", "max_depth", "min_leaf", "seed",
                                       "feature_subsample"])
    def test_invalid_config_rejected_when_built(self, field):
        bad = -1 if field == "seed" else 0
        with pytest.raises(InvalidConfig):
            ForestConfig(**{field: bad})
        with pytest.raises(InvalidConfig):
            replace(ForestConfig(), **{field: bad})

    def test_subsample_above_feature_count_rejected_at_training(self):
        X, labels = separable_toy()
        cfg = ForestConfig(n_trees=2, feature_subsample=X.n_features + 1)
        with pytest.raises(InvalidConfig):
            train_forest(X, labels, cfg)

    def test_separable_training_accuracy_one(self):
        X, labels = separable_toy()
        forest = train_forest(X, labels, ForestConfig(n_trees=20, seed=0))
        assert np.array_equal(forest_vote(forest, X.rows), labels)

    def test_deterministic_for_fixed_seed(self):
        X, labels = separable_toy(3)
        cfg = ForestConfig(n_trees=10, seed=11)
        f1 = train_forest(X, labels, cfg)
        f2 = train_forest(X, labels, cfg)
        for t1, t2 in zip(f1.trees, f2.trees):
            assert np.array_equal(t1.feature, t2.feature)
            assert np.array_equal(t1.threshold, t2.threshold)
            assert np.array_equal(t1.class_counts, t2.class_counts)

    def test_single_class_rejected(self):
        X = FeatureMatrix(("a",), np.zeros((5, 1)))
        with pytest.raises(SingleClass):
            train_forest(X, np.zeros(5, dtype=int))

    def test_label_length_checked(self):
        X = FeatureMatrix(("a",), np.zeros((5, 1)))
        with pytest.raises(ShapeMismatch):
            train_forest(X, np.array([0, 1]))

    def test_pure_nodes_are_leaves(self):
        X, labels = separable_toy(5)
        forest = train_forest(X, labels, ForestConfig(n_trees=10, seed=2))
        for tree in forest.trees:
            internal = tree.feature >= 0
            counts = tree.class_counts[internal]
            assert np.all(counts.min(axis=1) > 0)

    def test_children_impurity_never_exceeds_parent(self):
        rng = np.random.default_rng(7)
        X = FeatureMatrix(
            tuple(f"f{i}" for i in range(5)), rng.normal(size=(120, 5))
        )
        labels = (rng.random(120) < 0.5).astype(np.int64)
        forest = train_forest(X, labels, ForestConfig(n_trees=10, seed=7))
        for tree in forest.trees:
            for node in range(len(tree.feature)):
                if tree.feature[node] < 0:
                    continue
                l, r = tree.left[node], tree.right[node]
                child = (
                    tree.weight[l] * tree.impurity[l]
                    + tree.weight[r] * tree.impurity[r]
                ) / tree.weight[node]
                assert child <= tree.impurity[node] + 1e-12

    def test_min_leaf_respected(self):
        X, labels = separable_toy(9, n=50)
        cfg = ForestConfig(n_trees=10, seed=1, min_leaf=5)
        forest = train_forest(X, labels, cfg)
        for tree in forest.trees:
            for node in range(len(tree.feature)):
                if tree.feature[node] >= 0:
                    for child in (tree.left[node], tree.right[node]):
                        assert tree.weight[child] >= cfg.min_leaf


class TestImportance:
    def test_planted_signal_ranks_first(self):
        for seed in (0, 1, 2):
            X, labels = signal_only_corpus(seed)
            forest = train_forest(X, labels, ForestConfig(n_trees=50, seed=seed))
            ranking = feature_importance(forest)
            assert ranking[0][0] == "total_val_sent"
            assert ranking[0][1] > 0.5

    def test_scores_sum_to_one(self):
        X, labels = signal_only_corpus(5)
        forest = train_forest(X, labels, ForestConfig(n_trees=25, seed=5))
        total = sum(score for _, score in feature_importance(forest))
        assert abs(total - 1.0) <= 1e-9

    def test_all_scores_nonnegative(self):
        X, labels = signal_only_corpus(6)
        forest = train_forest(X, labels, ForestConfig(n_trees=25, seed=6))
        assert all(score >= 0.0 for _, score in feature_importance(forest))

    def test_unused_feature_has_zero_importance(self):
        # a constant column can never be split on
        X, labels = separable_toy(8, n=40)
        rows = np.hstack([X.rows, np.full((40, 1), 3.14)])
        X3 = FeatureMatrix(("a", "b", "const"), rows)
        forest = train_forest(X3, labels, ForestConfig(n_trees=30, seed=8))
        scores = dict(feature_importance(forest))
        assert scores["const"] == 0.0

    def test_noise_only_importances_stay_flat(self):
        # soft statistical bound: with pure noise no feature should dominate
        d = 8
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            X = FeatureMatrix(
                tuple(f"f{i}" for i in range(d)), rng.normal(size=(120, d))
            )
            labels = (rng.random(120) < 0.5).astype(np.int64)
            forest = train_forest(X, labels, ForestConfig(n_trees=200, seed=seed))
            top_score = feature_importance(forest)[0][1]
            assert top_score <= 3.0 / d

    def test_scaling_a_feature_leaves_ranking_unchanged(self):
        X, labels = signal_only_corpus(9)
        forest = train_forest(X, labels, ForestConfig(n_trees=40, seed=9))
        base = [name for name, _ in feature_importance(forest)]

        scaled_rows = X.rows.copy()
        scaled_rows[:, 3] *= 1000.0
        scaled = FeatureMatrix(X.names, scaled_rows)
        forest2 = train_forest(scaled, labels, ForestConfig(n_trees=40, seed=9))
        assert [name for name, _ in feature_importance(forest2)] == base

    def test_balanced_weights_change_counts_not_validity(self):
        X, labels = signal_only_corpus(10)
        forest = train_forest(
            X, labels, ForestConfig(n_trees=10, seed=10, balanced=True)
        )
        ranking = feature_importance(forest)
        assert ranking[0][0] == "total_val_sent"
        assert abs(sum(s for _, s in ranking) - 1.0) <= 1e-9


TREE_ARRAYS = ("feature", "threshold", "left", "right", "class_counts", "impurity", "weight")


def first_difference(tree, reference) -> int | None:
    """Preorder index of the first node whose split or counts differ, None if
    every array is equal byte for byte."""
    if all(getattr(tree, a).dtype == getattr(reference, a).dtype
           and getattr(tree, a).shape == getattr(reference, a).shape
           and getattr(tree, a).tobytes() == getattr(reference, a).tobytes()
           for a in TREE_ARRAYS):
        return None
    for node in range(min(len(tree.feature), len(reference.feature))):
        if any(getattr(tree, a)[node].tobytes() != getattr(reference, a)[node].tobytes()
               for a in ("feature", "threshold", "class_counts", "impurity", "weight")):
            return node
    raise AssertionError("trees differ only in their child links")


def assert_matches_reference(X: FeatureMatrix, labels, cfg: ForestConfig) -> None:
    """Every tree array equals the sort-based reference's byte for byte, with
    unit and balanced weights alike, and so does the importance."""
    forest = train_forest(X, labels, cfg)
    reference = reference_forest(X, labels, cfg)
    assert len(forest.trees) == len(reference)
    for tree, ref in zip(forest.trees, reference):
        node = first_difference(tree, ref)
        assert node is None, f"tree parts from the reference at node {node}"
    expected = replace(forest, trees=reference)
    assert feature_importance(forest) == feature_importance(expected)


@st.composite
def forest_cases(draw, balanced: bool):
    """Small matrices of heavily tied values (``-0.0`` beside ``0.0``, constant
    columns), both classes present, and varied forest settings."""
    n = draw(st.integers(2, 60))
    d = draw(st.integers(1, 5))
    pool = draw(st.lists(st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0, 3.0, 1e300]),
                         min_size=1, max_size=4, unique=True))
    rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=n * d, max_size=n * d)))
    rows = rows.reshape(n, d)
    for col in draw(st.sets(st.integers(0, d - 1), max_size=d)):
        rows[:, col] = pool[0]
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    labels[draw(st.integers(1, n - 1))] = 1 - labels[0]
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 6)),
        max_depth=draw(st.integers(1, 6)),
        feature_subsample=draw(st.none() | st.integers(1, d)),
        min_leaf=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**32)),
        balanced=balanced,
    )
    return FeatureMatrix(tuple(f"f{i}" for i in range(d)), rows), labels, cfg


@settings(max_examples=100, deadline=None)
@given(case=forest_cases(balanced=False))
def test_trees_match_sort_based_reference(case):
    assert_matches_reference(*case)


@settings(max_examples=100, deadline=None)
@given(case=forest_cases(balanced=True))
def test_balanced_trees_match_sort_based_reference(case):
    assert_matches_reference(*case)


def test_balanced_trees_never_part_on_tie_heavy_matrices():
    for seed in range(60):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 3, size=(24, 3)).astype(float)
        labels = rng.integers(0, 2, size=24)
        if labels.min() == labels.max():
            continue
        cfg = ForestConfig(n_trees=3, max_depth=4, min_leaf=1, seed=seed, balanced=True)
        assert_matches_reference(FeatureMatrix(("a", "b", "c"), rows), labels, cfg)


def test_balanced_tie_is_judged_under_unrounded_weights():
    # two root splits whose gains are equal under w_c = 35 / (2 * N_c), which
    # rounded per-row weights summed in different orders once told apart; the
    # third tree must take the lower feature index of the two
    f1 = "AAAAABABABBBBAABABABBBAAAABBABAAAAA"
    f4 = "CACAACACAABCAAAAABABCAACAAACCCCAACA"
    level = {"A": -2.0, "B": -0.5, "C": -0.0}
    rows = np.full((35, 5), -2.0)
    rows[:, 1] = [level[c] for c in f1]
    rows[:, 4] = [level[c] for c in f4]
    labels = np.array([int(c) for c in "10100001100001010100000111101000011"])
    cfg = ForestConfig(n_trees=3, max_depth=1, min_leaf=1, seed=771, balanced=True)
    X = FeatureMatrix(tuple(f"f{i}" for i in range(5)), rows)
    assert_matches_reference(X, labels, cfg)
    third = train_forest(X, labels, cfg).trees[2]
    assert (third.feature[0], third.threshold[0]) == (1, -1.25)


@pytest.mark.parametrize("balanced", [False, True], ids=["unit", "balanced"])
def test_many_valued_column_matches_sort_based_reference(balanced):
    # 20,000 distinct values: most bins are empty in a small node's histogram
    rng = np.random.default_rng(12)
    signal = rng.normal(size=20_000)
    rows = np.column_stack([signal, rng.integers(0, 4, size=20_000)])
    labels = (signal + rng.normal(scale=0.5, size=20_000) > 0.8).astype(np.int64)
    cfg = ForestConfig(n_trees=2, max_depth=9, seed=12, balanced=balanced)
    assert_matches_reference(FeatureMatrix(("signal", "level"), rows), labels, cfg)


@pytest.mark.parametrize("balanced", [False, True], ids=["unit", "balanced"])
@pytest.mark.parametrize("feature_set", ["implicit", "both"])
def test_synth_forest_matches_sort_based_reference(feature_set, balanced):
    ds = generate_synthetic(SyntheticConfig(seed=101))
    g = build_graph(ds)
    X = extract_implicit(ds, g)
    if feature_set == "both":
        X = concat_features(extract_explicit(ds, g), X)
    assert_matches_reference(X, labels_vector(ds, g), ForestConfig(balanced=balanced))


class TestNonFiniteFeatures:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_feature_matrix_names_the_column(self, bad):
        rows = np.zeros((3, 3))
        rows[1, 1] = bad
        rows[2, 2] = bad
        with pytest.raises(ShapeMismatch, match="'b'") as info:
            FeatureMatrix(("a", "b", "c"), rows)
        assert info.value.exit_code == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_forest_rejects_before_training(self, bad):
        X, labels = separable_toy(3)
        with pytest.raises(ShapeMismatch, match="'b'"):
            train_forest(FeatureMatrix(X.names, np.where([False, True], bad, X.rows)), labels)
