import math

import numpy as np
import pytest

from phishgraph.errors import ClassAbsent, InvalidConfig, ShapeMismatch
from phishgraph.evaluate import stratified_split
from phishgraph.features import extract_implicit, fit_minmax
from phishgraph.gcn import (
    AdamState,
    GcnConfig,
    GcnModel,
    GradientDescentState,
    backward,
    class_weights,
    forward,
    init_model,
    load_model,
    predict,
    save_model,
    train,
    weighted_ce_loss,
)
from phishgraph.graph import build_graph, normalized_adjacency, to_training_inputs
from phishgraph.synthetic import SyntheticConfig, generate_synthetic

from helpers import (
    addr,
    dataset_from,
    dense_forward_oracle,
    finite_difference_check,
    labels_vector,
    make_tx,
    random_graph_instance,
)


# ----------------------------------------------------------------- class weights


class TestClassWeights:
    def test_inverse_frequency_80_20(self):
        labels = np.array([0] * 80 + [1] * 20)
        assert class_weights(labels) == (0.625, 2.5)

    def test_balanced_classes_give_unit_weights(self):
        labels = np.array([0] * 50 + [1] * 50)
        assert class_weights(labels) == (1.0, 1.0)

    def test_seven_point_six_three_percent_imbalance(self):
        # 7.63% positives: weights land near (0.54, 6.55)
        labels = np.array([1] * 763 + [0] * 9237)
        w_b, w_p = class_weights(labels)
        assert abs(w_b - 0.54) <= 1e-2
        assert abs(w_p - 6.55) <= 1e-2

    def test_uniform_mode(self):
        assert class_weights(np.array([0, 0]), mode="uniform") == (1.0, 1.0)

    def test_manual_passthrough(self):
        assert class_weights(np.array([0]), mode="manual", manual=(0.5, 4.0)) == (0.5, 4.0)

    def test_single_class_rejected_under_inverse_frequency(self):
        with pytest.raises(ClassAbsent):
            class_weights(np.array([0, 0, 0]))


# ----------------------------------------------------------------------- forward


class TestForward:
    def test_symmetric_logits_give_half_half(self):
        ds = dataset_from([make_tx(1, addr(1), addr(1))])
        adj = normalized_adjacency(build_graph(ds))
        model = GcnModel([np.zeros((2, 2))])
        probs, _ = forward(model, adj, np.array([[1.0, 0.0]]))
        assert np.allclose(probs, [[0.5, 0.5]])

    def test_inference_is_deterministic(self):
        adj, X, _, model = random_graph_instance(1)
        p1, _ = forward(model, adj, X, training=False)
        p2, _ = forward(model, adj, X, training=False)
        assert np.array_equal(p1, p2)

    def test_dropout_zero_training_equals_inference(self):
        adj, X, _, model = random_graph_instance(2)
        p_train, _ = forward(model, adj, X, training=True, dropout_rate=0.0, dropout_seed=9)
        p_infer, _ = forward(model, adj, X, training=False)
        assert np.array_equal(p_train, p_infer)

    def test_rows_sum_to_one(self):
        for seed in range(5):
            adj, X, _, model = random_graph_instance(seed, hidden=(5, 3))
            probs, _ = forward(model, adj, X)
            assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_matches_dense_oracle(self):
        for seed in range(8):
            adj, X, _, model = random_graph_instance(seed, hidden=(4, 3))
            sparse_probs, _ = forward(model, adj, X)
            dense_probs = dense_forward_oracle(model, adj.to_dense(), X)
            assert np.abs(sparse_probs - dense_probs).max() <= 1e-9

    @pytest.mark.parametrize("hidden", [(6, 2), (2,)])
    def test_training_pass_matches_dense_oracle_both_orders(self, hidden):
        for seed in range(6):
            adj, X, _, model = random_graph_instance(
                seed, hidden=hidden, use_bias=True, symmetrize=seed % 2 == 0
            )
            probs, cache = forward(
                model, adj, X, training=True, dropout_rate=0.3, dropout_seed=seed
            )
            dense = dense_forward_oracle(model, adj.to_dense(), X, cache.dropout_masks)
            assert np.abs(probs - dense).max() <= 1e-12

    def test_feature_width_checked(self):
        adj, X, _, model = random_graph_instance(3)
        with pytest.raises(ShapeMismatch):
            forward(model, adj, X[:, :2])


# -------------------------------------------------------------------------- loss


class TestLoss:
    def test_perfect_prediction_zero_loss(self):
        probs = np.array([[0.0, 1.0]])
        assert weighted_ce_loss(probs, np.array([1]), (1.0, 1.0)) == 0.0

    def test_half_probability_weight_two(self):
        probs = np.array([[0.5, 0.5]])
        loss = weighted_ce_loss(probs, np.array([1]), (1.0, 2.0))
        assert abs(loss - 2 * math.log(2)) <= 1e-9

    def test_two_node_hand_computation(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        loss = weighted_ce_loss(probs, np.array([0, 1]), (1.0, 1.0))
        assert abs(loss - (-(math.log(0.9) + math.log(0.8)))) <= 1e-9

    def test_weight_scaling_scales_loss_exactly(self):
        rng = np.random.default_rng(4)
        probs = rng.dirichlet((1, 1), size=20)
        labels = rng.integers(0, 2, 20)
        base = weighted_ce_loss(probs, labels, (0.7, 2.1))
        scaled = weighted_ce_loss(probs, labels, (0.7 * 3.5, 2.1 * 3.5))
        assert abs(scaled - 3.5 * base) <= 1e-9 * max(1.0, abs(scaled))

    def test_uniform_weights_equal_unweighted_sum(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet((1, 1), size=16)
        labels = np.array([0, 1] * 8)
        weighted = weighted_ce_loss(probs, labels, (1.0, 1.0))
        unweighted = -np.log(probs[np.arange(16), labels]).sum()
        assert weighted == pytest.approx(unweighted, abs=1e-12)

    def test_mask_restricts_the_sum(self):
        probs = np.array([[0.5, 0.5], [0.9, 0.1]])
        labels = np.array([1, 0])
        mask = np.array([True, False])
        assert weighted_ce_loss(probs, labels, (1.0, 1.0), mask) == pytest.approx(
            math.log(2)
        )

    def test_log_clamp_prevents_infinity(self):
        probs = np.array([[1.0, 0.0]])
        loss = weighted_ce_loss(probs, np.array([1]), (1.0, 1.0))
        assert np.isfinite(loss)
        assert loss == pytest.approx(-math.log(1e-12))


# --------------------------------------------------------------------- backward


class TestGradients:
    def test_finite_differences_across_instances(self):
        for seed in range(6):
            use_bias = seed % 2 == 1
            adj, X, y, model = random_graph_instance(
                seed, n_addr=5, hidden=(4,), use_bias=use_bias
            )
            finite_difference_check(adj, X, y, model, (0.7, 2.3))

    def test_finite_differences_with_dropout_mask_reuse(self):
        adj, X, y, model = random_graph_instance(12, n_addr=5, hidden=(4,))
        finite_difference_check(adj, X, y, model, (1.0, 1.5), dropout=0.4, seed=12)

    def test_finite_differences_two_hidden_layers(self):
        adj, X, y, model = random_graph_instance(20, n_addr=5, hidden=(4, 3))
        finite_difference_check(adj, X, y, model, (0.5, 3.0))

    @pytest.mark.parametrize("hidden", [(6, 2), (2,)])
    def test_finite_differences_both_propagation_orders(self, hidden):
        # on 3 features, (6, 2) widens, narrows, then holds at 2 -> 2;
        # (2,) narrows at the first layer, which then needs A_hat^T delta
        for seed in range(3):
            adj, X, y, model = random_graph_instance(
                30 + seed, n_addr=6, hidden=hidden, use_bias=True, symmetrize=False
            )
            finite_difference_check(adj, X, y, model, (0.8, 2.2), dropout=0.3, seed=seed)

    def test_zero_learning_rate_leaves_model_unchanged(self):
        adj, X, y, model = random_graph_instance(6)
        before = [w.copy() for w in model.weights]
        probs, cache = forward(model, adj, X, training=True)
        grads_w, grads_b = backward(
            model, cache, probs, y, (1.0, 1.0), np.ones(len(y), dtype=bool),
            adj.transpose(),
        )
        GradientDescentState(0.0).step(model, grads_w, grads_b)
        for w, orig in zip(model.weights, before):
            assert np.array_equal(w, orig)

    def test_gd_step_decreases_loss_on_simple_instance(self):
        adj, X, y, model = random_graph_instance(7, hidden=(4,))
        mask = np.ones(len(y), dtype=bool)
        w_pair = (1.0, 1.0)
        probs, cache = forward(model, adj, X, training=True)
        before = weighted_ce_loss(probs, y, w_pair, mask)
        grads_w, grads_b = backward(model, cache, probs, y, w_pair, mask, adj.transpose())
        GradientDescentState(0.01).step(model, grads_w, grads_b)
        after_probs, _ = forward(model, adj, X, training=True)
        assert weighted_ce_loss(after_probs, y, w_pair, mask) < before


# ------------------------------------------------------------------------ train


def training_batch(seed=0, n_benign=60, n_phishing=15):
    ds = generate_synthetic(
        SyntheticConfig(n_benign_addresses=n_benign, n_phishing_addresses=n_phishing, seed=seed)
    )
    g = build_graph(ds)
    X = extract_implicit(ds, g)
    labels = labels_vector(ds, g)
    split = stratified_split(labels, 0.8, seed=seed)
    X_norm = fit_minmax(X, split.train_mask)
    return to_training_inputs(g, X_norm, ds, split)


class TestTrain:
    def test_identical_runs_for_fixed_seed(self):
        batch = training_batch(5)
        cfg = GcnConfig(epochs=20, seed=5)
        m1, r1 = train(batch, cfg)
        m2, r2 = train(batch, cfg)
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        assert r1.losses == r2.losses

    def test_single_epoch_single_loss(self):
        batch = training_batch(1)
        _, report = train(batch, GcnConfig(epochs=1, seed=1))
        assert len(report.losses) == 1
        assert len(report.losses_mean) == 1

    def test_loss_list_matches_epochs(self):
        batch = training_batch(2)
        _, report = train(batch, GcnConfig(epochs=7, seed=2))
        assert len(report.losses) == 7
        assert len(report.train_accuracy) == 7

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_separable_corpus_reaches_high_train_f1(self, seed):
        # default 500-address corpus; measured 0.956-0.961 across these seeds
        batch = training_batch(seed, n_benign=400, n_phishing=100)
        _, report = train(batch, GcnConfig(seed=seed))
        assert report.train_weighted_f1[-1] >= 0.95

    def test_inverse_frequency_requires_both_classes(self):
        batch = training_batch(4)
        batch.labels[:] = 0
        with pytest.raises(ClassAbsent):
            train(batch, GcnConfig(epochs=1, seed=4))

    def test_report_excludes_wall_time(self):
        batch = training_batch(6)
        _, report = train(batch, GcnConfig(epochs=2, seed=6))
        assert report.wall_time_s > 0.0
        assert "wall_time_s" not in report.to_dict()


class TestPredict:
    def test_threshold_is_inclusive_at_half(self):
        ds = dataset_from([make_tx(1, addr(1), addr(1))])
        adj = normalized_adjacency(build_graph(ds))
        model = GcnModel([np.zeros((2, 2))])  # exact 0.5/0.5 output
        labels, p = predict(model, adj, np.array([[1.0, 0.0]]), threshold=0.5)
        assert p[0] == 0.5
        assert labels[0] == 1

    def test_high_threshold_flips_to_benign(self):
        ds = dataset_from([make_tx(1, addr(1), addr(1))])
        adj = normalized_adjacency(build_graph(ds))
        model = GcnModel([np.zeros((2, 2))])
        labels, _ = predict(model, adj, np.array([[1.0, 0.0]]), threshold=0.999)
        assert labels[0] == 0

    def test_agrees_with_argmax_when_no_tie(self):
        adj, X, _, model = random_graph_instance(9, hidden=(4,))
        probs, _ = forward(model, adj, X)
        untied = np.abs(probs[:, 1] - 0.5) > 1e-12
        labels, _ = predict(model, adj, X, threshold=0.5)
        assert np.array_equal(labels[untied], np.argmax(probs, axis=1)[untied])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_dims": ()},
            {"hidden_dims": (0,)},
            {"dropout_rate": 1.0},
            {"dropout_rate": -0.1},
            {"learning_rate": 0.0},
            {"epochs": 0},
            {"weight_mode": "bogus"},
            {"weight_mode": "manual"},
            {"weight_mode": "manual", "manual_weights": (1.0, -1.0)},
            {"optimizer": "sgd"},
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"seed": -1},
        ],
    )
    def test_invalid_configs(self, kwargs):
        with pytest.raises(InvalidConfig):
            GcnConfig(**kwargs).validate()

    def test_json_round_trip(self):
        cfg = GcnConfig(hidden_dims=(8, 4), epochs=10, seed=3)
        assert GcnConfig.from_json(cfg.to_json()) == cfg


class TestModelSerialization:
    def test_round_trip_exact(self, tmp_path):
        model = init_model(5, (4, 3), seed=2, use_bias=True)
        cfg = GcnConfig(hidden_dims=(4, 3), use_bias=True, seed=2)
        path = tmp_path / "model.bin"
        save_model(model, path, cfg, ("a", "b", "c", "d", "e"))
        loaded, sidecar = load_model(path)
        assert loaded.dims == model.dims
        for w1, w2 in zip(loaded.weights, model.weights):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(loaded.biases, model.biases):
            assert np.array_equal(b1, b2)
        assert sidecar["feature_names"] == ["a", "b", "c", "d", "e"]
        assert sidecar["config"]["hidden_dims"] == [4, 3]

    def test_adam_state_updates_bias_corrected(self):
        model = init_model(2, (3,), seed=0)
        cfg = GcnConfig(hidden_dims=(3,), learning_rate=0.1)
        adam = AdamState(model, cfg)
        grads = [np.ones_like(w) for w in model.weights]
        before = [w.copy() for w in model.weights]
        adam.step(model, grads, None)
        # first Adam step moves every weight by ~lr against the gradient sign
        for w, orig in zip(model.weights, before):
            step = orig - w
            assert np.allclose(step, 0.1, atol=1e-6)
