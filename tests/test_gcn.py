import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from phishgraph import gcn
from phishgraph.errors import ClassAbsent, InvalidConfig, ShapeMismatch
from phishgraph.evaluate import stratified_split
from phishgraph.features import (
    concat_features,
    extract_explicit,
    extract_implicit,
    fit_minmax,
)
from phishgraph.gcn import (
    AdamState,
    GcnConfig,
    GcnModel,
    GradientDescentState,
    backward,
    class_weights,
    forward,
    init_model,
    predict,
    save_model,
    train,
    weighted_ce_loss,
)
from phishgraph.graph import build_graph, normalized_adjacency, spmv, to_training_inputs
from phishgraph.synthetic import SyntheticConfig, generate_synthetic

from helpers import (
    addr,
    dataset_from,
    dense_forward_oracle,
    finite_difference_check,
    labels_vector,
    make_tx,
    random_graph_instance,
    read_model_bin,
    reference_step,
    to_dense,
    traced_peak,
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
            dense_probs = dense_forward_oracle(model, to_dense(adj), X)
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
            # the exact per-element multiplier the pass applied: keep mask * 1/keep
            multipliers = [m * cache.dropout_scale for m in cache.dropout_masks]
            dense = dense_forward_oracle(model, to_dense(adj), X, multipliers)
            assert np.abs(probs - dense).max() <= 1e-12

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("hidden", [(6, 2), (2,)])
    def test_cached_propagation_changes_no_bit(self, hidden, training):
        """A_hat @ X passed in gives the bits of the pass that computes it; a
        first layer that narrows (3 -> 2) propagates after its product, so it
        leaves the cached operand unused."""
        for seed in range(4):
            adj, X, _, model = random_graph_instance(seed, hidden=hidden, use_bias=True)
            propagated = spmv(adj, X)
            propagated.setflags(write=False)
            kw = dict(training=training, dropout_rate=0.3, dropout_seed=seed)
            plain, _ = forward(model, adj, X, **kw)
            cached, cache = forward(model, adj, X, **kw, propagated_x=propagated)
            assert plain.tobytes() == cached.tobytes()
            assert (cache.weight_inputs[0] is propagated) == (hidden == (6, 2))
            if hidden == (2,):
                poisoned = np.full_like(propagated, np.nan)
                unused, _ = forward(model, adj, X, **kw, propagated_x=poisoned)
                assert unused.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("keep", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize("shape", [
        (7, 3), (1, gcn.DROPOUT_BLOCK), (1, gcn.DROPOUT_BLOCK + 1), (5000, 64), (3, 0),
    ])
    def test_block_drawn_mask_is_one_full_draw(self, shape, keep):
        """The keep mask drawn block by block has the bits of one full-layer
        draw, and leaves the generator where that draw does, so the next
        layer's mask is unchanged too."""
        blocks, whole = np.random.default_rng(11), np.random.default_rng(11)
        mask = gcn.dropout_mask(blocks, shape, keep)
        expected = whole.random(shape) < keep
        assert mask.shape == shape and mask.dtype == bool
        assert mask.tobytes() == expected.tobytes()
        assert blocks.random() == whole.random()

    def test_block_drawn_mask_holds_one_block(self):
        """Beyond the mask it returns, a draw holds one block of doubles, not
        the 2.4 MiB of a full-layer draw for 5000 x 64 units."""
        rng = np.random.default_rng(12)
        peak = traced_peak(lambda: gcn.dropout_mask(rng, (5000, 64), 0.5), beyond_result=True)
        assert peak <= 2 * 8 * gcn.DROPOUT_BLOCK

    def test_cached_propagation_shape_checked(self):
        adj, X, _, model = random_graph_instance(3, hidden=(6,))
        with pytest.raises(ShapeMismatch):
            forward(model, adj, X, propagated_x=spmv(adj, X)[:-1])

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

    @pytest.mark.parametrize("symmetrize", [True, False])
    @pytest.mark.parametrize("dropout", [0.0, 0.3])
    @pytest.mark.parametrize("use_bias", [False, True])
    @pytest.mark.parametrize("hidden", [(6, 2), (2,)])
    def test_step_bits_match_allocating_reference(self, hidden, use_bias, dropout, symmetrize):
        """One forward and backward pass, with ReLU in place, block-drawn masks
        and upstream gradients written into spent operands, has the bits of
        the pass that allocates every array; X and A_hat @ X stay unwritten."""
        for seed in range(3):
            adj, X, y, model = random_graph_instance(
                40 + seed, hidden=hidden, use_bias=use_bias, symmetrize=symmetrize
            )
            mask = np.arange(len(y)) % 3 != 0
            probs_ref, active_ref, drops_ref, grads_ref = reference_step(
                model, adj, X, y, (0.7, 2.4), mask, dropout, seed
            )
            X.setflags(write=False)
            propagated = spmv(adj, X)
            propagated.setflags(write=False)
            for cached in (None, propagated):
                probs, cache = forward(model, adj, X, training=True, dropout_rate=dropout,
                                       dropout_seed=seed, propagated_x=cached)
                assert probs.tobytes() == probs_ref.tobytes()
                assert [a.tobytes() for a in cache.active] == [a.tobytes() for a in active_ref]
                assert [None if m is None else m.tobytes() for m in cache.dropout_masks] == [
                    None if m is None else m.tobytes() for m in drops_ref
                ]
                grads = backward(model, cache, probs, y, (0.7, 2.4), mask, adj.transpose())
                assert [g.tobytes() for g in grads] == [g.tobytes() for g in grads_ref]
                assert all(spent is None for spent in cache.weight_inputs[1:])

    def test_zero_learning_rate_leaves_model_unchanged(self):
        adj, X, y, model = random_graph_instance(6)
        before = [w.copy() for w in model.weights]
        probs, cache = forward(model, adj, X, training=True)
        grads = backward(
            model, cache, probs, y, (1.0, 1.0), np.ones(len(y), dtype=bool),
            adj.transpose(),
        )
        GradientDescentState(0.0).step(model.params, grads)
        for w, orig in zip(model.weights, before):
            assert np.array_equal(w, orig)

    def test_gd_step_decreases_loss_on_simple_instance(self):
        adj, X, y, model = random_graph_instance(7, hidden=(4,))
        mask = np.ones(len(y), dtype=bool)
        w_pair = (1.0, 1.0)
        probs, cache = forward(model, adj, X, training=True)
        before = weighted_ce_loss(probs, y, w_pair, mask)
        grads = backward(model, cache, probs, y, w_pair, mask, adj.transpose())
        GradientDescentState(0.01).step(model.params, grads)
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
    return to_training_inputs(g, X_norm, split)


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

    @pytest.mark.parametrize("hidden, cached", [((64, 32), True), ((8,), False)])
    def test_propagates_x_once_into_every_pass(self, hidden, cached, monkeypatch):
        """When the first layer widens (16 -> 64), train computes A_hat @ X
        once, read-only, and every training and eval pass reuses it; when it
        narrows (16 -> 8) nothing is cached. Either way an epoch makes 6 spmv
        calls."""
        batch = training_batch(6)
        seen, spmv_calls = [], []
        real_forward, real_spmv = gcn.forward, gcn.spmv

        def spy_forward(*args, **kwargs):
            seen.append(kwargs.get("propagated_x"))
            return real_forward(*args, **kwargs)

        def count_spmv(*args):
            spmv_calls.append(1)
            return real_spmv(*args)

        monkeypatch.setattr(gcn, "forward", spy_forward)
        monkeypatch.setattr(gcn, "spmv", count_spmv)
        epochs = 4
        train(batch, GcnConfig(hidden_dims=hidden, epochs=epochs, seed=6))
        assert len(seen) == 2 * epochs
        assert all(p is seen[0] for p in seen)
        assert len(spmv_calls) == 6 * epochs + cached
        if cached:
            with pytest.raises(ValueError):
                seen[0][0, 0] = 1.0
        else:
            assert seen[0] is None

    def test_training_peak_memory_per_node(self):
        """tracemalloc's peak inside train on the default 500-address corpus
        (both feature sets, default dims, 20 epochs) reads about 1.6 KiB per
        node. The bound leaves about 15% margin; a float Z cache (2.3) or a
        backward that allocates each upstream gradient instead of writing it
        into the spent operand (1.9) breaks it. A full-layer float dropout
        draw ties with the epoch's other peaks (1.6), so the mask test below
        bounds the draw itself."""
        ds = generate_synthetic(SyntheticConfig(seed=0))
        g = build_graph(ds)
        X = concat_features(extract_explicit(ds, g), extract_implicit(ds, g))
        split = stratified_split(g.labels, 0.8, seed=0)
        batch = to_training_inputs(g, fit_minmax(X, split.train_mask), split)
        peak = traced_peak(lambda: train(batch, GcnConfig(epochs=20, seed=0)))
        assert peak / g.n_nodes <= 1.85 * 1024

    def test_inverse_frequency_requires_both_classes(self):
        batch = training_batch(4)
        batch.labels[:] = 0
        with pytest.raises(ClassAbsent):
            train(batch, GcnConfig(epochs=1, seed=4))


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
            GcnConfig(**kwargs)

    def test_replace_checks_the_new_config(self):
        with pytest.raises(InvalidConfig):
            dataclasses.replace(GcnConfig(), epochs=0)


class TestModelSerialization:
    def test_round_trip_exact(self, tmp_path):
        model = init_model(5, (4, 3), seed=2, use_bias=True)
        cfg = GcnConfig(hidden_dims=(4, 3), use_bias=True, seed=2)
        path = tmp_path / "model.bin"
        save_model(model, path, cfg, ("a", "b", "c", "d", "e"))
        dims, weights, biases = read_model_bin(path)
        assert dims == model.dims == (5, 4, 3, 2)
        for w1, w2 in zip(weights, model.weights, strict=True):
            assert np.array_equal(w1, w2)
        for b1, b2 in zip(biases, model.biases, strict=True):
            assert np.array_equal(b1, b2)
        sidecar = json.loads(Path(str(path) + ".json").read_text())
        assert sidecar["feature_names"] == ["a", "b", "c", "d", "e"]
        # the sidecar config rebuilds the config it was saved with
        saved = {k: tuple(v) if isinstance(v, list) else v
                 for k, v in sidecar["config"].items()}
        assert GcnConfig(**saved) == cfg

    def test_adam_state_updates_bias_corrected(self):
        model = init_model(2, (3,), seed=0, use_bias=True)
        adam = AdamState(model.params, learning_rate=0.1)
        grads = [np.ones_like(p) for p in model.params]
        before = [p.copy() for p in model.params]
        adam.step(model.params, grads)
        # the first step moves every weight and every bias by ~lr against the
        # gradient sign
        for p, orig in zip(model.weights + model.biases, before, strict=True):
            assert np.allclose(orig - p, 0.1, atol=1e-6)
