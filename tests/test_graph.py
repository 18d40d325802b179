import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phishgraph.errors import ShapeMismatch
from phishgraph.graph import (
    SparseMatrix,
    build_graph,
    normalized_adjacency,
    spmv,
    to_training_inputs,
)
from phishgraph.evaluate import stratified_split
from phishgraph.features import FeatureMatrix

from helpers import (
    addr,
    dataset_from,
    labels_vector,
    make_tx,
    normalized_adjacency_oracle,
    random_tx_dataset,
)


def power_iteration_radius(dense: np.ndarray, iters: int = 500) -> float:
    rng = np.random.default_rng(0)
    v = rng.normal(size=dense.shape[0])
    v /= np.linalg.norm(v)
    for _ in range(iters):
        nxt = dense @ v
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return 0.0
        v = nxt / norm
    return float(np.abs(v @ dense @ v) / (v @ v))


class TestBuildGraph:
    def test_parallel_edges_collapse_with_counts(self):
        ds = dataset_from(
            [
                make_tx(1, addr(1), addr(2)),
                make_tx(2, addr(1), addr(2)),
                make_tx(3, addr(2), addr(1)),
            ]
        )
        g = build_graph(ds)
        assert g.n_nodes == 2
        weights = {
            (g.addresses[int(s)], g.addresses[int(d)]): int(w)
            for (s, d), w in zip(g.edges, g.edge_weights)
        }
        assert weights == {(addr(1), addr(2)): 2, (addr(2), addr(1)): 1}

    def test_empty_dataset(self):
        g = build_graph(dataset_from([]))
        assert g.n_nodes == 0 and len(g.edges) == 0

    def test_node_count_matches_brute_force_endpoints(self):
        ds = dataset_from(
            [
                make_tx(1, addr(1), addr(2)),
                make_tx(2, addr(3), addr(2)),
                make_tx(3, addr(4), addr(5)),
                make_tx(4, addr(1), addr(5)),
            ]
        )
        brute = {t.sender for t in ds.transactions} | {t.receiver for t in ds.transactions}
        assert build_graph(ds).n_nodes == len(brute) == 5

    def test_first_appearance_node_order(self):
        ds = dataset_from([make_tx(1, addr(7), addr(3)), make_tx(2, addr(3), addr(9))])
        g = build_graph(ds)
        assert g.addresses == (addr(7), addr(3), addr(9))

    def test_permutation_stable_up_to_relabeling(self):
        ds = random_tx_dataset(4)
        g1 = build_graph(ds)
        txs = list(ds.transactions)
        random.Random(9).shuffle(txs)
        g2 = build_graph(dataset_from(txs))
        canonical = lambda g: {
            (g.addresses[int(s)], g.addresses[int(d)], int(w))
            for (s, d), w in zip(g.edges, g.edge_weights)
        }
        assert canonical(g1) == canonical(g2)
        assert set(g1.addresses) == set(g2.addresses)


class TestSparseMatrix:
    def test_csr_invariants_enforced(self):
        with pytest.raises(ShapeMismatch):
            SparseMatrix(2, 2, np.array([0, 1, 2]), np.array([1, 5]), np.array([1.0, 1.0]))
        with pytest.raises(ShapeMismatch):
            # duplicate column in one row -> not strictly increasing
            SparseMatrix(1, 3, np.array([0, 2]), np.array([1, 1]), np.array([1.0, 1.0]))
        with pytest.raises(ShapeMismatch):
            SparseMatrix(2, 2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0]))

    def test_from_coo_merges_duplicates(self):
        m = SparseMatrix.from_coo(
            2, 2, np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([2.0, 3.0, 1.0])
        )
        assert np.array_equal(m.to_dense(), np.array([[0.0, 5.0], [1.0, 0.0]]))

    def test_transpose(self):
        rng = np.random.default_rng(2)
        dense = np.where(rng.random((5, 3)) < 0.4, rng.normal(size=(5, 3)), 0.0)
        rows, cols = np.nonzero(dense)
        m = SparseMatrix.from_coo(5, 3, rows, cols, dense[rows, cols])
        assert np.allclose(m.transpose().to_dense(), dense.T)

    def test_row_order_checked_in_every_row(self):
        # rows 0 and 2 are fine; row 1 repeats a column
        with pytest.raises(ShapeMismatch, match="row 1"):
            SparseMatrix(
                3, 3, np.array([0, 2, 4, 5]), np.array([0, 2, 1, 1, 0]), np.ones(5)
            )
        # a column id that falls across a row boundary is not a violation
        m = SparseMatrix(2, 3, np.array([0, 2, 3]), np.array([1, 2, 0]), np.ones(3))
        assert np.array_equal(m.to_dense(), [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]])

    def test_from_coo_rejects_out_of_range_coordinates(self):
        for rows, cols in (([2], [0]), ([0], [2]), ([-1], [0])):
            with pytest.raises(ShapeMismatch):
                SparseMatrix.from_coo(2, 2, np.array(rows), np.array(cols), np.ones(1))

    def test_transpose_of_rectangular_with_empty_rows(self):
        m = SparseMatrix.from_coo(4, 2, np.array([3, 0, 3]), np.array([1, 1, 0]),
                                  np.array([1.0, 2.0, 3.0]))
        t = m.transpose()
        assert (t.n_rows, t.n_cols, t.nnz) == (2, 4, 3)
        assert np.array_equal(t.to_dense(), m.to_dense().T)


class TestSpmv:
    def test_identity(self):
        eye = SparseMatrix.from_coo(3, 3, np.arange(3), np.arange(3), np.ones(3))
        dense = np.arange(12, dtype=float).reshape(3, 4)
        assert np.array_equal(spmv(eye, dense), dense)

    def test_zero_matrix(self):
        zero = SparseMatrix.from_coo(
            3, 3, np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty(0)
        )
        assert np.array_equal(spmv(zero, np.ones((3, 2))), np.zeros((3, 2)))

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        dense_m = np.where(rng.random((8, 8)) < 0.3, rng.normal(size=(8, 8)), 0.0)
        rows, cols = np.nonzero(dense_m)
        m = SparseMatrix.from_coo(8, 8, rows, cols, dense_m[rows, cols])
        operand = rng.normal(size=(8, 4))
        expected = dense_m @ operand
        got = spmv(m, operand)
        rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-30)
        assert rel.max() <= 1e-12

    def test_vector_operand(self):
        eye = SparseMatrix.from_coo(2, 2, np.arange(2), np.arange(2), np.ones(2))
        assert np.array_equal(spmv(eye, np.array([3.0, 4.0])), np.array([3.0, 4.0]))

    def test_shape_mismatch(self):
        eye = SparseMatrix.from_coo(2, 2, np.arange(2), np.arange(2), np.ones(2))
        with pytest.raises(ShapeMismatch):
            spmv(eye, np.ones((3, 2)))


class TestNormalizedAdjacency:
    def test_single_node_with_self_loop(self):
        g = build_graph(dataset_from([make_tx(1, addr(1), addr(1))]))
        # the self-transfer contributes an edge on the diagonal on top of the loop
        assert np.allclose(normalized_adjacency(g).to_dense(), [[1.0]])

    def test_two_node_worked_example(self):
        g = build_graph(dataset_from([make_tx(1, addr(1), addr(2))]))
        dense = normalized_adjacency(g, add_self_loops=True, symmetrize=True).to_dense()
        assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_isolated_node_without_self_loops_gives_zero_row(self):
        # node 3 only receives, so with symmetrize off and loops off its row is zero
        ds = dataset_from([make_tx(1, addr(1), addr(2)), make_tx(2, addr(1), addr(3))])
        g = build_graph(ds)
        dense = normalized_adjacency(g, add_self_loops=False, symmetrize=False).to_dense()
        receiver_row = dense[g.node_index[addr(3)]]
        assert np.all(receiver_row == 0.0)
        assert np.all(np.isfinite(dense))

    @pytest.mark.parametrize("add_self_loops", [True, False])
    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_matches_dict_oracle(self, add_self_loops, symmetrize):
        # few addresses and many transfers: parallel, reciprocal and self edges
        for seed in range(12):
            g = build_graph(random_tx_dataset(seed, n_addr=6, n_tx=30))
            src, dst = g.edges[:, 0], g.edges[:, 1]
            pairs = set(zip(src.tolist(), dst.tolist()))
            if seed == 0:
                assert (g.edge_weights > 1).any()
                assert any(s == d for s, d in pairs)
                assert any((d, s) in pairs for s, d in pairs if s != d)
            got = normalized_adjacency(
                g, add_self_loops=add_self_loops, symmetrize=symmetrize
            ).to_dense()
            want = normalized_adjacency_oracle(g, add_self_loops, symmetrize)
            # same products in the same order, so equal to the last bit
            assert np.array_equal(got, want)

    def test_empty_graph(self):
        m = normalized_adjacency(build_graph(dataset_from([])))
        assert (m.n_rows, m.n_cols, m.nnz) == (0, 0, 0)

    def test_symmetric_when_requested(self):
        for seed in range(5):
            g = build_graph(random_tx_dataset(seed))
            dense = normalized_adjacency(g, symmetrize=True).to_dense()
            assert np.array_equal(dense, dense.T)

    def test_row_sums_bounded_by_sqrt_degree(self):
        g = build_graph(random_tx_dataset(11, n_addr=10, n_tx=25))
        m = normalized_adjacency(g)
        dense = m.to_dense()
        binary = dense > 0
        degree = binary.sum(axis=1)  # degree of A~ counted on the support
        row_sums = dense.sum(axis=1)
        assert np.all(row_sums > 0)
        assert np.all(row_sums <= np.sqrt(degree) + 1e-9)

    def test_spectral_radius_at_most_one(self):
        for seed in range(20):
            g = build_graph(random_tx_dataset(seed, n_addr=7, n_tx=12))
            dense = normalized_adjacency(g).to_dense()
            eig_radius = float(np.max(np.abs(np.linalg.eigvals(dense))))
            power_radius = power_iteration_radius(dense)
            assert eig_radius <= 1.0 + 1e-9
            assert power_radius <= eig_radius + 1e-6


def test_cli_graph_and_gcn_import_without_scipy():
    # ingest, synth, stats and importance never build the operator, so
    # importing the program must not pay for loading scipy.sparse
    code = (
        "import sys, phishgraph.cli, phishgraph.graph, phishgraph.gcn; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestTrainingInputs:
    def make_inputs(self, n_labeled=10, ratio=0.8):
        txs = [make_tx(i, addr(i), addr((i + 1) % n_labeled)) for i in range(n_labeled)]
        ds = dataset_from(txs, phishing=[addr(i) for i in range(5)])
        g = build_graph(ds)
        X = FeatureMatrix(("f0", "f1"), np.zeros((g.n_nodes, 2)))
        labels = labels_vector(ds, g)
        split = stratified_split(labels, ratio=ratio, seed=0)
        return ds, g, X, split

    def test_consistent_batch(self):
        ds, g, X, split = self.make_inputs()
        batch = to_training_inputs(g, X, ds, split)
        assert batch.norm_adj.n_rows == g.n_nodes == batch.features.rows.shape[0]
        assert batch.labels.shape == (g.n_nodes,)

    def test_extra_feature_row_rejected(self):
        ds, g, X, split = self.make_inputs()
        bigger = FeatureMatrix(X.names, np.zeros((g.n_nodes + 1, 2)))
        with pytest.raises(ShapeMismatch):
            to_training_inputs(g, bigger, ds, split)

    def test_split_counts_80_20(self):
        ds, g, X, split = self.make_inputs(n_labeled=10, ratio=0.8)
        batch = to_training_inputs(g, X, ds, split)
        assert int(batch.train_mask.sum()) == 8
        assert int(batch.test_mask.sum()) == 2
