import importlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import coo_array, csr_array

from phishgraph import graph
from phishgraph.errors import ShapeMismatch
from phishgraph.graph import (
    SparseMatrix,
    build_graph,
    normalized_adjacency,
    spmv,
    to_training_inputs,
)
from phishgraph.evaluate import SplitMasks, stratified_split
from phishgraph.features import FeatureMatrix
from phishgraph.storage import load_dataset, save_dataset
from phishgraph.synthetic import SyntheticConfig, generate_synthetic

from helpers import (
    addr,
    build_graph_oracle,
    dataset_from,
    labels_vector,
    make_tx,
    node_addresses,
    node_of,
    normalized_adjacency_oracle,
    random_tx_dataset,
    to_dense,
    transactions,
)


@pytest.fixture(scope="module")
def synth_1x_graph():
    """The graph of the default 1x corpus, ``synth --seed 101``."""
    return build_graph(generate_synthetic(SyntheticConfig(seed=101)))


def sparse(dense) -> SparseMatrix:
    """The SparseMatrix of a dense array, through scipy's own CSR conversion."""
    c = csr_array(np.asarray(dense, dtype=np.float64))
    return SparseMatrix(c.indptr.astype(np.int64), c.indices.astype(np.int64), c.data, c.shape)


def coo_operator(g, add_self_loops: bool, symmetrize: bool) -> csr_array:
    """The operator as one scipy COO-to-CSR conversion builds it, written out
    as the reference that ``normalized_adjacency``'s numpy arrays must equal."""
    n = g.n_nodes
    src, dst = g.tx_nodes.T
    if symmetrize:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    adj = coo_array((np.ones(len(src)), (src, dst)), shape=(n, n)).tocsr()
    adj.data[:] = 1.0
    if add_self_loops:
        loops = np.arange(n + 1)
        adj = adj + csr_array((np.ones(n), loops[:-1], loops), shape=(n, n))
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    degree = np.bincount(rows, weights=adj.data, minlength=n)
    inv_sqrt = np.zeros(n)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    adj.data *= inv_sqrt[rows] * inv_sqrt[adj.indices]
    return adj


def assert_same_csr(m: SparseMatrix, ref: csr_array) -> None:
    """Same shape, index arrays (dtypes included) and data bytes."""
    assert m.shape == ref.shape
    for got, want in ((m.indptr, ref.indptr), (m.indices, ref.indices)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert m.data.dtype == ref.data.dtype and m.data.tobytes() == ref.data.tobytes()


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
    def test_parallel_transfers_keep_one_pair_each(self):
        ds = dataset_from(
            [
                make_tx(1, addr(1), addr(2)),
                make_tx(2, addr(1), addr(2)),
                make_tx(3, addr(2), addr(1)),
            ]
        )
        g = build_graph(ds)
        assert g.n_nodes == 2
        nodes = node_addresses(ds, g)
        assert [(nodes[s], nodes[d]) for s, d in g.tx_nodes.tolist()] == [
            (addr(1), addr(2)), (addr(1), addr(2)), (addr(2), addr(1)),
        ]

    def test_empty_dataset(self):
        g = build_graph(dataset_from([]))
        assert g.n_nodes == 0 and g.tx_nodes.shape == (0, 2)

    def test_node_count_matches_brute_force_endpoints(self):
        ds = dataset_from(
            [
                make_tx(1, addr(1), addr(2)),
                make_tx(2, addr(3), addr(2)),
                make_tx(3, addr(4), addr(5)),
                make_tx(4, addr(1), addr(5)),
            ]
        )
        brute = {a for t in transactions(ds) for a in (t.sender, t.receiver)}
        assert build_graph(ds).n_nodes == len(brute) == 5

    def test_first_appearance_node_order(self):
        ds = dataset_from([make_tx(1, addr(7), addr(3)), make_tx(2, addr(3), addr(9))])
        g = build_graph(ds)
        assert node_addresses(ds, g) == (addr(7), addr(3), addr(9))

    def test_labels_follow_node_order(self):
        ds = random_tx_dataset(6, phishing_rate=0.4)
        g = build_graph(ds)
        assert g.labels.dtype == np.int64
        assert set(g.labels.tolist()) == {0, 1}
        assert np.array_equal(g.labels, labels_vector(ds, g))

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_dict_oracle(self, seed, tmp_path):
        # few addresses for many transactions: parallel, reciprocal and self edges
        ds = random_tx_dataset(seed, n_addr=3 + seed, n_tx=4 * seed, phishing_rate=0.3)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        addresses, tx_nodes, labels = build_graph_oracle(ds)
        for candidate in (ds, load_dataset(path)):
            g = build_graph(candidate)
            assert node_addresses(candidate, g) == addresses
            assert g.tx_nodes.dtype == np.int64
            assert np.array_equal(g.tx_nodes, tx_nodes)
            assert np.array_equal(g.labels, labels)

    def test_permutation_stable_up_to_relabeling(self):
        ds = random_tx_dataset(4)
        g1 = build_graph(ds)
        txs = list(transactions(ds))
        random.Random(9).shuffle(txs)
        shuffled = dataset_from(txs)
        g2 = build_graph(shuffled)

        def transfers(ds, g):
            nodes = node_addresses(ds, g)
            return sorted((nodes[s], nodes[d]) for s, d in g.tx_nodes.tolist())

        assert transfers(ds, g1) == transfers(shuffled, g2)
        assert set(node_addresses(ds, g1)) == set(node_addresses(shuffled, g2))


class TestSparseMatrix:
    def test_transpose(self):
        rng = np.random.default_rng(2)
        dense = np.where(rng.random((5, 3)) < 0.4, rng.normal(size=(5, 3)), 0.0)
        m = sparse(dense)
        assert np.array_equal(to_dense(m.transpose()), dense.T)

    def test_transpose_of_rectangular_with_empty_rows(self):
        m = sparse([[0.0, 2.0], [0.0, 0.0], [0.0, 0.0], [3.0, 1.0]])
        t = m.transpose()
        assert (t.n_rows, t.n_cols, t.nnz) == (2, 4, 3)
        assert np.array_equal(to_dense(t), to_dense(m).T)

    # (indptr, indices, data, shape) of [[0, 2], [0, 0], [0, 0], [3, 1]], with
    # one fault each: the compiled routines would read past these arrays
    @pytest.mark.parametrize("fault", [
        "indptr_int32", "indptr_short", "indptr_from_one", "indptr_falls", "shape_reversed",
        "indices_int32", "data_float32", "indices_2d", "data_strided",
        "indices_short", "data_long", "column_past_end", "column_negative",
    ])
    def test_malformed_arrays_rejected(self, fault):
        parts = {"indptr": np.array([0, 1, 1, 1, 3]), "indices": np.array([1, 0, 1]),
                 "data": np.array([2.0, 3.0, 1.0]), "shape": (4, 2)}
        parts.update({
            "indptr_int32": {"indptr": parts["indptr"].astype(np.int32)},
            "indptr_short": {"indptr": parts["indptr"][1:]},
            "indptr_from_one": {"indptr": np.array([1, 1, 1, 1, 3])},
            "indptr_falls": {"indptr": np.array([0, 2, 1, 1, 3])},
            "shape_reversed": {"shape": (2, 4)},
            "indices_int32": {"indices": parts["indices"].astype(np.int32)},
            "data_float32": {"data": parts["data"].astype(np.float32)},
            "indices_2d": {"indices": parts["indices"].reshape(1, 3)},
            "data_strided": {"data": np.array([2.0, 0.0, 3.0, 0.0, 1.0, 0.0])[::2]},
            "indices_short": {"indices": parts["indices"][:2]},
            "data_long": {"data": np.append(parts["data"], 4.0)},
            "column_past_end": {"indices": np.array([2, 0, 1])},
            "column_negative": {"indices": np.array([-1, 0, 1])},
        }[fault])
        with pytest.raises(ShapeMismatch):
            SparseMatrix(**parts)


class TestSpmv:
    def test_identity(self):
        eye = sparse(np.eye(3))
        dense = np.arange(12, dtype=float).reshape(3, 4)
        assert np.array_equal(spmv(eye, dense), dense)

    def test_zero_matrix(self):
        zero = sparse(np.zeros((3, 3)))
        assert zero.nnz == 0
        assert np.array_equal(spmv(zero, np.ones((3, 2))), np.zeros((3, 2)))

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(3)
        dense_m = np.where(rng.random((8, 8)) < 0.3, rng.normal(size=(8, 8)), 0.0)
        m = sparse(dense_m)
        operand = rng.normal(size=(8, 4))
        expected = dense_m @ operand
        got = spmv(m, operand)
        rel = np.abs(got - expected) / np.maximum(np.abs(expected), 1e-30)
        assert rel.max() <= 1e-12

    def test_vector_operand(self):
        eye = sparse(np.eye(2))
        assert np.array_equal(spmv(eye, np.array([3.0, 4.0])), np.array([3.0, 4.0]))

    def test_shape_mismatch(self):
        eye = sparse(np.eye(2))
        with pytest.raises(ShapeMismatch):
            spmv(eye, np.ones((3, 2)))


class TestCompiledKernel:
    """``spmv`` and ``transpose`` call scipy's private compiled CSR routines
    directly, so a scipy whose routines change must fail here rather than
    change a product's bits."""

    @staticmethod
    def operands(n: int):
        rng = np.random.default_rng(n)
        matrix = rng.normal(size=(n, 5))
        return {"vector": rng.normal(size=n), "column": rng.normal(size=(n, 1)),
                "c-ordered": matrix, "f-ordered": np.asfortranarray(matrix * 3.0)}

    @pytest.mark.parametrize("shape,density", [((9, 9), 0.3), ((6, 4), 0.5), ((4, 3), 0.0)],
                             ids=["square", "rectangular-empty-rows", "nnz-0"])
    def test_spmv_bytes_match_csr_array(self, shape, density):
        rng = np.random.default_rng(7)
        dense = np.where(rng.random(shape) < density, rng.normal(size=shape), 0.0)
        if shape == (6, 4):
            dense[[1, 4]] = 0.0  # empty rows
        m = sparse(dense)
        assert (m.nnz == 0) == (density == 0.0)
        ref = csr_array((m.data, m.indices, m.indptr), shape=m.shape)
        for name, x in self.operands(shape[1]).items():
            got, want = spmv(m, x), ref @ x
            assert got.shape == want.shape and got.flags.c_contiguous, name
            assert got.tobytes() == want.tobytes(), name

    def test_transpose_matches_csr_array(self):
        rng = np.random.default_rng(8)
        dense = np.where(rng.random((7, 5)) < 0.4, rng.normal(size=(7, 5)), 0.0)
        m = sparse(dense)
        t = m.transpose()
        assert t is not m
        assert_same_csr(t, csr_array((m.data, m.indices, m.indptr), shape=m.shape).T.tocsr())

    @pytest.mark.parametrize("add_self_loops", [True, False])
    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_corpus_operator_matches_coo_conversion(self, synth_1x_graph, add_self_loops,
                                                    symmetrize):
        g = synth_1x_graph
        m = normalized_adjacency(g, add_self_loops=add_self_loops, symmetrize=symmetrize)
        ref = coo_operator(g, add_self_loops, symmetrize)
        assert_same_csr(m, ref)
        t = m.transpose()
        # a symmetrized operator is its own transpose, bit for bit
        assert (t is m) == symmetrize
        assert_same_csr(t, ref.T.tocsr())
        for name, x in self.operands(g.n_nodes).items():
            assert spmv(m, x).tobytes() == (ref @ x).tobytes(), name
            assert spmv(t, x).tobytes() == (ref.T.tocsr() @ x).tobytes(), name

    def test_kernel_is_scipys_compiled_module(self):
        import scipy.sparse._sparsetools as kernel

        assert graph._sparsetools().__file__ == kernel.__file__

    @pytest.mark.parametrize("failure", ["no-file", "no-load"])
    def test_falls_back_to_package_import(self, monkeypatch, failure):
        m = sparse([[0.0, 2.0, 1.5], [0.0, 0.0, 0.0], [3.0, 1.0, 0.0]])
        x = np.arange(6.0).reshape(3, 2) / 7.0
        want = spmv(m, x).tobytes()
        imported, real_import = [], importlib.import_module

        def spy(name, *args):
            imported.append(name)
            return real_import(name, *args)

        def no_load(*args):
            raise ImportError("cannot load the kernel file")

        monkeypatch.setattr(importlib, "import_module", spy)
        if failure == "no-file":
            monkeypatch.setattr(graph, "EXTENSION_SUFFIXES", ())
        else:
            monkeypatch.setattr(graph, "ExtensionFileLoader", no_load)
        graph._sparsetools.cache_clear()
        try:
            assert spmv(m, x).tobytes() == want
            assert m.transpose().nnz == m.nnz
            assert imported == ["scipy.sparse._sparsetools"]
        finally:
            graph._sparsetools.cache_clear()


class TestNormalizedAdjacency:
    def test_single_node_with_self_loop(self):
        g = build_graph(dataset_from([make_tx(1, addr(1), addr(1))]))
        # the self-transfer contributes an edge on the diagonal on top of the loop
        assert np.allclose(to_dense(normalized_adjacency(g)), [[1.0]])

    def test_two_node_worked_example(self):
        g = build_graph(dataset_from([make_tx(1, addr(1), addr(2))]))
        dense = to_dense(normalized_adjacency(g, add_self_loops=True, symmetrize=True))
        assert np.allclose(dense, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_isolated_node_without_self_loops_gives_zero_row(self):
        # node 3 only receives, so with symmetrize off and loops off its row is zero
        ds = dataset_from([make_tx(1, addr(1), addr(2)), make_tx(2, addr(1), addr(3))])
        g = build_graph(ds)
        dense = to_dense(normalized_adjacency(g, add_self_loops=False, symmetrize=False))
        receiver_row = dense[node_of(ds, g, addr(3))]
        assert np.all(receiver_row == 0.0)
        assert np.all(np.isfinite(dense))

    @pytest.mark.parametrize("add_self_loops", [True, False])
    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_matches_dict_oracle(self, add_self_loops, symmetrize):
        # few addresses and many transfers: parallel, reciprocal and self edges
        for seed in range(12):
            g = build_graph(random_tx_dataset(seed, n_addr=6, n_tx=30))
            transfers = list(map(tuple, g.tx_nodes.tolist()))
            pairs = set(transfers)
            if seed == 0:
                assert len(pairs) < len(transfers)  # a parallel transfer
                assert any(s == d for s, d in pairs)
                assert any((d, s) in pairs for s, d in pairs if s != d)
            got = to_dense(normalized_adjacency(
                g, add_self_loops=add_self_loops, symmetrize=symmetrize
            ))
            want = normalized_adjacency_oracle(g, add_self_loops, symmetrize)
            # same products in the same order, so equal to the last bit
            assert np.array_equal(got, want)

    def test_parallel_and_mirrored_transfers_merge(self):
        # three transfers over one pair give the operator of a single transfer
        single = build_graph(dataset_from([make_tx(1, addr(1), addr(2))]))
        repeated = build_graph(dataset_from([
            make_tx(1, addr(1), addr(2)),
            make_tx(2, addr(1), addr(2)),
            make_tx(3, addr(2), addr(1)),
        ]))
        for add_self_loops in (True, False):
            a = normalized_adjacency(single, add_self_loops=add_self_loops)
            b = normalized_adjacency(repeated, add_self_loops=add_self_loops)
            assert a.nnz == b.nnz == 2 + 2 * add_self_loops
            assert np.array_equal(to_dense(a), to_dense(b))

    @pytest.mark.parametrize("add_self_loops", [True, False])
    @pytest.mark.parametrize("symmetrize", [True, False])
    def test_corpus_csr_arrays_match_oracle(self, synth_1x_graph, add_self_loops,
                                            symmetrize):
        # spmv sums each row in its stored column order, which a comparison
        # of dense arrays cannot see, so compare the CSR arrays themselves
        g = synth_1x_graph
        m = normalized_adjacency(g, add_self_loops=add_self_loops, symmetrize=symmetrize)
        want = normalized_adjacency_oracle(g, add_self_loops, symmetrize)
        # every node of this corpus sends, so no entry is an explicit zero
        # that csr_array(want) would drop
        assert np.all(m.data != 0.0)
        for got, dense in ((m, want), (m.transpose(), want.T)):
            ref = csr_array(dense)
            assert got.shape == ref.shape
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert got.data.tobytes() == ref.data.tobytes()

    def test_empty_graph(self):
        m = normalized_adjacency(build_graph(dataset_from([])))
        assert (m.n_rows, m.n_cols, m.nnz) == (0, 0, 0)

    def test_symmetric_when_requested(self):
        for seed in range(5):
            g = build_graph(random_tx_dataset(seed))
            dense = to_dense(normalized_adjacency(g, symmetrize=True))
            assert np.array_equal(dense, dense.T)

    def test_row_sums_bounded_by_sqrt_degree(self):
        g = build_graph(random_tx_dataset(11, n_addr=10, n_tx=25))
        m = normalized_adjacency(g)
        dense = to_dense(m)
        binary = dense > 0
        degree = binary.sum(axis=1)  # degree of A~ counted on the support
        row_sums = dense.sum(axis=1)
        assert np.all(row_sums > 0)
        assert np.all(row_sums <= np.sqrt(degree) + 1e-9)

    def test_spectral_radius_at_most_one(self):
        for seed in range(20):
            g = build_graph(random_tx_dataset(seed, n_addr=7, n_tx=12))
            dense = to_dense(normalized_adjacency(g))
            eig_radius = float(np.max(np.abs(np.linalg.eigvals(dense))))
            power_radius = power_iteration_radius(dense)
            assert eig_radius <= 1.0 + 1e-9
            assert power_radius <= eig_radius + 1e-6


def test_cli_graph_and_gcn_import_without_scipy(tmp_path):
    # importing the program loads no scipy module, and neither does any
    # command: run and compare load only the compiled CSR routines, from their
    # file, after which an import of scipy.sparse still runs as usual
    code = f"""
import sys
import phishgraph.cli, phishgraph.graph, phishgraph.gcn
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
out = {str(tmp_path)!r}
data = ["--dataset", out + "/ds.bin", "--epochs", "2"]
for args in (["synth", "--seed", "3", "--benign", "30", "--phishing", "8",
              "--out", out + "/ds.bin"],
             ["run", *data, "--features", "both", "--out-dir", out + "/run"],
             ["compare", *data, "--no-symmetrize", "--out-dir", out + "/cmp"]):
    assert phishgraph.cli.main(args) == 0, args
print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))
import scipy.sparse
print(scipy.sparse.identity(2).nnz)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "[]"
    assert done.stdout.splitlines()[-2:] == ["[]", "2"]


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
        batch = to_training_inputs(g, X, split)
        assert batch.norm_adj.n_rows == g.n_nodes == batch.features.rows.shape[0]
        assert batch.labels.shape == (g.n_nodes,)

    def test_extra_feature_row_rejected(self):
        ds, g, X, split = self.make_inputs()
        bigger = FeatureMatrix(X.names, np.zeros((g.n_nodes + 1, 2)))
        with pytest.raises(ShapeMismatch):
            to_training_inputs(g, bigger, split)

    def test_split_of_wrong_length_rejected(self):
        ds, g, X, split = self.make_inputs()
        short = SplitMasks(split.train_mask[:-1], split.test_mask[:-1])
        with pytest.raises(ShapeMismatch, match="masks"):
            to_training_inputs(g, X, short)

    def test_overlapping_masks_rejected(self):
        ds, g, X, split = self.make_inputs()
        overlap = SplitMasks(split.train_mask, split.test_mask.copy())
        overlap.test_mask[np.argmax(split.train_mask)] = True
        with pytest.raises(ShapeMismatch, match="overlap"):
            to_training_inputs(g, X, overlap)

    def test_split_counts_80_20(self):
        ds, g, X, split = self.make_inputs(n_labeled=10, ratio=0.8)
        batch = to_training_inputs(g, X, split)
        assert int(batch.train_mask.sum()) == 8
        assert int(batch.test_mask.sum()) == 2
