"""Directed address graph, normalized sparse operator, and training inputs.

The transaction graph keeps direction and parallel-edge counts because the
behavioral features need them. Propagation uses a separate operator: a 0/1
adjacency, symmetrized by default (the symmetric normal form is only well
defined for symmetric matrices), with self-loops added so nodes retain their
own features. Both behaviors are flag-selectable for ablation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch
from .txmodel import Address, LabeledDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from .evaluate import SplitMasks
    from .features import FeatureMatrix


@dataclass
class TxGraph:
    """Directed graph over addresses with per-edge transaction counts."""

    addresses: tuple[Address, ...]
    edges: np.ndarray          # (m, 2) int array of (src_id, dst_id)
    edge_weights: np.ndarray   # (m,) parallel-transaction counts
    node_index: dict[Address, int]

    def __post_init__(self):
        n = len(self.addresses)
        if self.edges.size and (self.edges.min() < 0 or self.edges.max() >= n):
            raise ShapeMismatch("edge endpoint out of range")
        pairs = {(int(s), int(d)) for s, d in self.edges}
        if len(pairs) != len(self.edges):
            raise ShapeMismatch("duplicate directed edge")
        if sorted(self.node_index.values()) != list(range(n)):
            raise ShapeMismatch("node_index is not a bijection onto 0..n-1")

    @property
    def n_nodes(self) -> int:
        return len(self.addresses)


def build_graph(ds: LabeledDataset) -> TxGraph:
    """One node per distinct endpoint (first-appearance order), one edge per
    distinct (sender, receiver) pair with the collapsed transaction count."""
    node_index: dict[Address, int] = {}
    addresses: list[Address] = []
    counts: dict[tuple[int, int], int] = {}
    for tx in ds.transactions:
        for addr in (tx.sender, tx.receiver):
            if addr not in node_index:
                node_index[addr] = len(addresses)
                addresses.append(addr)
        key = (node_index[tx.sender], node_index[tx.receiver])
        counts[key] = counts.get(key, 0) + 1
    if counts:
        edges = np.array(list(counts.keys()), dtype=np.int64)
        weights = np.array(list(counts.values()), dtype=np.int64)
    else:
        edges = np.empty((0, 2), dtype=np.int64)
        weights = np.empty((0,), dtype=np.int64)
    return TxGraph(tuple(addresses), edges, weights, node_index)


class SparseMatrix:
    """Compressed-sparse-row float64 matrix backed by ``scipy.sparse.csr_array``.

    Construction checks the CSR arrays before scipy sees them: row pointers
    that start at 0, end at nnz and never decrease, column ids in range and
    strictly increasing within each row. scipy is imported here and not at
    module level, so commands that never build the operator never load it.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        values: np.ndarray,
    ):
        from scipy.sparse import csr_array

        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indptr.shape != (n_rows + 1,):
            raise ShapeMismatch("indptr has wrong length")
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise ShapeMismatch("indptr endpoints inconsistent with nnz")
        row_lengths = np.diff(indptr)
        if np.any(row_lengths < 0):
            raise ShapeMismatch("indptr must be non-decreasing")
        if len(indices) != len(values):
            raise ShapeMismatch("indices/values length mismatch")
        if indices.size and (indices.min() < 0 or indices.max() >= n_cols):
            raise ShapeMismatch("column id out of range")
        row_ids = np.repeat(np.arange(n_rows, dtype=np.int64), row_lengths)
        unordered = (np.diff(indices) <= 0) & (row_ids[1:] == row_ids[:-1])
        if unordered.any():
            r = row_ids[np.argmax(unordered)]
            raise ShapeMismatch(f"column ids not strictly increasing in row {r}")
        self.csr = csr_array((values, indices, indptr), shape=(n_rows, n_cols))

    @property
    def n_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def n_cols(self) -> int:
        return self.csr.shape[1]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    @classmethod
    def from_coo(
        cls,
        n_rows: int,
        n_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "SparseMatrix":
        """Build CSR from triplets; duplicate coordinates are summed."""
        from scipy.sparse import coo_array

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise ShapeMismatch("row id out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ShapeMismatch("column id out of range")
        coo = coo_array(
            (np.asarray(values, dtype=np.float64), (rows, cols)), shape=(n_rows, n_cols)
        )
        return cls._from_csr(coo.tocsr())

    @classmethod
    def _from_csr(cls, csr) -> "SparseMatrix":
        csr.sum_duplicates()  # also sorts the column ids of each row
        return cls(*csr.shape, csr.indptr, csr.indices, csr.data)

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix._from_csr(self.csr.T.tocsr())


def spmv(m: SparseMatrix, dense: np.ndarray) -> np.ndarray:
    """Exact sparse @ dense product (dense may be a vector or a matrix)."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[0] != m.n_cols:
        raise ShapeMismatch(
            f"operand has {dense.shape[0]} rows, matrix has {m.n_cols} columns"
        )
    return m.csr @ dense


def normalized_adjacency(
    g: TxGraph, add_self_loops: bool = True, symmetrize: bool = True
) -> SparseMatrix:
    """Symmetric degree normalization of the 0/1 adjacency.

    With A the 0/1 adjacency (symmetrized via max(A, A^T) when requested) and
    A~ = A + I when self-loops are on, returns D^{-1/2} A~ D^{-1/2} where D is
    the diagonal of A~'s row sums. Rows of degree zero (possible only with
    self-loops off) come out as all-zero rows rather than dividing by zero.
    A self-transfer is an edge on the diagonal, so with self-loops on its
    node's diagonal entry of A~ is 2.
    """
    n = g.n_nodes
    src, dst = g.edges[:, 0], g.edges[:, 1]
    if symmetrize:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    # one key per distinct (row, col): parallel and mirrored edges collapse to 1
    base = max(n, 1)
    pairs = np.unique(src * base + dst)
    rows, cols = pairs // base, pairs % base
    if add_self_loops:
        loops = np.arange(n, dtype=np.int64)
        rows, cols = np.concatenate((rows, loops)), np.concatenate((cols, loops))
    degree = np.bincount(rows, minlength=n).astype(np.float64)
    inv_sqrt = np.zeros(n)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    return SparseMatrix.from_coo(n, n, rows, cols, inv_sqrt[rows] * inv_sqrt[cols])


@dataclass
class GraphBatch:
    """Everything the classifier needs, packed and shape-checked."""

    features: "FeatureMatrix"
    norm_adj: SparseMatrix
    labels: np.ndarray       # (n,) int codes
    train_mask: np.ndarray   # (n,) bool
    test_mask: np.ndarray    # (n,) bool

    def __post_init__(self):
        n = self.norm_adj.n_rows
        if self.features.rows.shape[0] != n:
            raise ShapeMismatch(
                f"feature rows ({self.features.rows.shape[0]}) != node count ({n})"
            )
        if self.labels.shape != (n,):
            raise ShapeMismatch("label vector has wrong length")
        for mask in (self.train_mask, self.test_mask):
            if mask.shape != (n,) or mask.dtype != np.bool_:
                raise ShapeMismatch("masks must be boolean vectors over nodes")
        if np.any(self.train_mask & self.test_mask):
            raise ShapeMismatch("train and test masks overlap")


def to_training_inputs(
    g: TxGraph,
    X: "FeatureMatrix",
    ds: LabeledDataset,
    split: "SplitMasks",
    add_self_loops: bool = True,
    symmetrize: bool = True,
) -> GraphBatch:
    """Pack features, normalized adjacency, labels, and split masks."""
    if X.rows.shape[0] != g.n_nodes:
        raise ShapeMismatch(
            f"feature rows ({X.rows.shape[0]}) != node count ({g.n_nodes})"
        )
    labels = np.array(
        [int(ds.labels[addr]) for addr in g.addresses], dtype=np.int64
    )
    adj = normalized_adjacency(g, add_self_loops=add_self_loops, symmetrize=symmetrize)
    return GraphBatch(
        features=X,
        norm_adj=adj,
        labels=labels,
        train_mask=np.asarray(split.train_mask, dtype=bool),
        test_mask=np.asarray(split.test_mask, dtype=bool),
    )
