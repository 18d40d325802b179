"""Transaction graph, normalized sparse operator, and training inputs.

After ingest an address is its address-table row, so the graph is three
arrays: the table row of each node, the (sender, receiver) node pair of each
transaction, and the node labels. The behavioral features reduce the
transactions grouped by those node pairs. Propagation uses a 0/1 adjacency
built from the same pairs, symmetrized by default (the symmetric normal form
is only well defined for symmetric matrices), with self-loops added so nodes
retain their own features. Both behaviors are flag-selectable for ablation.
The operator comes from one scipy COO-to-CSR conversion, which merges
parallel and mirrored pairs and sorts the column ids of each row.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch
from .txmodel import LabeledDataset

if TYPE_CHECKING:  # pragma: no cover - annotations only: import cycles, lazy scipy
    from scipy.sparse import csr_array

    from .evaluate import SplitMasks
    from .features import FeatureMatrix


@dataclass
class TxGraph:
    """Nodes are the transactions' endpoints in first-appearance order."""

    rows: np.ndarray      # (n,) int64 address-table row of each node
    tx_nodes: np.ndarray  # (m, 2) int64 (sender, receiver) node of each transaction
    labels: np.ndarray    # (n,) int64 label codes in node order

    @property
    def n_nodes(self) -> int:
        return len(self.rows)


def build_graph(ds: LabeledDataset) -> TxGraph:
    """One node per distinct endpoint (first-appearance order), each
    transaction's endpoint nodes, and each node's label code."""
    ends = np.stack((ds.records["sender"], ds.records["receiver"]), axis=1).astype(np.int64)
    rows, first = np.unique(ends, return_index=True)  # address-table rows
    rows = rows[np.argsort(first)]
    node_of = np.zeros(len(ds.address_table), dtype=np.int64)
    node_of[rows] = np.arange(len(rows))
    labels = ds.address_table["label"][rows].astype(np.int64)
    return TxGraph(rows, node_of[ends], labels)


@dataclass
class SparseMatrix:
    """A float64 matrix held as one canonical ``scipy.sparse.csr_array``.

    Canonical means no duplicate entries and sorted column ids in every row.
    ``spmv`` sums each row in its stored column order, so that order fixes
    the bits of every product. The wrapper stays only so that
    ``benchmarks/traced_cli.py`` can time ``transpose`` and read ``nnz`` and
    ``n_rows`` from ``spmv``'s operand.
    """

    csr: "csr_array"

    @property
    def n_rows(self) -> int:
        return self.csr.shape[0]

    @property
    def n_cols(self) -> int:
        return self.csr.shape[1]

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix(self.csr.T.tocsr())


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
    # imported here, so commands that never build the operator never load scipy
    from scipy.sparse import coo_array, csr_array

    n = g.n_nodes
    src, dst = g.tx_nodes.T
    if symmetrize:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    # the conversion sums parallel and mirrored transfers and sorts each row
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
    return SparseMatrix(adj)


@dataclass
class GraphBatch:
    """Everything the classifier needs, shape-checked whenever it is built,
    so a ``dataclasses.replace`` that swaps in other features is checked too."""

    features: "FeatureMatrix"
    norm_adj: SparseMatrix
    labels: np.ndarray       # (n,) int codes
    train_mask: np.ndarray   # (n,) bool
    test_mask: np.ndarray    # (n,) bool

    def __post_init__(self):
        n, rows = len(self.labels), self.features.rows.shape[0]
        if rows != n:
            raise ShapeMismatch(f"feature rows ({rows}) != node count ({n})")
        self.train_mask = np.asarray(self.train_mask, dtype=bool)
        self.test_mask = np.asarray(self.test_mask, dtype=bool)
        if self.train_mask.shape != (n,) or self.test_mask.shape != (n,):
            raise ShapeMismatch("masks must be boolean vectors over nodes")
        if np.any(self.train_mask & self.test_mask):
            raise ShapeMismatch("train and test masks overlap")


def to_training_inputs(
    g: TxGraph,
    X: "FeatureMatrix",
    split: "SplitMasks",
    add_self_loops: bool = True,
    symmetrize: bool = True,
) -> GraphBatch:
    """Pack features, normalized adjacency, labels, and split masks."""
    adj = normalized_adjacency(g, add_self_loops=add_self_loops, symmetrize=symmetrize)
    return GraphBatch(X, adj, g.labels, split.train_mask, split.test_mask)
