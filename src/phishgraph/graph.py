"""Transaction graph, normalized sparse operator, and training inputs.

After ingest an address is its address-table row, so the graph is three
arrays: the table row of each node, the (sender, receiver) node pair of each
transaction, and the node labels. The behavioral features reduce the
transactions grouped by those node pairs. Propagation uses a 0/1 adjacency
built from the same pairs, symmetrized by default (the symmetric normal form
is only well defined for symmetric matrices), with self-loops added so nodes
retain their own features. Both behaviors are flag-selectable for ablation.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch
from .txmodel import LabeledDataset

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
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
    src, dst = g.tx_nodes.T
    if symmetrize:
        src, dst = np.concatenate((src, dst)), np.concatenate((dst, src))
    # one key per distinct (row, col): parallel and mirrored transfers collapse to 1
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
    split: "SplitMasks",
    add_self_loops: bool = True,
    symmetrize: bool = True,
) -> GraphBatch:
    """Pack features, normalized adjacency, labels, and split masks."""
    if X.rows.shape[0] != g.n_nodes:
        raise ShapeMismatch(
            f"feature rows ({X.rows.shape[0]}) != node count ({g.n_nodes})"
        )
    adj = normalized_adjacency(g, add_self_loops=add_self_loops, symmetrize=symmetrize)
    return GraphBatch(
        features=X,
        norm_adj=adj,
        labels=g.labels,
        train_mask=np.asarray(split.train_mask, dtype=bool),
        test_mask=np.asarray(split.test_mask, dtype=bool),
    )
