"""Transaction graph, normalized sparse operator, and training inputs.

After ingest an address is its address-table row, so the graph is three
arrays: the table row of each node, the (sender, receiver) node pair of each
transaction, and the node labels. The behavioral features reduce the
transactions grouped by those node pairs. Propagation uses a 0/1 adjacency
built from the same pairs, symmetrized by default (the symmetric normal form
is only well defined for symmetric matrices), with self-loops added so nodes
retain their own features. Both behaviors are flag-selectable for ablation.
The operator's canonical CSR arrays are built in numpy and its products run
scipy's compiled CSR routines alone, so no command imports ``scipy.sparse``.
"""
from __future__ import annotations

import functools
import importlib.util
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ShapeMismatch
from .txmodel import LabeledDataset

if TYPE_CHECKING:  # pragma: no cover - annotations only: import cycles
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


@functools.cache
def _sparsetools():
    """The compiled CSR routines that ``csr_array`` runs, loaded from their own
    file, which skips the slow import of the ``scipy.sparse`` package, and kept
    out of ``sys.modules``; through the package only if the file will not load."""
    name, held = "scipy.sparse._sparsetools", sys.modules.get("scipy.sparse._sparsetools")
    try:
        folder = Path(importlib.util.find_spec("scipy").origin).parent / "sparse"
        path = next(p for s in EXTENSION_SUFFIXES if (p := folder / f"_sparsetools{s}").is_file())
        loader = ExtensionFileLoader(name, str(path))
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
    except (AttributeError, ImportError, OSError, StopIteration, TypeError):
        return importlib.import_module(name)
    if held is None:  # loading a single-phase extension registers it
        sys.modules.pop(name, None)
    return module


@dataclass
class SparseMatrix:
    """A float64 matrix in canonical CSR form: no duplicate entries and sorted
    column ids in every row, the order in which ``spmv`` sums each row. The
    class exists only so that ``benchmarks/traced_cli.py`` can time
    ``transpose`` and read ``nnz`` and ``n_rows`` from ``spmv``'s operand. The
    compiled routines read it unchecked, so it is checked when it is built."""

    indptr: np.ndarray   # (n_rows + 1,) int64 start of each row's entries
    indices: np.ndarray  # (nnz,) int64 column ids
    data: np.ndarray     # (nnz,) float64 values
    shape: tuple[int, int]
    symmetric: bool = False  # pattern and bits: the matrix is its own transpose

    def __post_init__(self):
        p, i, d = self.indptr, self.indices, self.data
        kinds = [(a.dtype, a.ndim, a.flags.c_contiguous) for a in (p, i, d)]
        if kinds != [(np.int64, 1, True)] * 2 + [(np.float64, 1, True)]:
            raise ShapeMismatch("CSR arrays must be 1-D contiguous int64, int64 and float64")
        if min(self.shape) < 0 or len(p) != self.n_rows + 1 or p[0] or np.any(p[1:] < p[:-1]):
            raise ShapeMismatch(f"row pointers must rise from 0 over {self.n_rows} rows")
        if not len(i) == len(d) == p[-1] or (i.size and not 0 <= i.min() <= i.max() < self.n_cols):
            raise ShapeMismatch(f"entries must match the row pointers and {self.n_cols} columns")

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def transpose(self) -> "SparseMatrix":
        if self.symmetric:  # entry a_ij * (d_i * d_j) has the bits of a_ji * (d_j * d_i)
            return self
        t = np.empty(self.n_cols + 1, np.int64), np.empty(self.nnz, np.int64), np.empty(self.nnz)
        _sparsetools().csr_tocsc(*self.shape, self.indptr, self.indices, self.data, *t)
        return SparseMatrix(*t, self.shape[::-1])


def spmv(m: SparseMatrix, dense: np.ndarray) -> np.ndarray:
    """Exact sparse @ dense product (dense may be a vector or a matrix), with
    the routine and zeroed C-ordered output that ``csr_array @ dense`` uses."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim not in (1, 2) or dense.shape[0] != m.n_cols:
        raise ShapeMismatch(f"operand of shape {dense.shape} does not fit {m.n_cols} columns")
    out, csr = np.zeros((m.n_rows, *dense.shape[1:])), (m.indptr, m.indices, m.data)
    if dense.ndim == 1 or dense.shape[1] == 1:
        _sparsetools().csr_matvec(*m.shape, *csr, dense.ravel(), out.ravel())
    else:
        _sparsetools().csr_matvecs(*m.shape, dense.shape[1], *csr, dense.ravel(), out.ravel())
    return out


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
    # distinct row-major keys by a sort and a neighbour mask, far faster than np.unique
    keys = np.sort(src * n + dst)
    keys = keys[np.diff(keys, prepend=-1) != 0]
    data = np.ones(len(keys))
    if add_self_loops:
        on_diagonal = keys % (n + 1) == 0  # the key i * n + i of entry (i, i)
        data[on_diagonal] = 2.0
        loops = np.setdiff1d(np.arange(n) * (n + 1), keys[on_diagonal], assume_unique=True)
        at = np.searchsorted(keys, loops)
        keys, data = np.insert(keys, at, loops), np.insert(data, at, 1.0)
    rows, indices = np.divmod(keys, n)
    degree = np.bincount(rows, weights=data, minlength=n)
    inv_sqrt = np.zeros(n)
    positive = degree > 0
    inv_sqrt[positive] = 1.0 / np.sqrt(degree[positive])
    data *= inv_sqrt[rows] * inv_sqrt[indices]
    return SparseMatrix(np.searchsorted(rows, np.arange(n + 1)), indices, data, (n, n),
                        symmetric=symmetrize)


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
