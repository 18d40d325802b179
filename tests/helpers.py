"""Shared builders and oracles for tests.

The oracles here are deliberately independent routes: dense matrix algebra
for the sparse forward pass, central finite differences for the analytic
gradients, an allocating training step for the bits of the in-place one,
per-transaction dictionaries for the graph, per-entry dictionaries for the
normalized adjacency, plain pairwise counting for the metrics, a
struct-level reader for model.bin, a node-by-node walk for forest votes and
a per-node sort split search for forest trees. They never call the code
paths they are used to check.
"""
from __future__ import annotations

import csv
import io
import json
import re
import struct
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import numpy as np

from phishgraph.gcn import backward, forward, init_model, weighted_ce_loss
from phishgraph.graph import build_graph, normalized_adjacency, spmv
from phishgraph.stats import DecisionTree
from phishgraph.txmodel import (
    Address,
    Label,
    LabeledDataset,
    LabelProvenance,
    TxColumns,
    hex_column,
    transaction_table,
)


def traced_peak(run, beyond_result: bool = False) -> int:
    """Bytes of traced memory that ``run()`` peaks at beyond what was traced
    when it started or, with ``beyond_result``, beyond what is still traced
    when it returns: what it returns and keeps."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        held, peak = tracemalloc.get_traced_memory()
        del result
        return peak - (held if beyond_result else base)
    finally:
        if started:
            tracemalloc.stop()


class Transaction(NamedTuple):
    """One explorer row as Python values, in ``TX_RECORD`` field order."""

    block_number: int
    timestamp: int
    tx_hash: str            # canonical 0x + 64 hex chars
    sender: Address
    receiver: Address
    value: int
    gas: int
    gas_price: int
    gas_used: int


def _exact(values) -> np.ndarray:
    values = list(values)
    return np.array(values, np.uint64 if max(values, default=0) < 2**64 else object)


def tx_columns(txs) -> TxColumns:
    """The columns of ``Transaction`` rows, built field by field."""
    rows = list(txs)
    raw = lambda texts, n: np.array([bytes.fromhex(t[2:]) for t in texts], f"S{n}")
    return TxColumns(
        _exact(t.block_number for t in rows), _exact(t.timestamp for t in rows),
        raw([t.tx_hash for t in rows], 32), raw([t.sender for t in rows], 20),
        raw([t.receiver for t in rows], 20), _exact(t.value for t in rows),
        _exact(t.gas for t in rows), _exact(t.gas_price for t in rows),
        _exact(t.gas_used for t in rows),
    )


def tx_rows(cols: TxColumns) -> list[Transaction]:
    """``Transaction`` rows of transaction columns, decoded byte by byte."""
    def hexes(column, n):
        raw = column.tobytes()
        return ["0x" + raw[k : k + n].hex() for k in range(0, len(raw), n)]

    hashes, senders, receivers = (hexes(cols.tx_hash, 32), hexes(cols.sender, 20),
                                  hexes(cols.receiver, 20))
    return [
        Transaction(int(cols.block_number[i]), int(cols.timestamp[i]), hashes[i],
                    Address(senders[i]), Address(receivers[i]), int(cols.value[i]),
                    int(cols.gas[i]), int(cols.gas_price[i]), int(cols.gas_used[i]))
        for i in range(len(cols))
    ]


def addr(i: int) -> Address:
    return Address(f"0x{i:040x}")


def tx_hash(i: int) -> str:
    return f"0x{i:064x}"


def make_tx(
    i: int,
    sender: Address,
    receiver: Address,
    *,
    ts: int = 1_600_000_000,
    value: int = 10**18,
    gas: int = 21_000,
    gas_price: int = 20_000_000_000,
    gas_used: int = 21_000,
    block: int = 17_000_000,
) -> Transaction:
    return Transaction(
        block_number=block,
        timestamp=ts,
        tx_hash=tx_hash(i),
        sender=sender,
        receiver=receiver,
        value=value,
        gas=gas,
        gas_price=gas_price,
        gas_used=gas_used,
    )


def dataset_from(txs, phishing=()) -> LabeledDataset:
    """LabeledDataset with synthetic provenance; phishing = iterable of addresses."""
    table, records = transaction_table(tx_columns(txs))
    table["label"] = np.isin(table["address"], hex_column(list(phishing), 20)[0])
    table["provenance"] = LabelProvenance.SYNTHETIC.value
    return LabeledDataset(table, records)


# ------------------------------------------- object views of a dataset table


def row_addresses(ds: LabeledDataset) -> list[Address]:
    """The Address of each address-table row."""
    raw = ds.address_table["address"].tobytes()
    return [Address("0x" + raw[i : i + 20].hex()) for i in range(0, len(raw), 20)]


def transactions(ds: LabeledDataset) -> tuple[Transaction, ...]:
    """The dataset's transactions in record order."""
    rec, addresses = ds.records, row_addresses(ds)
    hashes, values = rec["tx_hash"].tobytes(), rec["value"].tobytes()
    ints = {name: rec[name].tolist() for name in
            ("block_number", "timestamp", "sender", "receiver", "gas", "gas_price", "gas_used")}
    return tuple(
        Transaction(
            ints["block_number"][i],
            ints["timestamp"][i],
            "0x" + hashes[32 * i : 32 * i + 32].hex(),
            addresses[ints["sender"][i]],
            addresses[ints["receiver"][i]],
            int.from_bytes(values[32 * i : 32 * i + 32], "big"),
            ints["gas"][i],
            ints["gas_price"][i],
            ints["gas_used"][i],
        )
        for i in range(len(rec))
    )


def labels(ds: LabeledDataset) -> dict[Address, Label]:
    return {a: Label(int(c)) for a, c in zip(row_addresses(ds), ds.address_table["label"])}


def provenance(ds: LabeledDataset) -> dict[Address, LabelProvenance]:
    codes = ds.address_table["provenance"]
    return {a: LabelProvenance(int(c)) for a, c in zip(row_addresses(ds), codes)}


def node_addresses(ds: LabeledDataset, g) -> tuple[Address, ...]:
    """The Address of each graph node, in node order."""
    addresses = row_addresses(ds)
    return tuple(addresses[int(r)] for r in g.rows)


def node_of(ds: LabeledDataset, g, a: Address) -> int:
    return node_addresses(ds, g).index(a)


def labels_vector(ds: LabeledDataset, g) -> np.ndarray:
    by_address = labels(ds)
    return np.array([int(by_address[a]) for a in node_addresses(ds, g)], dtype=np.int64)


def to_dense(m) -> np.ndarray:
    """A SparseMatrix as a dense array, its entries summed one at a time."""
    dense = np.zeros(m.shape)
    rows = np.repeat(np.arange(m.n_rows), np.diff(m.indptr))
    np.add.at(dense, (rows, m.indices), m.data)
    return dense


def random_tx_dataset(seed: int, n_addr: int = 8, n_tx: int = 14,
                      phishing_rate: float = 0.0) -> LabeledDataset:
    """Random small transaction set; optional random phishing labels."""
    rng = np.random.default_rng(seed)
    txs = [
        make_tx(
            i,
            addr(int(rng.integers(0, n_addr))),
            addr(int(rng.integers(0, n_addr))),
            ts=1_600_000_000 + i,
        )
        for i in range(n_tx)
    ]
    phishing = [addr(i) for i in range(n_addr) if rng.random() < phishing_rate]
    return dataset_from(txs, phishing=phishing)


# ------------------------------------------------------------------ oracles


def dense_forward_oracle(model, adj_dense: np.ndarray, X: np.ndarray,
                         dropout_masks=None) -> np.ndarray:
    """Dense-matrix reference for the propagation rule.

    Without masks this is the inference path; with the masks a training
    forward pass drew, it is that pass's function.
    """
    h = X
    for layer in range(len(model.weights) - 1):
        z = adj_dense @ h @ model.weights[layer]
        if model.biases is not None:
            z = z + model.biases[layer]
        h = np.maximum(z, 0.0)
        if dropout_masks is not None:
            h = h * dropout_masks[layer]
    logits = adj_dense @ h @ model.weights[-1]
    if model.biases is not None:
        logits = logits + model.biases[-1]
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    return exp / exp.sum(axis=1, keepdims=True)


def build_graph_oracle(ds) -> tuple[tuple, np.ndarray, np.ndarray]:
    """(node addresses, per-transaction (sender, receiver) nodes, labels) of
    the transaction graph, built one transaction at a time in a dict: nodes
    in first-appearance order."""
    node_index: dict = {}
    pairs = []
    for tx in transactions(ds):
        for a in (tx.sender, tx.receiver):
            node_index.setdefault(a, len(node_index))
        pairs.append((node_index[tx.sender], node_index[tx.receiver]))
    by_address = labels(ds)
    node_labels = np.array([int(by_address[a]) for a in node_index], dtype=np.int64)
    return tuple(node_index), np.array(pairs, dtype=np.int64).reshape(-1, 2), node_labels


def normalized_adjacency_oracle(g, add_self_loops: bool = True,
                                symmetrize: bool = True) -> np.ndarray:
    """Dense D^{-1/2} (A + I) D^{-1/2} built one entry at a time in a dict."""
    n = g.n_nodes
    entries: dict[tuple[int, int], float] = {}
    for src, dst in g.tx_nodes:
        entries[(int(src), int(dst))] = 1.0
        if symmetrize:
            entries[(int(dst), int(src))] = 1.0
    if add_self_loops:
        for i in range(n):
            entries[(i, i)] = entries.get((i, i), 0.0) + 1.0
    degree = np.zeros(n)
    for (i, _j), a in entries.items():
        degree[i] += a
    # a node of degree zero (loops off) scales its row and column to zero
    inv_sqrt = [1.0 / np.sqrt(d) if d > 0 else 0.0 for d in degree]
    dense = np.zeros((n, n))
    for (i, j), a in entries.items():
        dense[i, j] = a * inv_sqrt[i] * inv_sqrt[j]
    return dense


def random_graph_instance(seed: int, n_addr: int = 6, n_feat: int = 3,
                          hidden: tuple[int, ...] = (4,), use_bias: bool = False,
                          symmetrize: bool = True):
    """(normalized adjacency, features, labels, model) on a random graph."""
    rng = np.random.default_rng(seed)
    ds = random_tx_dataset(seed, n_addr=n_addr, n_tx=2 * n_addr, phishing_rate=0.4)
    g = build_graph(ds)
    adj = normalized_adjacency(g, symmetrize=symmetrize)
    X = rng.normal(size=(g.n_nodes, n_feat))
    y = labels_vector(ds, g)
    model = init_model(n_feat, hidden, seed=seed, use_bias=use_bias)
    if use_bias:
        for b in model.biases:
            b += rng.normal(scale=0.1, size=b.shape)
    return adj, X, y, model


def reference_step(model, adj, X, y, weights_pair, mask, dropout=0.0, seed=0):
    """(probs, ReLU masks, dropout masks, gradients) of one training pass,
    computed as plainly as the propagation rule reads: every activation,
    pre-activation and gradient a fresh array, the keep mask one full-layer
    draw. Same operations in the same order as ``forward`` and ``backward``,
    so their bits must match."""
    rng = np.random.default_rng(seed)
    keep = 1.0 - dropout
    n_hidden = len(model.weights) - 1
    after = [w.shape[1] < w.shape[0] for w in model.weights]
    h, inputs, pre, drops = X, [], [], []
    for layer, w in enumerate(model.weights):
        inputs.append(h if after[layer] else spmv(adj, h))
        z = spmv(adj, h @ w) if after[layer] else inputs[layer] @ w
        if model.biases is not None:
            z = z + model.biases[layer]
        if layer == n_hidden:
            break
        pre.append(z)
        h = np.maximum(z, 0.0)
        drops.append(rng.random(h.shape) < keep if dropout > 0.0 else None)
        if dropout > 0.0:
            h = h * drops[-1] * (1.0 / keep)
    exp = np.exp(z - z.max(axis=1, keepdims=True))
    probs = exp / exp.sum(axis=1, keepdims=True)

    upstream = probs.copy()
    upstream[np.arange(len(y)), y] -= 1.0
    upstream = upstream * (np.asarray(weights_pair)[y] * mask)[:, None]
    n_layers = len(model.weights)
    grads = [None] * (2 * n_layers if model.biases is not None else n_layers)
    for layer in range(n_hidden, -1, -1):
        delta = upstream
        if layer < n_hidden:
            if drops[layer] is not None:
                delta = delta * drops[layer] * (1.0 / keep)
            delta = delta * (pre[layer] > 0.0)
        if model.biases is not None:
            grads[n_layers + layer] = delta.sum(axis=0)
        w = model.weights[layer]
        if after[layer]:
            delta = spmv(adj.transpose(), delta)
        grads[layer] = inputs[layer].T @ delta
        upstream = delta @ w.T if after[layer] else spmv(adj.transpose(), delta @ w.T)
    return probs, [z > 0.0 for z in pre], drops, grads


def finite_difference_check(adj, X, y, model, weights_pair, dropout=0.0, seed=0,
                            h=1e-5, rel_tol=1e-4, abs_floor=1e-7):
    """Central-difference check of every parameter's analytic gradient."""
    adj_t = adj.transpose()
    mask = np.ones(len(y), dtype=bool)
    probs, cache = forward(
        model, adj, X, training=True, dropout_rate=dropout, dropout_seed=seed
    )
    grads = backward(model, cache, probs, y, weights_pair, mask, adj_t)

    def loss_at_current():
        p, _ = forward(
            model, adj, X, training=True, dropout_rate=dropout, dropout_seed=seed
        )
        return weighted_ce_loss(p, y, weights_pair, mask)

    for P, G in zip(model.params, grads, strict=True):
        for idx in np.ndindex(P.shape):
            orig = P[idx]
            P[idx] = orig + h
            up = loss_at_current()
            P[idx] = orig - h
            down = loss_at_current()
            P[idx] = orig
            numeric = (up - down) / (2 * h)
            err = abs(numeric - G[idx])
            assert err <= abs_floor or err / max(abs(numeric), abs(G[idx])) <= rel_tol, (
                f"gradient mismatch at {idx}: analytic {G[idx]}, numeric {numeric}"
            )


def read_model_bin(path):
    """(dims, weights, biases) of a model.bin, read straight from its layout:
    a <4sHHB header (magic, version, layer count, bias flag), one <I per dim,
    then every layer's f64 weights row-major, then every layer's f64 biases
    (None when the flag is 0). The whole file must be consumed."""
    blob = Path(path).read_bytes()
    magic, version, n_layers, has_bias = struct.unpack_from("<4sHHB", blob, 0)
    assert (magic, version) == (b"PHGM", 1)
    offset = struct.calcsize("<4sHHB")
    dims = struct.unpack_from(f"<{n_layers + 1}I", blob, offset)
    offset += 4 * (n_layers + 1)

    def take(count):
        nonlocal offset
        values = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        offset += 8 * count
        return values

    weights = [take(i * o).reshape(i, o) for i, o in zip(dims, dims[1:])]
    biases = [take(o) for o in dims[1:]] if has_bias else None
    assert offset == len(blob), "trailing bytes after the last array"
    return tuple(dims), weights, biases


def forest_vote(forest, rows: np.ndarray) -> np.ndarray:
    """Majority class over the trees, each walked node by node from the root;
    a tied vote goes to benign."""
    votes = np.zeros((len(rows), 2), dtype=np.int64)
    for tree in forest.trees:
        for i, x in enumerate(rows):
            node = 0
            while tree.feature[node] >= 0:
                go_left = x[tree.feature[node]] <= tree.threshold[node]
                node = tree.left[node] if go_left else tree.right[node]
            votes[i, int(np.argmax(tree.class_counts[node]))] += 1
    return np.argmax(votes, axis=1)


def _gini(counts: np.ndarray) -> float:
    c0, c1 = float(counts[0]), float(counts[1])
    p0, p1 = c0 / (c0 + c1), c1 / (c0 + c1)
    return 1.0 - (p0 * p0 + p1 * p1)


class _SortedTreeBuilder:
    """The forest's former split search: per node and drawn feature, a stable
    argsort of the node's bootstrap column and cumulative class counts in that
    order. A class's mass is its weight times its row count."""

    def __init__(self, X, y, weights, cfg, rng, n_features):
        self.X, self.y, self.cfg, self.rng = X, y, cfg, rng
        self.w0, self.w1 = weights
        self.k = cfg.resolved_subsample(n_features)
        self.n_features = n_features
        self.nodes: list[tuple] = []  # (feature, threshold, left, right, counts)

    def grow(self, idx: np.ndarray, depth: int) -> int:
        n1 = int(np.count_nonzero(self.y[idx] == 1))
        n0 = len(idx) - n1
        counts = np.array([self.w0 * n0, self.w1 * n1])
        node = len(self.nodes)
        self.nodes.append([-1, 0.0, -1, -1, counts])
        if (
            depth >= self.cfg.max_depth
            or len(idx) < 2 * self.cfg.min_leaf
            or n0 == 0
            or n1 == 0
        ):
            return node
        split = self._best_split(idx, n0, n1)
        if split is None:
            return node
        f, thr, left_idx, right_idx = split
        self.nodes[node][:2] = f, thr
        self.nodes[node][2] = self.grow(left_idx, depth + 1)
        self.nodes[node][3] = self.grow(right_idx, depth + 1)
        return node

    def _best_split(self, idx: np.ndarray, n0: int, n1: int):
        features = np.sort(self.rng.choice(self.n_features, size=self.k, replace=False))
        y = self.y[idx]
        w0, w1 = self.w0, self.w1
        total_w = w0 * n0 + w1 * n1
        parent_gini = _gini(np.array([w0 * n0, w1 * n1]))
        n = len(idx)

        best_gain = 0.0
        best = None
        for f in features:
            v = self.X[idx, f]
            order = np.argsort(v, kind="stable")
            v_sorted = v[order]
            boundaries = np.nonzero(np.diff(v_sorted) > 0)[0]
            if boundaries.size == 0:
                continue
            cum_n1 = np.cumsum(y[order] == 1)

            n_left = boundaries + 1
            valid = (n_left >= self.cfg.min_leaf) & (n - n_left >= self.cfg.min_leaf)
            if not valid.any():
                continue
            b = boundaries[valid]
            l1 = cum_n1[b]
            l0 = b + 1 - l1
            lw0, lw1 = w0 * l0, w1 * l1
            rw0, rw1 = w0 * (n0 - l0), w1 * (n1 - l1)
            lw, rw = lw0 + lw1, rw0 + rw1
            with np.errstate(divide="ignore", invalid="ignore"):
                gini_l = 1.0 - ((lw1 / lw) ** 2 + (lw0 / lw) ** 2)
                gini_r = 1.0 - ((rw1 / rw) ** 2 + (rw0 / rw) ** 2)
            gini_l = np.where(lw > 0, gini_l, 0.0)
            gini_r = np.where(rw > 0, gini_r, 0.0)
            child = (lw * gini_l + rw * gini_r) / total_w
            gain = parent_gini - child
            pos = int(np.argmax(gain))
            if gain[pos] > best_gain:
                boundary = int(b[pos])
                thr = float((v_sorted[boundary] + v_sorted[boundary + 1]) / 2.0)
                best_gain = float(gain[pos])
                best = (int(f), thr, order, boundary)

        if best is None:
            return None
        f, thr, order, boundary = best
        return f, thr, idx[order[: boundary + 1]], idx[order[boundary + 1 :]]


def reference_forest(X, labels, cfg) -> list[DecisionTree]:
    """The trees of ``train_forest(X, labels, cfg)`` grown by the per-node sort
    search on a copy of each bootstrap sample, with the same seeds and draws."""
    labels = np.asarray(labels, dtype=np.int64)
    n = len(labels)
    if cfg.balanced:
        weights = tuple(n / (2.0 * np.bincount(labels, minlength=2)))
    else:
        weights = (1.0, 1.0)
    seeds = np.random.default_rng(cfg.seed).integers(0, 2**63, size=cfg.n_trees)
    trees = []
    for seed in seeds:
        rng = np.random.default_rng(int(seed))
        bootstrap = rng.integers(0, n, size=n)
        builder = _SortedTreeBuilder(X.rows[bootstrap], labels[bootstrap],
                                     weights, cfg, rng, X.n_features)
        builder.grow(np.arange(n), 0)
        feature, threshold, left, right, counts = zip(*builder.nodes)
        counts = np.array(counts)
        trees.append(DecisionTree(
            feature=np.array(feature, dtype=np.int64), threshold=np.array(threshold),
            left=np.array(left, dtype=np.int64), right=np.array(right, dtype=np.int64),
            class_counts=counts, impurity=np.array([_gini(c) for c in counts]),
            weight=np.array([float(c.sum()) for c in counts]),
        ))
    return trees


def brute_force_metrics(pred, truth) -> dict:
    """Pairwise-counted confusion metrics with the 0/0 -> 0 convention."""
    tp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(pred, truth) if p == 1 and t == 0)
    fn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 1)
    tn = sum(1 for p, t in zip(pred, truth) if p == 0 and t == 0)
    div = lambda a, b: a / b if b else 0.0
    prec_p, rec_p = div(tp, tp + fp), div(tp, tp + fn)
    prec_b, rec_b = div(tn, tn + fn), div(tn, tn + fp)
    f1 = lambda p, r: div(2 * p * r, p + r)
    sup_p, sup_b = tp + fn, tn + fp
    total = sup_p + sup_b
    return {
        "accuracy": div(tp + tn, total),
        "precision": {"phishing": prec_p, "benign": prec_b},
        "recall": {"phishing": rec_p, "benign": rec_b},
        "f1": {"phishing": f1(prec_p, rec_p), "benign": f1(prec_b, rec_b)},
        "weighted_precision": div(prec_p * sup_p + prec_b * sup_b, total),
        "weighted_recall": div(rec_p * sup_p + rec_b * sup_b, total),
        "weighted_f1": div(
            f1(prec_p, rec_p) * sup_p + f1(prec_b, rec_b) * sup_b, total
        ),
    }


# ------------------------------------------- the per-row explorer reference
# The explorer parsers as they once were, one row at a time: every field of
# a lowercase-keyed row is canonicalized on its own, and the first failing
# check names the reject. The parsers' column checks must agree with it.

_REFERENCE_COLUMNS = ("blocknumber", "timestamp", "hash", "from", "to", "value",
                      "gas", "gasprice", "gasused")
_LOWER_HEX = re.compile(r"[0-9a-f]*")


class RowError(Exception):
    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason, self.detail = reason, detail


def _canonical_hex(raw: str, body_len: int) -> str | None:
    s = raw.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    if len(s) != body_len or not _LOWER_HEX.fullmatch(s):
        return None
    return "0x" + s


def _field_to_int(fields: dict, key: str) -> int:
    raw = fields.get(key)
    if raw is None or str(raw).strip() == "":
        raise RowError("MissingField", f"missing {key}")
    text = str(raw).strip()
    if not text.isascii() or not text.isdigit():
        raise RowError("BadNumeral", f"{key}={raw!r}")
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        raise RowError("BadNumeral", f"{key}={raw!r}") from None


def _row_to_transaction(fields: dict) -> Transaction:
    """A Transaction from lowercase-keyed fields, or RowError for the first
    failing check: from, to, hash, each numeral, timestamp, gas."""
    ends = []
    for key in ("from", "to"):
        raw = str(fields.get(key, ""))
        canonical = _canonical_hex(raw, 40)
        if canonical is None:
            raise RowError("BadAddress", f"invalid address: {raw!r}")
        ends.append(Address(canonical))
    raw = str(fields.get("hash", ""))
    tx_hash = _canonical_hex(raw, 64)
    if tx_hash is None:
        raise RowError("BadHash", f"invalid transaction hash: {raw!r}")
    block, timestamp, value, gas, gas_price, gas_used = (
        _field_to_int(fields, key)
        for key in ("blocknumber", "timestamp", "value", "gas", "gasprice", "gasused"))
    if timestamp <= 0:
        raise RowError("BadTimestamp", f"timestamp={timestamp}")
    if gas_used > gas:
        raise RowError("GasExceeded", f"gasUsed {gas_used} > gas {gas}")
    return Transaction(block, timestamp, tx_hash, *ends, value, gas, gas_price, gas_used)


def _reference_rows(rows) -> tuple[list[Transaction], list[tuple[int, str, str]]]:
    """(accepted rows, (row, reason, detail) rejects) of numbered field dicts."""
    accepted, rejects = [], []
    for row_no, fields in rows:
        if fields is None:
            rejects.append((row_no, "BadEntry", "result entry is not an object"))
            continue
        try:
            accepted.append(_row_to_transaction(fields))
        except RowError as exc:
            rejects.append((row_no, exc.reason, exc.detail))
    return accepted, rejects


def reference_parse_csv(blob: bytes):
    """The per-row reading of a CSV export (header matched case-insensitively,
    blank rows skipped but numbered, short rows padded with "")."""
    reader = csv.reader(io.StringIO(blob.decode("utf-8-sig"), newline=""))
    columns = {name.strip().strip('"').lower(): i for i, name in enumerate(next(reader))}

    def numbered():
        for row_no, row in enumerate(reader, start=1):
            if row and not all(not cell.strip() for cell in row):
                yield row_no, {name: (row[i] if i < len(row) else "")
                               for name, i in columns.items()}

    return _reference_rows(numbered())


def reference_parse_json(blob: bytes):
    """The per-row reading of a ``txlist`` envelope's entries (keys
    lowercased, the last of colliding keys winning)."""
    entries = json.loads(blob)["result"]
    return _reference_rows(
        (row_no, {str(k).lower(): v for k, v in entry.items()}
         if isinstance(entry, dict) else None)
        for row_no, entry in enumerate(entries, start=1))


def reference_json_outcome(blob: bytes):
    """What ``parse_etherscan_json`` makes of any bytes, read from the whole
    document as ``json.loads`` builds it: ``("rows", reference_parse_json)``
    or the name and message of the error it raises."""
    try:
        document = json.loads(blob.decode(json.detect_encoding(blob), "surrogatepass"))
    except (ValueError, RecursionError) as exc:
        return "MalformedDocument", f"invalid JSON: {exc}"
    if not isinstance(document, dict) or "result" not in document:
        return "MalformedDocument", "expected an object with a 'result' field"
    payload = document["result"]
    if isinstance(payload, list):
        return "rows", reference_parse_json(blob)
    if str(document.get("status", "")) != "1":
        message = str(document.get("message", "error"))
        return "ApiError", f"{message}: {payload}" if str(payload) else message
    return "MalformedDocument", "'result' is not an array"
