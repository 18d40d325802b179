"""Shared builders and oracles for tests.

The oracles here are deliberately independent routes: dense matrix algebra
for the sparse forward pass, central finite differences for the analytic
gradients, per-entry dictionaries for the normalized adjacency, and plain
pairwise counting for the metrics. They never call the code paths they are
used to check.
"""
from __future__ import annotations

import numpy as np

from phishgraph.gcn import backward, forward, init_model, weighted_ce_loss
from phishgraph.graph import build_graph, normalized_adjacency
from phishgraph.txmodel import (
    Address,
    Label,
    LabeledDataset,
    LabelProvenance,
    Transaction,
)


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
    phishing = set(phishing)
    labels = {}
    for tx in txs:
        for a in (tx.sender, tx.receiver):
            labels[a] = Label.PHISHING if a in phishing else Label.BENIGN
    provenance = {a: LabelProvenance.SYNTHETIC for a in labels}
    return LabeledDataset(tuple(txs), labels, provenance)


def labels_vector(ds: LabeledDataset, g) -> np.ndarray:
    return np.array([int(ds.labels[a]) for a in g.addresses], dtype=np.int64)


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


def normalized_adjacency_oracle(g, add_self_loops: bool = True,
                                symmetrize: bool = True) -> np.ndarray:
    """Dense D^{-1/2} (A + I) D^{-1/2} built one entry at a time in a dict."""
    n = g.n_nodes
    entries: dict[tuple[int, int], float] = {}
    for src, dst in g.edges:
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


def finite_difference_check(adj, X, y, model, weights_pair, dropout=0.0, seed=0,
                            h=1e-5, rel_tol=1e-4, abs_floor=1e-7):
    """Central-difference check of every parameter's analytic gradient."""
    adj_t = adj.transpose()
    mask = np.ones(len(y), dtype=bool)
    probs, cache = forward(
        model, adj, X, training=True, dropout_rate=dropout, dropout_seed=seed
    )
    gw, gb = backward(model, cache, probs, y, weights_pair, mask, adj_t)

    def loss_at_current():
        p, _ = forward(
            model, adj, X, training=True, dropout_rate=dropout, dropout_seed=seed
        )
        return weighted_ce_loss(p, y, weights_pair, mask)

    params = list(model.weights) + (list(model.biases) if model.biases else [])
    grads = list(gw) + (list(gb) if model.biases else [])
    for P, G in zip(params, grads):
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
