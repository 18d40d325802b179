"""Reference computations that check phishgraph's outputs from outside.

Nothing here imports phishgraph. Every quantity the benchmark checks is
recomputed from the raw bytes the program wrote, by a different route:

- datasets and models are decoded with this file's own readers of the
  documented binary layouts;
- features are accumulated per address in one pass over the raw
  transactions, with hours and weekdays taken from ``datetime`` in UTC;
- the normalized adjacency is built with ``scipy.sparse`` from the edge list;
- predictions come from a dense forward pass of the weights in ``model.bin``;
- confusion counts are plain counting and the metrics follow their textbook
  definitions;
- per-class statistics use ``math.fsum`` two-pass means and deviations.

The ``check_*`` functions return a list of human-readable problems; an empty
list means the output agrees with the reference.
"""
from __future__ import annotations

import csv
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy.sparse as sp

EXPLICIT_NAMES = (
    "mean_timestamp", "mean_value", "mean_gas", "mean_gas_price", "mean_gas_used",
)
IMPLICIT_NAMES = (
    "from_tx_cnt", "to_tx_cnt", "total_val_sent", "total_val_recd",
    "avg_gas_sent", "avg_gas_recd", "mean_hour_sent", "mean_hour_recd",
    "std_hour_sent", "std_hour_recd", "avg_time_bw_tx", "min_time_bw_tx",
    "max_time_bw_tx", "tx_duration", "wd_tx_ratio_sent", "wd_tx_ratio_recd",
)
# Implicit features the synthetic generator plants a phishing signal in: the
# drain burst (count, hour, spacing of sent transactions) and its values.
PLANTED_FEATURES = frozenset({
    "from_tx_cnt", "total_val_sent", "mean_hour_sent", "std_hour_sent",
    "avg_time_bw_tx", "min_time_bw_tx", "max_time_bw_tx",
})

BENIGN, PHISHING = 0, 1
LISTED_PHISHING, ONE_HOP_PHISHING, ASSUMED_BENIGN = 0, 2, 3

_DS_HEADER = struct.Struct("<4sHIQ")
_DS_ADDRESS = struct.Struct("<20sBB")
_DS_TX = struct.Struct("<QQ32sII32sQQQ")
_MODEL_HEADER = struct.Struct("<4sHHB")


# ------------------------------------------------------------------ readers


@dataclass
class Dataset:
    """A decoded dataset file; ``txs`` rows are
    (block, timestamp, hash, sender, receiver, value, gas, gas_price, gas_used)."""

    addresses: list[str]
    labels: dict[str, int]
    provenance: dict[str, int]
    txs: list[tuple]


def read_dataset(path: str | Path) -> Dataset:
    blob = Path(path).read_bytes()
    magic, version, n_addr, n_tx = _DS_HEADER.unpack_from(blob, 0)
    if magic != b"PHGD" or version != 1:
        raise ValueError(f"{path}: not a version-1 dataset file")
    offset = _DS_HEADER.size
    if len(blob) != offset + n_addr * _DS_ADDRESS.size + n_tx * _DS_TX.size:
        raise ValueError(f"{path}: size does not match its header")
    addresses, labels, provenance = [], {}, {}
    for raw, label, prov in _DS_ADDRESS.iter_unpack(
        blob[offset : offset + n_addr * _DS_ADDRESS.size]
    ):
        addr = "0x" + raw.hex()
        addresses.append(addr)
        labels[addr] = label
        provenance[addr] = prov
    offset += n_addr * _DS_ADDRESS.size
    txs = [
        (block, ts, "0x" + h.hex(), addresses[s], addresses[r],
         int.from_bytes(value, "big"), gas, gas_price, gas_used)
        for block, ts, h, s, r, value, gas, gas_price, gas_used
        in _DS_TX.iter_unpack(blob[offset:])
    ]
    return Dataset(addresses, labels, provenance, txs)


def read_model(path: str | Path) -> list[np.ndarray]:
    """Layer weights of a bias-free model file, input layer first."""
    blob = Path(path).read_bytes()
    magic, version, n_layers, has_bias = _MODEL_HEADER.unpack_from(blob, 0)
    if magic != b"PHGM" or version != 1 or has_bias:
        raise ValueError(f"{path}: not a bias-free version-1 model file")
    offset = _MODEL_HEADER.size
    dims = struct.unpack_from(f"<{n_layers + 1}I", blob, offset)
    offset += 4 * (n_layers + 1)
    weights = []
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = np.frombuffer(blob, "<f8", fan_in * fan_out, offset)
        weights.append(w.reshape(fan_in, fan_out).copy())
        offset += 8 * fan_in * fan_out
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes after the weights")
    return weights


# ----------------------------------------------------------------- features


def node_order(txs: list[tuple]) -> list[str]:
    """Addresses in order of first appearance, sender before receiver."""
    order: dict[str, None] = {}
    for tx in txs:
        order.setdefault(tx[3], None)
        order.setdefault(tx[4], None)
    return list(order)


def _pstd(values: list[float]) -> float:
    mean = math.fsum(values) / len(values)
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / len(values))


def features(txs: list[tuple], nodes: list[str], kind: str) -> np.ndarray:
    """Feature rows in ``nodes`` order for kind explicit, implicit or both."""
    if kind == "both":
        return np.hstack([features(txs, nodes, "explicit"),
                          features(txs, nodes, "implicit")])
    touching: dict[str, list[tuple]] = {a: [] for a in nodes}
    sent: dict[str, list[tuple]] = {a: [] for a in nodes}
    received: dict[str, list[tuple]] = {a: [] for a in nodes}
    for tx in txs:
        touching[tx[3]].append(tx)
        if tx[4] != tx[3]:
            touching[tx[4]].append(tx)
        sent[tx[3]].append(tx)
        received[tx[4]].append(tx)
    clock = {}
    if kind == "implicit":
        clock = {ts: datetime.fromtimestamp(ts, tz=timezone.utc) for ts in {tx[1] for tx in txs}}
    rows = []
    for a in nodes:
        if kind == "explicit":
            inc = touching[a]
            rows.append([float(sum(tx[k] for tx in inc)) / len(inc) for k in (1, 5, 6, 7, 8)])
            continue
        s, r = sent[a], received[a]
        s_hours = [clock[tx[1]].hour for tx in s]
        r_hours = [clock[tx[1]].hour for tx in r]
        s_times = sorted(tx[1] for tx in s)
        gaps = [b - a_ for a_, b in zip(s_times, s_times[1:])]
        every = [tx[1] for tx in s + r]
        rows.append([
            len(s),
            len(r),
            float(sum(tx[5] for tx in s)),
            float(sum(tx[5] for tx in r)),
            float(sum(tx[8] for tx in s)) / len(s) if s else 0.0,
            float(sum(tx[8] for tx in r)) / len(r) if r else 0.0,
            math.fsum(s_hours) / len(s_hours) if s_hours else 0.0,
            math.fsum(r_hours) / len(r_hours) if r_hours else 0.0,
            _pstd(s_hours) if s_hours else 0.0,
            _pstd(r_hours) if r_hours else 0.0,
            math.fsum(gaps) / len(gaps) if gaps else 0.0,
            float(min(gaps)) if gaps else 0.0,
            float(max(gaps)) if gaps else 0.0,
            float(max(every) - min(every)) if every else 0.0,
            sum(clock[tx[1]].weekday() >= 5 for tx in s) / len(s) if s else 0.0,
            sum(clock[tx[1]].weekday() >= 5 for tx in r) / len(r) if r else 0.0,
        ])
    return np.array(rows, dtype=np.float64).reshape(len(nodes), -1)


def feature_names(kind: str) -> tuple[str, ...]:
    return {"explicit": EXPLICIT_NAMES, "implicit": IMPLICIT_NAMES,
            "both": EXPLICIT_NAMES + IMPLICIT_NAMES}[kind]


def minmax(X: np.ndarray, fit_rows: np.ndarray) -> np.ndarray:
    """Scale into [0, 1] from the fit rows; constant columns map to 0."""
    lo = X[fit_rows].min(axis=0)
    hi = X[fit_rows].max(axis=0)
    out = np.zeros_like(X)
    for j in range(X.shape[1]):
        if hi[j] > lo[j]:
            out[:, j] = np.clip((X[:, j] - lo[j]) / (hi[j] - lo[j]), 0.0, 1.0)
    return out


# ------------------------------------------------------------ split and GCN


def split(labels: np.ndarray, ratio: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The documented address-level split: shuffle each class with one
    generator, benign first, and put the first floor(ratio * size) in train."""
    rng = np.random.default_rng(seed)
    train = np.zeros(len(labels), dtype=bool)
    for code in (BENIGN, PHISHING):
        members = np.flatnonzero(labels == code)
        if members.size:
            shuffled = members[rng.permutation(members.size)]
            train[shuffled[: int(math.floor(ratio * members.size + 1e-9))]] = True
    return train, ~train


def normalized_adjacency(txs: list[tuple], nodes: list[str]) -> sp.csr_array:
    """D^-1/2 (max(A, A^T) + I) D^-1/2 for the 0/1 adjacency A of the edges."""
    index = {a: i for i, a in enumerate(nodes)}
    src = np.array([index[tx[3]] for tx in txs], dtype=np.int64)
    dst = np.array([index[tx[4]] for tx in txs], dtype=np.int64)
    n = len(nodes)
    A = sp.csr_array((np.ones(len(src)), (src, dst)), shape=(n, n))
    A.data[:] = 1.0
    A = A.maximum(A.T) + sp.eye_array(n, format="csr")
    d = 1.0 / np.sqrt(A.sum(axis=1))
    return (sp.diags_array(d) @ A @ sp.diags_array(d)).tocsr()


def phishing_probability(adj: sp.csr_array, X: np.ndarray,
                         weights: list[np.ndarray]) -> np.ndarray:
    h = X
    for w in weights[:-1]:
        h = np.maximum((adj @ h) @ w, 0.0)
    logits = (adj @ h) @ weights[-1]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    return e[:, 1] / e.sum(axis=1)


def metrics(pred: np.ndarray, truth: np.ndarray, rows: np.ndarray) -> dict:
    """The metrics.json ``metrics`` object, phishing the positive class."""
    tp = fp = fn = tn = 0
    for i in np.flatnonzero(rows):
        if pred[i] == 1 and truth[i] == 1:
            tp += 1
        elif pred[i] == 1:
            fp += 1
        elif truth[i] == 1:
            fn += 1
        else:
            tn += 1

    def ratio(a, b):
        return a / b if b else 0.0

    per = {
        "benign": {"precision": ratio(tn, tn + fn), "recall": ratio(tn, tn + fp),
                   "support": tn + fp},
        "phishing": {"precision": ratio(tp, tp + fp), "recall": ratio(tp, tp + fn),
                     "support": tp + fn},
    }
    for c in per.values():
        c["f1"] = ratio(2 * c["precision"] * c["recall"], c["precision"] + c["recall"])
    total = tp + fp + fn + tn
    weighted = {
        k: ratio(sum(c[k] * c["support"] for c in per.values()), total)
        for k in ("precision", "recall", "f1")
    }
    return {"accuracy": ratio(tp + tn, total), "per_class": per, "weighted": weighted}


@dataclass
class RunReference:
    """What a ``run`` on one dataset must report, given its own model.bin."""

    adj: sp.csr_array
    X: np.ndarray           # unscaled features, node order
    labels: np.ndarray
    train: np.ndarray
    test: np.ndarray
    names: tuple[str, ...]

    @classmethod
    def build(cls, ds: Dataset, kind: str, split_seed: int, ratio: float = 0.8) -> "RunReference":
        nodes = node_order(ds.txs)
        labels = np.array([ds.labels[a] for a in nodes], dtype=np.int64)
        train, test = split(labels, ratio, split_seed)
        return cls(normalized_adjacency(ds.txs, nodes), features(ds.txs, nodes, kind),
                   labels, train, test, feature_names(kind))

    def expected(self, weights: list[np.ndarray], threshold: float = 0.5) -> tuple[dict, dict]:
        """(test metrics, train metrics) of the model on min-max scaled features."""
        p = phishing_probability(self.adj, minmax(self.X, self.train), weights)
        pred = (p >= threshold).astype(np.int64)
        return metrics(pred, self.labels, self.test), metrics(pred, self.labels, self.train)


# ------------------------------------------------------------------- checks


def _compare_tree(got, want, path: str, rel: float, problems: list[str]) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            problems.append(f"{path}: {got!r} lacks the keys {sorted(want)}")
            return
        for k in want:
            _compare_tree(got[k], want[k], f"{path}.{k}", rel, problems)
    elif isinstance(want, int) and not isinstance(want, bool):
        if got != want:
            problems.append(f"{path}: {got} != {want}")
    elif not (isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=rel, abs_tol=rel)):
        problems.append(f"{path}: {got!r} != {want!r}")


def check_run(out_dir: str | Path, ref: RunReference, *, loss_must_fall: bool) -> list[str]:
    """metrics.json, model.bin.json and the loss curve of one ``run`` output."""
    out_dir = Path(out_dir)
    problems: list[str] = []
    doc = json.loads((out_dir / "metrics.json").read_text(encoding="utf-8"))
    sidecar = json.loads((out_dir / "model.bin.json").read_text(encoding="utf-8"))
    if tuple(sidecar["feature_names"]) != ref.names:
        problems.append(f"{out_dir}: feature names {sidecar['feature_names']}")
    test_metrics, train_metrics = ref.expected(read_model(out_dir / "model.bin"))
    _compare_tree(doc["metrics"], test_metrics, f"{out_dir.name}.metrics", 1e-12, problems)
    training = doc["training"]
    for key, want in (("train_accuracy", train_metrics["accuracy"]),
                      ("train_weighted_f1", train_metrics["weighted"]["f1"])):
        if not math.isclose(training[key][-1], want, rel_tol=1e-12, abs_tol=1e-12):
            problems.append(f"{out_dir.name}: last {key} {training[key][-1]} != {want}")
    losses = training["losses"]
    if not losses or not all(math.isfinite(v) for v in losses):
        problems.append(f"{out_dir.name}: non-finite or empty loss curve")
    elif loss_must_fall and not losses[-1] < losses[0]:
        problems.append(f"{out_dir.name}: last loss {losses[-1]} not below first {losses[0]}")
    return problems


def check_compare(out_dir: str | Path, refs: dict[str, RunReference]) -> list[str]:
    """Both runs of a ``compare``, each against the oracle's recomputation.

    The paper's claims, implicit phishing recall above explicit and implicit
    weighted F1 of at least 0.85, are not checked here: on some corpora they
    do not hold (see ``headline``, which records them).
    """
    out_dir = Path(out_dir)
    problems = []
    for kind in ("explicit", "implicit"):
        problems += check_run(out_dir / kind, refs[kind], loss_must_fall=False)
    return problems


def headline(out_dir: str | Path) -> dict:
    """The figures of the paper's headline comparison from comparison.json."""
    doc = json.loads((Path(out_dir) / "comparison.json").read_text(encoding="utf-8"))
    return {
        "explicit_phishing_recall": doc["explicit"]["per_class"]["phishing"]["recall"],
        "implicit_phishing_recall": doc["implicit"]["per_class"]["phishing"]["recall"],
        "implicit_weighted_f1": doc["implicit"]["weighted"]["f1"],
    }


def expected_labels(ds_txs: list[tuple], flagged: set[str]) -> tuple[dict, dict]:
    """Labels and provenance the ingest rules give, from the flagged list."""
    endpoints = {a for tx in ds_txs for a in (tx[3], tx[4])}
    labels = {a: PHISHING if a in flagged else BENIGN for a in endpoints}
    provenance = {a: LISTED_PHISHING if a in flagged else ASSUMED_BENIGN for a in endpoints}
    for tx in ds_txs:
        if tx[3] in flagged or tx[4] in flagged:
            for a in (tx[3], tx[4]):
                if a not in flagged:
                    provenance[a] = ONE_HOP_PHISHING
    return labels, provenance


def check_ingest(dataset: str | Path, generated: Dataset, flagged: set[str],
                 injected: dict[str, list[tuple[int, str]]], duplicates: int) -> list[str]:
    """An ingested dataset and its reject report against the generator's data.

    ``injected`` maps each export's file name to the (data row, reason) pairs
    planted in it; ``duplicates`` counts the planted repeated hashes.
    """
    problems = []
    got = read_dataset(dataset)
    if got.txs != generated.txs:
        diff = sum(a != b for a, b in zip(got.txs, generated.txs))
        problems.append(f"kept transactions differ: {len(got.txs)} vs {len(generated.txs)}, "
                        f"{diff} rows unequal")
    labels, provenance = expected_labels(generated.txs, flagged)
    for name, have, want in (("labels", got.labels, labels),
                             ("provenances", got.provenance, provenance)):
        if have != want:
            wrong = sum(have.get(a) != v for a, v in want.items()) + len(set(have) - set(want))
            problems.append(f"{wrong} {name} differ")
    report = json.loads(Path(str(dataset) + ".clean.json").read_text(encoding="utf-8"))
    for section in report["parse"]:
        name = Path(section["file"]).name
        got_rows = [(r["row"], r["reason"]) for r in section["rows"]]
        if got_rows != injected.get(name):
            problems.append(f"{name}: rejects {Counter(r for _, r in got_rows)} "
                            f"!= injected {Counter(r for _, r in injected.get(name, []))}")
    if sorted(Path(s["file"]).name for s in report["parse"]) != sorted(injected):
        problems.append("reject report does not cover each export once")
    clean = report["clean"]
    want = {"kept": len(generated.txs), "dup_dropped": duplicates, "invalid_dropped": 0}
    if {k: clean[k] for k in want} != want:
        problems.append(f"clean report {dict((k, clean[k]) for k in want)} != {want}")
    return problems


def class_stats(X: np.ndarray, labels: np.ndarray, names: tuple[str, ...]) -> dict:
    """{(feature, class): (support, mean, max, population std)}."""
    out = {}
    for code, cls in ((BENIGN, "benign"), (PHISHING, "phishing")):
        rows = X[labels == code]
        for j, name in enumerate(names):
            col = [float(v) for v in rows[:, j]]
            out[(name, cls)] = (len(col), math.fsum(col) / len(col), max(col), _pstd(col))
    return out


def check_stats(csv_path: str | Path, X: np.ndarray, labels: np.ndarray,
                names: tuple[str, ...]) -> list[str]:
    """The ``stats`` CSV: exact supports, values within 1e-9 of the column scale."""
    want = class_stats(X, labels, names)
    scale = {name: float(np.abs(X[:, j]).max()) for j, name in enumerate(names)}
    problems = []
    with open(csv_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    seen = set()
    for row in rows:
        key = (row["feature"], row["class"])
        seen.add(key)
        if key not in want:
            problems.append(f"unexpected stats row {key}")
            continue
        support, *values = want[key]
        if int(row["support"]) != support:
            problems.append(f"{key}: support {row['support']} != {support}")
        for col, v in zip(("mean", "max", "std"), values):
            if not math.isclose(float(row[col]), v, rel_tol=1e-9, abs_tol=1e-9 * scale[key[0]]):
                problems.append(f"{key} {col}: {row[col]} != {v!r}")
    if seen != set(want):
        problems.append(f"stats rows missing: {sorted(set(want) - seen)}")
    return problems


def check_importance(json_path: str | Path, names: tuple[str, ...]) -> list[str]:
    """A complete, normalized, descending ranking led by a planted feature."""
    ranking = json.loads(Path(json_path).read_text(encoding="utf-8"))
    got = [r["feature"] for r in ranking]
    scores = [r["score"] for r in ranking]
    problems = []
    if sorted(got) != sorted(names):
        problems.append(f"ranking lists {got}, not each of {names} once")
    if [r["rank"] for r in ranking] != list(range(1, len(ranking) + 1)):
        problems.append("ranks are not 1..n")
    if any(s < 0 for s in scores):
        problems.append("negative importance score")
    if abs(math.fsum(scores) - 1.0) > 1e-9:
        problems.append(f"scores sum to {math.fsum(scores)!r}")
    if any(a < b for a, b in zip(scores, scores[1:])):
        problems.append("scores are not in descending order")
    if got and got[0] not in PLANTED_FEATURES:
        problems.append(f"top feature {got[0]} carries no planted signal")
    return problems
