"""Explicit and implicit per-address feature vectors, plus Min-Max scaling.

Explicit features are plain means of per-transaction fields over every
transaction touching an address; the sender/receiver identities themselves
are realized structurally by the graph rather than as numeric columns. The
deliberately simple aggregation keeps this set weak on purpose, matching its
role as the baseline feature set.

Implicit features are sixteen behavioral statistics per address: directional
counts and totals, gas usage, hour-of-day rhythm, inter-transaction gaps,
activity span, and weekend ratios. Hours and weekdays are computed in UTC;
weekend means Saturday or Sunday. Any "no data" case (no sent transactions,
fewer than two for gap statistics) yields 0.0 so the matrix stays dense.

Wei totals are summed as exact integers and converted to float64 once, with
round-half-even rounding at the conversion.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, ShapeMismatch
from .graph import TxGraph
from .txmodel import LabeledDataset

EXPLICIT_FEATURE_NAMES = (
    "mean_timestamp",
    "mean_value",
    "mean_gas",
    "mean_gas_price",
    "mean_gas_used",
)

IMPLICIT_FEATURE_NAMES = (
    "from_tx_cnt",
    "to_tx_cnt",
    "total_val_sent",
    "total_val_recd",
    "avg_gas_sent",
    "avg_gas_recd",
    "mean_hour_sent",
    "mean_hour_recd",
    "std_hour_sent",
    "std_hour_recd",
    "avg_time_bw_tx",
    "min_time_bw_tx",
    "max_time_bw_tx",
    "tx_duration",
    "wd_tx_ratio_sent",
    "wd_tx_ratio_recd",
)

# Unix day 0 was a Thursday; weekday 0 = Monday, so Saturday/Sunday are 5/6.
_EPOCH_WEEKDAY_OFFSET = 3


def hour_of_day(timestamp: int) -> int:
    return (timestamp % 86_400) // 3_600


def is_weekend(timestamp: int) -> bool:
    return (timestamp // 86_400 + _EPOCH_WEEKDAY_OFFSET) % 7 >= 5


@dataclass
class FeatureMatrix:
    """Named per-node feature vectors aligned to a graph's node order."""

    names: tuple[str, ...]
    rows: np.ndarray                                   # (n, d) float64
    scaler: tuple[np.ndarray, np.ndarray] | None = None  # fitted (mins, maxs)

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.ndim != 2 or self.rows.shape[1] != len(self.names):
            raise ShapeMismatch(
                f"rows have {self.rows.shape} shape for {len(self.names)} names"
            )

    @property
    def n_features(self) -> int:
        return len(self.names)


def _incident_transactions(
    ds: LabeledDataset, g: TxGraph
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Per-node transaction index lists: (incident, sent, received).

    A self-transfer appears once in the incident list but counts as both a
    sent and a received transaction.
    """
    n = g.n_nodes
    incident: list[list[int]] = [[] for _ in range(n)]
    sent: list[list[int]] = [[] for _ in range(n)]
    received: list[list[int]] = [[] for _ in range(n)]
    for ti, tx in enumerate(ds.transactions):
        s = g.node_index[tx.sender]
        r = g.node_index[tx.receiver]
        incident[s].append(ti)
        if r != s:
            incident[r].append(ti)
        sent[s].append(ti)
        received[r].append(ti)
    return incident, sent, received


def extract_explicit(ds: LabeledDataset, g: TxGraph) -> FeatureMatrix:
    """Means of the raw transaction fields over each node's incident set."""
    incident, _, _ = _incident_transactions(ds, g)
    txs = ds.transactions
    rows = np.zeros((g.n_nodes, len(EXPLICIT_FEATURE_NAMES)))
    for node, tx_ids in enumerate(incident):
        n = len(tx_ids)
        rows[node, 0] = float(sum(txs[t].timestamp for t in tx_ids)) / n
        rows[node, 1] = float(sum(txs[t].value for t in tx_ids)) / n
        rows[node, 2] = float(sum(txs[t].gas for t in tx_ids)) / n
        rows[node, 3] = float(sum(txs[t].gas_price for t in tx_ids)) / n
        rows[node, 4] = float(sum(txs[t].gas_used for t in tx_ids)) / n
    return FeatureMatrix(EXPLICIT_FEATURE_NAMES, rows)


def _gap_stats(timestamps: list[int]) -> tuple[float, float, float]:
    if len(timestamps) < 2:
        return 0.0, 0.0, 0.0
    diffs = np.diff(np.sort(np.asarray(timestamps, dtype=np.int64)))
    return float(diffs.mean()), float(diffs.min()), float(diffs.max())


def _hour_stats(hours: list[int]) -> tuple[float, float]:
    if not hours:
        return 0.0, 0.0
    arr = np.asarray(hours, dtype=np.float64)
    mean = float(arr.mean())
    std = float(arr.std()) if len(arr) >= 2 else 0.0
    return mean, std


def extract_implicit(ds: LabeledDataset, g: TxGraph) -> FeatureMatrix:
    """The sixteen behavioral statistics per address (see module docstring)."""
    _, sent, received = _incident_transactions(ds, g)
    txs = ds.transactions
    rows = np.zeros((g.n_nodes, len(IMPLICIT_FEATURE_NAMES)))
    for node in range(g.n_nodes):
        s_ids, r_ids = sent[node], received[node]
        s_ts = [txs[t].timestamp for t in s_ids]
        r_ts = [txs[t].timestamp for t in r_ids]

        rows[node, 0] = len(s_ids)
        rows[node, 1] = len(r_ids)
        rows[node, 2] = float(sum(txs[t].value for t in s_ids))
        rows[node, 3] = float(sum(txs[t].value for t in r_ids))
        rows[node, 4] = (
            float(sum(txs[t].gas_used for t in s_ids)) / len(s_ids) if s_ids else 0.0
        )
        rows[node, 5] = (
            float(sum(txs[t].gas_used for t in r_ids)) / len(r_ids) if r_ids else 0.0
        )
        rows[node, 6], rows[node, 8] = _hour_stats([hour_of_day(t) for t in s_ts])
        rows[node, 7], rows[node, 9] = _hour_stats([hour_of_day(t) for t in r_ts])
        rows[node, 10], rows[node, 11], rows[node, 12] = _gap_stats(s_ts)
        all_ts = s_ts + r_ts
        rows[node, 13] = float(max(all_ts) - min(all_ts)) if all_ts else 0.0
        rows[node, 14] = (
            sum(1 for t in s_ts if is_weekend(t)) / len(s_ts) if s_ts else 0.0
        )
        rows[node, 15] = (
            sum(1 for t in r_ts if is_weekend(t)) / len(r_ts) if r_ts else 0.0
        )
    return FeatureMatrix(IMPLICIT_FEATURE_NAMES, rows)


def concat_features(a: FeatureMatrix, b: FeatureMatrix) -> FeatureMatrix:
    if a.rows.shape[0] != b.rows.shape[0]:
        raise ShapeMismatch("feature matrices cover different node counts")
    return FeatureMatrix(a.names + b.names, np.hstack([a.rows, b.rows]))


def fit_minmax(X: FeatureMatrix, fit_mask: np.ndarray) -> FeatureMatrix:
    """Min-Max scale into [0, 1], fitting on the masked rows only.

    Constant features map to 0. Rows outside the fit mask are clamped to
    [0, 1] after the transform so unseen extremes cannot leak out of range.
    """
    fit_mask = np.asarray(fit_mask, dtype=bool)
    if fit_mask.shape != (X.rows.shape[0],):
        raise ShapeMismatch("fit mask length != row count")
    if not fit_mask.any():
        raise EmptyMask("fit mask selects no rows")
    mins = X.rows[fit_mask].min(axis=0)
    maxs = X.rows[fit_mask].max(axis=0)
    span = maxs - mins
    transformed = np.zeros_like(X.rows)
    nonconstant = span > 0
    transformed[:, nonconstant] = (
        X.rows[:, nonconstant] - mins[nonconstant]
    ) / span[nonconstant]
    transformed = np.clip(transformed, 0.0, 1.0)
    return FeatureMatrix(X.names, transformed, scaler=(mins.copy(), maxs.copy()))


def denormalize(X: FeatureMatrix) -> np.ndarray:
    """Undo a fitted Min-Max transform (exact for in-range values)."""
    if X.scaler is None:
        raise ShapeMismatch("feature matrix has no fitted scaler")
    mins, maxs = X.scaler
    return X.rows * (maxs - mins) + mins

