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

Both sets reduce the dataset's columnar table over runs of transactions
grouped by node, with one stable sort per grouping (incident, sent,
received). Sums of u64 fields and wei values are exact integers converted
to float64 once, with round-half-even rounding at the conversion.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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


_NO_TIME = np.iinfo(np.uint64).max  # the earliest time of a run without transactions


def hour_of_day(timestamp):
    """UTC hour of a Unix time; also elementwise over a uint64 array."""
    return (timestamp % 86_400) // 3_600


def is_weekend(timestamp):
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
        finite = np.isfinite(self.rows).all(axis=0)
        if not finite.all():
            bad = self.names[int(np.argmin(finite))]
            raise ShapeMismatch(f"feature {bad!r} has a non-finite value")

    @property
    def n_features(self) -> int:
        return len(self.names)


def _runs(ufunc, values: np.ndarray, counts: np.ndarray, empty=0) -> np.ndarray:
    """``ufunc`` reduced over consecutive runs of ``values`` of the given
    lengths; ``empty`` where a run has length 0."""
    out = np.full((len(counts),) + values.shape[1:], empty, dtype=values.dtype)
    nonempty = counts > 0
    if len(values):
        starts = np.cumsum(counts) - counts
        out[nonempty] = ufunc.reduceat(values, starts[nonempty], axis=0)
    return out


def _limbs(column: np.ndarray, order: np.ndarray) -> Iterator[np.ndarray]:
    """The 32-bit limbs of ``column[order]`` as uint64 arrays, most
    significant first, gathered one at a time: two of a u64 field, eight of
    a 256-bit value."""
    if column.ndim == 1:
        values = np.take(column, order)
        yield values >> np.uint64(32)
        yield values & np.uint64(0xFFFFFFFF)
    else:
        for j in range(column.shape[1]):
            yield np.take(column[:, j], order).astype(np.uint64)


def _exact_totals(column: np.ndarray, order: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """float(exact integer sum) of ``column[order]`` over each run.

    The u64 or 256-bit values are taken one 32-bit limb at a time, so only
    one limb of the gathered rows is held; a limb sums without overflow in
    uint64 for runs shorter than 2**32. Each run's limb sums are recombined
    as Python ints, so the float rounds exactly once.
    """
    total = np.zeros(len(counts), dtype=object)
    for limb in _limbs(column, order):
        total = (total << 32) + _runs(np.add, limb, counts).astype(object)
    return total.astype(np.float64)


def _mean(total: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """total / counts, and 0.0 where counts is 0."""
    return np.divide(total, counts, out=np.zeros(len(counts)), where=counts > 0)


def extract_explicit(ds: LabeledDataset, g: TxGraph) -> FeatureMatrix:
    """Means of the raw transaction fields over each node's incident set."""
    src, dst = g.tx_nodes.T
    # a self-transfer joins its node's incident set once
    other = np.flatnonzero(dst != src)
    node = np.concatenate((src, dst[other]))
    order = np.concatenate((np.arange(len(src)), other))[np.argsort(node, kind="stable")]
    counts = np.bincount(node, minlength=g.n_nodes)
    rows = [
        _mean(_exact_totals(ds.records[name], order, counts), counts)
        for name in ("timestamp", "value", "gas", "gas_price", "gas_used")
    ]
    return FeatureMatrix(EXPLICIT_FEATURE_NAMES, np.column_stack(rows))


def extract_implicit(ds: LabeledDataset, g: TxGraph) -> FeatureMatrix:
    """The sixteen behavioral statistics per address (see module docstring)."""
    n = g.n_nodes
    records = ds.records
    ts = records["timestamp"]
    hour = hour_of_day(ts).astype(np.int64)
    weekend = is_weekend(ts).astype(np.int64)
    rows = np.zeros((n, len(IMPLICIT_FEATURE_NAMES)))
    first, last = np.full(n, _NO_TIME, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
    # column k + side: side 0 holds the sent statistic, side 1 the received one
    for side, node in enumerate(g.tx_nodes.T):
        order = np.lexsort((ts, node))  # by node, then by time
        counts = np.bincount(node, minlength=n)
        h, times = hour[order], ts[order]
        h_sum, h_sq_sum = _runs(np.add, h, counts), _runs(np.add, h * h, counts)
        rows[:, 0 + side] = counts
        rows[:, 2 + side] = _exact_totals(records["value"], order, counts)
        rows[:, 4 + side] = _mean(_exact_totals(records["gas_used"], order, counts), counts)
        rows[:, 6 + side] = _mean(h_sum, counts)
        # population variance from exact integers: (n*sum(h^2) - sum(h)^2) / n^2
        rows[:, 8 + side] = np.sqrt(_mean(counts * h_sq_sum - h_sum * h_sum, counts**2))
        rows[:, 14 + side] = _mean(_runs(np.add, weekend[order], counts), counts)
        first = np.minimum(first, _runs(np.minimum, times, counts, empty=_NO_TIME))
        last = np.maximum(last, _runs(np.maximum, times, counts))
        if side == 0:
            within = node[order][1:] == node[order][:-1]
            gaps = (times[1:] - times[:-1])[within]
            gap_counts = np.maximum(counts - 1, 0)
            rows[:, 10] = _mean(_runs(np.add, gaps, gap_counts), gap_counts)
            rows[:, 11] = _runs(np.minimum, gaps, gap_counts)
            rows[:, 12] = _runs(np.maximum, gaps, gap_counts)
    rows[:, 13] = np.where(first <= last, last - first, 0)
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

