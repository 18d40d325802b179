import statistics
from datetime import datetime, timezone

import numpy as np
import pytest

from phishgraph.errors import EmptyMask, ShapeMismatch
from phishgraph.features import (
    EXPLICIT_FEATURE_NAMES,
    IMPLICIT_FEATURE_NAMES,
    FeatureMatrix,
    _exact_totals,
    concat_features,
    denormalize,
    extract_explicit,
    extract_implicit,
    fit_minmax,
)
from phishgraph.graph import build_graph
from phishgraph.storage import load_dataset, save_dataset
from phishgraph.synthetic import SyntheticConfig, generate_synthetic
from phishgraph.txmodel import TX_RECORD

from helpers import (
    addr, dataset_from, make_tx, node_addresses, node_of, row_addresses, traced_peak,
    transactions,
)

# --------------------------------------------------------------------------
# Independent oracle: pure-Python statistics over datetime objects. This is
# deliberately a different route from the numpy implementation under test.
# --------------------------------------------------------------------------


def oracle_hour(ts: int) -> int:
    return datetime.fromtimestamp(ts, tz=timezone.utc).hour


def oracle_weekend(ts: int) -> bool:
    return datetime.fromtimestamp(ts, tz=timezone.utc).weekday() >= 5


def oracle_implicit(ds) -> dict:
    addresses = row_addresses(ds)
    sent: dict = {}
    received: dict = {}
    for a in addresses:
        sent[a] = []
        received[a] = []
    for tx in transactions(ds):
        sent[tx.sender].append(tx)
        received[tx.receiver].append(tx)

    out = {}
    for a in addresses:
        s, r = sent[a], received[a]
        s_ts = [t.timestamp for t in s]
        r_ts = [t.timestamp for t in r]
        s_hours = [oracle_hour(t) for t in s_ts]
        r_hours = [oracle_hour(t) for t in r_ts]
        gaps = [b - c for c, b in zip(sorted(s_ts), sorted(s_ts)[1:])]
        all_ts = s_ts + r_ts
        out[a] = {
            "from_tx_cnt": len(s),
            "to_tx_cnt": len(r),
            "total_val_sent": float(sum(t.value for t in s)),
            "total_val_recd": float(sum(t.value for t in r)),
            "avg_gas_sent": statistics.mean(t.gas_used for t in s) if s else 0.0,
            "avg_gas_recd": statistics.mean(t.gas_used for t in r) if r else 0.0,
            "mean_hour_sent": statistics.mean(s_hours) if s_hours else 0.0,
            "mean_hour_recd": statistics.mean(r_hours) if r_hours else 0.0,
            "std_hour_sent": statistics.pstdev(s_hours) if len(s_hours) >= 2 else 0.0,
            "std_hour_recd": statistics.pstdev(r_hours) if len(r_hours) >= 2 else 0.0,
            "avg_time_bw_tx": statistics.mean(gaps) if gaps else 0.0,
            "min_time_bw_tx": min(gaps) if gaps else 0.0,
            "max_time_bw_tx": max(gaps) if gaps else 0.0,
            "tx_duration": float(max(all_ts) - min(all_ts)) if all_ts else 0.0,
            "wd_tx_ratio_sent": (
                sum(oracle_weekend(t) for t in s_ts) / len(s_ts) if s_ts else 0.0
            ),
            "wd_tx_ratio_recd": (
                sum(oracle_weekend(t) for t in r_ts) / len(r_ts) if r_ts else 0.0
            ),
        }
    return out


INTEGER_FEATURES = {"from_tx_cnt", "to_tx_cnt"}


def assert_matches_oracle(ds, g, X):
    oracle = oracle_implicit(ds)
    for node, a in enumerate(node_addresses(ds, g)):
        for col, name in enumerate(IMPLICIT_FEATURE_NAMES):
            got = X.rows[node, col]
            want = oracle[a][name]
            if name in INTEGER_FEATURES:
                assert got == want, f"{a} {name}: {got} != {want}"
            else:
                tol = 1e-9 * max(1.0, abs(want))
                assert abs(got - want) <= tol, f"{a} {name}: {got} != {want}"


# --------------------------------------------------------------------------


class TestExplicit:
    def test_single_transaction_means(self):
        ds = dataset_from([make_tx(1, addr(1), addr(2), value=10**18)])
        g = build_graph(ds)
        X = extract_explicit(ds, g)
        node = node_of(ds, g, addr(1))
        assert X.names == EXPLICIT_FEATURE_NAMES
        assert X.rows[node, 1] == 1.0e18

    def test_two_transaction_gas_mean(self):
        ds = dataset_from(
            [
                make_tx(1, addr(1), addr(2), gas=100_000, gas_used=21_000),
                make_tx(2, addr(3), addr(1), gas=100_000, gas_used=63_000),
            ]
        )
        g = build_graph(ds)
        X = extract_explicit(ds, g)
        assert X.rows[node_of(ds, g, addr(1)), 4] == 42_000.0

    def test_fixture_matches_brute_force(self):
        txs = [
            make_tx(1, addr(1), addr(2), ts=100_000, value=7, gas=30_000,
                    gas_price=11, gas_used=25_000),
            make_tx(2, addr(2), addr(3), ts=200_000, value=9, gas=40_000,
                    gas_price=13, gas_used=31_000),
            make_tx(3, addr(1), addr(3), ts=300_000, value=11, gas=50_000,
                    gas_price=17, gas_used=44_000),
            make_tx(4, addr(3), addr(1), ts=400_000, value=13, gas=60_000,
                    gas_price=19, gas_used=52_000),
        ]
        ds = dataset_from(txs)
        g = build_graph(ds)
        X = extract_explicit(ds, g)
        for node, a in enumerate(node_addresses(ds, g)):
            incident = [t for t in txs if t.sender == a or t.receiver == a]
            expected = [
                statistics.mean(t.timestamp for t in incident),
                statistics.mean(t.value for t in incident),
                statistics.mean(t.gas for t in incident),
                statistics.mean(t.gas_price for t in incident),
                statistics.mean(t.gas_used for t in incident),
            ]
            assert np.allclose(X.rows[node], expected, rtol=1e-12)

    def test_self_transfer_counted_once(self):
        ds = dataset_from([make_tx(1, addr(1), addr(1), value=10)])
        g = build_graph(ds)
        X = extract_explicit(ds, g)
        assert X.rows[0, 1] == 10.0


class TestImplicit:
    def test_two_point_gap_case(self):
        t0 = 1_600_000_000
        ds = dataset_from(
            [
                make_tx(1, addr(1), addr(2), ts=t0),
                make_tx(2, addr(1), addr(2), ts=t0 + 3600),
            ]
        )
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        row = X.rows[node_of(ds, g, addr(1))]
        names = list(IMPLICIT_FEATURE_NAMES)
        assert row[names.index("avg_time_bw_tx")] == 3600.0
        assert row[names.index("min_time_bw_tx")] == 3600.0
        assert row[names.index("max_time_bw_tx")] == 3600.0
        assert row[names.index("tx_duration")] == 3600.0

    def test_saturday_send_ratio_one(self):
        # 2023-11-11 was a Saturday
        sat = int(datetime(2023, 11, 11, 12, 0, tzinfo=timezone.utc).timestamp())
        ds = dataset_from([make_tx(1, addr(1), addr(2), ts=sat)])
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        names = list(IMPLICIT_FEATURE_NAMES)
        assert X.rows[node_of(ds, g, addr(1)), names.index("wd_tx_ratio_sent")] == 1.0
        assert X.rows[node_of(ds, g, addr(2)), names.index("wd_tx_ratio_recd")] == 1.0

    def test_hours_one_and_three(self):
        day = 1_600_000_000 - (1_600_000_000 % 86_400)
        ds = dataset_from(
            [
                make_tx(1, addr(1), addr(2), ts=day + 1 * 3600),
                make_tx(2, addr(1), addr(2), ts=day + 3 * 3600 + 86_400),
            ]
        )
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        names = list(IMPLICIT_FEATURE_NAMES)
        row = X.rows[node_of(ds, g, addr(1))]
        assert row[names.index("mean_hour_sent")] == 2.0
        assert row[names.index("std_hour_sent")] == 1.0  # population std

    def test_receive_only_node_has_zero_sent_stats(self):
        ds = dataset_from([make_tx(1, addr(1), addr(2))])
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        names = list(IMPLICIT_FEATURE_NAMES)
        row = X.rows[node_of(ds, g, addr(2))]
        for name in ("from_tx_cnt", "total_val_sent", "avg_gas_sent",
                     "mean_hour_sent", "std_hour_sent", "avg_time_bw_tx",
                     "wd_tx_ratio_sent"):
            assert row[names.index(name)] == 0.0
        assert row[names.index("to_tx_cnt")] == 1.0

    def test_self_transfer_counts_as_sent_and_received(self):
        ds = dataset_from([make_tx(1, addr(1), addr(1), value=5)])
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        names = list(IMPLICIT_FEATURE_NAMES)
        row = X.rows[0]
        assert row[names.index("from_tx_cnt")] == 1.0
        assert row[names.index("to_tx_cnt")] == 1.0
        assert row[names.index("total_val_sent")] == 5.0
        assert row[names.index("total_val_recd")] == 5.0

    def test_synthetic_corpus_matches_oracle(self):
        cfg = SyntheticConfig(n_benign_addresses=160, n_phishing_addresses=40, seed=13)
        ds = generate_synthetic(cfg)
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        assert X.names == IMPLICIT_FEATURE_NAMES
        assert_matches_oracle(ds, g, X)

    def test_bounds_properties(self):
        ds = generate_synthetic(
            SyntheticConfig(n_benign_addresses=80, n_phishing_addresses=20, seed=21)
        )
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        names = list(IMPLICIT_FEATURE_NAMES)
        avg = X.rows[:, names.index("avg_time_bw_tx")]
        mn = X.rows[:, names.index("min_time_bw_tx")]
        mx = X.rows[:, names.index("max_time_bw_tx")]
        sent_cnt = X.rows[:, names.index("from_tx_cnt")]
        assert np.all(avg >= 0.0)
        multi = sent_cnt >= 2
        assert np.all(mn[multi] <= avg[multi] + 1e-9)
        assert np.all(avg[multi] <= mx[multi] + 1e-9)
        for col in ("std_hour_sent", "std_hour_recd"):
            vals = X.rows[:, names.index(col)]
            assert np.all((0.0 <= vals) & (vals <= 11.5))
        for col in ("mean_hour_sent", "mean_hour_recd"):
            vals = X.rows[:, names.index(col)]
            assert np.all((0.0 <= vals) & (vals <= 23.0))


class TestExactColumns:
    """The columnar extractors on extreme values, after a storage round trip:
    wei totals beyond 2**256, gas totals beyond 2**64, a self-transfer, a
    node that sends once, a node that only receives, and three values of
    2**53 + 1, whose float64 sum is not the float64 of their exact sum."""

    U64 = 2**64 - 1
    MAX_WEI = 2**256 - 1

    def dataset(self, tmp_path):
        t0 = 1_600_000_000
        big = dict(value=self.MAX_WEI, gas=self.U64, gas_price=self.U64, gas_used=self.U64)
        txs = [
            make_tx(1, addr(1), addr(2), ts=t0, **big),
            make_tx(2, addr(1), addr(2), ts=t0 + 7_200, **big),
            make_tx(3, addr(2), addr(1), ts=t0 + 50_000, **big),
            make_tx(4, addr(1), addr(1), ts=t0 + 90_000, value=self.MAX_WEI - 6,
                    gas=self.U64, gas_price=3, gas_used=self.U64 - 1),
            make_tx(5, addr(3), addr(1), ts=t0 + 400_000, value=1, gas_used=7),
            make_tx(6, addr(1), addr(4), ts=t0 + 500_000, **big),
            *(
                make_tx(7 + k, addr(5), addr(6), ts=t0 + k * 3_600, value=2**53 + 1,
                        gas=2**53 + 1, gas_price=2**53 + 1, gas_used=2**53 + 1)
                for k in range(3)
            ),
        ]
        sent_by_1 = [t for t in txs if t.sender == addr(1)]
        assert sum(t.value for t in sent_by_1) > 2**256
        assert sum(t.gas for t in sent_by_1) > 2**64
        assert float(3 * (2**53 + 1)) != 3 * float(2**53 + 1)
        path = tmp_path / "extreme.bin"
        save_dataset(dataset_from(txs, phishing=[addr(3)]), path)
        return load_dataset(path), txs

    def test_explicit_means_are_exact(self, tmp_path):
        ds, txs = self.dataset(tmp_path)
        g = build_graph(ds)
        X = extract_explicit(ds, g)
        fields = ("timestamp", "value", "gas", "gas_price", "gas_used")
        for node, a in enumerate(node_addresses(ds, g)):
            incident = [t for t in txs if a in (t.sender, t.receiver)]
            for col, name in enumerate(fields):
                ints = [getattr(t, name) for t in incident]
                assert X.rows[node, col] == float(sum(ints)) / len(ints), (a, name)

    def test_implicit_matches_oracle_and_exact_totals(self, tmp_path):
        ds, txs = self.dataset(tmp_path)
        g = build_graph(ds)
        X = extract_implicit(ds, g)
        assert_matches_oracle(ds, g, X)
        names = list(IMPLICIT_FEATURE_NAMES)
        for node, a in enumerate(node_addresses(ds, g)):
            sent = [t for t in txs if t.sender == a]
            received = [t for t in txs if t.receiver == a]
            row = X.rows[node]
            assert row[names.index("total_val_sent")] == float(sum(t.value for t in sent))
            assert row[names.index("total_val_recd")] == float(sum(t.value for t in received))
            if sent:
                total = sum(t.gas_used for t in sent)
                assert row[names.index("avg_gas_sent")] == float(total) / len(sent)


def test_exact_totals_gather_one_limb_at_a_time():
    """The exact totals of 100,000 256-bit values over 1,000 runs peak at
    2.6 sizes of the row order in traced memory: one gathered limb as >u4
    and as uint64, and its run sums. Gathering all eight limbs at once
    peaked at 12.0."""
    rng = np.random.default_rng(3)
    n, nodes = 100_000, 1000
    records = np.zeros(n, TX_RECORD)
    records["value"] = rng.integers(0, 2**32, (n, 8), dtype=np.uint64)
    order = rng.permutation(n)
    counts = np.bincount(rng.integers(0, nodes, n), minlength=nodes)
    assert traced_peak(lambda: _exact_totals(records["value"], order, counts)) < 4 * order.nbytes


class TestMinMax:
    def test_linear_map(self):
        X = FeatureMatrix(("f",), np.array([[2.0], [4.0], [6.0]]))
        scaled = fit_minmax(X, np.array([True, True, True]))
        assert np.allclose(scaled.rows[:, 0], [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self):
        X = FeatureMatrix(("f",), np.array([[5.0], [5.0], [5.0]]))
        scaled = fit_minmax(X, np.ones(3, dtype=bool))
        assert np.all(scaled.rows == 0.0)

    def test_out_of_fit_rows_clamped(self):
        X = FeatureMatrix(("f",), np.array([[0.0], [10.0], [20.0]]))
        scaled = fit_minmax(X, np.array([True, True, False]))
        # raw transform of row 2 is 2.0; it clamps to 1.0
        assert scaled.rows[2, 0] == 1.0
        assert np.allclose(scaled.rows[:2, 0], [0.0, 1.0])

    def test_fit_rows_stay_in_unit_interval(self):
        rng = np.random.default_rng(5)
        X = FeatureMatrix(tuple(f"f{i}" for i in range(4)), rng.normal(size=(30, 4)))
        mask = rng.random(30) < 0.6
        scaled = fit_minmax(X, mask)
        assert np.all(scaled.rows >= -1e-12)
        assert np.all(scaled.rows <= 1.0 + 1e-12)
        assert np.all(scaled.rows[mask] >= 0.0)
        assert np.all(scaled.rows[mask] <= 1.0)

    def test_empty_mask_rejected(self):
        X = FeatureMatrix(("f",), np.zeros((3, 1)))
        with pytest.raises(EmptyMask):
            fit_minmax(X, np.zeros(3, dtype=bool))

    def test_denormalize_round_trips_fit_rows(self):
        rng = np.random.default_rng(6)
        X = FeatureMatrix(
            tuple(f"f{i}" for i in range(5)), rng.normal(size=(40, 5)) * 100
        )
        mask = np.ones(40, dtype=bool)
        scaled = fit_minmax(X, mask)
        back = denormalize(scaled)
        rel = np.abs(back - X.rows) / np.maximum(np.abs(X.rows), 1e-12)
        assert rel.max() <= 1e-9

    def test_scaler_parameters_stored(self):
        X = FeatureMatrix(("f",), np.array([[2.0], [6.0]]))
        scaled = fit_minmax(X, np.ones(2, dtype=bool))
        mins, maxs = scaled.scaler
        assert mins[0] == 2.0 and maxs[0] == 6.0


class TestSerialization:
    def test_concat(self):
        a = FeatureMatrix(("x",), np.ones((2, 1)))
        b = FeatureMatrix(("y",), np.zeros((2, 1)))
        c = concat_features(a, b)
        assert c.names == ("x", "y")
        assert c.rows.shape == (2, 2)
        with pytest.raises(ShapeMismatch):
            concat_features(a, FeatureMatrix(("z",), np.zeros((3, 1))))
