import json
from dataclasses import asdict

import numpy as np
import pytest

from phishgraph.errors import InvalidConfig
from phishgraph.features import hour_of_day
from phishgraph.storage import load_dataset, save_dataset
from phishgraph import synthetic
from phishgraph.synthetic import WINDOW_END, SyntheticConfig, _dataset, generate_synthetic
from phishgraph.txmodel import Label, LabelProvenance

from helpers import labels, provenance, traced_peak, transactions

SMALL = SyntheticConfig(n_benign_addresses=40, n_phishing_addresses=10, seed=7)


def class_value_means(ds):
    """Independent per-class mean of total wei sent, straight off the transactions."""
    by_address = labels(ds)
    sent: dict = {a: 0 for a in by_address}
    for tx in transactions(ds):
        sent[tx.sender] += tx.value
    by_class = {Label.BENIGN: [], Label.PHISHING: []}
    for a, total in sent.items():
        by_class[by_address[a]].append(total)
    return {
        lbl: (sum(vals) / len(vals) if vals else 0.0)
        for lbl, vals in by_class.items()
    }


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(generate_synthetic(SMALL), a)
        save_dataset(generate_synthetic(SMALL), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        other = SyntheticConfig(n_benign_addresses=40, n_phishing_addresses=10, seed=8)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dataset(generate_synthetic(SMALL), a)
        save_dataset(generate_synthetic(other), b)
        assert a.read_bytes() != b.read_bytes()

    def test_round_trip_through_storage(self, tmp_path):
        ds = generate_synthetic(SMALL)
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert transactions(loaded) == transactions(ds)
        assert labels(loaded) == labels(ds)
        assert provenance(loaded) == provenance(ds)


class TestInPlaceRecords:
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_block_size_does_not_change_the_corpus(self, rows, monkeypatch):
        want = generate_synthetic(SMALL)
        monkeypatch.setattr(synthetic, "_BLOCK_ROWS", rows)
        got = generate_synthetic(SMALL)
        assert got.records.tobytes() == want.records.tobytes()
        assert got.address_table.tobytes() == want.address_table.tobytes()

    def test_peak_is_below_3_1_record_sizes(self):
        """A corpus of 15,407 transactions peaks at 2.74 sizes of its records
        in traced memory: the raw draws, the hashes, the row order and the
        records, filled in place. Listing every hash before joining them and
        reordering a finished table peaked at 3.49."""
        cfg = SyntheticConfig(n_benign_addresses=1000, n_phishing_addresses=250, seed=3)
        n_bytes = generate_synthetic(cfg).records.nbytes
        assert traced_peak(lambda: generate_synthetic(cfg)) < 3.1 * n_bytes


class TestGeneratedShape:
    def test_no_phishing_means_all_benign(self):
        cfg = SyntheticConfig(n_benign_addresses=30, n_phishing_addresses=0, seed=1)
        ds = generate_synthetic(cfg)
        assert all(lbl is Label.BENIGN for lbl in labels(ds).values())

    def test_counts_and_provenance(self):
        ds = generate_synthetic(SMALL)
        benign, phishing = ds.class_counts()
        assert (benign, phishing) == (40, 10)
        assert all(p is LabelProvenance.SYNTHETIC for p in provenance(ds).values())

    def test_every_address_appears_in_a_transaction(self):
        ds = generate_synthetic(SMALL)
        endpoints = {a for tx in transactions(ds) for a in (tx.sender, tx.receiver)}
        assert endpoints == set(labels(ds))


class TestPlantedBehavior:
    def test_phishing_sends_more_value_on_average(self):
        means = class_value_means(generate_synthetic(SMALL))
        assert means[Label.PHISHING] > means[Label.BENIGN]

    def test_burst_confined_to_configured_hours(self):
        ds = generate_synthetic(SMALL)
        h_lo, h_hi = SMALL.phishing_burst_hour_range
        by_address = labels(ds)
        for tx in transactions(ds):
            if by_address[tx.sender] is Label.PHISHING:
                assert h_lo <= hour_of_day(tx.timestamp) < h_hi

    def test_dormancy_respected(self):
        ds = generate_synthetic(SMALL)
        window_start = WINDOW_END - SMALL.window_days * 86_400
        earliest_allowed = window_start + SMALL.phishing_dormancy_days * 86_400
        by_address = labels(ds)
        for tx in transactions(ds):
            if by_address[tx.sender] is Label.PHISHING:
                assert tx.timestamp >= earliest_allowed

    def test_phishing_gaps_shorter_than_benign(self):
        ds = generate_synthetic(SMALL)
        sent: dict = {}
        by_address = labels(ds)
        for tx in transactions(ds):
            sent.setdefault(tx.sender, []).append(tx.timestamp)
        gaps = {Label.BENIGN: [], Label.PHISHING: []}
        for a, ts in sent.items():
            ts = sorted(ts)
            if len(ts) >= 2:
                diffs = [b - c for b, c in zip(ts[1:], ts)]
                gaps[by_address[a]].append(sum(diffs) / len(diffs))
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(gaps[Label.PHISHING]) < mean(gaps[Label.BENIGN])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_benign_addresses": 0},
            {"n_phishing_addresses": -1},
            {"tx_per_address_range": (0, 5)},
            {"tx_per_address_range": (6, 5)},
            {"phishing_burst_hour_range": (5, 24)},
            {"phishing_burst_hour_range": (-1, 4)},
            {"phishing_dormancy_days": 400},
            {"benign_value_log_sigma": 0.0},
            {"window_days": 1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            SyntheticConfig(**kwargs)

    def test_from_json_round_trip(self):
        """The config a synth manifest records reads back as the same config."""
        cfg = SyntheticConfig(seed=5, n_benign_addresses=12)
        assert SyntheticConfig.from_json(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfig):
            SyntheticConfig.from_json({"bogus_knob": 1})


class TestDrawLimits:
    """A value draw must fit in 256 bits and a gas price draw in 64; the
    error names the first draw that does not, in generation order."""

    ADDRESSES = [bytes([1]) * 20, bytes([2]) * 20]

    def table(self, *rows):
        """``(value, gas_price)`` draws, one transaction each, in time order."""
        draws = [[WINDOW_END + i, 0, 1, v, 21_000, 7, p] for i, (v, p) in enumerate(rows)]
        return _dataset(np.array(draws, dtype=float), self.ADDRESSES, 1)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ([(2.0**256, 1e10)], r"^value draw 1.158e\+77 does not fit in 256 bits"),
            ([(1e18, 2.0**64)], r"^gas price draw 1.845e\+19 does not fit in 64 bits"),
            ([(float("nan"), 1e10)], r"^value draw nan does not fit in 256 bits"),
            ([(1e18, float("inf"))], r"^gas price draw inf does not fit in 64 bits"),
            ([(2.0**256, 2.0**64)], r"^value draw"),  # a value precedes its gas price
            ([(1e18, 2.0**64), (2.0**256, 1e10)], r"^gas price draw"),  # earlier row first
        ],
    )
    def test_first_bad_draw_rejected(self, rows, message):
        with pytest.raises(InvalidConfig, match=message):
            self.table(*rows)

    def test_largest_fitting_draws_kept_exactly(self):
        value, gas_price = np.nextafter(2.0**256, 0), np.nextafter(2.0**64, 0)
        (tx,) = transactions(self.table((value, gas_price)))
        assert tx.value == int(value) and tx.gas_price == int(gas_price)
        assert (tx.gas_used, tx.gas) == (21_000, 21_007)

    def test_draws_truncate_exactly(self):
        """Each value is the int its draw truncates to, and at least one."""
        values = [0.75, 12.9, 2.0**32 - 1, 2.0**32, 2.0**53 + 2, 1.5 * 2.0**64, 3.7e40,
                  2.0**255 + 2.0**203]
        txs = transactions(self.table(*((v, 12.9) for v in values)))
        assert [tx.value for tx in txs] == [max(1, int(v)) for v in values]
        assert {tx.gas_price for tx in txs} == {12}

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"benign_value_log_mu": 180}, r"^value draw \S+ does not fit in 256 bits"),
            ({"benign_gas_price_log_mu": 50}, r"^gas price draw \S+ does not fit in 64 bits"),
            ({"benign_value_log_mu": 180, "benign_gas_price_log_mu": 50}, r"^value draw"),
            (  # the first benign gas price comes before any phishing value
                {"benign_gas_price_log_mu": 50, "phishing_value_log_mu": 180,
                 "phishing_high_value_fraction": 1.0},
                r"^gas price draw",
            ),
            (  # a nan sigma is refused before any draw is made
                {"benign_value_log_sigma": float("nan")},
                r"^benign_value_log_sigma must be a finite number",
            ),
        ],
    )
    def test_config_names_the_draw(self, kwargs, message):
        with pytest.raises(InvalidConfig, match=message):
            generate_synthetic(SyntheticConfig(**kwargs))
