import json
from dataclasses import asdict

import pytest

from phishgraph.errors import InvalidConfig
from phishgraph.features import hour_of_day
from phishgraph.storage import load_dataset, save_dataset
from phishgraph.synthetic import WINDOW_END, SyntheticConfig, generate_synthetic
from phishgraph.txmodel import Label, LabelProvenance

from helpers import labels, provenance, transactions

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
            SyntheticConfig(**kwargs).validate()

    def test_from_json_round_trip(self):
        """The config a synth manifest records reads back as the same config."""
        cfg = SyntheticConfig(seed=5, n_benign_addresses=12)
        assert SyntheticConfig.from_json(json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(InvalidConfig):
            SyntheticConfig.from_json({"bogus_knob": 1})
