import random

import numpy as np
import pytest

from phishgraph.errors import InvalidAddress, InvalidTransaction
from phishgraph.ingest import clean
from phishgraph.txmodel import (
    TX_RECORD, Address, Label, TxColumns, decimal_column, transaction_table,
)

from helpers import addr, dataset_from, labels, make_tx, traced_peak, tx_columns, tx_rows


class TestCanonicalizeAddress:
    def test_case_folding(self):
        raw = "0xABCdef0000000000000000000000000000000001"
        assert Address(raw) == "0xabcdef0000000000000000000000000000000001"

    def test_prefix_insertion(self):
        raw = "abcdef0000000000000000000000000000000001"
        assert Address(raw) == "0xabcdef0000000000000000000000000000000001"

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidAddress):
            Address("0x1234")

    @pytest.mark.parametrize(
        "bad",
        ["", "0x", "zz" * 20, "0x" + "g" * 40, "0x" + "a" * 41, "0x" + "a" * 39 + "٥",
         None, 1234],
    )
    def test_garbage_rejected(self, bad):
        with pytest.raises(InvalidAddress):
            Address(bad)

    def test_uppercase_0x_prefix(self):
        assert Address("0Xab" + "0" * 38) == "0xab" + "0" * 38

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            raw = "".join(rng.choice("0123456789abcdefABCDEF") for _ in range(40))
            once = Address(raw)
            assert Address(once) == once

    def test_hash_and_equality_case_insensitive(self):
        a = Address("0xAB" + "0" * 38)
        b = Address("0xab" + "0" * 38)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


def parse_wei(text):
    """One numeral through the column parser (a non-string as its str, as the
    explorer parsers pass it): its exact value, or None when it is not ok."""
    column, ok = decimal_column([text if isinstance(text, str) else str(text)])
    return int(column[0]) if ok[0] else None


class TestParseWei:
    def test_zero(self):
        assert parse_wei("0") == 0

    def test_large_value_exact(self):
        # values of this magnitude exceed 64-bit range and must stay exact
        assert parse_wei("4610000000000000000000000") == 461 * 10**22

    def test_bad_charset(self):
        assert parse_wei("12a") is None

    @pytest.mark.parametrize("bad", ["", "+5", "-5", " 5", "5 ", "٥", "1_0", None])
    def test_rejects_non_digit_strings(self, bad):
        assert parse_wei(bad) is None

    def test_numeral_beyond_int_digit_limit_rejected(self):
        column, ok = decimal_column(["7", "1" * 5000, "8"])
        assert ok.tolist() == [True, False, True]
        assert column.tolist() == [7, 0, 8]

    def test_leading_zeros_parse_but_round_trip_strips(self):
        assert parse_wei("007") == 7
        assert str(parse_wei("007")) == "7"

    def test_round_trip_up_to_256_bits(self):
        rng = random.Random(11)
        samples = [0, 1, 2**64 - 1, 2**64, 2**256 - 1]
        samples += [rng.randrange(2**256) for _ in range(500)]
        column, ok = decimal_column([str(x) for x in samples])
        assert ok.all() and column.dtype == object and column.tolist() == samples
        narrow, _ = decimal_column([str(x) for x in samples[:3]])
        assert narrow.dtype == np.uint64 and narrow.tolist() == samples[:3]


class TestTransaction:
    """The parsers check every field of a row but its width, which ``clean``
    checks against ``TX_RECORD``: such a row is dropped with its reason."""

    def test_valid_transaction(self):
        tx = make_tx(1, addr(1), addr(2))
        kept, report = clean(tx_columns([tx]))
        assert tx_rows(kept) == [tx] and report.dropped_rows == []

    def test_value_beyond_256_bits_flagged(self):
        txs = [make_tx(1, addr(1), addr(2), value=2**256),
               make_tx(2, addr(1), addr(2), value=2**256 - 1)]
        kept, report = clean(tx_columns(txs))
        assert tx_rows(kept) == txs[1:]
        assert report.dropped_rows == [(0, "value out of range")]
        assert report.invalid_dropped == 1

    @pytest.mark.parametrize("field", ["block", "ts", "gas", "gas_price", "gas_used"])
    def test_field_beyond_64_bits_flagged(self, field):
        wide = make_tx(1, addr(1), addr(2), **{"gas": 2**64, field: 2**64})
        at_limit = make_tx(2, addr(1), addr(2), **{"gas": 2**64 - 1, field: 2**64 - 1})
        kept, report = clean(tx_columns([wide, at_limit]))
        assert tx_rows(kept) == [at_limit]
        assert report.dropped_rows == [(0, "field beyond 64 bits")]


class TestTransactionTable:
    @pytest.mark.parametrize("top", [2**64, 2**100, 2**256],
                             ids=["uint64", "object-two-words", "object-four-words"])
    def test_value_limbs_are_the_big_endian_bytes(self, top):
        """Both column types a parser gives fill the eight >u4 limbs with the
        value's 32 big-endian bytes, up to the highest nonzero 64-bit word."""
        rng = random.Random(13)
        values = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, top - 1]
        values += [rng.randrange(top) for _ in range(200)]
        txs = tx_columns([make_tx(i, addr(1), addr(2), value=v) for i, v in enumerate(values)])
        assert (txs.value.dtype == object) == (top > 2**64)
        _, records = transaction_table(txs)
        assert records["value"].tobytes() == b"".join(v.to_bytes(32, "big") for v in values)

    def test_endpoints_map_to_rows_without_joining_the_columns(self):
        """For 50,000 transactions among 5,000 addresses, the table peaks at
        0.20 record sizes of traced memory beyond what it returns: each
        side's distinct addresses and one side's rows. np.unique of the
        joined sender and receiver columns, with its inverse, peaked at
        1.52."""
        rng = np.random.default_rng(3)
        n = 50_000
        pool = np.frombuffer(rng.bytes(20 * 5000), "S20")
        u64 = lambda: rng.integers(1, 2**40, n, dtype=np.uint64)
        txs = TxColumns(u64(), u64(), np.frombuffer(rng.bytes(32 * n), "S32"),
                        pool[rng.integers(0, 5000, n)], pool[rng.integers(0, 5000, n)],
                        u64(), u64(), u64(), u64())
        table, records = transaction_table(txs)
        assert np.array_equal(table["address"][records["sender"]], txs.sender)
        assert np.array_equal(table["address"][records["receiver"]], txs.receiver)
        assert np.all(table["address"][1:] > table["address"][:-1])
        excess = traced_peak(lambda: transaction_table(txs), beyond_result=True)
        assert excess < 0.5 * n * TX_RECORD.itemsize


class TestLabeledDataset:
    def test_flags_are_endpoint_disjunction(self):
        txs = [
            make_tx(1, addr(1), addr(2)),
            make_tx(2, addr(2), addr(3)),
            make_tx(3, addr(3), addr(4)),
        ]
        ds = dataset_from(txs, phishing=[addr(2)])
        by_address = labels(ds)
        expected = [
            by_address[t.sender] is Label.PHISHING or by_address[t.receiver] is Label.PHISHING
            for t in txs
        ]
        assert expected == [True, True, False]

    def test_rejects_invalid_transaction(self):
        bad = make_tx(1, addr(1), addr(2), gas=21_000, gas_used=50_000)
        with pytest.raises(InvalidTransaction):
            dataset_from([bad])

    def test_rejects_duplicate_hash(self):
        txs = [make_tx(1, addr(1), addr(2)), make_tx(1, addr(2), addr(3))]
        with pytest.raises(InvalidTransaction):
            dataset_from(txs)

    def test_class_counts(self):
        ds = dataset_from(
            [make_tx(1, addr(1), addr(2)), make_tx(2, addr(3), addr(4))],
            phishing=[addr(3)],
        )
        assert ds.class_counts() == (3, 1)
