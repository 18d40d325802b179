"""Core domain types: addresses, transactions, labels, labeled datasets.

A labeled dataset is a columnar table of two numpy structured arrays in the
on-disk row layouts, built only from arrays. ``Transaction`` rows are what the
explorer parsers and ``fetch`` produce, and ``transaction_table`` turns them
into the table once. Transaction wei amounts are exact Python integers; any
conversion to floating point happens downstream in feature extraction.
"""
from __future__ import annotations

import re
from enum import Enum, IntEnum
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .errors import InvalidAddress, InvalidNumeral, InvalidTransaction

_HEX_RE = re.compile(r"[0-9a-f]*")

MAX_WEI = 2**256 - 1
MAX_U64 = 2**64 - 1

# The on-disk row layouts (see storage), which the columnar table keeps in
# memory: one address-table row and one transaction record.
ADDRESS_ROW = np.dtype([("address", "S20"), ("label", "u1"), ("provenance", "u1")])
TX_RECORD = np.dtype(
    [
        ("block_number", "<u8"),
        ("timestamp", "<u8"),
        ("tx_hash", "S32"),
        ("sender", "<u4"),       # address-table row
        ("receiver", "<u4"),     # address-table row
        ("value", ">u4", (8,)),  # 256-bit big-endian, as eight 32-bit limbs
        ("gas", "<u8"),
        ("gas_price", "<u8"),
        ("gas_used", "<u8"),
    ]
)


def _canonical_hex(raw: str, body_len: int) -> str | None:
    if not isinstance(raw, str):
        return None
    s = raw.strip().lower()
    if s.startswith("0x"):
        s = s[2:]
    if len(s) != body_len or not _HEX_RE.fullmatch(s):
        return None
    return "0x" + s


class Address(str):
    """Lowercase ``0x``-prefixed 20-byte hex address.

    Canonicalization happens on construction, so comparison and hashing are
    effectively case-insensitive: ``Address("0xAB...") == Address("0xab...")``.
    """

    __slots__ = ()

    def __new__(cls, raw: str) -> "Address":
        canonical = _canonical_hex(raw, 40)
        if canonical is None:
            raise InvalidAddress(f"invalid address: {raw!r}")
        return super().__new__(cls, canonical)


def canonicalize_tx_hash(raw: str) -> str:
    """Canonical lowercase 0x-prefixed 32-byte transaction hash."""
    canonical = _canonical_hex(raw, 64)
    if canonical is None:
        raise InvalidTransaction(f"invalid transaction hash: {raw!r}")
    return canonical


def parse_wei(decimal_string: str) -> int:
    """Parse an unsigned decimal string into an exact integer.

    Values routinely exceed 64-bit range (observed maxima are on the order of
    10^24 wei), so the result is an arbitrary-precision int.
    """
    if (
        not isinstance(decimal_string, str)
        or not decimal_string
        or not decimal_string.isascii()
        or not decimal_string.isdigit()
    ):
        raise InvalidNumeral(f"not an unsigned decimal numeral: {decimal_string!r}")
    try:
        return int(decimal_string)
    except ValueError:  # more digits than the interpreter converts
        raise InvalidNumeral(f"numeral of {len(decimal_string)} digits is too long") from None


class Label(IntEnum):
    BENIGN = 0
    PHISHING = 1


class LabelProvenance(Enum):
    """How an address ended up with its label."""

    LISTED_PHISHING = 0     # appeared on the flagged list
    VERIFIED_PHISHING = 1   # flagged and confirmed by the verified file
    ONE_HOP_PHISHING = 2    # counterparty of a phishing transaction
    ASSUMED_BENIGN = 3      # never flagged; assumed clean
    SYNTHETIC = 4           # produced by the synthetic generator


class Transaction(NamedTuple):
    """One Ether transfer record as exported from a block explorer.

    The fields are in explorer-column order, which is also ``TX_RECORD``'s.
    The parsers check every field but the widths ``TX_RECORD`` stores, which
    ``ingest.clean`` checks.
    """

    block_number: int
    timestamp: int          # Unix seconds, UTC
    tx_hash: str            # canonical 0x + 64 hex chars
    sender: Address
    receiver: Address
    value: int              # wei, exact
    gas: int                # gas units offered
    gas_price: int          # wei per gas unit
    gas_used: int           # gas units consumed


class LabeledDataset:
    """Cleaned transactions plus the label and provenance of every address.

    The dataset is one columnar table in the on-disk layout, and it is built
    only from arrays: ``address_table`` (``ADDRESS_ROW`` rows, strictly
    increasing by address, so a row index is an address's identity) and
    ``records`` (``TX_RECORD`` rows, endpoints as row indices). Each endpoint
    is a row that carries its own label and provenance, so every endpoint is
    labeled by construction.

    Construction validates what the layout leaves open: a zero timestamp,
    gas_used above gas and a repeated hash. A transaction is phishing exactly
    when one of its endpoints is; that flag is derived, not stored.
    """

    def __init__(self, address_table: np.ndarray, records: np.ndarray):
        self.address_table, self.records = address_table, records
        self.__post_init__()

    def __post_init__(self):
        """Raise for the first offending row."""
        rec = self.records
        no_time, overspent = rec["timestamp"] == 0, rec["gas_used"] > rec["gas"]
        order = np.argsort(rec["tx_hash"], kind="stable")
        hashes = rec["tx_hash"][order]
        repeated = np.zeros(len(rec), dtype=bool)
        repeated[order[1:][hashes[1:] == hashes[:-1]]] = True
        bad = np.flatnonzero(no_time | overspent | repeated)
        if bad.size:
            i = int(bad[0])
            tx_hash = "0x" + rec["tx_hash"][i : i + 1].tobytes().hex()
            problems = [
                text
                for flagged, text in (
                    (no_time, "timestamp must be positive"),
                    (overspent, "gas_used exceeds gas"),
                )
                if flagged[i]
            ]
            if problems:
                raise InvalidTransaction(f"transaction {i} ({tx_hash!r}): {'; '.join(problems)}")
            raise InvalidTransaction(f"duplicate transaction hash {tx_hash}")

    def class_counts(self) -> tuple[int, int]:
        """(benign, phishing) address counts."""
        phishing = int(np.count_nonzero(self.address_table["label"] == Label.PHISHING))
        return len(self.address_table) - phishing, phishing


def transaction_table(transactions: Sequence[Transaction]) -> tuple[np.ndarray, np.ndarray]:
    """``(address_table, records)`` of cleaned transactions.

    The address table holds each distinct endpoint once, in increasing order,
    labeled benign with ``ASSUMED_BENIGN`` provenance for the caller to
    relabel; the records keep the transactions' order.
    """
    n, width = len(transactions), len(Transaction._fields)
    # one row-major flattening, then a strided slice per field; zip(*rows)
    # would hold an iterator per row and run the cyclic GC many times
    flat = list(chain.from_iterable(transactions))
    columns = {name: flat[k::width] for k, name in enumerate(Transaction._fields)}
    records = np.empty(n, TX_RECORD)
    for name in ("block_number", "timestamp", "gas", "gas_price", "gas_used"):
        records[name] = np.array(columns[name], np.uint64)
    records["tx_hash"] = hex_column(columns["tx_hash"], "S32")
    values = b"".join([v.to_bytes(32, "big") for v in columns["value"]])
    records["value"] = np.frombuffer(values, ">u4").reshape(n, 8)
    ends = hex_column(columns["sender"] + columns["receiver"], "S20")
    addresses, rows = np.unique(ends, return_inverse=True)
    records["sender"], records["receiver"] = rows[:n], rows[n:]
    table = np.zeros(len(addresses), ADDRESS_ROW)
    table["address"] = addresses
    table["provenance"] = LabelProvenance.ASSUMED_BENIGN.value
    return table, records


def hex_column(prefixed_hex: Iterable[str], dtype: str) -> np.ndarray:
    """Fixed-width byte strings from ``0x``-prefixed canonical hex strings
    (in which "0x" can only be a prefix: "x" is no hex digit)."""
    return np.frombuffer(bytes.fromhex("".join(prefixed_hex).replace("0x", "")), dtype)
