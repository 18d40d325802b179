"""Core domain types: addresses, transactions, labels, labeled datasets.

All types here are immutable value objects after construction (a dataset
computes its derived views once, on first use). Transaction wei amounts are
exact Python integers; any conversion to floating point happens downstream
in feature extraction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property
from operator import attrgetter, methodcaller
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidAddress, InvalidNumeral, InvalidTransaction, StorageError

_ADDRESS_RE = re.compile(r"^0x[0-9a-f]{40}$")
_TX_HASH_RE = re.compile(r"^0x[0-9a-f]{64}$")

MAX_WEI = 2**256 - 1

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
    if len(s) != body_len or any(c not in "0123456789abcdef" for c in s):
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


def canonicalize_address(raw: str) -> Address:
    """Return the canonical form of `raw`; raises InvalidAddress otherwise."""
    return Address(raw)


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
    return int(decimal_string)


def to_decimal(value: int) -> str:
    """Inverse of parse_wei: decimal string without leading zeros."""
    if value < 0:
        raise InvalidNumeral(f"negative wei value: {value}")
    return str(value)


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


@dataclass(frozen=True)
class Transaction:
    """One Ether transfer record as exported from a block explorer."""

    block_number: int
    timestamp: int          # Unix seconds, UTC
    tx_hash: str            # canonical 0x + 64 hex chars
    sender: Address
    receiver: Address
    value: int              # wei, exact
    gas: int                # gas units offered
    gas_price: int          # wei per gas unit
    gas_used: int           # gas units consumed

    def violations(self) -> list[str]:
        """List of invariant violations; empty for a valid transaction."""
        problems = []
        if self.block_number < 0:
            problems.append("negative block number")
        if self.timestamp <= 0:
            problems.append("timestamp must be positive")
        if not _TX_HASH_RE.match(self.tx_hash):
            problems.append("malformed transaction hash")
        if not _ADDRESS_RE.match(self.sender):
            problems.append("malformed sender address")
        if not _ADDRESS_RE.match(self.receiver):
            problems.append("malformed receiver address")
        if not 0 <= self.value <= MAX_WEI:
            problems.append("value out of range")
        if self.gas < 0 or self.gas_price < 0 or self.gas_used < 0:
            problems.append("negative gas field")
        if self.gas_used > self.gas:
            problems.append("gas_used exceeds gas")
        return problems

    @property
    def is_valid(self) -> bool:
        return not self.violations()


class LabeledDataset:
    """Cleaned transactions plus an address -> label map with provenance.

    The data is one columnar table in the on-disk layout: ``address_table``
    (``ADDRESS_ROW`` rows, strictly increasing by address, so a row index is
    an address's identity) and ``records`` (``TX_RECORD`` rows, endpoints as
    row indices). A dataset is built from Transaction objects with label and
    provenance maps, or from the two arrays (``from_table``); either side is
    derived from the other on first use.

    Construction validates. Objects are checked one by one: well formed, no
    repeated hash, every endpoint labeled, every label with a provenance. A
    table's layout already fixes formats and ranges, so its columns are
    checked for a zero timestamp, gas_used above gas and a repeated hash.
    Transaction-level phishing flags are derived, not stored: a transaction
    is phishing exactly when one of its endpoints is.
    """

    def __init__(
        self,
        transactions: Iterable[Transaction],
        labels: Mapping[Address, Label],
        provenance: Mapping[Address, LabelProvenance],
    ):
        self._from_objects = True
        self.transactions = tuple(transactions)
        self.labels, self.provenance = labels, provenance
        self.__post_init__()

    @classmethod
    def from_table(cls, address_table: np.ndarray, records: np.ndarray) -> "LabeledDataset":
        """Dataset over ``ADDRESS_ROW`` rows that increase strictly and
        ``TX_RECORD`` rows whose endpoints index them."""
        ds = cls.__new__(cls)
        ds._from_objects = False
        ds.address_table, ds.records = address_table, records
        ds.__post_init__()
        return ds

    def __post_init__(self):
        if not self._from_objects:
            self._check_columns()
            return
        seen: set[str] = set()
        for i, tx in enumerate(self.transactions):
            problems = tx.violations()
            if problems:
                raise InvalidTransaction(
                    f"transaction {i} ({tx.tx_hash!r}): {'; '.join(problems)}"
                )
            if tx.tx_hash in seen:
                raise InvalidTransaction(f"duplicate transaction hash {tx.tx_hash}")
            seen.add(tx.tx_hash)
            for addr in (tx.sender, tx.receiver):
                if addr not in self.labels:
                    raise InvalidTransaction(f"unlabeled address {addr}")
        for addr in self.labels:
            if addr not in self.provenance:
                raise InvalidTransaction(f"label without provenance for {addr}")

    def _check_columns(self) -> None:
        """Raise for the first offending row, as the object scan does."""
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

    @cached_property
    def row_addresses(self) -> list[Address]:
        """The Address of each address-table row."""
        if self._from_objects:
            return sorted(self.labels)
        hexed = self.address_table["address"].tobytes().hex()
        # hex() output is already canonical, so Address's parsing is skipped
        return [str.__new__(Address, "0x" + hexed[i : i + 40]) for i in range(0, len(hexed), 40)]

    @cached_property
    def address_table(self) -> np.ndarray:
        addresses = self.row_addresses
        table = np.empty(len(addresses), ADDRESS_ROW)
        table["address"] = _hex_column(addresses, "S20")
        table["label"] = [int(self.labels[a]) for a in addresses]
        table["provenance"] = [self.provenance[a].value for a in addresses]
        return table

    @cached_property
    def records(self) -> np.ndarray:
        """The transactions as ``TX_RECORD`` rows, filled field by field."""
        txs, n = self.transactions, len(self.transactions)
        row_of = {a: i for i, a in enumerate(self.row_addresses)}.__getitem__
        records = np.empty(n, TX_RECORD)
        for name in ("gas", "gas_price", "gas_used", "block_number", "timestamp"):
            try:
                records[name] = np.fromiter(map(attrgetter(name), txs), np.uint64, n)
            except OverflowError:
                tx = next(tx for tx in txs if getattr(tx, name) > 2**64 - 1)
                raise StorageError(f"{name} does not fit in 64 bits: {tx.tx_hash}") from None
        for name in ("sender", "receiver"):
            records[name] = np.fromiter(map(row_of, map(attrgetter(name), txs)), np.uint32, n)
        records["tx_hash"] = _hex_column(map(attrgetter("tx_hash"), txs), "S32")
        to_bytes = methodcaller("to_bytes", 32, "big")
        values = b"".join(map(to_bytes, map(attrgetter("value"), txs)))
        records["value"] = np.frombuffer(values, ">u4").reshape(n, 8)
        return records

    @cached_property
    def transactions(self) -> tuple[Transaction, ...]:
        rec, addresses = self.records, self.row_addresses
        hashes, values = rec["tx_hash"].tobytes().hex(), rec["value"].tobytes()
        fields = ("block_number", "timestamp", "sender", "receiver", "gas", "gas_price", "gas_used")
        return tuple(
            Transaction(
                block, ts, "0x" + hashes[64 * i : 64 * i + 64], addresses[s], addresses[r],
                int.from_bytes(values[32 * i : 32 * i + 32], "big"), gas, gas_price, gas_used,
            )
            for i, (block, ts, s, r, gas, gas_price, gas_used)
            in enumerate(zip(*(rec[name].tolist() for name in fields)))
        )

    @cached_property
    def labels(self) -> dict[Address, Label]:
        return dict(zip(self.row_addresses, map(Label, self.address_table["label"].tolist())))

    @cached_property
    def provenance(self) -> dict[Address, LabelProvenance]:
        codes = self.address_table["provenance"].tolist()
        return dict(zip(self.row_addresses, map(LabelProvenance, codes)))

    def tx_is_phishing(self, tx: Transaction) -> bool:
        return (
            self.labels[tx.sender] is Label.PHISHING
            or self.labels[tx.receiver] is Label.PHISHING
        )

    def transaction_flags(self) -> list[bool]:
        return [self.tx_is_phishing(tx) for tx in self.transactions]

    def class_counts(self) -> tuple[int, int]:
        """(benign, phishing) address counts."""
        phishing = int(np.count_nonzero(self.address_table["label"] == Label.PHISHING))
        return len(self.address_table) - phishing, phishing


def _hex_column(prefixed_hex: Iterable[str], dtype: str) -> np.ndarray:
    """Fixed-width byte strings from ``0x``-prefixed canonical hex strings
    (in which "0x" can only be a prefix: "x" is no hex digit)."""
    return np.frombuffer(bytes.fromhex("".join(prefixed_hex).replace("0x", "")), dtype)
