"""Core domain types: addresses, transactions, labels, labeled datasets.

All types here are immutable value objects after construction and safe to
share between threads. Wei amounts are kept as exact Python integers; any
conversion to floating point happens downstream in feature extraction.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import Iterator, Mapping

from .errors import InvalidAddress, InvalidNumeral, InvalidTransaction

_ADDRESS_RE = re.compile(r"^0x[0-9a-f]{40}$")
_TX_HASH_RE = re.compile(r"^0x[0-9a-f]{64}$")

MAX_WEI = 2**256 - 1


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


@dataclass(frozen=True)
class LabeledDataset:
    """Cleaned transactions plus an address -> label map with provenance.

    Construction validates that every transaction is well formed, that no two
    transactions share a hash, and that every endpoint address carries a label
    and a provenance entry. Transaction-level phishing flags are derived, not
    stored: a transaction is phishing exactly when one of its endpoints is.
    """

    transactions: tuple[Transaction, ...]
    labels: Mapping[Address, Label]
    provenance: Mapping[Address, LabelProvenance]

    def __post_init__(self):
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

    def tx_is_phishing(self, tx: Transaction) -> bool:
        return (
            self.labels[tx.sender] is Label.PHISHING
            or self.labels[tx.receiver] is Label.PHISHING
        )

    def transaction_flags(self) -> list[bool]:
        return [self.tx_is_phishing(tx) for tx in self.transactions]

    def addresses(self) -> Iterator[Address]:
        return iter(self.labels)

    def class_counts(self) -> tuple[int, int]:
        """(benign, phishing) address counts."""
        phishing = sum(1 for lbl in self.labels.values() if lbl is Label.PHISHING)
        return len(self.labels) - phishing, phishing

