"""Core domain types: addresses, transaction columns, labels, labeled datasets.

A labeled dataset is a columnar table of two numpy structured arrays in the
on-disk row layouts, built only from arrays. ``TxColumns`` holds explorer
rows as columns, which the explorer parsers and ``fetch`` produce, and
``transaction_table`` turns them into the table once. Transaction wei
amounts stay exact integers; any conversion to floating point happens
downstream in feature extraction.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, fields
from enum import Enum, IntEnum
from itertools import compress
from typing import Sequence

import numpy as np

from .errors import InvalidAddress, InvalidTransaction

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


def hex_column(texts: Sequence[str], nbytes: int) -> tuple[np.ndarray, np.ndarray]:
    """(``S<nbytes>`` bytes, ok mask) of hex texts as explorers write them:
    surrounding whitespace, either case and the ``0x`` prefix are allowed.
    A text that is not ``2 * nbytes`` hex digits is not ok and reads as zero
    bytes."""
    bodies = [t.strip().lower().removeprefix("0x") for t in texts]
    ok = np.fromiter(map(len, bodies), np.intp, len(bodies)) == 2 * nbytes
    joined = "".join(compress(bodies, ok))
    try:
        raw = bytes.fromhex(joined)
    except ValueError:
        raw = b""
    # fromhex skips ASCII whitespace between digit pairs, so a short
    # decode means some body held whitespace: check each body then
    if 2 * len(raw) != len(joined):
        ok &= np.array([_HEX_RE.fullmatch(b) is not None for b in bodies], dtype=bool)
        raw = bytes.fromhex("".join(compress(bodies, ok)))
    column = np.zeros(len(bodies), f"S{nbytes}")
    column[ok] = np.frombuffer(raw, f"S{nbytes}")
    return column, ok


def decimal_column(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(exact integers, ok mask) of unsigned decimal numerals: ASCII digits,
    leading zeros allowed. Values routinely exceed 64 bits (wei amounts reach
    10^24), so the column is ``uint64`` only when every value fits, else
    Python ints in an object array. A text that is no numeral, or has more
    digits than ``int`` converts, is not ok and reads as 0."""
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    joined = "".join(texts)
    if joined.isascii() and joined.isdigit():
        ok = lengths > 0
    else:
        ok = np.array([t.isascii() and t.isdigit() for t in texts], dtype=bool)
    try:
        values = list(map(int, compress(texts, ok)))
    except ValueError:  # where int() limits its digits, a longer numeral is not ok
        ok &= lengths <= sys.get_int_max_str_digits()
        values = list(map(int, compress(texts, ok)))
    dtype = np.uint64 if max(values, default=0) <= MAX_U64 else object
    column = np.zeros(len(texts), dtype)
    column[ok] = np.array(values, dtype)
    return column, ok


class Address(str):
    """Lowercase ``0x``-prefixed 20-byte hex address.

    Canonicalization happens on construction, so comparison and hashing are
    effectively case-insensitive: ``Address("0xAB...") == Address("0xab...")``.
    """

    __slots__ = ()

    def __new__(cls, raw: str) -> "Address":
        column, ok = hex_column([raw], 20) if isinstance(raw, str) else (None, [False])
        if not ok[0]:
            raise InvalidAddress(f"invalid address: {raw!r}")
        return super().__new__(cls, "0x" + column.tobytes().hex())


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
class TxColumns:
    """Explorer rows as columns, in ``TX_RECORD`` field order.

    The hash and both endpoints are raw bytes (``S32``, ``S20``); each
    numeric column holds exact integers, as ``decimal_column`` gives them.
    The parsers check every field but the widths ``TX_RECORD`` stores, which
    ``ingest.clean`` checks.
    """

    block_number: np.ndarray
    timestamp: np.ndarray       # Unix seconds, UTC
    tx_hash: np.ndarray
    sender: np.ndarray
    receiver: np.ndarray
    value: np.ndarray           # wei, exact
    gas: np.ndarray             # gas units offered
    gas_price: np.ndarray       # wei per gas unit
    gas_used: np.ndarray        # gas units consumed

    def __len__(self) -> int:
        return len(self.tx_hash)

    def columns(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    def take(self, index) -> "TxColumns":
        return TxColumns(*(column[index] for column in self.columns()))

    @staticmethod
    def concat(parts: Sequence["TxColumns"]) -> "TxColumns":
        """Stack one or more column sets in order."""
        return TxColumns(*map(np.concatenate, zip(*(p.columns() for p in parts))))


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


def transaction_table(txs: TxColumns) -> tuple[np.ndarray, np.ndarray]:
    """``(address_table, records)`` of cleaned transaction columns.

    The address table holds each distinct endpoint once, in increasing order,
    labeled benign with ``ASSUMED_BENIGN`` provenance for the caller to
    relabel; the records keep the transactions' order.
    """
    records = np.zeros(len(txs), TX_RECORD)
    for name in ("block_number", "timestamp", "tx_hash", "gas", "gas_price", "gas_used"):
        records[name] = getattr(txs, name)
    # each 64-bit word of the value, least significant first, fills two limbs
    limbs, words = records["value"], txs.value
    for j in (6, 4, 2, 0):
        word = words if words.dtype != object else (words & MAX_U64).astype(np.uint64)
        limbs[:, j], limbs[:, j + 1] = word >> 32, word & 0xFFFFFFFF
        if words.dtype != object:  # a uint64 column has no higher word
            break
        words = words >> 64
        if not words.any():  # the higher limbs stay zero
            break
    # each side's distinct endpoints, joined, then every endpoint's row among them
    addresses = np.union1d(np.unique(txs.sender), np.unique(txs.receiver))
    records["sender"] = np.searchsorted(addresses, txs.sender)
    records["receiver"] = np.searchsorted(addresses, txs.receiver)
    table = np.zeros(len(addresses), ADDRESS_ROW)
    table["address"] = addresses
    table["provenance"] = LabelProvenance.ASSUMED_BENIGN.value
    return table, records
