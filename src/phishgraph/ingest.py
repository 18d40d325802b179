"""Parse block-explorer exports, clean them, and label addresses.

Two input shapes are supported: CSV exports with a mandatory header row, and
the JSON envelope returned by the explorer's ``account txlist`` endpoint
(``{"status", "message", "result": [...]}`` with string-typed numerics).
Malformed rows are never fatal; they are collected into a rejects report.

Labeling is a two-stage procedure: an address is first matched against the
flagged list (R1) and, when ``require_verified`` is set, only addresses that
also appear in the verified set keep the phishing label (R2). A transaction
is phishing exactly when one of its endpoints is labeled phishing; unlisted
counterparties of such transactions keep a benign address label but their
provenance records the one-hop contact.
"""
from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .errors import (
    ApiError,
    InvalidAddress,
    InvalidConfig,
    InvalidNumeral,
    InvalidTransaction,
    MalformedDocument,
    MalformedHeader,
)
from .txmodel import (
    MAX_U64,
    MAX_WEI,
    Address,
    Label,
    LabeledDataset,
    LabelProvenance,
    Transaction,
    canonicalize_tx_hash,
    hex_column,
    parse_wei,
    transaction_table,
)

logger = logging.getLogger(__name__)

# The explorer's field names, in ``Transaction`` field order; the CSV header
# is matched case-insensitively.
EXPLORER_COLUMNS = (
    "blockNumber",
    "timeStamp",
    "hash",
    "from",
    "to",
    "value",
    "gas",
    "gasPrice",
    "gasUsed",
)
REQUIRED_COLUMNS = tuple(name.lower() for name in EXPLORER_COLUMNS)

ByteSource = Union[bytes, IO[bytes], str, Path]


@dataclass(frozen=True)
class RejectedRow:
    row: int        # 1-based data row number (header not counted)
    reason: str     # short machine-readable code, e.g. "GasExceeded"
    detail: str


@dataclass
class ParseResult:
    transactions: list[Transaction]
    rejects: list[RejectedRow] = field(default_factory=list)

    def rejects_json(self) -> dict:
        return {
            "parsed": len(self.transactions),
            "rejected": len(self.rejects),
            "rows": [asdict(r) for r in self.rejects],
        }


@dataclass
class CleanReport:
    kept: int = 0
    dup_dropped: int = 0
    invalid_dropped: int = 0
    dropped_rows: list[tuple[int, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "kept": self.kept,
            "dup_dropped": self.dup_dropped,
            "invalid_dropped": self.invalid_dropped,
            "dropped": [
                {"index": i, "reason": reason} for i, reason in self.dropped_rows
            ],
        }


class _RowError(Exception):
    def __init__(self, reason: str, detail: str):
        super().__init__(detail)
        self.reason = reason
        self.detail = detail


def _field_to_int(fields: dict, key: str) -> int:
    raw = fields.get(key)
    if raw is None or str(raw).strip() == "":
        raise _RowError("MissingField", f"missing {key}")
    try:
        return parse_wei(str(raw).strip())
    except InvalidNumeral:
        raise _RowError("BadNumeral", f"{key}={raw!r}") from None


def _row_to_transaction(fields: dict) -> Transaction:
    """Build a Transaction from lowercase-keyed string fields.

    Raises _RowError with a machine-readable reason on any violation; the
    callers turn those into reject entries rather than failing the parse.
    """
    try:
        sender = Address(str(fields.get("from", "")))
        receiver = Address(str(fields.get("to", "")))
    except InvalidAddress as exc:
        raise _RowError("BadAddress", str(exc)) from None
    try:
        tx_hash = canonicalize_tx_hash(str(fields.get("hash", "")))
    except InvalidTransaction as exc:
        raise _RowError("BadHash", str(exc)) from None

    block = _field_to_int(fields, "blocknumber")
    timestamp = _field_to_int(fields, "timestamp")
    value = _field_to_int(fields, "value")
    gas = _field_to_int(fields, "gas")
    gas_price = _field_to_int(fields, "gasprice")
    gas_used = _field_to_int(fields, "gasused")

    if timestamp <= 0:
        raise _RowError("BadTimestamp", f"timestamp={timestamp}")
    if gas_used > gas:
        raise _RowError("GasExceeded", f"gasUsed {gas_used} > gas {gas}")
    return Transaction(
        block_number=block,
        timestamp=timestamp,
        tx_hash=tx_hash,
        sender=sender,
        receiver=receiver,
        value=value,
        gas=gas,
        gas_price=gas_price,
        gas_used=gas_used,
    )


def parse_etherscan_csv(source: ByteSource) -> ParseResult:
    """Parse a CSV export. Header is mandatory; extra columns are ignored.

    Bytes, a binary stream and a path are read alike: streamed through one
    UTF-8 decoder that leaves line endings to csv. A file that is not UTF-8
    or not CSV is a MalformedDocument.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as raw:
            return parse_etherscan_csv(raw)
    raw = io.BytesIO(source) if isinstance(source, bytes) else source
    stream = io.TextIOWrapper(raw, encoding="utf-8", newline="")
    try:
        return _parse_csv_stream(stream)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise MalformedDocument(f"unreadable CSV: {exc}") from None
    finally:
        stream.detach()  # leaves the caller's stream open


def _parse_csv_stream(stream: IO[str]) -> ParseResult:
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise MalformedHeader("empty CSV file") from None
    columns = {name.strip().strip('"').lower(): i for i, name in enumerate(header)}
    missing = [c for c in REQUIRED_COLUMNS if c not in columns]
    if missing:
        raise MalformedHeader(f"missing required columns: {', '.join(missing)}")

    result = ParseResult(transactions=[])
    for row_no, row in enumerate(reader, start=1):
        if not row or all(not cell.strip() for cell in row):
            continue
        fields = {
            name: (row[i] if i < len(row) else "") for name, i in columns.items()
        }
        try:
            result.transactions.append(_row_to_transaction(fields))
        except _RowError as exc:
            result.rejects.append(RejectedRow(row_no, exc.reason, exc.detail))
    return result


def parse_etherscan_json(source: ByteSource) -> ParseResult:
    """Parse an ``account txlist`` JSON envelope; same semantics as the CSV parser."""
    if isinstance(source, (str, Path)):
        raw = Path(source).read_bytes()
    elif isinstance(source, bytes):
        raw = source
    else:
        raw = source.read()
    try:
        document = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict) or "result" not in document:
        raise MalformedDocument("expected an object with a 'result' field")

    payload = document.get("result")
    status = str(document.get("status", ""))
    if not isinstance(payload, list):
        if status != "1":
            message = str(document.get("message", "error"))
            raise ApiError(message, payload=str(payload))
        raise MalformedDocument("'result' is not an array")

    result = ParseResult(transactions=[])
    for row_no, entry in enumerate(payload, start=1):
        if not isinstance(entry, dict):
            result.rejects.append(
                RejectedRow(row_no, "BadEntry", "result entry is not an object")
            )
            continue
        fields = {str(k).lower(): v for k, v in entry.items()}
        try:
            result.transactions.append(_row_to_transaction(fields))
        except _RowError as exc:
            result.rejects.append(RejectedRow(row_no, exc.reason, exc.detail))
    return result


def clean(txs: Iterable[Transaction]) -> tuple[list[Transaction], CleanReport]:
    """Drop parsed rows that do not fit ``TX_RECORD`` and repeated hashes.

    A row is dropped for the first of: a value above 256 bits, then a block,
    timestamp or gas field above 64 bits. Every other field was checked by
    the parser. Of the remaining rows, the first with a given hash is kept.
    """
    report = CleanReport()
    seen: set[str] = set()
    kept: list[Transaction] = []
    for i, tx in enumerate(txs):
        if tx.value > MAX_WEI:
            problem = "value out of range"
        elif max(tx.block_number, tx.timestamp, tx.gas, tx.gas_price, tx.gas_used) > MAX_U64:
            problem = "field beyond 64 bits"
        else:
            problem = None
        if problem:
            report.invalid_dropped += 1
            report.dropped_rows.append((i, problem))
            continue
        if tx.tx_hash in seen:
            report.dup_dropped += 1
            report.dropped_rows.append((i, "duplicate hash"))
            continue
        seen.add(tx.tx_hash)
        kept.append(tx)
    report.kept = len(kept)
    return kept, report


@dataclass(frozen=True)
class PhishingList:
    """Flagged addresses plus the subset confirmed by manual review.

    The verified set stands in for the by-hand explorer check; it arrives as
    data (a second file), never as logic.
    """

    addresses: frozenset[Address]
    verified: frozenset[Address] = frozenset()

    def __post_init__(self):
        if not self.verified <= self.addresses:
            raise InvalidConfig("verified set must be a subset of the flagged list")

    @classmethod
    def from_files(
        cls, addresses_path: str | Path, verified_path: str | Path | None = None
    ) -> "PhishingList":
        """Load one address per line; a verified address is implicitly flagged."""
        addresses = _read_address_file(addresses_path)
        verified = _read_address_file(verified_path) if verified_path else frozenset()
        return cls(addresses=addresses | verified, verified=verified)


def _read_address_file(path: str | Path) -> frozenset[Address]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path}: not a UTF-8 address list: {exc}") from None
    out = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.add(Address(line))
    return frozenset(out)


def label_dataset(
    txs: Sequence[Transaction],
    phishing_list: PhishingList,
    require_verified: bool = False,
) -> LabeledDataset:
    """Apply the two-stage labeling to cleaned transactions.

    Output labels and provenance are independent of input transaction order.
    """
    if not phishing_list.addresses:
        logger.warning("phishing list is empty; every address will be labeled benign")
    table, records = transaction_table(txs)
    listed, verified = (
        np.isin(table["address"], hex_column(group, "S20"))
        for group in (phishing_list.addresses, phishing_list.verified)
    )
    phishing = verified if require_verified else listed
    table["label"] = np.where(phishing, Label.PHISHING, Label.BENIGN)
    # A flagged address gated out by R2 keeps a benign label, listing remembered.
    table["provenance"] = np.select(
        [verified, listed],
        [LabelProvenance.VERIFIED_PHISHING.value, LabelProvenance.LISTED_PHISHING.value],
        LabelProvenance.ASSUMED_BENIGN.value,
    )
    # One-hop pass: counterparties of phishing transactions stay benign at the
    # address level but their provenance records the direct contact.
    sender, receiver = records["sender"], records["receiver"]
    flagged_tx = phishing[sender] | phishing[receiver]
    contact = np.zeros(len(table), dtype=bool)
    contact[sender[flagged_tx]] = contact[receiver[flagged_tx]] = True
    table["provenance"][contact & ~listed] = LabelProvenance.ONE_HOP_PHISHING.value
    return LabeledDataset(table, records)
