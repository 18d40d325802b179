"""Parse block-explorer exports, clean them, and label addresses.

Two input shapes are supported: CSV exports with a mandatory header row, and
the JSON envelope returned by the explorer's ``account txlist`` endpoint
(``{"status", "message", "result": [...]}`` with string-typed numerics).
Each parser reads its file ``CHUNK_ROWS`` rows at a time, turns each chunk
into the nine field columns and checks each column once, so a file's raw
fields are never all held at once. The JSON parser reads a file
``WINDOW_BYTES`` at a time, decodes the ``result`` array one entry at a time
and never holds the whole text or builds the whole document. Malformed rows
are never fatal; they are collected into a rejects report.

Labeling is a two-stage procedure: an address is first matched against the
flagged list (R1) and, when ``require_verified`` is set, only addresses that
also appear in the verified set keep the phishing label (R2). A transaction
is phishing exactly when one of its endpoints is labeled phishing; unlisted
counterparties of such transactions keep a benign address label but their
provenance records the one-hop contact.
"""
from __future__ import annotations

import codecs
import csv
import io
import json
import logging
from dataclasses import asdict, dataclass, field
from itertools import islice, repeat
from json.decoder import WHITESPACE
from json.scanner import make_scanner
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Callable, Iterator, Sequence, Union

import numpy as np

from .errors import ApiError, InvalidAddress, InvalidConfig, MalformedDocument, MalformedHeader
from .txmodel import (
    MAX_U64,
    MAX_WEI,
    Label,
    LabeledDataset,
    LabelProvenance,
    TxColumns,
    decimal_column,
    hex_column,
    transaction_table,
)

logger = logging.getLogger(__name__)

# The explorer's field names, in ``TX_RECORD`` field order; the CSV header
# and JSON keys are matched case-insensitively.
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
# Rows are checked this many at a time, so only a chunk's raw fields are held
# at once; a larger chunk makes fewer numpy calls but holds more strings.
CHUNK_ROWS = 512
# JSON exports are decoded this many bytes at a time, so only a window's
# text, or the text of a value cut at its end, is held beside the rows.
WINDOW_BYTES = 256 * 1024

ByteSource = Union[bytes, IO[bytes], str, Path]


@dataclass(frozen=True)
class RejectedRow:
    row: int        # 1-based data row number (header not counted)
    reason: str     # short machine-readable code, e.g. "GasExceeded"
    detail: str


@dataclass
class ParseResult:
    transactions: TxColumns  # the accepted rows
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


def _validate(fields: Sequence[Sequence], row_numbers: list[int],
              rejects: list[RejectedRow]) -> ParseResult:
    """Check the nine field columns of a chunk of rows, each column once.

    ``fields`` holds each field's raw values in ``REQUIRED_COLUMNS`` order. A
    rejected row gets the first reason it fails, in this order: from, to,
    hash, blocknumber to gasused, BadTimestamp, GasExceeded. Its detail is
    formatted only then. ``rejects`` are the chunk's earlier rejects.
    """
    raw = dict(zip(REQUIRED_COLUMNS, fields))
    failed: dict[int, tuple[str, str]] = {}

    def reject(bad: np.ndarray, why) -> None:
        for i in np.flatnonzero(bad).tolist():
            if i not in failed:
                failed[i] = why(i)

    hexes = {}
    for key, nbytes, reason, what in (("from", 20, "BadAddress", "address"),
                                      ("to", 20, "BadAddress", "address"),
                                      ("hash", 32, "BadHash", "transaction hash")):
        texts = list(map(str, raw[key]))
        hexes[key], ok = hex_column(texts, nbytes)
        reject(~ok, lambda i: (reason, f"invalid {what}: {texts[i]!r}"))
    ints = {}
    for key in ("blocknumber", "timestamp", "value", "gas", "gasprice", "gasused"):
        values = raw[key]
        texts = ["" if v is None else str(v).strip() for v in values]
        ints[key], ok = decimal_column(texts)
        reject(~ok, lambda i: ("BadNumeral", f"{key}={values[i]!r}") if texts[i]
               else ("MissingField", f"missing {key}"))
    timestamp, gas, gas_used = ints["timestamp"], ints["gas"], ints["gasused"]
    reject(timestamp == 0, lambda i: ("BadTimestamp", f"timestamp={timestamp[i]}"))
    reject(gas_used > gas, lambda i: ("GasExceeded", f"gasUsed {gas_used[i]} > gas {gas[i]}"))

    keep = np.ones(len(row_numbers), dtype=bool)
    keep[list(failed)] = False
    accepted = TxColumns(ints["blocknumber"], timestamp, hexes["hash"], hexes["from"],
                         hexes["to"], ints["value"], gas, ints["gasprice"], gas_used).take(keep)
    rejects += [RejectedRow(row_numbers[i], *failed[i]) for i in failed]
    return ParseResult(accepted, sorted(rejects, key=attrgetter("row")))


def _parse_rows(items: Iterator, fields_of: Callable[[list], tuple]) -> ParseResult:
    """Check ``items``, numbered from 1, ``CHUNK_ROWS`` at a time and join the
    chunks in order. ``fields_of`` turns a chunk of (row number, item) pairs
    into ``_validate``'s arguments. Only the raw items of the chunk being
    read and of the one before it are held."""
    numbered = enumerate(items, start=1)
    parts, rejects = [], []
    while True:
        chunk = list(islice(numbered, CHUNK_ROWS))
        result = _validate(*fields_of(chunk))
        parts.append(result.transactions)
        rejects += result.rejects
        if len(chunk) < CHUNK_ROWS:
            return ParseResult(TxColumns.concat(parts), rejects)


def parse_etherscan_csv(source: ByteSource) -> ParseResult:
    """Parse a CSV export. Header is mandatory; extra columns are ignored.

    Bytes, a binary stream and a path are read alike: streamed through one
    UTF-8 decoder that drops a leading byte-order mark and leaves line
    endings to csv, and read ``CHUNK_ROWS`` rows at a time. A file that is
    not UTF-8 or not CSV is a MalformedDocument. A blank row is skipped but
    keeps its row number; a short row reads as padded with empty fields.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as raw:
            return parse_etherscan_csv(raw)
    raw = io.BytesIO(source) if isinstance(source, bytes) else source
    stream = io.TextIOWrapper(raw, encoding="utf-8-sig", newline="")
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

    picks = [itemgetter(columns[name]) for name in REQUIRED_COLUMNS]
    width = max(columns[name] for name in REQUIRED_COLUMNS) + 1

    def fields_of(chunk: list[tuple[int, list[str]]]) -> tuple:
        rows, row_numbers = [], []
        for row_no, row in chunk:
            if any(map(str.strip, row)):
                row += [""] * (width - len(row))  # pads a short row, no-op otherwise
                rows.append(row)
                row_numbers.append(row_no)
        return [list(map(pick, rows)) for pick in picks], row_numbers, []

    return _parse_rows(reader, fields_of)


def parse_etherscan_json(source: ByteSource) -> ParseResult:
    """Parse an ``account txlist`` JSON envelope; same semantics as the CSV parser.

    Bytes, a binary stream and a path are read alike. A path is read
    ``WINDOW_BYTES`` at a time; a stream is read whole first, as a failure
    needs its bytes again. The text is decoded as ``json.loads`` decodes
    bytes, but a window at a time, and walked as ``json.loads`` walks it,
    with the decoder's own scanner. The ``result`` array is decoded one
    entry at a time and checked ``CHUNK_ROWS`` entries at a time, so neither
    the whole text nor the whole document is ever held. Where the walker
    fails, ``json.loads`` reads the whole file again, for the decoder's own
    error message.
    """
    if not isinstance(source, (bytes, str, Path)):
        source = source.read()
    from_path = not isinstance(source, bytes)
    try:
        with open(source, "rb") if from_path else io.BytesIO(source) as raw:
            try:
                document = _walk_envelope(_Tail(raw.read))
            except _NotPlain:
                blob = Path(source).read_bytes() if from_path else source
                # raises, unless the text is JSON but no object
                json.loads(blob.decode(json.detect_encoding(blob), "surrogatepass"))
                document = None
    # ValueError covers bad bytes, bad syntax and an integer literal with more
    # digits than int() converts; RecursionError, arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None
    if document is None or "result" not in document:
        raise MalformedDocument("expected an object with a 'result' field")

    payload = document["result"]
    status = str(document.get("status", ""))
    if not isinstance(payload, ParseResult):
        if status != "1":
            message = str(document.get("message", "error"))
            raise ApiError(message, payload=str(payload))
        raise MalformedDocument("'result' is not an array")
    return payload


class _NotPlain(Exception):
    """The walker stopped at text that is malformed or not an object."""


_scan_once = make_scanner(json.JSONDecoder())
_skip_space = WHITESPACE.match
# A number cut at the end of the text scans up to two characters short:
# "1e+" of "1e+5" reads as 1. A scan that ends this close to the end waits
# for more text.
_CUT_SLACK = 3


class _Tail:
    """The unread part of a JSON text, decoded as ``json.loads`` decodes
    bytes (UTF-8, -16 or -32, told apart by the first four bytes) but a
    window of bytes at a time. ``text`` keeps only the text from the last
    position passed on; every position the methods take or return is an
    index into ``text`` as it stands."""

    def __init__(self, read: Callable[[int], bytes]):
        head = read(4)  # all that json.detect_encoding looks at
        self.decode = codecs.getincrementaldecoder(json.detect_encoding(head))("surrogatepass").decode
        self.read, self.text = read, ""
        self._append(head, 0)

    def _append(self, data: bytes, at: int) -> int:
        """Drop the text before ``at`` and append the text of ``data``, the
        end of the input where it is empty; ``at``'s new index."""
        try:
            self.text = self.text[at:] + self.decode(data, not data)
        except UnicodeDecodeError:  # json.loads words it for the whole input
            raise _NotPlain from None
        self.ended = not data
        return 0

    def char(self, at: int) -> tuple[int, str]:
        """(the index of the first non-whitespace character from ``at``, that
        character, or "" at the end of the text)."""
        at = _skip_space(self.text, at).end()
        while at == len(self.text) and not self.ended:
            at = self._append(self.read(WINDOW_BYTES), at)
            at = _skip_space(self.text, at).end()
        return at, self.text[at : at + 1]

    def scan(self, at: int) -> tuple[object, int]:
        """(the JSON value at ``at``, the index after it), as the decoder reads it.

        A value cut at the end of the text fails to scan or, if a number,
        scans short, so such a scan is tried again with more text, twice as
        much each time while the value stays cut. Once the input is read, a
        failure raises _NotPlain."""
        size = WINDOW_BYTES
        while True:
            try:
                value, end = _scan_once(self.text, at)
                if self.ended or end + _CUT_SLACK <= len(self.text):
                    return value, end
            except (StopIteration, ValueError, RecursionError):
                if self.ended:
                    raise _NotPlain from None
            at = self._append(self.read(size), at)
            size *= 2


def _walk_envelope(tail: _Tail) -> dict:
    """The top-level object of the text, with each ``result`` array read as
    its ``ParseResult``. A repeated key keeps its last value, as in
    ``json.loads``. Raises _NotPlain where the text is no object, breaks the
    syntax between values or holds a value the scanner cannot read."""
    at, char = tail.char(0)
    if char != "{":
        raise _NotPlain
    document = {}
    at, char = tail.char(at + 1)
    if char != "}":
        while True:
            if char != '"':
                raise _NotPlain
            key, at = tail.scan(at)
            at, char = tail.char(at)
            if char != ":":
                raise _NotPlain
            at, char = tail.char(at + 1)
            if key == "result" and char == "[":
                document[key], at = _parse_entries(tail, at)
            else:
                document[key], at = tail.scan(at)
            at, char = tail.char(at)
            if char == "}":
                break
            if char != ",":
                raise _NotPlain
            at, char = tail.char(at + 1)
    if tail.char(at + 1)[1]:
        raise _NotPlain  # data after the object
    return document


def _parse_entries(tail: _Tail, at: int) -> tuple[ParseResult, int]:
    """(the rows of the array at ``at``, the index after the array)."""
    def entries() -> Iterator:
        nonlocal at
        at, char = tail.char(at + 1)
        if char != "]":
            while True:
                entry, at = tail.scan(at)
                yield entry
                at, char = tail.char(at)
                if char == "]":
                    break
                if char != ",":
                    raise _NotPlain
                at, char = tail.char(at + 1)
        at += 1

    fields_by_keys: dict[tuple, list] = {}  # an entry's keys -> its nine fields' keys

    def fields_of(chunk: list[tuple[int, object]]) -> tuple:
        objects, names, row_numbers, rejects = [], [], [], []
        for row_no, entry in chunk:
            if not isinstance(entry, dict):
                rejects.append(RejectedRow(row_no, "BadEntry", "result entry is not an object"))
                continue
            keys = tuple(entry)
            if keys not in fields_by_keys:  # the last of keys equal but for case wins
                by_name = {key.lower(): key for key in keys}
                fields_by_keys[keys] = [by_name.get(name) for name in REQUIRED_COLUMNS]
            objects.append(entry)
            names.append(fields_by_keys[keys])
            row_numbers.append(row_no)
        # an absent field (None is never a JSON key) reads as ""
        fields = [list(map(dict.get, objects, map(itemgetter(k), names), repeat("")))
                  for k in range(len(REQUIRED_COLUMNS))]
        return fields, row_numbers, rejects

    result = _parse_rows(entries(), fields_of)  # moves ``at`` past the array
    return result, at


def explorer_entries(txs: TxColumns) -> list[dict[str, str]]:
    """``txs`` as ``account txlist`` entries with string-typed numerics, which
    ``parse_etherscan_json`` reads back to the same columns."""
    texts = [
        # as raw bytes, since a bytes column's items drop trailing zero bytes
        ["0x" + b.hex() for b in column.view(f"V{column.itemsize}").tolist()]
        if column.dtype.kind == "S" else list(map(str, column.tolist()))
        for column in txs.columns()
    ]
    return [dict(zip(EXPLORER_COLUMNS, row)) for row in zip(*texts)]


def clean(txs: TxColumns) -> tuple[TxColumns, CleanReport]:
    """Drop parsed rows that do not fit ``TX_RECORD`` and repeated hashes.

    A row is dropped for the first of: a value above 256 bits, then a block,
    timestamp or gas field above 64 bits. Every other field was checked by
    the parser. Of the remaining rows, the first with a given hash is kept.
    """
    wide_value = txs.value > MAX_WEI
    u64 = (txs.block_number, txs.timestamp, txs.gas, txs.gas_price, txs.gas_used)
    wide = wide_value | np.any([column > MAX_U64 for column in u64], axis=0)
    fits = np.flatnonzero(~wide)
    kept = np.zeros(len(txs), dtype=bool)
    kept[fits[np.unique(txs.tx_hash[fits], return_index=True)[1]]] = True
    dropped = [
        (i, "value out of range" if wide_value[i]
         else "field beyond 64 bits" if wide[i] else "duplicate hash")
        for i in np.flatnonzero(~kept).tolist()
    ]
    n_wide = len(txs) - len(fits)
    report = CleanReport(kept=len(txs) - len(dropped), dup_dropped=len(dropped) - n_wide,
                         invalid_dropped=n_wide, dropped_rows=dropped)
    return txs.take(kept), report


@dataclass(frozen=True)
class PhishingList:
    """Flagged addresses plus the subset confirmed by manual review.

    The verified set stands in for the by-hand explorer check; it arrives as
    data (a second file), never as logic.
    """

    addresses: frozenset[str]  # canonical hex, as ``Address`` writes it
    verified: frozenset[str] = frozenset()

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


def _read_address_file(path: str | Path) -> frozenset[str]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"{path}: not a UTF-8 address list: {exc}") from None
    lines = [line for line in map(str.strip, text.splitlines())
             if line and not line.startswith("#")]
    column, ok = hex_column(lines, 20)
    if not ok.all():
        raise InvalidAddress(f"{path}: invalid address: {lines[int(np.argmin(ok))]!r}")
    hexes = column.tobytes().hex()
    return frozenset("0x" + hexes[k : k + 40] for k in range(0, len(hexes), 40))


def label_dataset(
    txs: TxColumns,
    phishing_list: PhishingList,
    require_verified: bool = False,
) -> LabeledDataset:
    """Apply the two-stage labeling to cleaned transaction columns.

    Output labels and provenance are independent of input transaction order.
    """
    if not phishing_list.addresses:
        logger.warning("phishing list is empty; every address will be labeled benign")
    elif require_verified and not phishing_list.verified:
        logger.warning("verified list is empty but verification is required; "
                       "every address will be labeled benign")
    table, records = transaction_table(txs)
    listed, verified = (
        np.isin(table["address"], hex_column(list(group), 20)[0])
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
