"""Versioned binary serialization for labeled datasets.

Layout (little-endian, version 1):

    magic        4 bytes  b"PHGD"
    version      u16
    n_addresses  u32
    n_tx         u64
    address table, strictly increasing by address (canonical string order):
        20 raw bytes | label u8 | provenance u8
    transaction records, in dataset order:
        block u64 | timestamp u64 | hash 32 raw bytes |
        sender_idx u32 | receiver_idx u32 | value 32 bytes big-endian |
        gas u64 | gas_price u64 | gas_used u64

The two row layouts are the numpy dtypes ``txmodel.ADDRESS_ROW`` and
``txmodel.TX_RECORD`` that a ``LabeledDataset`` holds in memory, so loading
is one ``np.frombuffer`` per section plus column checks, and saving writes
the arrays as they are. Values are stored as 256-bit integers so wei
amounts round-trip exactly.
Serialization is deterministic: the same dataset always produces the same
bytes, which is what makes artifact digests reproducible. ``write_json`` gives
every JSON artifact (manifests, model sidecar, metrics, reports) one format
for the same reason.
"""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import StorageError
from .txmodel import ADDRESS_ROW, TX_RECORD, Label, LabeledDataset, LabelProvenance

DATASET_MAGIC = b"PHGD"
DATASET_VERSION = 1

_HEADER = struct.Struct("<4sHIQ")


def save_dataset(ds: LabeledDataset, path: str | Path) -> None:
    table, records = ds.address_table, ds.records
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(table), len(records)))
        fh.write(table.view(np.uint8))
        fh.write(records.view(np.uint8))


def load_dataset(path: str | Path) -> LabeledDataset:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise StorageError(f"dataset file too short: {path}")
    magic, version, n_addr, n_tx = _HEADER.unpack_from(blob, 0)
    if magic != DATASET_MAGIC:
        raise StorageError(f"not a dataset file (bad magic): {path}")
    if version != DATASET_VERSION:
        raise StorageError(f"unsupported dataset version {version}: {path}")
    expected = _HEADER.size + n_addr * ADDRESS_ROW.itemsize + n_tx * TX_RECORD.itemsize
    if len(blob) != expected:
        raise StorageError(f"dataset file truncated or padded: {path}")

    table = np.frombuffer(blob, ADDRESS_ROW, n_addr, _HEADER.size)
    records = np.frombuffer(blob, TX_RECORD, n_tx, _HEADER.size + table.nbytes)
    bad = ~np.isin(table["label"], list(Label)) | ~np.isin(
        table["provenance"], [p.value for p in LabelProvenance]
    )
    if bad.any():
        row = int(np.argmax(bad))
        try:
            Label(int(table["label"][row]))
            LabelProvenance(int(table["provenance"][row]))
        except ValueError as exc:
            raise StorageError(f"{exc} for address {_address(table, row)}: {path}") from None
    unordered = table["address"][1:] <= table["address"][:-1]
    if unordered.any():
        i = int(np.argmax(unordered)) + 1
        raise StorageError(
            f"address table not strictly increasing at row {i} "
            f"({_address(table, i)}): {path}"
        )
    out_of_range = (records["sender"] >= n_addr) | (records["receiver"] >= n_addr)
    if out_of_range.any():
        rec = records[np.argmax(out_of_range)]
        raise StorageError(
            f"transaction endpoint index out of range ({rec['sender']}, "
            f"{rec['receiver']}) for {n_addr} addresses: {path}"
        )
    return LabeledDataset(table, records)


def _address(table: np.ndarray, row: int) -> str:
    return "0x" + table["address"][row : row + 1].tobytes().hex()


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` with a two-space indent, sorted keys and a final newline."""
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
