"""Versioned binary serialization for labeled datasets.

Layout (little-endian, version 1):

    magic        4 bytes  b"PHGD"
    version      u16
    n_addresses  u32
    n_tx         u64
    address table, sorted by canonical address string:
        20 raw bytes | label u8 | provenance u8
    transaction records, in dataset order:
        block u64 | timestamp u64 | hash 32 raw bytes |
        sender_idx u32 | receiver_idx u32 | value 32 bytes big-endian |
        gas u64 | gas_price u64 | gas_used u64

Values are stored as 256-bit integers so wei amounts round-trip exactly.
Serialization is deterministic: the same dataset always produces the same
bytes, which is what makes artifact digests reproducible.
"""
from __future__ import annotations

import hashlib
import struct
from pathlib import Path

from .errors import StorageError
from .txmodel import Address, Label, LabeledDataset, LabelProvenance, Transaction

DATASET_MAGIC = b"PHGD"
DATASET_VERSION = 1

_HEADER = struct.Struct("<4sHIQ")
_ADDR_ROW = struct.Struct("<20sBB")
_TX_HEAD = struct.Struct("<QQ32sII")
_TX_TAIL = struct.Struct("<QQQ")
_U64_MAX = 2**64 - 1


def _addr_bytes(addr: Address) -> bytes:
    return bytes.fromhex(addr[2:])


def _hash_bytes(tx_hash: str) -> bytes:
    return bytes.fromhex(tx_hash[2:])


def save_dataset(ds: LabeledDataset, path: str | Path) -> None:
    addresses = sorted(ds.labels)
    index = {a: i for i, a in enumerate(addresses)}
    parts = [
        _HEADER.pack(DATASET_MAGIC, DATASET_VERSION, len(addresses), len(ds.transactions))
    ]
    for addr in addresses:
        parts.append(
            _ADDR_ROW.pack(
                _addr_bytes(addr),
                int(ds.labels[addr]),
                ds.provenance[addr].value,
            )
        )
    for tx in ds.transactions:
        for name in ("gas", "gas_price", "gas_used", "block_number", "timestamp"):
            if getattr(tx, name) > _U64_MAX:
                raise StorageError(f"{name} does not fit in 64 bits: {tx.tx_hash}")
        parts.append(
            _TX_HEAD.pack(
                tx.block_number,
                tx.timestamp,
                _hash_bytes(tx.tx_hash),
                index[tx.sender],
                index[tx.receiver],
            )
        )
        parts.append(tx.value.to_bytes(32, "big"))
        parts.append(_TX_TAIL.pack(tx.gas, tx.gas_price, tx.gas_used))
    Path(path).write_bytes(b"".join(parts))


def load_dataset(path: str | Path) -> LabeledDataset:
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise StorageError(f"dataset file too short: {path}")
    magic, version, n_addr, n_tx = _HEADER.unpack_from(blob, 0)
    if magic != DATASET_MAGIC:
        raise StorageError(f"not a dataset file (bad magic): {path}")
    if version != DATASET_VERSION:
        raise StorageError(f"unsupported dataset version {version}: {path}")
    offset = _HEADER.size
    expected = offset + n_addr * _ADDR_ROW.size + n_tx * (
        _TX_HEAD.size + 32 + _TX_TAIL.size
    )
    if len(blob) != expected:
        raise StorageError(f"dataset file truncated or padded: {path}")

    addresses: list[Address] = []
    labels: dict[Address, Label] = {}
    provenance: dict[Address, LabelProvenance] = {}
    for _ in range(n_addr):
        raw, label_code, prov_code = _ADDR_ROW.unpack_from(blob, offset)
        offset += _ADDR_ROW.size
        addr = Address("0x" + raw.hex())
        addresses.append(addr)
        try:
            labels[addr] = Label(label_code)
            provenance[addr] = LabelProvenance(prov_code)
        except ValueError as exc:
            raise StorageError(f"{exc} for address {addr}: {path}") from None

    transactions = []
    for _ in range(n_tx):
        block, ts, hash_raw, s_idx, r_idx = _TX_HEAD.unpack_from(blob, offset)
        offset += _TX_HEAD.size
        if s_idx >= n_addr or r_idx >= n_addr:
            raise StorageError(
                f"transaction endpoint index out of range ({s_idx}, {r_idx}) "
                f"for {n_addr} addresses: {path}"
            )
        value = int.from_bytes(blob[offset : offset + 32], "big")
        offset += 32
        gas, gas_price, gas_used = _TX_TAIL.unpack_from(blob, offset)
        offset += _TX_TAIL.size
        transactions.append(
            Transaction(
                block_number=block,
                timestamp=ts,
                tx_hash="0x" + hash_raw.hex(),
                sender=addresses[s_idx],
                receiver=addresses[r_idx],
                value=value,
                gas=gas,
                gas_price=gas_price,
                gas_used=gas_used,
            )
        )
    return LabeledDataset(tuple(transactions), labels, provenance)


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
