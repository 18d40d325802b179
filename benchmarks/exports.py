"""Block-explorer exports of a generated corpus, with planted faults.

The first half of the transactions goes to a CSV export and the rest to a
JSON ``account txlist`` envelope. Into these go a fixed number of malformed
rows per reject reason and a fixed number of repeated hashes, at positions
drawn from the workload seed. Every repeat comes after its original, so
ingest must keep exactly the generated transactions in generated order.
"""
from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import Dataset

CSV_REASONS = (
    "BadAddress", "BadHash", "MissingField", "BadNumeral", "BadTimestamp", "GasExceeded",
)
JSON_REASONS = CSV_REASONS + ("BadEntry",)
ROWS_PER_REASON = 5
DUPLICATES = 300

_COLUMNS = ("blockNumber", "timeStamp", "hash", "nonce", "from", "to", "value",
            "gas", "gasPrice", "isError", "gasUsed")


@dataclass
class Exports:
    csv_path: Path
    json_path: Path
    flagged_path: Path
    flagged: set[str]
    rejects: dict[str, list[tuple[int, str]]]   # file name -> (data row, reason)
    duplicates: int


def _fields(tx: tuple, k: int) -> dict:
    block, ts, h, sender, receiver, value, gas, gas_price, gas_used = tx
    if k % 5 == 0:  # explorers print checksummed (mixed-case) hex
        h, sender = "0x" + h[2:].upper(), "0x" + sender[2:].upper()
    return {"blockNumber": str(block), "timeStamp": str(ts), "hash": h, "nonce": str(k),
            "from": sender, "to": receiver, "value": str(value), "gas": str(gas),
            "gasPrice": str(gas_price), "isError": "0", "gasUsed": str(gas_used)}


def _malformed(tx: tuple, reason: str, k: int):
    row = _fields(tx, 1)
    row["hash"] = "0x" + hashlib.sha256(f"malformed-{k}".encode()).hexdigest()
    if reason == "BadEntry":
        return f"malformed entry {k}"
    if reason == "BadAddress":
        row["from"] = "0xnot-an-address"
    elif reason == "BadHash":
        row["hash"] = "0xdeadbeef"
    elif reason == "MissingField":
        row["gasPrice"] = ""
    elif reason == "BadNumeral":
        row["value"] = "1.5e18"
    elif reason == "BadTimestamp":
        row["timeStamp"] = "0"
    elif reason == "GasExceeded":
        row["gasUsed"] = str(int(row["gas"]) + 1)
    return row


def write_exports(ds: Dataset, out_dir: Path, seed: int) -> Exports:
    """Write txs.csv, txs.json and flagged.txt for ``ds`` into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 7])
    n = len(ds.txs)
    half = n // 2
    # Sort keys place each entry: originals at (i, 0); a repeat of row i at
    # (j, 1) with j >= i; a malformed row at (j, 2). Position j < half goes
    # to the CSV file, the rest to the JSON file.
    keyed = [((i, 0, i), ("ok", tx)) for i, tx in enumerate(ds.txs)]
    for k, src in enumerate(rng.integers(0, n, DUPLICATES)):
        keyed.append(((int(rng.integers(src, n)), 1, k), ("ok", ds.txs[src])))
    bad = 0
    for reasons, lo, hi in ((CSV_REASONS, 0, half), (JSON_REASONS, half, n)):
        for reason in reasons:
            for _ in range(ROWS_PER_REASON):
                template = ds.txs[int(rng.integers(0, n))]
                keyed.append(((int(rng.integers(lo, hi)), 2, bad), (reason, template)))
                bad += 1
    keyed.sort(key=lambda kv: kv[0])

    files = {"txs.csv": [], "txs.json": []}
    rejects = {"txs.csv": [], "txs.json": []}
    for k, ((pos, _, _), (kind, tx)) in enumerate(keyed):
        name = "txs.csv" if pos < half else "txs.json"
        rows = files[name]
        if kind == "ok":
            rows.append(_fields(tx, k))
        else:
            rows.append(_malformed(tx, kind, k))
            rejects[name].append((len(rows), kind))

    csv_path, json_path = out_dir / "txs.csv", out_dir / "txs.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, _COLUMNS, quoting=csv.QUOTE_ALL)
        writer.writeheader()
        writer.writerows(files["txs.csv"])
    json_path.write_text(
        json.dumps({"status": "1", "message": "OK", "result": files["txs.json"]}),
        encoding="utf-8",
    )
    flagged = {a for a, label in ds.labels.items() if label == 1}
    flagged_path = out_dir / "flagged.txt"
    flagged_path.write_text(
        "# flagged phishing addresses\n"
        + "".join(f"{'0x' + a[2:].upper() if i % 3 == 0 else a}\n"
                  for i, a in enumerate(sorted(flagged))),
        encoding="utf-8",
    )
    return Exports(csv_path, json_path, flagged_path, flagged, rejects, DUPLICATES)
