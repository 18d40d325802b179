"""Synthetic labeled corpora with planted phishing behavior.

The generator mirrors the drain pattern described for real campaigns: a
phishing address accumulates transfers from ordinary senders, sits dormant,
then fires a tight burst of outgoing transactions during early-morning hours.
Benign addresses transact uniformly over the observation window, which gives
them long inter-transaction gaps and flat hour-of-day profiles.

Every numeric choice funnels through one seeded generator, so a fixed seed
reproduces the corpus byte for byte. Each transaction's draws are recorded raw,
as float64s in one flat array, and each column is checked and converted to its
integer type once, after the last draw. Signal strength is configurable: the
per-class value distributions and burst shape can be pushed together to make
hard corpora or apart to make separable ones. ``SyntheticConfig`` checks
every field's type and range when it is built.
"""
from __future__ import annotations

import hashlib
import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidConfig
from .txmodel import (
    ADDRESS_ROW,
    TX_RECORD,
    Label,
    LabeledDataset,
    LabelProvenance,
)

# Fixed end of the observation window (2023-11-14 22:13:20 UTC). Pinned so
# generated corpora depend only on the config, never on the wall clock.
WINDOW_END = 1_700_000_000
_BLOCK_SECONDS = 12
_GENESIS = 1_438_000_000  # anchor for mapping timestamps to block numbers
# Records are hashed and filled this many rows at a time, which bounds the
# transient arrays beside the table.
_BLOCK_ROWS = 4096


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    """A finite float, or an integer that converts to one."""
    if _is_int(x):
        try:
            x = float(x)
        except OverflowError:
            return False
    return isinstance(x, float) and math.isfinite(x)


# SyntheticConfig field annotation -> (what a value must be, its check)
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": ("a finite number", _is_finite_number),
    "tuple[int, int]": (
        "a pair of integers",
        lambda x: isinstance(x, tuple) and len(x) == 2 and all(map(_is_int, x)),
    ),
}


@dataclass(frozen=True)
class SyntheticConfig:
    n_benign_addresses: int = 400
    n_phishing_addresses: int = 100
    # sent transactions per benign address
    tx_per_address_range: tuple[int, int] = (4, 12)
    # regular counterparties per benign address; ordinary traffic stays inside
    # this peer set, which keeps the graph clustered instead of fully mixed
    benign_peer_count_range: tuple[int, int] = (2, 4)
    # incoming transfers a phishing address accumulates before draining
    phishing_victim_tx_range: tuple[int, int] = (4, 10)
    # outgoing burst size of a phishing address
    phishing_burst_tx_range: tuple[int, int] = (15, 30)
    # distinct drain destinations per phishing address; bursts reuse them, so
    # the address fires many transactions without becoming a graph hub
    phishing_mule_count_range: tuple[int, int] = (2, 4)
    # campaigns share consolidation addresses: all drains land inside one
    # small pool of benign addresses instead of spraying the whole population
    phishing_mule_pool_size: int = 10
    # fraction of phishing addresses that drain conspicuously large values;
    # the rest keep benign-looking per-transaction values and are only
    # separable through behavioral (timing/count) features
    phishing_high_value_fraction: float = 0.4
    # UTC hours [lo, hi) in which burst transactions fire
    phishing_burst_hour_range: tuple[int, int] = (2, 4)
    # minimum days between window start and a phishing burst
    phishing_dormancy_days: int = 30
    window_days: int = 180
    # log-space wei value distributions per class (lognormal mu / sigma)
    benign_value_log_mu: float = 38.4
    benign_value_log_sigma: float = 1.0
    phishing_value_log_mu: float = 40.5
    phishing_value_log_sigma: float = 1.0
    # gas price levels per class (equal by default; raise the phishing level
    # to plant an explicit gas signal)
    benign_gas_price_log_mu: float = 23.7
    phishing_gas_price_log_mu: float = 23.7
    gas_price_log_sigma: float = 0.3
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            what, check = _FIELD_TYPES[f.type]
            if not check(value):
                raise InvalidConfig(f"{f.name} must be {what}, not {value!r}")
            # counts and ranges are drawn as int64; the seed is not
            ints = value if isinstance(value, tuple) else (value,)
            if f.type != "float" and f.name != "seed" and max(ints) >= 2**63:
                raise InvalidConfig(f"{f.name} must be below 2**63, not {value!r}")
        if self.seed < 0:
            raise InvalidConfig("seed cannot be negative")
        if self.n_benign_addresses < 1:
            raise InvalidConfig("need at least one benign address")
        if self.n_phishing_addresses < 0:
            raise InvalidConfig("phishing address count cannot be negative")
        for name in (
            "tx_per_address_range",
            "benign_peer_count_range",
            "phishing_victim_tx_range",
            "phishing_burst_tx_range",
            "phishing_mule_count_range",
        ):
            lo, hi = getattr(self, name)
            if lo < 1 or lo > hi:
                raise InvalidConfig(f"{name} must satisfy 1 <= min <= max")
        h_lo, h_hi = self.phishing_burst_hour_range
        if not (0 <= h_lo <= h_hi <= 23):
            raise InvalidConfig("burst hours must lie within [0, 23] with min <= max")
        if self.window_days < 3:
            raise InvalidConfig("window must span at least three days")
        if WINDOW_END - self.window_days * 86_400 < _GENESIS:
            raise InvalidConfig(
                f"window_days must be at most {(WINDOW_END - _GENESIS) // 86_400}, "
                "so that the window starts after the block-number anchor"
            )
        if not 0 <= self.phishing_dormancy_days <= self.window_days - 2:
            raise InvalidConfig("dormancy must leave room for a burst day")
        if self.benign_value_log_sigma <= 0 or self.phishing_value_log_sigma <= 0:
            raise InvalidConfig("value sigmas must be positive")
        if self.gas_price_log_sigma <= 0:
            raise InvalidConfig("gas price sigma must be positive")
        if self.phishing_mule_pool_size < 1:
            raise InvalidConfig("mule pool must contain at least one address")
        if not 0.0 <= self.phishing_high_value_fraction <= 1.0:
            raise InvalidConfig("high-value fraction must lie in [0, 1]")

    @classmethod
    def from_json(cls, payload: dict) -> "SyntheticConfig":
        if not isinstance(payload, dict):
            raise InvalidConfig("synthetic config must be a JSON object")
        kwargs = dict(payload)
        for name, value in payload.items():
            if isinstance(value, list):  # JSON arrays hold the range pairs
                kwargs[name] = tuple(value)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise InvalidConfig(f"bad synthetic config: {exc}") from None


def _fresh_address(rng: np.random.Generator, taken: set[bytes]) -> bytes:
    while True:
        addr = bytes(rng.integers(0, 256, 20, dtype=np.uint8))
        if addr not in taken:
            taken.add(addr)
            return addr


def _dataset(draws: np.ndarray, addresses: list[bytes], n_benign: int) -> LabeledDataset:
    """The table from the ``(n, 7)`` raw draws: address rows in increasing
    order, records ordered by (timestamp, hash), each hash derived from the
    generation counter. Values and gas prices are truncated to ints; the first
    draw that does not fit its width, in generation order, is an error."""
    checked = draws[:, [3, 6]]
    bad = ~(checked < [2.0**256, 2.0**64])  # also rejects nan
    if bad.any():
        row, k = divmod(int(bad.argmax()), 2)
        what, bits = (("value", 256), ("gas price", 64))[k]
        raise InvalidConfig(
            f"{what} draw {checked[row, k]:.4g} does not fit in {bits} bits; "
            "check its log mu and sigma"
        )

    column = np.frombuffer(b"".join(addresses), "S20")
    order = np.argsort(column)  # generated addresses are distinct
    row_of = np.empty(len(addresses), np.int64)
    row_of[order] = np.arange(len(addresses))
    table = np.empty(len(addresses), ADDRESS_ROW)
    table["address"] = column[order]
    table["label"] = np.where(order >= n_benign, Label.PHISHING, Label.BENIGN)
    table["provenance"] = LabelProvenance.SYNTHETIC.value

    return LabeledDataset(table, _records(draws, row_of))


def _records(draws: np.ndarray, row_of: np.ndarray) -> np.ndarray:
    """The records of the raw draws, ordered by (timestamp, hash). The order
    is worked out first, so each field is written once, ``_BLOCK_ROWS``
    rows at a time, already in place."""
    n = len(draws)
    hashes = np.empty(n, "S32")  # in generation order
    for start in range(0, n, _BLOCK_ROWS):
        hashes[start : start + _BLOCK_ROWS] = np.frombuffer(b"".join(
            hashlib.sha256(f"synthetic-tx-{i}".encode()).digest()
            for i in range(start, min(n, start + _BLOCK_ROWS))
        ), "S32")
    order = np.lexsort((hashes, draws[:, 0]))  # float times are exact integers
    records = np.empty(n, TX_RECORD)
    for start in range(0, n, _BLOCK_ROWS):
        rows = order[start : start + _BLOCK_ROWS]
        block, raw = records[start : start + _BLOCK_ROWS], draws[rows]
        block["tx_hash"] = hashes[rows]
        timestamp, sender, receiver, gas_used, extra = raw[:, [0, 1, 2, 4, 5]].astype(np.int64).T
        block["timestamp"] = timestamp
        block["block_number"] = (timestamp - _GENESIS) // _BLOCK_SECONDS
        block["sender"] = row_of[sender]
        block["receiver"] = row_of[receiver]
        # A value can exceed 64 bits, so it is cut into 32-bit limbs as a float:
        # division by a power of two and the remainder are exact, and the cast
        # to the limb type truncates, so each limb is that of the draw's int.
        value = np.maximum(1.0, raw[:, 3])
        block["value"] = (value[:, None] / 2.0 ** (32 * np.arange(7, -1, -1))) % 2.0**32
        block["gas"] = gas_used + extra
        block["gas_price"] = raw[:, 6].astype(np.uint64)
        block["gas_used"] = gas_used
    return records


def generate_synthetic(cfg: SyntheticConfig) -> LabeledDataset:
    """Generate a labeled corpus; deterministic for a fixed config."""
    rng = np.random.default_rng(cfg.seed)
    window_start = WINDOW_END - cfg.window_days * 86_400

    taken: set[bytes] = set()
    n_benign = cfg.n_benign_addresses
    addresses = [
        _fresh_address(rng, taken) for _ in range(n_benign + cfg.n_phishing_addresses)
    ]
    # Each transaction's raw draws, in draw order: timestamp, sender and
    # receiver (generation indices: benign addresses first, then phishing),
    # value, gas used, gas offered above it, gas price. The integer draws are
    # below 2**53, so a float64 holds each of them exactly.
    raw = array("d")

    def add(ts: int, sender: int, receiver: int, value_mu: float, value_sigma: float,
            gas_price_mu: float) -> None:
        raw.extend((
            ts, sender, receiver,
            rng.lognormal(value_mu, value_sigma),
            rng.integers(21_000, 80_001),
            rng.integers(0, 20_001),
            rng.lognormal(gas_price_mu, cfg.gas_price_log_sigma),
        ))

    # Background traffic: benign addresses send to other benign addresses at
    # uniformly random times, so their hour histograms are flat and their
    # inter-transaction gaps are on the order of days to weeks.
    p_lo, p_hi = cfg.benign_peer_count_range
    for sender in range(n_benign):
        peer_ids = rng.integers(
            0, n_benign, size=int(rng.integers(p_lo, p_hi + 1))
        )
        lo, hi = cfg.tx_per_address_range
        n = int(rng.integers(lo, hi + 1))
        for _ in range(n):
            ts = int(rng.integers(window_start, WINDOW_END))
            receiver = int(peer_ids[int(rng.integers(0, len(peer_ids)))])
            add(ts, sender, receiver, cfg.benign_value_log_mu, cfg.benign_value_log_sigma,
                cfg.benign_gas_price_log_mu)

    # Phishing lifecycle: accumulate victim transfers, stay dormant on the
    # sending side, then drain in a tight early-morning burst. Drains cycle
    # over a few mules drawn from one shared consolidation pool, and only a
    # fraction of campaigns move conspicuously large values.
    h_lo, h_hi = cfg.phishing_burst_hour_range
    first_day = -(-window_start // 86_400)  # first full UTC day in the window
    last_day = WINDOW_END // 86_400         # exclusive
    pool_size = min(cfg.phishing_mule_pool_size, n_benign)
    mule_pool = rng.integers(0, n_benign, size=pool_size)
    for addr in range(n_benign, len(addresses)):
        burst_day = 86_400 * int(
            rng.integers(first_day + cfg.phishing_dormancy_days, last_day)
        )
        high_value = rng.random() < cfg.phishing_high_value_fraction
        drain_mu = cfg.phishing_value_log_mu if high_value else cfg.benign_value_log_mu
        drain_sigma = (
            cfg.phishing_value_log_sigma if high_value else cfg.benign_value_log_sigma
        )

        lo, hi = cfg.phishing_victim_tx_range
        for _ in range(int(rng.integers(lo, hi + 1))):
            ts = int(rng.integers(window_start, max(burst_day, window_start + 1)))
            victim = int(rng.integers(0, n_benign))
            add(ts, victim, addr, cfg.benign_value_log_mu, cfg.benign_value_log_sigma,
                cfg.benign_gas_price_log_mu)

        m_lo, m_hi = cfg.phishing_mule_count_range
        n_mules = min(int(rng.integers(m_lo, m_hi + 1)), pool_size)
        mule_ids = mule_pool[rng.integers(0, pool_size, size=n_mules)]
        lo, hi = cfg.phishing_burst_tx_range
        second_lo = h_lo * 3_600
        second_hi = max(second_lo + 1, (h_hi if h_hi > h_lo else h_lo + 1) * 3_600)
        for k in range(int(rng.integers(lo, hi + 1))):
            ts = burst_day + int(rng.integers(second_lo, second_hi))
            mule = int(mule_ids[k % len(mule_ids)])
            add(ts, addr, mule, drain_mu, drain_sigma, cfg.phishing_gas_price_log_mu)

    return _dataset(np.frombuffer(raw).reshape(-1, 7), addresses, n_benign)
