import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishgraph.errors import InvalidTransaction, PipelineError, StorageError
from phishgraph.features import extract_explicit, extract_implicit
from phishgraph.graph import build_graph
from phishgraph.storage import load_dataset, save_dataset

from helpers import addr, dataset_from, make_tx, transactions

# three transactions over four addresses, one of them a self-transfer
TXS = [
    make_tx(1, addr(1), addr(2), ts=1_600_000_000, value=2**256 - 1),
    make_tx(2, addr(3), addr(3), ts=1_600_003_600, gas=2**64 - 1),
    make_tx(3, addr(4), addr(1), ts=1_600_090_000, value=0),
]
TX_AT = 18 + 4 * 22  # the header and the address rows come first


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("storage") / "ds.bin"
    save_dataset(dataset_from(TXS, phishing=[addr(2)]), path)
    return path


def test_round_trip_keeps_every_field(saved):
    ds = load_dataset(saved)
    assert transactions(ds) == tuple(TXS)
    assert ds.class_counts() == (3, 1)
    again = saved.with_name("again.bin")
    save_dataset(ds, again)
    assert again.read_bytes() == saved.read_bytes()


def test_error_names_first_offending_row(saved, tmp_path):
    blob = bytearray(saved.read_bytes())
    struct.pack_into("<Q", blob, TX_AT + 2 * 112 + 8, 0)  # timestamp of row 2
    struct.pack_into("<Q", blob, TX_AT + 112 + 88, 0)     # gas of row 1
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidTransaction, match=r"^transaction 1 .*gas_used exceeds gas$"):
        load_dataset(path)
    # row 1 repeats row 0's hash instead, which comes before row 2's timestamp
    struct.pack_into("<Q", blob, TX_AT + 112 + 88, 2**64 - 1)
    blob[TX_AT + 112 + 16 : TX_AT + 112 + 48] = blob[TX_AT + 16 : TX_AT + 48]
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidTransaction, match="duplicate transaction hash"):
        load_dataset(path)
    # on one row, a broken field is reported before a repeated hash
    struct.pack_into("<Q", blob, TX_AT + 112 + 88, 0)
    path.write_bytes(bytes(blob))
    with pytest.raises(InvalidTransaction, match=r"^transaction 1 .*gas_used exceeds gas$"):
        load_dataset(path)


def test_unsorted_address_table_rejected(saved, tmp_path):
    blob = bytearray(saved.read_bytes())
    rows = [bytes(blob[18 + 22 * i : 18 + 22 * (i + 1)]) for i in range(4)]
    blob[18 : 18 + 88] = b"".join([rows[1], rows[0], rows[2], rows[3]])
    path = tmp_path / "bad.bin"
    path.write_bytes(bytes(blob))
    with pytest.raises(StorageError, match="row 1"):
        load_dataset(path)


@settings(max_examples=300, deadline=None)
@given(
    flips=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255)), max_size=6),
    cut=st.integers(0, 500),
)
def test_corrupt_bytes_load_or_raise_pipeline_error(saved, tmp_path_factory, flips, cut):
    """Flipped and truncated bytes of a saved dataset either load into a
    dataset whose graph and features can be built, or raise PipelineError."""
    blob = bytearray(saved.read_bytes())
    for position, byte in flips:
        blob[position % len(blob)] = byte
    del blob[len(blob) - min(cut, len(blob)) :]
    path = tmp_path_factory.getbasetemp() / "fuzzed.bin"
    path.write_bytes(bytes(blob))
    try:
        ds = load_dataset(path)
    except PipelineError:
        return
    g = build_graph(ds)
    extract_explicit(ds, g)
    extract_implicit(ds, g)
