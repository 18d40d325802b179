import codecs
import csv
import io
import json
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phishgraph.errors import (
    ApiError,
    InvalidAddress,
    InvalidConfig,
    MalformedDocument,
    MalformedHeader,
    PipelineError,
)
from phishgraph import ingest
from phishgraph.ingest import (
    CHUNK_ROWS,
    ParseResult,
    PhishingList,
    clean,
    label_dataset,
    parse_etherscan_csv,
    parse_etherscan_json,
)
from phishgraph.txmodel import Label, LabelProvenance

from helpers import (
    addr,
    labels,
    make_tx,
    provenance,
    reference_json_outcome,
    reference_parse_csv,
    reference_parse_json,
    traced_peak,
    transactions,
    tx_columns,
    tx_hash,
    tx_rows,
)

HEADER = "blockNumber,timeStamp,hash,from,to,value,gas,gasPrice,gasUsed"
HASH_A = "0x" + "aa" * 32
FROM_A = "0x" + "ab" * 20
TO_A = "0x" + "cd" * 20
ROW = f"17000000,1680000000,{HASH_A},{FROM_A},{TO_A},1000000000000000000,21000,20000000000,21000"


def csv_bytes(*rows: str, header: str = HEADER) -> bytes:
    return ("\n".join([header, *rows]) + "\n").encode()


class TestCsvParser:
    def test_direct_field_mapping(self):
        result = parse_etherscan_csv(csv_bytes(ROW))
        assert not result.rejects
        (tx,) = tx_rows(result.transactions)
        assert tx.block_number == 17_000_000
        assert tx.timestamp == 1_680_000_000
        assert tx.tx_hash == HASH_A
        assert tx.sender == FROM_A
        assert tx.receiver == TO_A
        assert tx.value == 10**18
        assert tx.gas == 21_000
        assert tx.gas_price == 20_000_000_000
        assert tx.gas_used == 21_000

    def test_gas_exceeded_row_rejected(self):
        row = f"17000000,1680000000,{HASH_A},{FROM_A},{TO_A},1,21000,20000000000,22000"
        result = parse_etherscan_csv(csv_bytes(row))
        assert len(result.transactions) == 0
        (reject,) = result.rejects
        assert reject.reason == "GasExceeded"
        assert reject.row == 1

    def test_header_only_file(self):
        result = parse_etherscan_csv(csv_bytes())
        assert len(result.transactions) == 0
        assert result.rejects == []

    def test_empty_file_is_malformed(self):
        with pytest.raises(MalformedHeader):
            parse_etherscan_csv(b"")

    def test_missing_column_is_malformed(self):
        with pytest.raises(MalformedHeader) as err:
            parse_etherscan_csv(csv_bytes(header=HEADER.replace(",gasUsed", "")))
        assert "gasused" in str(err.value)

    def test_header_case_insensitive_and_extra_columns_ignored(self):
        header = "BLOCKNUMBER,TimeStamp,Hash,FROM,To,Value,Gas,GasPrice,GasUsed,nonce"
        result = parse_etherscan_csv(csv_bytes(ROW + ",7", header=header))
        assert len(result.transactions) == 1

    def test_input_order_preserved(self):
        rows = [
            f"1,100,{tx_hash(i)},{addr(1)},{addr(2)},5,21000,1,21000"
            for i in range(5)
        ]
        result = parse_etherscan_csv(csv_bytes(*rows))
        assert [t.tx_hash for t in tx_rows(result.transactions)] == [tx_hash(i) for i in range(5)]

    def test_per_row_errors_not_fatal(self):
        rows = [
            ROW,
            f"x,1680000000,{tx_hash(1)},{FROM_A},{TO_A},1,21000,1,21000",   # bad block
            f"17,0,{tx_hash(2)},{FROM_A},{TO_A},1,21000,1,21000",           # ts == 0
            f"17,1680000000,{tx_hash(3)},0x12,{TO_A},1,21000,1,21000",      # bad addr
            f"17,1680000000,nothash,{FROM_A},{TO_A},1,21000,1,21000",       # bad hash
            f"17,1680000000,{tx_hash(4)},{FROM_A},{TO_A},,21000,1,21000",   # missing
        ]
        result = parse_etherscan_csv(csv_bytes(*rows))
        assert len(result.transactions) == 1
        reasons = [r.reason for r in result.rejects]
        assert reasons == ["BadNumeral", "BadTimestamp", "BadAddress", "BadHash", "MissingField"]
        report = result.rejects_json()
        assert report["rejected"] == 5 and report["parsed"] == 1

    @pytest.mark.parametrize(
        "blob",
        [
            csv_bytes(ROW).replace(b"17000000", b"17\xff"),  # not UTF-8
            csv_bytes(ROW).replace(b"17000000", b"1" * 200_000),  # beyond csv's field limit
        ],
    )
    def test_unreadable_file_is_malformed(self, blob):
        with pytest.raises(MalformedDocument, match="unreadable CSV"):
            parse_etherscan_csv(blob)

    def test_bytes_stream_and_path_parse_alike(self, tmp_path):
        # a stray CR in an unquoted field ends a line, whatever the source
        blob = csv_bytes(ROW, ROW.replace("aa", "bb").replace("17000000", "17\r000000"))
        path = tmp_path / "txs.csv"
        path.write_bytes(blob)
        stream = io.BytesIO(blob)
        results = [parse_etherscan_csv(src) for src in (blob, stream, path, str(path))]
        assert results[0].rejects and not stream.closed
        views = [(tx_rows(r.transactions), r.rejects) for r in results]
        assert all(view == views[0] for view in views)

    @pytest.mark.parametrize("header", [HEADER, ",".join(f'"{h}"' for h in HEADER.split(","))])
    def test_byte_order_mark_is_dropped(self, header, tmp_path):
        plain = csv_bytes(ROW, header=header)
        blob = b"\xef\xbb\xbf" + plain
        path = tmp_path / "bom.csv"
        path.write_bytes(blob)
        want = tx_rows(parse_etherscan_csv(plain).transactions)
        for source in (blob, io.BytesIO(blob), path):
            result = parse_etherscan_csv(source)
            assert not result.rejects and tx_rows(result.transactions) == want


def envelope(result, status="1", message="OK") -> bytes:
    return json.dumps({"status": status, "message": message, "result": result}).encode()


JSON_TX = {
    "blockNumber": "17000000",
    "timeStamp": "1680000000",
    "hash": HASH_A,
    "from": FROM_A,
    "to": TO_A,
    "value": "1000000000000000000",
    "gas": "21000",
    "gasPrice": "20000000000",
    "gasUsed": "21000",
    "nonce": "4",
}


class TestJsonParser:
    def test_empty_result(self):
        result = parse_etherscan_json(envelope([]))
        assert len(result.transactions) == 0 and result.rejects == []

    def test_equivalent_to_csv_row(self):
        from_json = tx_rows(parse_etherscan_json(envelope([JSON_TX])).transactions)[0]
        from_csv = tx_rows(parse_etherscan_csv(csv_bytes(ROW)).transactions)[0]
        assert from_json == from_csv

    def test_error_envelope_raises_api_error(self):
        payload = envelope("Max rate limit reached", status="0", message="NOTOK")
        with pytest.raises(ApiError) as err:
            parse_etherscan_json(payload)
        assert "NOTOK" in str(err.value)

    def test_status_zero_with_array_is_not_an_error(self):
        # "no transactions found" responses carry status 0 and an empty array
        result = parse_etherscan_json(envelope([], status="0", message="No transactions found"))
        assert len(result.transactions) == 0

    def test_invalid_json_is_malformed(self):
        with pytest.raises(MalformedDocument):
            parse_etherscan_json(b"{not json")

    def test_missing_result_field_is_malformed(self):
        with pytest.raises(MalformedDocument):
            parse_etherscan_json(json.dumps({"status": "1"}).encode())

    @pytest.mark.parametrize("blob", [
        b'{"status": "1", "result": [' + b"1" * 5000 + b"]}",  # more digits than int() reads
        b'{"status": "1", "result": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        codecs.BOM_UTF8 * 2 + envelope([]),  # one mark is dropped, a second is text
    ], ids=["long-integer-literal", "deep-nesting", "double-byte-order-mark"])
    def test_unreadable_json_is_malformed(self, blob):
        with pytest.raises(MalformedDocument, match="invalid JSON"):
            parse_etherscan_json(blob)

    def test_non_object_entries_rejected_per_row(self):
        result = parse_etherscan_json(envelope([JSON_TX, "garbage"]))
        assert len(result.transactions) == 1
        assert result.rejects[0].reason == "BadEntry"


def mutated(blob: bytes, edits) -> bytes:
    """``blob`` after each (position, byte, insert) edit inserts or overwrites a byte."""
    out = bytearray(blob)
    for position, byte, insert in edits:
        at = position % (len(out) + 1)
        if insert or at == len(out):
            out.insert(at, byte)
        else:
            out[at] = byte
    return bytes(out)


EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 255), st.booleans()), max_size=8)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=300), edits=EDITS)
def test_csv_parse_of_any_bytes_is_result_or_pipeline_error(raw, edits):
    for blob in (raw, mutated(csv_bytes(ROW, ROW.replace("aa", "bb")), edits)):
        try:
            result = parse_etherscan_csv(blob)
        except PipelineError:
            continue
        assert isinstance(result, ParseResult)


@settings(max_examples=300, deadline=None)
@given(raw=st.binary(max_size=300), edits=EDITS)
def test_json_parse_of_any_bytes_is_result_or_pipeline_error(raw, edits):
    for blob in (raw, mutated(envelope([JSON_TX, JSON_TX]), edits)):
        try:
            result = parse_etherscan_json(blob)
        except PipelineError:
            continue
        assert isinstance(result, ParseResult)


# ---------------------------------------- the column checks against the rows
# Generated exports whose fields explorers could plausibly write, or not:
# padded, uppercase and unprefixed hex, non-ASCII digits, signs, numerals
# beyond 64 and 256 bits and beyond int()'s digit limit; in JSON also null,
# numbers, booleans and lists, and keys that collide when lowercased.

FIELD_NAMES = tuple(HEADER.split(","))
PADDING = st.sampled_from(["", " ", "\t", "\n", "\xa0", "\u3000"])


def hex_texts(digits: int):
    body = st.builds(lambda raw, case: case(raw.hex()),
                     st.binary(min_size=digits // 2, max_size=digits // 2),
                     st.sampled_from([str.lower, str.upper, str.title]))
    valid = st.builds(lambda left, prefix, b, right: left + prefix + b + right,
                      PADDING, st.sampled_from(["0x", "0X", ""]), body, PADDING)
    invalid = st.one_of(
        body.map(lambda b: "0x" + b[1:]),
        body.map(lambda b: b + "a"),
        body.map(lambda b: "0x" + b[:-1] + "g"),
        body.map(lambda b: "0x" + b[:-1] + "\u0665"),
        body.map(lambda b: "0x0x" + b[2:]),
        # the right length, but whitespace where bytes.fromhex skips it
        body.map(lambda b: "0x" + b[:2] + " a" + b[4:]),
        body.map(lambda b: "0x" + b[:2] + "\t" + b[2:-4] + "\n" + b[-4:-2]),
        st.text(st.characters(blacklist_characters="\x00"), max_size=4),
    )
    return st.one_of(valid, valid, invalid)


NUMERALS = st.one_of(
    st.integers(0, 40).map(str),
    st.integers(0, 2**70).map(str),
    st.integers(2**250, 2**260).map(str),
    st.builds(lambda left, n, right: left + n + right, PADDING,
              st.integers(0, 10**6).map(str), PADDING),
    st.sampled_from(["0", "000", "007", "+1", "-1", "\u0661\u0662", "\xb2", "1_0", "1.5",
                     "1e3", "", " ", "1" * 4301, "0" * 4300 + "1"]),
)


ADDRESS_TEXTS, HASH_TEXTS = hex_texts(40), hex_texts(64)
# strategies by field name (lowercase), each built once
FIELD_TEXTS = {name.lower(): ADDRESS_TEXTS if name in ("from", "to")
               else HASH_TEXTS if name == "hash" else NUMERALS for name in FIELD_NAMES}
NAME_VARIANTS = {name: st.sampled_from([name, name.lower(), name.upper()])
                 for name in (*FIELD_NAMES, "nonce", "isError")}


@st.composite
def csv_exports(draw) -> bytes:
    extra = draw(st.lists(st.sampled_from(["nonce", "isError", *FIELD_NAMES]), max_size=3))
    names = draw(st.permutations([*FIELD_NAMES, *extra]))
    header = [draw(NAME_VARIANTS[name]) for name in names]
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        cells = [draw(FIELD_TEXTS.get(name.lower(), NUMERALS)) for name in names]
        shape = draw(st.sampled_from(["full", "full", "full", "short", "blank", "long"]))
        if shape == "short":
            cells = cells[: draw(st.integers(0, len(cells) - 1))]
        elif shape == "blank":
            cells = [draw(PADDING) for _ in range(draw(st.integers(0, 3)))]
        elif shape == "long":
            cells += draw(st.lists(NUMERALS, min_size=1, max_size=2))
        rows.append(cells)
    out = io.StringIO()
    csv.writer(out).writerows([header, *rows])
    # a UTF-8 file cannot hold the lone surrogates the cell texts may draw
    blob = out.getvalue().encode(errors="ignore")
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + blob


JSON_VALUES = {name: st.one_of(texts, texts, st.none(), st.integers(-2, 2**300), st.floats(),
                              st.booleans(), st.lists(st.integers(0, 9), max_size=2))
               for name, texts in FIELD_TEXTS.items()}


@st.composite
def json_entries(draw):
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["not an entry", 7, None, [1]]))
    pairs = [(draw(NAME_VARIANTS[name]), draw(JSON_VALUES[name.lower()]))
             for name in FIELD_NAMES if draw(st.integers(0, 9))]  # a field may be absent
    for name in draw(st.lists(st.sampled_from(FIELD_NAMES), max_size=2)):
        pairs.append((draw(NAME_VARIANTS[name]), draw(JSON_VALUES[name.lower()])))
    pairs.append(("nonce", "1"))
    return dict(draw(st.permutations(pairs)))


def parse_view(result):
    return tx_rows(result.transactions), [(r.row, r.reason, r.detail) for r in result.rejects]


@settings(max_examples=150, deadline=None)
@given(blob=csv_exports())
def test_csv_columns_match_per_row_reference(blob):
    assert parse_view(parse_etherscan_csv(blob)) == reference_parse_csv(blob)


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(json_entries(), max_size=6))
def test_json_columns_match_per_row_reference(entries):
    blob = envelope(entries)
    assert parse_view(parse_etherscan_json(blob)) == reference_parse_json(blob)


# Each encoding json.loads accepts for bytes: (byte-order mark, codec)
JSON_ENCODINGS = [(b"", "utf-8"), (codecs.BOM_UTF8, "utf-8"),
                  (b"", "utf-16-le"), (codecs.BOM_UTF16_LE, "utf-16-le"),
                  (b"", "utf-16-be"), (codecs.BOM_UTF16_BE, "utf-16-be"),
                  (b"", "utf-32-le"), (codecs.BOM_UTF32_LE, "utf-32-le"),
                  (b"", "utf-32-be"), (codecs.BOM_UTF32_BE, "utf-32-be")]


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(json_entries(), max_size=6))
def test_json_encodings_match_per_row_reference(entries):
    text = json.dumps({"status": "1", "message": "OK", "result": entries}, ensure_ascii=False)
    for bom, codec in JSON_ENCODINGS:
        blob = bom + text.encode(codec, "surrogatepass")
        expected = reference_parse_json(blob)
        assert parse_view(parse_etherscan_json(blob)) == expected
        assert parse_view(parse_etherscan_json(io.BytesIO(blob))) == expected


def test_json_parse_holds_one_copy_of_the_file(tmp_path):
    """Parsing an export from a path costs less than one file size of
    traced memory beyond what json.loads of its bytes alone peaks at. That
    excess reads about 0.48 file sizes; holding the bytes beside the text
    and the document, or the text through the column checks, raises it to
    about 1.48."""
    rng = random.Random(5)
    entries = [dict(JSON_TX, hash="0x" + rng.randbytes(32).hex(),
                    to="0x" + rng.randbytes(20).hex(), nonce=str(k),
                    value=str(rng.randrange(10**21)))
               for k in range(2000)]
    path = tmp_path / "txs.json"
    path.write_text(json.dumps({"status": "1", "message": "OK", "result": entries}))

    document_peak = traced_peak(lambda: json.loads(path.read_bytes()))
    parse_peak = traced_peak(lambda: parse_etherscan_json(path))
    assert parse_peak - document_peak < path.stat().st_size


def export_entries(n: int) -> list[dict]:
    rng = random.Random(5)
    return [dict(JSON_TX, hash="0x" + rng.randbytes(32).hex(), to="0x" + rng.randbytes(20).hex(),
                 nonce=str(k), value=str(rng.randrange(10**21)))
            for k in range(n)]


def test_csv_parse_peak_is_below_three_file_sizes(tmp_path):
    """Parsing a 4096-row CSV export from a path peaks at about 1.7 file
    sizes of traced memory: a chunk of rows and the columns, which are
    joined once at the end. Holding every row's fields at once, as a
    whole-file parse does, peaks at about 5.0."""
    path = tmp_path / "txs.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, list(JSON_TX))
        writer.writeheader()
        writer.writerows(export_entries(4096))
    assert traced_peak(lambda: parse_etherscan_csv(path)) < 3 * path.stat().st_size


def test_json_parse_peak_is_below_three_and_a_half_file_sizes(tmp_path):
    """Parsing a 4096-entry JSON export from a path peaks at about 2.5
    file sizes of traced memory: the bytes and their text at the decode
    (2.0), then the text, one chunk of entries and the columns. Building
    the whole document, as ``json.loads`` does, peaks at about 4.3."""
    path = tmp_path / "txs.json"
    path.write_text(json.dumps({"status": "1", "message": "OK", "result": export_entries(4096)}))
    assert traced_peak(lambda: parse_etherscan_json(path)) < 3.5 * path.stat().st_size


def test_json_parse_peak_beyond_the_columns_stays_flat(tmp_path):
    """Parsing a JSON export from a path holds, beside the columns it
    returns, one window of bytes and its text and one chunk of entries,
    however long the file. From 4096 to 16384 entries (1.45 to 5.80 MB) the
    traced peak beyond the columns went from 2.25 to 2.30 MB, 0.01 of the
    growth of the file; decoding the whole file first took it from 2.97 to
    9.03 MB, 1.39 of that growth."""
    excess, sizes = [], []
    for n in (4096, 16384):
        path = tmp_path / f"txs{n}.json"
        path.write_text(json.dumps({"status": "1", "message": "OK",
                                    "result": export_entries(n)}))
        sizes.append(path.stat().st_size)
        excess.append(traced_peak(lambda: parse_etherscan_json(path), beyond_result=True))
    assert excess[1] - excess[0] < 0.25 * (sizes[1] - sizes[0])


# ------------------------------------------- rows on both sides of a chunk end
# Row CHUNK_ROWS * k is the last row of chunk k and the next row the first of
# chunk k + 1. Each export holds six chunks, the last one short.

N_BOUNDARY_ROWS = 5 * CHUNK_ROWS + 9
FAULTS = {  # one field edit per reject reason
    "BadAddress": {"from": "0x12"},
    "BadHash": {"hash": "nothash"},
    "MissingField": {"gasPrice": ""},
    "BadNumeral": {"value": "1.5e18"},
    "BadTimestamp": {"timeStamp": "0"},
    "GasExceeded": {"gasUsed": "21001"},
}


def boundary_entries() -> tuple[list[dict], list[int]]:
    """Valid entries, with a fault of each reason on the rows beside the
    first three chunk ends, a value above 2**64 only in the last chunk, and
    the rows beside the fifth chunk end sharing a hash; and the free rows
    beside the fourth chunk end (1-based)."""
    entries = [dict(JSON_TX, hash=tx_hash(k), to=addr(k % 7), nonce=str(k))
               for k in range(1, N_BOUNDARY_ROWS + 1)]
    sides = [CHUNK_ROWS * k + d for k in (1, 2, 3) for d in (0, 1)]
    for row, edit in zip(sides, FAULTS.values()):
        entries[row - 1].update(edit)
    entries[-3]["value"] = str(2**64 + 7)
    entries[5 * CHUNK_ROWS]["hash"] = entries[5 * CHUNK_ROWS - 1]["hash"]
    return entries, [4 * CHUNK_ROWS, 4 * CHUNK_ROWS + 1]


def check_boundary_parse(result, view, n_rejects: int) -> None:
    assert parse_view(result) == view
    assert [r.reason for r in result.rejects][:6] == list(FAULTS)
    assert len(result.rejects) == n_rejects
    assert result.transactions.value.dtype == object  # promoted by the last chunk
    kept, report = clean(result.transactions)
    hashes = [t.tx_hash for t in tx_rows(result.transactions)]
    repeat_at = hashes.index(tx_hash(5 * CHUNK_ROWS), hashes.index(tx_hash(5 * CHUNK_ROWS)) + 1)
    assert report.dropped_rows == [(repeat_at, "duplicate hash")]
    assert len(kept) == len(hashes) - 1


def test_csv_chunk_boundaries_match_per_row_reference():
    entries, (blank_at, short_at) = boundary_entries()
    rows = [list(entry.values()) for entry in entries]
    rows[blank_at - 1] = []
    rows[short_at - 1] = rows[short_at - 1][:4]
    rows[5 * CHUNK_ROWS - 1].append("7")  # a long row, kept
    out = io.StringIO()
    csv.writer(out).writerows([list(JSON_TX), *rows])
    blob = out.getvalue().encode()
    result = parse_etherscan_csv(blob)
    check_boundary_parse(result, reference_parse_csv(blob), len(FAULTS) + 1)
    assert result.rejects[-1].row == short_at


def test_json_chunk_boundaries_match_per_row_reference():
    entries, (bad_entry_at, first_upper) = boundary_entries()
    entries[bad_entry_at - 1] = "not an entry"
    # from the first row of a chunk on, the keys change case and order
    entries[first_upper - 1:] = [{k.upper(): v for k, v in reversed(entry.items())}
                                 for entry in entries[first_upper - 1:]]
    blob = envelope(entries)
    result = parse_etherscan_json(blob)
    check_boundary_parse(result, reference_parse_json(blob), len(FAULTS) + 1)
    assert result.rejects[-1].row == bad_entry_at


@settings(max_examples=100, deadline=None)
@given(blob=csv_exports(), chunk_rows=st.integers(1, 3))
def test_csv_in_small_chunks_matches_per_row_reference(blob, chunk_rows):
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        assert parse_view(parse_etherscan_csv(blob)) == reference_parse_csv(blob)


@settings(max_examples=100, deadline=None)
@given(entries=st.lists(json_entries(), max_size=6), chunk_rows=st.integers(1, 3))
def test_json_in_small_chunks_matches_per_row_reference(entries, chunk_rows):
    blob = envelope(entries)
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        assert parse_view(parse_etherscan_json(blob)) == reference_parse_json(blob)


# ------------------------------------------------- the envelope, as json.loads
def json_outcome(blob: bytes):
    try:
        return "rows", parse_view(parse_etherscan_json(blob))
    except PipelineError as exc:
        return type(exc).__name__, str(exc)


ENTRY = json.dumps(JSON_TX).encode()
DEEP = b"[" * 100_000 + b"]" * 100_000


@pytest.mark.parametrize("blob", [
    b"", b"  ", b"7", b'"text"', b"null", b"[]", b'[{"result": []}]', b"{}",
    b'{"status": "1"}',
    b'{"status": "1", "result": [1,]}',
    b'{"status": "1", "result": [],}',
    b'{"status": "1", "result": [] ,  }',
    b'{"result": []} x',
    b'{"result": []}{}',
    b'{"result": [] ',
    b'{"result": [',
    b'{"result": [' + ENTRY,
    b'{"result" []}',
    b'{result: []}',
    b"{'result': []}",
    b'{"result": [' + ENTRY + b" " + ENTRY + b"]}",
    b'{"result": [' + ENTRY + b",," + ENTRY + b"]}",
    b'{"result": [], "status": "1"',
    b'{"result": ["\x01"]}',
    b'{"result": ["unterminated]}',
    b'{"status": "1", "result": [' + b"1" * 5000 + b"]}",
    b'{"result": [1e400, NaN, -Infinity, 1.5, true, null, {}]}',
    b' \n{ "result" : [ \t' + ENTRY + b' \r\n] , "status":"1"\n} \r\n',
    b'{"result": "Max rate limit reached", "status": "0", "message": "NOTOK"}',
    b'{"result": "", "status": "0", "message": "NOTOK"}',
    b'{"message": "m", "result": null}',
    b'{"result": {"a": 1}, "status": "1"}',
    b'{"result": [' + ENTRY + b'], "result": "late", "status": "0"}',
    b'{"result": "early", "result": [' + ENTRY + b'], "status": "0"}',
    b'{"result": [' + ENTRY + b'], "result": [{"hash": "0x12"}, 5]}',
    b'{"Result": [], "status": "1"}',
    b'{"status": "1", "result": [' + DEEP + b"]}",
    b'{"status": "1", "result": [], "extra": ' + DEEP + b"}",
    b'{"status": ' + DEEP + b', "result": "x"}',
    codecs.BOM_UTF8 + b'{"result": []}',
    codecs.BOM_UTF8 * 2 + b'{"result": []}',
    '{"result": ["é"]}'.encode("utf-16"),
    b'{"result": ["\xff"]}',
], ids=lambda blob: repr(blob[:40]))
def test_json_envelope_ends_as_json_loads_reads_it(blob):
    assert json_outcome(blob) == reference_json_outcome(blob)


@settings(max_examples=300, deadline=None)
@given(edits=EDITS, chunk_rows=st.integers(1, 3))
def test_json_edits_end_as_json_loads_reads_them(edits, chunk_rows):
    blob = mutated(envelope([JSON_TX, "x", JSON_TX, dict(JSON_TX, hash="0x1")]), edits)
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        assert json_outcome(blob) == reference_json_outcome(blob)


# --------------------------------------------- values cut at a window's end
# A path is read WINDOW_BYTES at a time after its first four bytes, and bytes
# are walked the same way. With windows of 1 to 7 bytes, every token and
# every multi-byte character of these documents is cut at a window end.
WINDOWS = st.integers(1, 7)
# the documents of test_json_envelope_ends_as_json_loads_reads_it
ENVELOPES = test_json_envelope_ends_as_json_loads_reads_it.pytestmark[0].args[1]


@pytest.mark.parametrize("blob", ENVELOPES, ids=lambda blob: repr(blob[:40]))
def test_json_envelope_in_small_windows_ends_as_json_loads_reads_it(blob):
    expected = reference_json_outcome(blob)
    for window in range(1, 8):
        with mock.patch.object(ingest, "WINDOW_BYTES", window):
            assert json_outcome(blob) == expected, window


@settings(max_examples=150, deadline=None)
@given(edits=EDITS, window=WINDOWS)
def test_json_edits_in_small_windows_end_as_json_loads_reads_them(edits, window):
    blob = mutated(envelope([JSON_TX, "x", JSON_TX, dict(JSON_TX, hash="0x1")]), edits)
    with mock.patch.object(ingest, "WINDOW_BYTES", window):
        assert json_outcome(blob) == reference_json_outcome(blob)


@settings(max_examples=50, deadline=None)
@given(entries=st.lists(json_entries(), max_size=6), window=WINDOWS)
def test_json_encodings_in_small_windows_match_per_row_reference(entries, window):
    text = json.dumps({"status": "1", "message": "OK", "result": entries}, ensure_ascii=False)
    with mock.patch.object(ingest, "WINDOW_BYTES", window):
        for bom, codec in JSON_ENCODINGS:
            blob = bom + text.encode(codec, "surrogatepass")
            assert parse_view(parse_etherscan_json(blob)) == reference_parse_json(blob)


# numbers that scan short when cut ("1e+" of "1e+5" reads as 1), literals,
# escapes, and characters of two to four UTF-8 bytes and of a UTF-16
# surrogate pair, in an entry's fields and in the envelope
CUT_TEXT = ('{"status": "1", "message": "\\u00e9 \u00e9\u20ac\U0001f600 \\ud83d\\ude00", '
            '"result": [{"gas": 12345, "value": 1.5e+7, "gasUsed": -0.25E-3, '
            '"hash": "\u00e9\u20ac\U0001f600", "from": true, "to": false, "gasPrice": null, '
            '"nonce": [NaN, -Infinity, Infinity, 0, 10, 1E5]}, ' + json.dumps(JSON_TX) + ']}')


@pytest.mark.parametrize("bom, codec", JSON_ENCODINGS + [(codecs.BOM_UTF8 * 2, "utf-8")],
                         ids=lambda x: repr(x))
def test_json_values_cut_at_window_ends_read_as_whole(bom, codec):
    """Each value, character and byte-order mark reads the same when a
    window ends inside it; a second UTF-8 mark is text, and an error."""
    blob = bom + CUT_TEXT.encode(codec)
    expected = reference_json_outcome(blob)
    assert expected[0] == ("rows" if bom != codecs.BOM_UTF8 * 2 else "MalformedDocument")
    for window in range(1, 8):
        with mock.patch.object(ingest, "WINDOW_BYTES", window):
            assert json_outcome(blob) == expected, window


def test_json_chunk_boundaries_in_windows_match_per_row_reference():
    entries, (bad_entry_at, _) = boundary_entries()
    entries[bad_entry_at - 1] = "not an entry"
    blob = envelope(entries)
    expected = reference_parse_json(blob)
    with mock.patch.object(ingest, "WINDOW_BYTES", 997):
        result = parse_etherscan_json(blob)
    check_boundary_parse(result, expected, len(FAULTS) + 1)


def test_json_value_longer_than_the_window_is_read_in_growing_pieces(tmp_path):
    """A 2 MB message read with 1 KiB windows takes about a dozen reads: each
    read while the value stays cut is twice the one before. Reads of one
    window each would take about 2,000, and scan the message again each
    time."""
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"status": "1", "message": "x" * 2_000_000,
                                "result": [JSON_TX]}))
    reads = []

    class CountingTail(ingest._Tail):
        def __init__(self, read):
            super().__init__(lambda size: reads.append(size) or read(size))

    with mock.patch.object(ingest, "WINDOW_BYTES", 1024), \
            mock.patch.object(ingest, "_Tail", CountingTail):
        result = parse_etherscan_json(path)
    assert len(result.transactions) == 1
    assert len(reads) < 40 and max(reads) >= 2**20


class TestClean:
    def test_duplicate_dropped_first_kept(self):
        first = make_tx(1, addr(1), addr(2), value=5)
        second = make_tx(1, addr(3), addr(4), value=9)
        kept, report = clean(tx_columns([first, second]))
        assert tx_rows(kept) == [first]
        assert report.dup_dropped == 1 and report.kept == 1

    def test_empty_input(self):
        kept, report = clean(tx_columns([]))
        assert len(kept) == 0
        assert (report.kept, report.dup_dropped, report.invalid_dropped) == (0, 0, 0)

    def test_mixed_fixture_counts(self):
        # 5 valid + 2 duplicates + 1 too wide for TX_RECORD, counted by inspection
        valid = [make_tx(i, addr(1), addr(2)) for i in range(5)]
        dups = [make_tx(0, addr(1), addr(2)), make_tx(3, addr(1), addr(2))]
        invalid = [make_tx(9, addr(1), addr(2), gas_price=2**64)]
        kept, report = clean(tx_columns(valid + dups + invalid))
        assert report.kept == 5
        assert report.dup_dropped == 2
        assert report.invalid_dropped == 1
        assert tx_rows(kept) == valid

    def test_no_duplicate_hashes_after_clean(self):
        rng = random.Random(3)
        txs = [make_tx(rng.randrange(20), addr(1), addr(2)) for _ in range(100)]
        kept, _ = clean(tx_columns(txs))
        hashes = [t.tx_hash for t in tx_rows(kept)]
        assert len(hashes) == len(set(hashes))


class TestPhishingList:
    def test_verified_must_be_subset(self):
        with pytest.raises(InvalidConfig):
            PhishingList(
                addresses=frozenset({addr(1)}), verified=frozenset({addr(2)})
            )

    def test_from_files_unions_verified(self, tmp_path):
        listed = tmp_path / "list.txt"
        listed.write_text(f"{addr(1)}\n# comment\n\n{addr(2)}\n")
        verified = tmp_path / "verified.txt"
        verified.write_text(f"{addr(3)}\n")
        plist = PhishingList.from_files(listed, verified)
        assert plist.addresses == {addr(1), addr(2), addr(3)}
        assert plist.verified == {addr(3)}

    def test_first_bad_line_is_named(self, tmp_path):
        listed = tmp_path / "list.txt"
        listed.write_text(f"{addr(1)}\n  0x12 \n# 0xnothex\n{addr(2).upper()}\n0xnothex\n")
        with pytest.raises(InvalidAddress) as info:
            PhishingList.from_files(listed)
        assert str(info.value) == f"{listed}: invalid address: '0x12'"

    def test_lines_are_canonicalized(self, tmp_path):
        listed = tmp_path / "list.txt"
        listed.write_text(f" {addr(1)[2:].upper()}\n0X{addr(2)[2:]}\n{addr(1)}\n")
        assert PhishingList.from_files(listed).addresses == {addr(1), addr(2)}

    @pytest.mark.parametrize("which", ["listed", "verified"])
    def test_non_utf8_file_is_malformed_naming_it(self, which, tmp_path):
        files = {name: tmp_path / f"{name}.txt" for name in ("listed", "verified")}
        for path in files.values():
            path.write_text(f"{addr(1)}\n")
        files[which].write_bytes(f"{addr(2)}\n".encode() + b"0x\xff\n")
        with pytest.raises(MalformedDocument, match=f"{which}.txt"):
            PhishingList.from_files(files["listed"], files["verified"])


class TestLabelDataset:
    def plist(self, *listed, verified=()):
        return PhishingList(
            addresses=frozenset(listed) | frozenset(verified),
            verified=frozenset(verified),
        )

    def test_listed_sender_flags_transaction(self):
        tx = make_tx(1, addr(1), addr(2))
        ds = label_dataset(tx_columns([tx]), self.plist(addr(1)))
        assert labels(ds)[addr(1)] is Label.PHISHING
        assert labels(ds)[addr(2)] is Label.BENIGN
        assert provenance(ds)[addr(2)] is LabelProvenance.ONE_HOP_PHISHING

    def test_unlisted_pair_is_benign(self):
        tx = make_tx(1, addr(1), addr(2))
        ds = label_dataset(tx_columns([tx]), self.plist(addr(9)))
        assert labels(ds)[addr(1)] is labels(ds)[addr(2)] is Label.BENIGN
        assert provenance(ds)[addr(1)] is LabelProvenance.ASSUMED_BENIGN

    def test_require_verified_gates_unverified_listing(self):
        tx = make_tx(1, addr(1), addr(2))
        ds = label_dataset(tx_columns([tx]), self.plist(addr(1)), require_verified=True)
        assert labels(ds)[addr(1)] is Label.BENIGN
        assert provenance(ds)[addr(1)] is LabelProvenance.LISTED_PHISHING

    def test_verified_survives_gate(self):
        tx = make_tx(1, addr(1), addr(2))
        ds = label_dataset(tx_columns([tx]), self.plist(verified=[addr(1)]), require_verified=True)
        assert labels(ds)[addr(1)] is Label.PHISHING
        assert provenance(ds)[addr(1)] is LabelProvenance.VERIFIED_PHISHING

    def test_empty_list_warns_and_labels_benign(self, caplog):
        tx = make_tx(1, addr(1), addr(2))
        with caplog.at_level("WARNING"):
            ds = label_dataset(tx_columns([tx]), PhishingList(frozenset()))
        assert "empty" in caplog.text
        assert all(lbl is Label.BENIGN for lbl in labels(ds).values())

    def test_order_independent(self):
        rng = random.Random(5)
        txs = [make_tx(i, addr(rng.randrange(8)), addr(rng.randrange(8))) for i in range(30)]
        plist = self.plist(addr(2), addr(5))
        base = label_dataset(tx_columns(txs), plist)
        shuffled = txs[:]
        rng.shuffle(shuffled)
        permuted = label_dataset(tx_columns(shuffled), plist)
        assert labels(base) == labels(permuted)
        assert provenance(base) == provenance(permuted)
        assert sorted(t.tx_hash for t in transactions(base)) == sorted(
            t.tx_hash for t in transactions(permuted)
        )

    def test_flag_is_disjunction_of_endpoint_labels(self):
        rng = random.Random(6)
        txs = [make_tx(i, addr(rng.randrange(10)), addr(rng.randrange(10))) for i in range(50)]
        listed = {addr(1), addr(4)}
        ds = label_dataset(tx_columns(txs), self.plist(*listed))
        assert transactions(ds) == tuple(txs)
        by_address = labels(ds)
        for tx in txs:
            ends = {tx.sender, tx.receiver}
            flag = any(by_address[a] is Label.PHISHING for a in ends)
            assert flag == bool(ends & listed)

    @pytest.mark.parametrize("require_verified", [False, True])
    def test_matches_per_address_rules(self, require_verified):
        """Labels and provenance equal the rules applied address by address."""
        rng = random.Random(7)
        txs = [make_tx(i, addr(rng.randrange(12)), addr(rng.randrange(12))) for i in range(40)]
        listed, verified = {addr(1), addr(3), addr(5), addr(8)}, {addr(3), addr(8)}
        ds = label_dataset(tx_columns(txs), self.plist(*listed, verified=verified),
                           require_verified)
        phishing = verified if require_verified else listed
        contacts = {a for tx in txs if {tx.sender, tx.receiver} & phishing
                    for a in (tx.sender, tx.receiver)}
        want_labels, want_provenance = {}, {}
        for a in {a for tx in txs for a in (tx.sender, tx.receiver)}:
            want_labels[a] = Label.PHISHING if a in phishing else Label.BENIGN
            if a in verified:
                want_provenance[a] = LabelProvenance.VERIFIED_PHISHING
            elif a in listed:
                want_provenance[a] = LabelProvenance.LISTED_PHISHING
            elif a in contacts:
                want_provenance[a] = LabelProvenance.ONE_HOP_PHISHING
            else:
                want_provenance[a] = LabelProvenance.ASSUMED_BENIGN
        assert labels(ds) == want_labels
        assert provenance(ds) == want_provenance
