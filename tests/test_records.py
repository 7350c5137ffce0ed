import random
import re
import tracemalloc
import warnings
from datetime import date, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkhunt import records as records_module
from darkhunt.records import (
    CSV_HEADER,
    TRAFFIC_DTYPE,
    CsvFormatError,
    day_of_ts,
    day_start_us,
    ip_from_str,
    ip_to_str,
    partition_by_day_port,
    read_csv,
    read_days,
    segment_by_window,
    traffic_table,
    write_csv_tables,
)
from conftest import make_record

US_PER_DAY = 86_400_000_000


# ---------------------------------------------------------------- records

def csv_row(rec):
    ts, src, sport, dst, dport, proto, size = rec
    return f"{ts},{ip_to_str(src)},{sport},{ip_to_str(dst)},{dport},{proto},{size}"


def test_record_field_validation(tmp_path):
    # The row grammar bounds addresses and signs; the reader range-checks
    # the other fields line by line, up to the table's column types.
    top = (2**63 - 1, 2**32 - 1, 65535, 2**32 - 1, 65535, 255, 65507)
    p = tmp_path / "top.csv"
    p.write_text(CSV_HEADER + "\n" + csv_row(top) + "\n")
    assert read_csv(p).tolist() == [top] == traffic_table([top]).tolist()
    for name, value in (
        ("ts_us", 2**63),
        ("src_port", 70000),
        ("dst_port", 65536),
        ("proto", 300),
        ("payload_len", 65508),
    ):
        row = list(top)
        row[TRAFFIC_DTYPE.names.index(name)] = value
        p.write_text(CSV_HEADER + "\n" + csv_row(top) + "\n" + csv_row(row) + "\n")
        with pytest.raises(CsvFormatError, match=f"line 3: {name} out of range") as exc_info:
            read_csv(p)
        assert exc_info.value.line == 3


@pytest.mark.parametrize(
    "name, value",
    [
        ("ts_us", -5),
        ("ts_us", 2**63),
        ("src_ip", 2**32),
        ("src_port", 70000),
        ("dst_ip", -1),
        ("dst_port", 65536),
        ("proto", 256),
        ("payload_len", 65508),
    ],
)
def test_traffic_table_range_checks_each_field(name, value):
    row = list(make_record())
    row[TRAFFIC_DTYPE.names.index(name)] = value
    with pytest.raises(ValueError, match=f"^{name} out of range 0-[0-9]+: {value}$"):
        traffic_table([make_record(), tuple(row)])


def test_traffic_table_range_checks_arrays():
    # Values the column types can hold but the format forbids.
    for name, value in (("ts_us", -5), ("payload_len", 65508)):
        rows = np.array([make_record()], dtype=TRAFFIC_DTYPE)
        rows[name] = value
        with pytest.raises(ValueError, match=f"^{name} out of range"):
            traffic_table(rows)


def test_tables_are_read_only(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + csv_row(make_record()) + "\n")
    day_tables = [table for _, table in read_days(p)]
    assert len(day_tables) == 1
    for table in (read_csv(p), traffic_table([make_record()]), *day_tables):
        assert isinstance(table, np.recarray) and table.dtype == TRAFFIC_DTYPE
        with pytest.raises(ValueError):
            table.ts_us[0] = 1


def test_ip_round_trip():
    for s in ("0.0.0.0", "255.255.255.255", "10.1.2.3", "192.0.2.77"):
        assert ip_to_str(ip_from_str(s)) == s


@pytest.mark.parametrize("bad", ["::1", "1.2.3", "1.2.3.4.5", "1.2.3.256", "a.b.c.d", "1.2.3.-4", ""])
def test_ip_rejects_non_ipv4(bad):
    with pytest.raises(ValueError):
        ip_from_str(bad)


def test_day_boundary_is_half_open():
    midnight = day_start_us(date(2022, 9, 18))
    assert day_of_ts(midnight) == date(2022, 9, 18)
    assert day_of_ts(midnight - 1) == date(2022, 9, 17)


# ---------------------------------------------------------------- CSV I/O

def test_read_csv_direct_mapping(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n1663372800000000,1.2.3.4,50000,10.0.0.1,51234,17,212\n")
    assert read_csv(p).tolist() == [
        (1663372800000000, ip_from_str("1.2.3.4"), 50000, ip_from_str("10.0.0.1"), 51234, 17, 212)
    ]


def test_read_csv_header_only(tmp_path):
    p = tmp_path / "t.csv"
    for data in (CSV_HEADER + "\n", CSV_HEADER, CSV_HEADER + "\n\n\n"):
        p.write_text(data)
        assert len(read_csv(p)) == 0


def test_read_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,src,dst\n")
    with pytest.raises(CsvFormatError):
        read_csv(p)


def test_read_csv_names_line_and_field_on_range_violation(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        CSV_HEADER + "\n"
        "1000,1.2.3.4,50000,10.0.0.1,51234,17,212\n"
        "2000,1.2.3.4,70000,10.0.0.1,51234,17,212\n"
    )
    with pytest.raises(CsvFormatError) as exc_info:
        read_csv(p)
    msg = str(exc_info.value)
    assert "line 3" in msg and "src_port" in msg
    assert exc_info.value.line == 3


def test_write_read_round_trip(tmp_path):
    records = [
        make_record(ts_us=i * 1000, src=f"1.2.{i % 200}.{i % 250}", payload_len=i % 300)
        for i in range(500)
    ]
    p = tmp_path / "rt.csv"
    write_csv_tables([traffic_table(records)], p)
    assert read_csv(p).tolist() == records


@settings(max_examples=200)
@given(
    ts_us=st.integers(min_value=0, max_value=2**62),
    src_ip=st.integers(min_value=0, max_value=2**32 - 1),
    src_port=st.integers(min_value=0, max_value=65535),
    dst_ip=st.integers(min_value=0, max_value=2**32 - 1),
    dst_port=st.integers(min_value=0, max_value=65535),
    proto=st.integers(min_value=0, max_value=255),
    payload_len=st.integers(min_value=0, max_value=65507),
)
def test_round_trip_any_valid_record(tmp_path_factory, **fields):
    rec = tuple(fields[name] for name in TRAFFIC_DTYPE.names)
    p = tmp_path_factory.mktemp("rt") / "one.csv"
    write_csv_tables([traffic_table([rec])], p)
    assert read_csv(p).tolist() == [rec]


# ------------------------------------------------------------ CSV grammar

GOOD_ROW = "1663372800000000,198.51.7.9,50000,10.0.0.1,51812,17,212"
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def with_field(name, raw):
    parts = GOOD_ROW.split(",")
    parts[CSV_HEADER.split(",").index(name)] = raw
    return ",".join(parts)


# Rows that break the grammar in one field; int() and str.isdigit() accept
# most of these values.
BAD_ROWS = [
    (with_field("ts_us", "1_663_372_800_000_000"), "ts_us"),
    (with_field("dst_port", "+51812"), "dst_port"),
    (with_field("src_ip", "198.051.7.9"), "src_ip"),
    (with_field("dst_port", "051812"), "dst_port"),
    (with_field("dst_port", " 51812"), "dst_port"),
    (with_field("payload_len", "212 "), "payload_len"),
    (" " + GOOD_ROW, "ts_us"),
    (GOOD_ROW + "\r", "payload_len"),
    (with_field("src_ip", "١٩٨.51.7.9"), "src_ip"),
    (with_field("ts_us", "1663372800000000".translate(ARABIC_INDIC)), "ts_us"),
    (with_field("proto", "-0"), "proto"),
    (with_field("dst_ip", "10.0.0.1\t"), "dst_ip"),
]


@pytest.mark.parametrize("row, field", BAD_ROWS)
def test_grammar_rejects_row(tmp_path, row, field):
    p = tmp_path / "t.csv"
    p.write_bytes(
        (CSV_HEADER + "\n" + GOOD_ROW + "\n" + row + "\n" + GOOD_ROW + "\n").encode()
    )
    with pytest.raises(CsvFormatError) as exc_info:
        read_csv(p)
    assert exc_info.value.line == 3
    assert exc_info.value.field == field


@pytest.mark.parametrize("row, field", BAD_ROWS)
def test_rejecting_a_row_leaks_no_warning(tmp_path, row, field):
    # numpy < 2 warns where numpy 2 raises on text it cannot parse.
    p = tmp_path / "t.csv"
    p.write_bytes((CSV_HEADER + "\n" + GOOD_ROW + "\n" + row + "\n").encode())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(CsvFormatError):
            read_csv(p)
    assert caught == []


def test_grammar_rejects_crlf_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes((CSV_HEADER + "\r\n" + GOOD_ROW + "\n").encode())
    with pytest.raises(CsvFormatError) as exc_info:
        read_csv(p)
    assert exc_info.value.line == 1 and exc_info.value.field is None


def test_grammar_field_count_and_range_errors_name_the_line(tmp_path):
    p = tmp_path / "t.csv"
    for bad, message in (
        (GOOD_ROW + ",7", "expected 7 fields, got 8"),
        (with_field("proto", "256"), "proto out of range"),
    ):
        p.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n" + bad + "\n")
        with pytest.raises(CsvFormatError, match=f"^line 3: {message}") as exc_info:
            read_csv(p)
        assert exc_info.value.field is None


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n\n" + GOOD_ROW + "\n\n\n" + GOOD_ROW)
    assert len(read_csv(p)) == 2


def test_undecodable_bytes_are_a_row_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes((CSV_HEADER + "\n").encode() + b"1663\xff,1.2.3.4,1,1.2.3.4,1,17,1\n")
    with pytest.raises(CsvFormatError) as exc_info:
        read_csv(p)
    assert exc_info.value.line == 2 and exc_info.value.field == "ts_us"


records_st = st.tuples(
    st.integers(min_value=0, max_value=2**62),  # ts_us
    st.integers(min_value=0, max_value=2**32 - 1),  # src_ip
    st.integers(min_value=0, max_value=65535),  # src_port
    st.integers(min_value=0, max_value=2**32 - 1),  # dst_ip
    st.integers(min_value=0, max_value=65535),  # dst_port
    st.integers(min_value=0, max_value=255),  # proto
    st.integers(min_value=0, max_value=65507),  # payload_len
)


@settings(max_examples=100)
@given(st.lists(records_st, max_size=30))
def test_read_inverts_write(tmp_path_factory, records):
    p = tmp_path_factory.mktemp("rt") / "many.csv"
    write_csv_tables([traffic_table(records)], p)
    assert read_csv(p).tolist() == records


# ------------------------------------------------------------ CSV writer

def reference_csv(rows) -> bytes:
    """The canonical CSV of row tuples, rendered one f-string per row."""

    def dotted(ip):
        return ".".join(str(octet) for octet in ip.to_bytes(4, "big"))

    lines = [CSV_HEADER] + [
        f"{ts},{dotted(src)},{sport},{dotted(dst)},{dport},{proto},{size}"
        for ts, src, sport, dst, dport, proto, size in rows
    ]
    return "".join(line + "\n" for line in lines).encode()


def digit_edges(hi):
    """0, hi, and every 10**k - 1 and 10**k up to hi."""
    return sorted({0, hi, *(v for k in range(1, 20) for v in (10**k - 1, 10**k) if v <= hi)})


def ip_of(octets):
    return int.from_bytes(bytes(octets), "big")


OCTET_EDGES = digit_edges(255)
# Every octet edge in all four octets, and in each one with the rest at 255.
IP_EDGES = [ip_of([e] * 4) for e in OCTET_EDGES] + [
    ip_of([e if i == pos else 255 for i in range(4)]) for e in OCTET_EDGES for pos in range(4)
]
TOP = (2**63 - 1, 2**32 - 1, 65535, 2**32 - 1, 65535, 255, 65507)
FIELD_EDGES = [
    IP_EDGES if name.endswith("_ip") else digit_edges(hi) for name, hi in zip(TRAFFIC_DTYPE.names, TOP)
]
# The all-zero and all-maximum rows, then each field at each of its edges
# with the other fields at their maxima.
EDGE_ROWS = [tuple(0 for _ in TOP), TOP] + [
    TOP[:col] + (v,) + TOP[col + 1 :] for col, edges in enumerate(FIELD_EDGES) for v in edges
]


@settings(max_examples=100)
@given(
    st.lists(
        st.tuples(*(st.sampled_from(e) | st.integers(0, hi) for e, hi in zip(FIELD_EDGES, TOP))),
        max_size=40,
    )
)
def test_write_csv_matches_row_reference(tmp_path_factory, rows):
    p = tmp_path_factory.getbasetemp() / "write_csv_reference.csv"
    write_csv_tables([traffic_table(rows)], p)
    assert p.read_bytes() == reference_csv(rows)


@pytest.mark.parametrize("n", [0, 1, 65536, 65537])
def test_write_csv_across_chunk_boundaries(tmp_path, n):
    # Every edge row recurs in each chunk, and the larger sizes span many.
    rows = [EDGE_ROWS[i % len(EDGE_ROWS)] for i in range(n)]
    p = tmp_path / "t.csv"
    write_csv_tables([traffic_table(rows)], p)
    assert p.read_bytes() == reference_csv(rows)


CHUNK = records_module._CHUNK_ROWS


@pytest.mark.parametrize("n", sorted({c + d for c in (1, 7, CHUNK) for d in (-1, 0, 1)}))
@pytest.mark.parametrize("chunk", [1, 7, CHUNK])
def test_write_csv_bytes_do_not_depend_on_chunking(tmp_path, monkeypatch, chunk, n):
    # Two tables, so the second reuses the byte matrix the first left dirty.
    rows = [EDGE_ROWS[i % len(EDGE_ROWS)] for i in range(n)]
    monkeypatch.setattr(records_module, "_CHUNK_ROWS", chunk)
    p = tmp_path / "t.csv"
    assert write_csv_tables([traffic_table(rows), traffic_table(EDGE_ROWS[:3])], p) == n + 3
    assert p.read_bytes() == reference_csv(rows + EDGE_ROWS[:3])


def test_write_csv_memory_is_flat_in_rows(tmp_path):
    edges = traffic_table(EDGE_ROWS)
    write_csv_tables([edges], tmp_path / "warm.csv")  # the digit tables are built on first use

    def peak(n):
        table = np.take(edges, np.arange(n) % len(edges))
        tracemalloc.start()
        try:
            write_csv_tables([table], tmp_path / f"{n}.csv")
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(200_000)
    assert large <= 1.25 * small, (small, large)


def digit_tables_reference():
    """_digit_tables as it was first built: whole (65536, 5) int64 digit matrices."""
    scale = 10 ** np.arange(4, -1, -1)
    v = np.arange(65536)[:, None]
    filled = (v // scale % 10 + ord("0")).astype(np.uint8)
    short = np.where((v < scale) & (scale > 1), np.uint8(0), filled)
    octet = short[:256, 2:]
    dot = np.full((65536, 1), ord("."), dtype=np.uint8)
    comma = np.full((65536, 1), ord(","), dtype=np.uint8)
    half = np.hstack([octet[v[:, 0] >> 8], dot, octet[v[:, 0] & 255], dot]).view(np.uint64)
    num = np.hstack([np.zeros((65536, 2), dtype=np.uint8), short, comma]).view(np.uint64)
    ts = np.vstack([filled[:10000, 1:], short[:10000, 1:], np.zeros((10000, 4), dtype=np.uint8)])
    return half.ravel(), num.ravel(), ts.view(np.uint32).ravel()


def test_digit_tables_match_the_reference_byte_for_byte():
    tables = records_module._digit_tables()
    for table, expected in zip(tables, digit_tables_reference(), strict=True):
        assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
        assert table.tobytes() == expected.tobytes()
        assert not table.flags.writeable


# ------------------------------------------------------- reader blocks

# The per-line regex grammar read_csv used before it parsed whole blocks,
# kept as the reference the block reader must agree with.
_REF_UINT = "(0|[1-9][0-9]*)"
_REF_OCTET = "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
_REF_IPV4 = r"\.".join([_REF_OCTET] * 4)
_REF_UINT_RE = re.compile(_REF_UINT)
_REF_IPV4_RE = re.compile(_REF_IPV4)
_REF_ROW_RE = re.compile(
    ",".join([_REF_UINT, _REF_IPV4, _REF_UINT, _REF_IPV4, _REF_UINT, _REF_UINT, _REF_UINT]) + "\n?"
)
# Parsed-row column (of 13, octets included) -> field name and maximum.
_REF_LIMITS = {
    0: ("ts_us", 2**63 - 1),
    5: ("src_port", 65535),
    10: ("dst_port", 65535),
    11: ("proto", 255),
    12: ("payload_len", 65507),
}


def _ref_row_error(line, line_no):
    parts = line.removesuffix("\n").split(",")
    if len(parts) != 7:
        return CsvFormatError(f"expected 7 fields, got {len(parts)}", line=line_no)
    for name, raw in zip(TRAFFIC_DTYPE.names, parts):
        if name.endswith("_ip"):
            if _REF_IPV4_RE.fullmatch(raw) is None:
                message = f"not a dotted-quad IPv4 address: {raw!r}"
                return CsvFormatError(message, line=line_no, field=name)
        elif _REF_UINT_RE.fullmatch(raw) is None:
            message = f"not an unsigned decimal integer: {raw!r}"
            return CsvFormatError(message, line=line_no, field=name)
    raise AssertionError(f"line {line_no} matches every field pattern but not the row")


def _ref_range_error(line, line_no):
    values = line.removesuffix("\n").replace(".", ",").split(",")
    for col, (name, hi) in _REF_LIMITS.items():
        if int(values[col]) > hi:
            return CsvFormatError(f"{name} out of range 0-{hi}: {values[col]}", line=line_no)
    return None


def reference_read_csv(path):
    """Row tuples of a traffic CSV, one regex match per line; raises like read_csv."""
    rows = []
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as fh:
        header = fh.readline().removesuffix("\n")
        if header != CSV_HEADER:
            raise CsvFormatError(f"bad header: expected {CSV_HEADER!r}, got {header!r}", line=1)
        for line_no, line in enumerate(fh, start=2):
            if line == "\n":
                continue
            if _REF_ROW_RE.fullmatch(line) is None:
                raise _ref_row_error(line, line_no)
            error = _ref_range_error(line, line_no)
            if error is not None:
                raise error
            v = [int(x) for x in line.replace(".", ",").split(",")]
            rows.append((v[0], ip_of(v[1:5]), v[5], ip_of(v[6:10]), *v[10:]))
    return rows


# The block parser read_csv used before it decoded values from the bytes:
# one np.fromstring per block, then a range check and a render back with
# the writer.  Kept as the reference the decoder must agree with.
_REF_COLUMN_MAXIMA = np.array([2**63 - 1, *[255] * 4, 65535, *[255] * 4, 65535, 255, 65507], dtype=np.uint64)
_REF_OCTETS = np.array([1 << 24, 1 << 16, 1 << 8, 1], dtype=np.int64)


def reference_parse_block(block):
    """The rows of a block of LF-ended lines, or None if it does not render back to itself."""
    try:
        with warnings.catch_warnings():
            # numpy < 2 warns and returns what it parsed before unmatched data.
            warnings.simplefilter("error", DeprecationWarning)
            v = np.fromstring(block.translate(bytes.maketrans(b".\n", b",,")), dtype=np.int64, sep=",")
    except (ValueError, DeprecationWarning):
        return None
    if v.size % 13:
        return None
    v = v.reshape(-1, 13)
    if (v.view(np.uint64) > _REF_COLUMN_MAXIMA).any():
        return None
    columns = [v[:, 0], v[:, 1:5] @ _REF_OCTETS, v[:, 5], v[:, 6:10] @ _REF_OCTETS, *v[:, 10:].T]
    rows = np.rec.fromarrays(columns, dtype=TRAFFIC_DTYPE)
    return rows if records_module._render(rows) == block else None


def outcome(reader, path):
    """A reader's rows, or the line, field and text of the error it raised."""
    try:
        return reader(path)
    except CsvFormatError as exc:
        return ("error", exc.line, exc.field, str(exc))


# One edit's byte: digits, separators, CR, the sign, space and underscore
# forms int() or np.fromstring accept, an undecodable byte and a two-byte
# Arabic-Indic digit.
EDIT_BYTES = [bytes([c]) for c in b"0123456789,.\n\r +-_\xff"] + ["٣".encode()]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.sampled_from(EDGE_ROWS) | records_st, max_size=8),
    edit=st.sampled_from(["replace", "insert", "delete"]),
    at=st.integers(min_value=0, max_value=10_000),
    new=st.sampled_from(EDIT_BYTES),
    block_bytes=st.integers(min_value=1, max_value=200),
)
def test_block_reader_matches_line_reference_after_one_byte_edit(
    tmp_path_factory, rows, edit, at, new, block_bytes
):
    # Blocks as small as one byte put the edit on or next to a block edge.
    data = reference_csv(rows)
    if edit == "insert":
        at %= len(data) + 1
        data = data[:at] + new + data[at:]
    else:
        at %= len(data)
        data = data[:at] + (new if edit == "replace" else b"") + data[at + 1 :]
    p = tmp_path_factory.getbasetemp() / "edited.csv"
    p.write_bytes(data)
    expected = outcome(reference_read_csv, p)
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        assert outcome(lambda q: read_csv(q).tolist(), p) == expected


GOOD_TUPLE = (1663372800000000, ip_of([198, 51, 7, 9]), 50000, ip_of([10, 0, 0, 1]), 51812, 17, 212)
ROW_BYTES = len(GOOD_ROW) + 1


def read_with_blocks(monkeypatch, path, block_bytes):
    monkeypatch.setattr(records_module, "_BLOCK_BYTES", block_bytes)
    return read_csv(path).tolist()


@pytest.mark.parametrize(
    "block_bytes", [1, 20, ROW_BYTES - 1, ROW_BYTES, ROW_BYTES + 1, 3 * ROW_BYTES + 7]
)
def test_rows_straddle_blocks(tmp_path, monkeypatch, block_bytes):
    rows = EDGE_ROWS[:25]
    p = tmp_path / "t.csv"
    write_csv_tables([traffic_table(rows)], p)
    assert read_with_blocks(monkeypatch, p, block_bytes) == rows


@pytest.mark.parametrize("block_bytes", [1, ROW_BYTES, 2 * ROW_BYTES - 1, 1 << 22])
def test_last_row_without_lf(tmp_path, monkeypatch, block_bytes):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n" + GOOD_ROW)
    assert read_with_blocks(monkeypatch, p, block_bytes) == [GOOD_TUPLE] * 2
    p.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n" + with_field("proto", "256"))
    with pytest.raises(CsvFormatError, match="^line 3: proto out of range"):
        read_with_blocks(monkeypatch, p, block_bytes)


MIN_ROW = "0,0.0.0.0,0,0.0.0.0,0,0,0"  # the shortest canonical row


@pytest.mark.parametrize("lf", ["\n", ""])
def test_minimum_length_rows(tmp_path, lf):
    # The reader sizes its table for rows this short.
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join([MIN_ROW] * 1000) + lf)
    table = read_csv(p)
    assert table.shape == (1000,) and not table.flags.writeable
    assert table.tolist() == [(0,) * 7] * 1000


@pytest.mark.parametrize("past", [-1, 0, 1, 13])
def test_last_row_without_lf_at_the_default_block_size(tmp_path, past):
    # Rows of 26 and 27 bytes whose last one, without LF, ends `past`
    # bytes after the first default-size block.
    size = records_module._BLOCK_BYTES + past + 1  # counting the missing LF
    longer = size % 26
    ts = [10] * longer + [0] * ((size - 27 * longer) // 26)
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join(f"{t}{MIN_ROW[1:]}" for t in ts))
    assert p.stat().st_size == len(CSV_HEADER) + size
    table = read_csv(p)
    assert table.shape == (len(ts),) and not table.flags.writeable
    assert table["ts_us"].tolist() == ts


def test_a_file_that_grows_while_read_fails(tmp_path, monkeypatch):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n")
    line_blocks = records_module._line_blocks

    def growing(fh):
        blocks = line_blocks(fh)
        yield next(blocks)
        with open(p, "a") as out:
            out.write((GOOD_ROW + "\n") * 10)
        yield from blocks

    monkeypatch.setattr(records_module, "_line_blocks", growing)
    monkeypatch.setattr(records_module, "_BLOCK_BYTES", ROW_BYTES)
    with pytest.raises(CsvFormatError, match="the file grew while it was read"):
        read_csv(p)


@pytest.mark.parametrize("block_bytes", [1, 3, ROW_BYTES, ROW_BYTES + 2, 1 << 22])
def test_blank_lines_at_block_edges(tmp_path, monkeypatch, block_bytes):
    # With ROW_BYTES-sized reads, the six blank lines after the first row
    # make a block of their own.
    p = tmp_path / "t.csv"
    lines = [GOOD_ROW, "", "", "", "", "", "", GOOD_ROW, "", GOOD_ROW, ""]
    p.write_text(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
    assert read_with_blocks(monkeypatch, p, block_bytes) == [GOOD_TUPLE] * 3
    p.write_text(CSV_HEADER + "\n" + "\n".join(lines + ["junk", GOOD_ROW]) + "\n")
    with pytest.raises(CsvFormatError, match="^line 13: expected 7 fields, got 1$"):
        read_with_blocks(monkeypatch, p, block_bytes)


@pytest.mark.parametrize("block_bytes", [ROW_BYTES, 2 * ROW_BYTES, 3 * ROW_BYTES + 5])
@pytest.mark.parametrize(
    "bad, message",
    [
        ("junk", "line 12: expected 7 fields, got 1"),
        # Past int64, np.fromstring saturates at 2**63 - 1.
        (with_field("ts_us", "9" * 20), f"line 12: ts_us out of range 0-{2**63 - 1}: {'9' * 20}"),
        (with_field("src_port", "+1"), "line 12: src_port: not an unsigned decimal integer: '+1'"),
    ],
)
def test_first_bad_line_in_a_later_block(tmp_path, monkeypatch, block_bytes, bad, message):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join([GOOD_ROW] * 10 + [bad] + [GOOD_ROW] * 5) + "\n")
    with pytest.raises(CsvFormatError, match=re.escape(message)) as exc_info:
        read_with_blocks(monkeypatch, p, block_bytes)
    assert exc_info.value.line == 12


def test_strict_reports_the_first_bad_line_across_chunks(tmp_path, monkeypatch):
    # A range error wins over a grammar error on the next line, whether the
    # two share a block or the grammar error starts the next one.
    rows = [GOOD_ROW] * 4 + [with_field("proto", "256"), "junk"] + [GOOD_ROW] * 5
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    for block_bytes in (3 * ROW_BYTES, 5 * ROW_BYTES + 1, 1 << 22):
        with pytest.raises(CsvFormatError) as exc_info:
            read_with_blocks(monkeypatch, p, block_bytes)
        assert exc_info.value.line == 6


def edit_bytes(data, edit, at, new):
    """data with the byte at `at` (modulo its length) replaced, deleted, or preceded by `new`."""
    if edit == "insert":
        at %= len(data) + 1
        return data[:at] + new + data[at:]
    if not data:
        return data
    at %= len(data)
    return data[:at] + (new if edit == "replace" else b"") + data[at + 1 :]


@settings(max_examples=400, deadline=None)
@given(
    rows=st.lists(st.sampled_from(EDGE_ROWS) | records_st, max_size=8),
    edits=st.lists(
        st.tuples(
            st.sampled_from(["replace", "insert", "delete"]),
            st.integers(min_value=0, max_value=10_000),
            st.sampled_from(EDIT_BYTES),
        ),
        max_size=3,
    ),
)
def test_decoder_matches_render_back_reference(rows, edits):
    # The decoder accepts a block exactly when the old parser's render
    # back does, with the same table, whatever its reused work array held.
    block = reference_csv(rows)[len(CSV_HEADER) + 1 :]
    for edit in edits:
        block = edit_bytes(block, *edit)
    expected = reference_parse_block(block)
    decoded = records_module._parse_block(block, np.full(records_module._WORK_WORDS * 16, -1))
    if expected is None:
        assert decoded is None
    else:
        assert decoded is not None and decoded.dtype == TRAFFIC_DTYPE
        assert decoded.tolist() == expected.tolist()


def ts_of_digits(d):
    """The least and the greatest ts_us of d digits, capped at 2**63 - 1."""
    return [10 ** (d - 1) if d > 1 else 0, min(10**d - 1, 2**63 - 1)]


# (field, raw value, whether a row with it is canonical).
EDGE_FIELDS = [
    *(("ts_us", str(ts), True) for d in (1, 8, 9, 16, 17, 19) for ts in ts_of_digits(d)),
    ("ts_us", str(2**63 - 1), True),
    ("ts_us", str(2**63), False),
    ("ts_us", "9" * 19, False),
    ("ts_us", str(10**19), False),
    ("ts_us", "9" * 20, False),
    ("ts_us", "18446744073709551617", False),  # 2**64 + 1
    ("ts_us", str(2**53 + 1), True),
    ("ts_us", "0" + "1" * 18, False),
    ("src_port", "100000", False),
    ("dst_port", "123456789", False),
    ("dst_port", "100000001", False),  # its last 8 digits are 1
    ("dst_port", "000000001", False),
    *(("src_ip", f"1.2.3.{octet}", ok) for octet, ok in (("255", True), ("256", False), ("00", False), ("0", True))),
    *(("dst_ip", f"{octet}.2.3.4", ok) for octet, ok in (("255", True), ("256", False), ("00", False), ("0", True))),
    ("dst_ip", "1.2.3.1000", False),
    ("proto", "255", True),
    ("proto", "256", False),
    ("payload_len", "65507", True),
    ("payload_len", "65508", False),
]


@pytest.mark.parametrize("name, raw, ok", EDGE_FIELDS)
@pytest.mark.parametrize("block_bytes", [1, ROW_BYTES, None])
def test_field_edges_read_as_the_line_reference(tmp_path, monkeypatch, name, raw, ok, block_bytes):
    # None keeps the default block size.
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join([GOOD_ROW, with_field(name, raw), GOOD_ROW]) + "\n")
    if block_bytes is not None:
        monkeypatch.setattr(records_module, "_BLOCK_BYTES", block_bytes)
    got = outcome(lambda q: read_csv(q).tolist(), p)
    assert got == outcome(reference_read_csv, p)
    if ok:
        value = ip_from_str(raw) if name.endswith("_ip") else int(raw)
        assert got[1][TRAFFIC_DTYPE.names.index(name)] == value
    else:
        assert got[:2] == ("error", 3)


def test_readers_neither_render_nor_call_fromstring(tmp_path, monkeypatch):
    edges, days = tmp_path / "edges.csv", tmp_path / "days.csv"
    day_rows = [make_record(ts_us=(DAY0 + d) * US_PER_DAY + t) for d, times in THREE_DAYS for t in times]
    write_csv_tables([traffic_table(EDGE_ROWS)], edges)
    write_csv_tables([traffic_table(day_rows)], days)

    def forbidden(*args, **kwargs):
        raise AssertionError("the readers must decode the bytes directly")

    monkeypatch.setattr(records_module, "_render", forbidden)
    monkeypatch.setattr(np, "fromstring", forbidden)
    assert read_csv(edges).tolist() == EDGE_ROWS
    assert read_days_list(days) == split_by_day(traffic_table(day_rows))


# ---------------------------------------------------------------- partitioning

def test_partition_small_example():
    recs = [
        make_record(ts_us=10, dst_port=50000),
        make_record(ts_us=20, dst_port=50000, src="1.2.3.5"),
        make_record(ts_us=30, dst_port=5060),
    ]
    parts = partition_by_day_port(traffic_table(recs))
    assert {len(p.records) for p in parts.values()} == {2, 1}
    assert set(parts) == {(date(1970, 1, 1), 50000), (date(1970, 1, 1), 5060)}


def test_partition_midnight_goes_to_new_day():
    midnight = day_start_us(date(2022, 9, 18))
    parts = partition_by_day_port(traffic_table([make_record(ts_us=midnight, dst_port=50000)]))
    assert set(parts) == {(date(2022, 9, 18), 50000)}


def test_partition_filters_non_udp():
    recs = [make_record(proto=17), make_record(proto=6), make_record(proto=1)]
    parts = partition_by_day_port(traffic_table(recs))
    assert sum(len(p.records) for p in parts.values()) == 1


def test_partition_counting_oracle():
    # 10k records over 3 days and a handful of ports: partition sizes must
    # match an independent tally and sum to the input size.
    rng = random.Random(7)
    ports = [5060, 5353, 50000, 51111]
    recs = []
    tally = {}
    for _ in range(10_000):
        day_idx = rng.randrange(3)
        port = rng.choice(ports)
        ts = day_idx * US_PER_DAY + rng.randrange(US_PER_DAY)
        recs.append(make_record(ts_us=ts, dst_port=port, src=rng.randrange(2**32)))
        key = (date(1970, 1, 1) + timedelta(days=day_idx), port)
        tally[key] = tally.get(key, 0) + 1
    parts = partition_by_day_port(traffic_table(recs))
    assert sum(len(p.records) for p in parts.values()) == 10_000
    assert {k: len(p.records) for k, p in parts.items()} == tally


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3 * US_PER_DAY - 1),
            st.sampled_from([5060, 50000, 51111]),
            st.integers(min_value=0, max_value=2**32 - 1),
        ),
        max_size=60,
    )
)
def test_partition_complete_and_pure(items):
    recs = [make_record(ts_us=ts, dst_port=port, src=src) for ts, port, src in items]
    parts = partition_by_day_port(traffic_table(recs))
    assert sum(len(p.records) for p in parts.values()) == len(recs)
    for (day, port), part in parts.items():
        assert part.day == day and part.dst_port == port
        for r in part.records:
            assert day_of_ts(r.ts_us) == day and r.dst_port == port
        # Ordered by timestamp; equal timestamps keep input order.
        mine = [r for r in recs if (day_of_ts(r[0]), r[4]) == (day, port)]
        assert part.records.tolist() == sorted(mine, key=lambda r: r[0])


def test_segment_by_window_quarter_hour():
    recs = [
        make_record(ts_us=0, dst_port=50000),
        make_record(ts_us=15 * 60 * 1_000_000, dst_port=50000),
        make_record(ts_us=16 * 60 * 1_000_000, dst_port=50000),
    ]
    seg = segment_by_window(traffic_table(recs), timedelta(minutes=15))
    assert np.diff(seg.bounds).tolist() == [1, 2]
    assert seg.start_us.tolist() == [0, 15 * 60 * 1_000_000]


def test_segment_by_window_rejects_uneven():
    with pytest.raises(ValueError):
        segment_by_window(traffic_table([]), timedelta(minutes=7))


# ---------------------------------------------------------- day reader

def split_by_day(table):
    """A table's rows as (UTC day, rows) pairs, days in order of first appearance."""
    days = {}
    for row in table.tolist():
        days.setdefault(day_of_ts(row[0]), []).append(row)
    return list(days.items())


def read_days_list(path):
    out = []
    for day, table in read_days(path):
        assert not table.flags.writeable
        out.append((day, table.tolist()))
    return out


DAY0 = 19000  # a UTC day number, 2022-01-08


def day_lines(days, blank_after=()):
    """CSV text of the given rows per day, with a blank line after each listed line index."""
    rows = [make_record(ts_us=(DAY0 + d) * US_PER_DAY + t, payload_len=t % 1000)
            for d, times in days for t in times]
    lines = []
    for i, row in enumerate(rows):
        lines.append(csv_row(row))
        if i in blank_after:
            lines.append("")
    return CSV_HEADER + "\n" + "\n".join(lines) + "\n"


# Three days; the second is one row between blank lines, the third spans
# many blocks at small block sizes.  Times within a day are out of order.
THREE_DAYS = [(0, [7, 3, US_PER_DAY - 1]), (1, [0]), (3, [5, 2, 9, 1, 2, 8, 0])]


def test_read_days_at_every_block_size(tmp_path):
    # Every block size up to the whole file puts a block edge at every
    # line, so each day starts exactly at a block edge for some size.
    p = tmp_path / "t.csv"
    p.write_text(day_lines(THREE_DAYS, blank_after={2, 3, 6}))
    expected = split_by_day(read_csv(p))
    assert [len(rows) for _, rows in expected] == [3, 1, 7]
    for block_bytes in range(1, p.stat().st_size + 2):
        with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
            assert read_days_list(p) == expected


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, US_PER_DAY - 1), st.booleans()),
        max_size=40,
    ),
    st.integers(1, 200),
)
def test_read_days_matches_read_csv_split_by_day(tmp_path_factory, steps, block_bytes):
    # Days only go forward (by 0, 1 or 2 days a row); times within a day
    # are in any order; any row may be followed by a blank line.
    days, day = [], 0
    for step, t, _ in steps:
        day += step
        if not days or days[-1][0] != day:
            days.append((day, []))
        days[-1][1].append(t)
    blanks = {i for i, (_, _, blank) in enumerate(steps) if blank}
    p = tmp_path_factory.getbasetemp() / "days.csv"
    p.write_text(day_lines(days, blanks))
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        assert read_days_list(p) == split_by_day(read_csv(p))


@pytest.mark.parametrize("block_bytes", [1, 3 * ROW_BYTES, 1 << 19])
def test_read_days_tables_keep_their_values(tmp_path, block_bytes):
    # At 1 << 19 bytes one block holds every day; at one row a block, the
    # long day grows its table many times.  Every table is held until the
    # generator is done, and none shares memory with another.
    days = THREE_DAYS + [(4, list(range(300))), (5, [6]), (7, [2, 1])]
    p = tmp_path / "t.csv"
    p.write_text(day_lines(days, blank_after={2, 310}))
    expected = split_by_day(read_csv(p))
    held, seen = [], []
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        for day, table in read_days(p):
            held.append(table)
            seen.append((day, table.tolist()))
    assert seen == expected
    assert [table.tolist() for table in held] == [rows for _, rows in expected]
    for i, table in enumerate(held):
        assert not any(np.shares_memory(table, other) for other in held[i + 1 :])


def error_of(reader, path):
    with pytest.raises(CsvFormatError) as info:
        reader(path)
    return info.value


@pytest.mark.parametrize("row, field", BAD_ROWS[:4] + [(with_field("proto", "256"), None)])
@pytest.mark.parametrize("block_bytes", [1, ROW_BYTES, 1 << 19])
def test_bad_row_in_a_later_day_raises_as_in_read_csv(tmp_path, row, field, block_bytes):
    p = tmp_path / "t.csv"
    p.write_text(day_lines(THREE_DAYS, blank_after={2}) + row + "\n")
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        days_error = error_of(read_days_list, p)
        csv_error = error_of(read_csv, p)
    assert (days_error.line, days_error.field) == (csv_error.line, csv_error.field) == (14, field)
    assert str(days_error) == str(csv_error)


@pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES, 1 << 19])
def test_a_day_that_goes_back_names_its_first_line(tmp_path, block_bytes):
    # Lines 2-4 hold day 0, line 6 day 1 and lines 5 and 7 are blank, so
    # the first row back on day 0 is on line 8.
    days = THREE_DAYS[:2] + [(0, [4, 5])] + THREE_DAYS[2:]
    p = tmp_path / "t.csv"
    p.write_text(day_lines(days, blank_after={2, 3}))
    assert len(read_csv(p)) == 13  # read_csv takes rows in any order
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        error = error_of(read_days_list, p)
    assert (error.line, error.field) == (8, "ts_us")
    assert str(error) == "line 8: ts_us: day 2022-01-08 after day 2022-01-09: days must not go back"


LAST_DAY = date(9999, 12, 31)  # the last day a date holds


@pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES, 1 << 19])
def test_a_day_after_9999_12_31_names_its_first_line(tmp_path, block_bytes):
    # Line 2 is the last microsecond of 9999-12-31, line 3 blank, and
    # line 4 the first microsecond after it.
    last = (LAST_DAY - date(1970, 1, 1)).days - DAY0
    p = tmp_path / "t.csv"
    p.write_text(day_lines([(last, [US_PER_DAY - 1]), (last + 1, [0, 1])], blank_after={0}))
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        error = error_of(read_days_list, p)
        p.write_text(day_lines([(last, [0, US_PER_DAY - 1])]))
        assert [day for day, _ in read_days_list(p)] == [LAST_DAY]
    assert (error.line, error.field) == (4, "ts_us")
    assert str(error) == "line 4: ts_us: 253402300800000000 is after 9999-12-31, the last day"
