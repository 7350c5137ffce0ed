import ipaddress
import random
import re
import tracemalloc
import warnings
import weakref
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
    partition_by_day_port,
    read_days,
    segment_by_window,
    traffic_table,
    write_csv_tables,
)
from conftest import make_record

US_PER_DAY = 86_400_000_000
LAST_DAY = date(9999, 12, 31)  # the last day a date holds, and the last read_days takes
LAST_TS = (LAST_DAY - date(1970, 1, 1)).days * US_PER_DAY + US_PER_DAY - 1  # its last microsecond


# ---------------------------------------------------------------- records

def csv_row(rec):
    ts, src, sport, dst, dport, proto, size = rec
    return f"{ts},{ipaddress.IPv4Address(src)},{sport},{ipaddress.IPv4Address(dst)},{dport},{proto},{size}"


def test_record_field_validation(tmp_path):
    # The row grammar bounds addresses and signs; the reader range-checks
    # the other fields line by line, up to the table's column types.  Its
    # largest ts_us is the last microsecond of 9999-12-31.
    top = (2**63 - 1, 2**32 - 1, 65535, 2**32 - 1, 65535, 255, 65507)
    assert traffic_table([top]).tolist() == [top]
    top = (LAST_TS, *top[1:])
    p = tmp_path / "top.csv"
    p.write_text(CSV_HEADER + "\n" + csv_row(top) + "\n")
    assert read_days_list(p) == [(LAST_DAY, [top])]
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
            read_days_list(p)
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
    for name, value, column_type in (
        # Values the column types can hold but the format forbids.
        ("ts_us", -5, "<i8"),
        ("payload_len", 65508, "<u2"),
        # Columns of a wider type than the table's.
        ("src_ip", 2**32, "<i8"),
        ("src_ip", -1, "<i8"),
        ("dst_port", 65536, "<i8"),
    ):
        dtype = np.dtype([(f, column_type if f == name else TRAFFIC_DTYPE[f]) for f in TRAFFIC_DTYPE.names])
        rows = np.array([make_record(), make_record()], dtype=dtype)
        rows[name][1] = value
        with pytest.raises(ValueError, match=f"^{name} out of range 0-[0-9]+: {value}$"):
            traffic_table(rows)


def test_tables_are_read_only(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + csv_row(make_record()) + "\n")
    day_tables = [table for _, table in read_days(p)]
    assert len(day_tables) == 1
    for table in (traffic_table([make_record()]), *day_tables):
        assert isinstance(table, np.recarray) and table.dtype == TRAFFIC_DTYPE
        with pytest.raises(ValueError):
            table.ts_us[0] = 1


def test_day_boundary_is_half_open():
    midnight = day_start_us(date(2022, 9, 18))
    assert day_of_ts(midnight) == date(2022, 9, 18)
    assert day_of_ts(midnight - 1) == date(2022, 9, 17)


# ---------------------------------------------------------------- CSV I/O

def test_read_days_direct_mapping(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n1663372800000000,1.2.3.4,50000,10.0.0.1,51234,17,212\n")
    row = make_record(ts_us=1663372800000000, src="1.2.3.4", dst="10.0.0.1", payload_len=212)
    assert read_days_list(p) == [(date(2022, 9, 17), [row])]


def test_read_days_header_only(tmp_path):
    p = tmp_path / "t.csv"
    for data in (CSV_HEADER + "\n", CSV_HEADER, CSV_HEADER + "\n\n\n"):
        p.write_text(data)
        assert read_days_list(p) == []


def test_read_days_rejects_bad_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("time,src,dst\n")
    with pytest.raises(CsvFormatError):
        read_days_list(p)


def test_read_days_names_line_and_field_on_range_violation(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        CSV_HEADER + "\n"
        "1000,1.2.3.4,50000,10.0.0.1,51234,17,212\n"
        "2000,1.2.3.4,70000,10.0.0.1,51234,17,212\n"
    )
    with pytest.raises(CsvFormatError) as exc_info:
        read_days_list(p)
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
    assert read_days_list(p) == [(date(1970, 1, 1), records)]


@settings(max_examples=200)
@given(
    ts_us=st.integers(min_value=0, max_value=LAST_TS),
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
    assert read_days_list(p) == [(day_of_ts(rec[0]), [rec])]


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
        read_days_list(p)
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
            read_days_list(p)
    assert caught == []


def test_grammar_rejects_crlf_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes((CSV_HEADER + "\r\n" + GOOD_ROW + "\n").encode())
    with pytest.raises(CsvFormatError) as exc_info:
        read_days_list(p)
    assert exc_info.value.line == 1 and exc_info.value.field is None


def test_grammar_field_count_and_range_errors_name_the_line(tmp_path):
    p = tmp_path / "t.csv"
    for bad, message in (
        (GOOD_ROW + ",7", "expected 7 fields, got 8"),
        (with_field("proto", "256"), "proto out of range"),
    ):
        p.write_text(CSV_HEADER + "\n" + GOOD_ROW + "\n" + bad + "\n")
        with pytest.raises(CsvFormatError, match=f"^line 3: {message}") as exc_info:
            read_days_list(p)
        assert exc_info.value.field is None


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n\n" + GOOD_ROW + "\n\n\n" + GOOD_ROW)
    assert [len(rows) for _, rows in read_days_list(p)] == [2]


def test_undecodable_bytes_are_a_row_error(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes((CSV_HEADER + "\n").encode() + b"1663\xff,1.2.3.4,1,1.2.3.4,1,17,1\n")
    with pytest.raises(CsvFormatError) as exc_info:
        read_days_list(p)
    assert exc_info.value.line == 2 and exc_info.value.field == "ts_us"


def records_strategy(ts_max):
    """Row tuples with ts_us up to ts_max and every other field over its range."""
    return st.tuples(
        st.integers(min_value=0, max_value=ts_max),  # ts_us
        st.integers(min_value=0, max_value=2**32 - 1),  # src_ip
        st.integers(min_value=0, max_value=65535),  # src_port
        st.integers(min_value=0, max_value=2**32 - 1),  # dst_ip
        st.integers(min_value=0, max_value=65535),  # dst_port
        st.integers(min_value=0, max_value=255),  # proto
        st.integers(min_value=0, max_value=65507),  # payload_len
    )


records_st = records_strategy(2**62)
day_records_st = records_strategy(LAST_TS)  # the days read_days takes


@settings(max_examples=100)
@given(st.lists(day_records_st, max_size=30).map(sorted))
def test_read_inverts_write(tmp_path_factory, records):
    p = tmp_path_factory.mktemp("rt") / "many.csv"
    write_csv_tables([traffic_table(records)], p)
    assert read_days_list(p) == split_by_day(records)


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


def in_day_order(rows):
    """Rows as read_days takes them: ts_us capped at the end of 9999-12-31, then sorted."""
    return sorted((min(row[0], LAST_TS), *row[1:]) for row in rows)


@settings(max_examples=100, deadline=None)
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


@pytest.mark.parametrize(
    "ts_us", [0, 9999, 10**4, 10**8 - 1, 10**8, 10**12, 10**16 - 1, 10**16, 2**63 - 1]
)
def test_timestamps_at_digit_group_edges_round_trip(tmp_path, ts_us):
    # The writer splits ts_us into four-digit groups and finds the leading one.
    row = (ts_us, 1, 2, 3, 4, 17, 5)
    p = tmp_path / "t.csv"
    write_csv_tables([traffic_table([row])], p)
    assert p.read_bytes() == reference_csv([row])
    # The decoder takes every ts_us; read_days only those up to 9999-12-31.
    assert outcome(read_days_list, p) == outcome(reference_read_days, p)


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


def test_write_csv_drops_each_table_before_taking_the_next(tmp_path):
    refs = []

    def tables():
        for day in range(3):
            assert [ref() for ref in refs] == [None] * day, f"a table is alive when table {day} is made"
            table = traffic_table([(day * US_PER_DAY + i, 1, 2, 3, 4, 17, 5) for i in range(10)])
            refs.append(weakref.ref(table))
            yield table
            del table

    assert write_csv_tables(tables(), tmp_path / "t.csv") == 30
    assert len(refs) == 3


def digit_tables_reference():
    """_digit_tables built from whole (n, 5) int64 digit matrices."""
    scale = 10 ** np.arange(4, -1, -1)
    v = np.arange(65536)[:, None]
    filled = (v // scale % 10 + ord("0")).astype(np.uint8)
    short = np.where((v < scale) & (scale > 1), np.uint8(0), filled)
    dot = np.full((256, 1), ord("."), dtype=np.uint8)
    comma = np.full((65536, 1), ord(","), dtype=np.uint8)
    octet = np.hstack([short[:256, 2:], dot]).view(np.uint32)
    num = np.hstack([np.zeros((65536, 2), dtype=np.uint8), short, comma]).view(np.uint64)
    ts = np.vstack([filled[:10000, 1:], short[:10000, 1:], np.zeros((10000, 4), dtype=np.uint8)])
    return octet.ravel(), num.ravel(), ts.view(np.uint32).ravel()


def test_digit_tables_match_the_reference_byte_for_byte():
    tables = records_module._digit_tables()
    for table, expected in zip(tables, digit_tables_reference(), strict=True):
        assert (table.dtype, table.shape) == (expected.dtype, expected.shape)
        assert table.tobytes() == expected.tobytes()
        assert not table.flags.writeable


def test_digit_tables_build_without_large_temporaries():
    # The octet table is 1 KB, and num is filled from the timestamp groups
    # by block copies: about 650 KB kept, against 1,170 KB kept and a
    # 1,500 KB peak with a 65,536-entry two-octet table and num built from
    # full-length digit columns.
    build = records_module._digit_tables.__wrapped__
    build()  # first-use imports are not counted
    tracemalloc.start()
    try:
        tables = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tables) == 3
    assert peak < 800_000 and kept < 700_000, (peak, kept)


def test_every_octet_renders_in_every_position_of_both_addresses(tmp_path):
    # Over the 256 rows, each of the four octets of either address takes
    # every value 0-255, and no two octets of a row move together.
    def address(octets):
        return int.from_bytes(bytes(octets), "big")

    src = [address((i + 85 * k) % 256 for k in range(4)) for i in range(256)]
    dst = [address((7 * i + 100 * k) % 256 for k in range(4)) for i in range(256)]
    p = tmp_path / "t.csv"
    write_csv_tables([traffic_table([(0, s, 1, d, 2, 17, 3) for s, d in zip(src, dst)])], p)
    expected = [f"0,{ipaddress.IPv4Address(s)},1,{ipaddress.IPv4Address(d)},2,17,3" for s, d in zip(src, dst)]
    assert p.read_text().splitlines()[1:] == expected


# ------------------------------------------------------- reader blocks

# The per-line regex grammar the reader used before it parsed whole blocks,
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


def reference_rows(path):
    """Yield (line number, row tuple) per row of a traffic CSV, one regex match per line."""
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
            yield line_no, (v[0], ip_of(v[1:5]), v[5], ip_of(v[6:10]), *v[10:])


def reference_read_days(path):
    """The rows of reference_rows split by UTC day, under read_days' two day rules.

    Days never go back, and none is after 9999-12-31.  The first line that
    breaks the grammar, a field's range or a day rule raises as read_days
    does.
    """
    days = []
    for line_no, row in reference_rows(path):
        day = row[0] // US_PER_DAY
        if row[0] > LAST_TS:
            raise CsvFormatError(f"{row[0]} is after {LAST_DAY}, the last day", line_no, "ts_us")
        if days and day < days[-1][0]:
            this, prev = day_of_ts(row[0]), day_of_ts(days[-1][0] * US_PER_DAY)
            raise CsvFormatError(f"day {this} after day {prev}: days must not go back", line_no, "ts_us")
        if not days or days[-1][0] != day:
            days.append((day, []))
        days[-1][1].append(row)
    return [(day_of_ts(day * US_PER_DAY), rows) for day, rows in days]


# The block parser the reader used before it decoded values from the bytes:
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
    return rows if records_module._render(rows, np.empty((len(rows), 11), dtype=np.uint64)) == block else None


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
    rows=st.lists(st.sampled_from(EDGE_ROWS) | day_records_st, max_size=8),
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
    expected = outcome(reference_read_days, p)
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        assert outcome(read_days_list, p) == expected


GOOD_TUPLE = (1663372800000000, ip_of([198, 51, 7, 9]), 50000, ip_of([10, 0, 0, 1]), 51812, 17, 212)
ROW_BYTES = len(GOOD_ROW) + 1


def read_with_blocks(monkeypatch, path, block_bytes):
    monkeypatch.setattr(records_module, "_BLOCK_BYTES", block_bytes)
    return [row for _, rows in read_days_list(path) for row in rows]


@pytest.mark.parametrize(
    "block_bytes", [1, 20, ROW_BYTES - 1, ROW_BYTES, ROW_BYTES + 1, 3 * ROW_BYTES + 7]
)
def test_rows_straddle_blocks(tmp_path, monkeypatch, block_bytes):
    rows = in_day_order(EDGE_ROWS[:25])
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
    # The reader sizes its tables for rows this short.
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join([MIN_ROW] * 1000) + lf)
    [(day, table)] = read_days(p)
    assert day == date(1970, 1, 1)
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
    [(_, table)] = read_days(p)
    assert table.shape == (len(ts),) and not table.flags.writeable
    assert table["ts_us"].tolist() == ts


@pytest.mark.parametrize("block_bytes", [None, 1024, 13 * 80])
def test_separator_only_rows_past_the_work_area_are_a_row_error(tmp_path, monkeypatch, block_bytes):
    # 13-byte rows of separators only pass the decoder's separator check,
    # so a block of them holds the most rows any block can: the rows its
    # work area is sized for, which a block size that is a multiple of 13
    # fills exactly.  The first still raises as a row.
    if block_bytes is not None:
        monkeypatch.setattr(records_module, "_BLOCK_BYTES", block_bytes)
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + ",...,,...,,,\n" * 12_000)
    message = "line 2: ts_us: not an unsigned decimal integer: ''"
    with pytest.raises(CsvFormatError, match=f"^{re.escape(message)}$"):
        list(read_days(p))


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
    work = np.full(records_module._WORK_WORDS * 16, -1)
    decoded = records_module._parse_block(block, work, lambda n: np.zeros(n + 1, dtype=TRAFFIC_DTYPE))
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
    # None keeps the default block size.  The rows around the edited one
    # are on the first and the last day read_days takes, so no ts_us the
    # edited row can hold sends a day back; one after 9999-12-31 raises.
    p = tmp_path / "t.csv"
    lines = [with_field("ts_us", "0"), with_field(name, raw), with_field("ts_us", str(LAST_TS))]
    p.write_text(CSV_HEADER + "\n" + "\n".join(lines) + "\n")
    if block_bytes is not None:
        monkeypatch.setattr(records_module, "_BLOCK_BYTES", block_bytes)
    got = outcome(read_days_list, p)
    assert got == outcome(reference_read_days, p)
    if ok and not (name == "ts_us" and int(raw) > LAST_TS):
        value = int(ipaddress.IPv4Address(raw)) if name.endswith("_ip") else int(raw)
        assert [row for _, rows in got for row in rows][1][TRAFFIC_DTYPE.names.index(name)] == value
    else:
        assert got[:2] == ("error", 3)


def test_read_days_neither_renders_nor_calls_fromstring(tmp_path, monkeypatch):
    edges, days = tmp_path / "edges.csv", tmp_path / "days.csv"
    edge_rows = in_day_order(EDGE_ROWS)
    day_rows = [make_record(ts_us=(DAY0 + d) * US_PER_DAY + t) for d, times in THREE_DAYS for t in times]
    write_csv_tables([traffic_table(edge_rows)], edges)
    write_csv_tables([traffic_table(day_rows)], days)

    def forbidden(*args, **kwargs):
        raise AssertionError("the reader must decode the bytes directly")

    monkeypatch.setattr(records_module, "_render", forbidden)
    monkeypatch.setattr(np, "fromstring", forbidden)
    assert read_days_list(edges) == split_by_day(edge_rows)
    assert read_days_list(days) == split_by_day(day_rows)


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

def split_by_day(rows):
    """Row tuples as (UTC day, rows) pairs, days in order of first appearance."""
    days = {}
    for row in rows:
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
    expected = reference_read_days(p)
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
def test_read_days_matches_the_line_reference(tmp_path_factory, steps, block_bytes):
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
        assert read_days_list(p) == reference_read_days(p)


def allocated_rows(table):
    """The row count of the array a table is a view of."""
    while table.base is not None:
        table = table.base
    return len(table)


@pytest.mark.parametrize("block_bytes", [1, 3 * ROW_BYTES, 1 << 12, 1 << 19])
def test_read_days_tables_keep_their_values(tmp_path, block_bytes):
    # At 1 << 19 bytes one block holds every day; at one row a block, the
    # long days grow their tables many times.  Days run big, small, big:
    # the small day's table has room for the big day before it plus one
    # block, and the last day outgrows the room the small day before it
    # leaves.  Every table is held until the generator is done, and none
    # shares memory with another.
    days = THREE_DAYS + [(4, list(range(300))), (5, [6]), (7, [2, 1]), (8, list(range(400)))]
    block_rows = block_bytes // records_module._MIN_ROW_BYTES + 1
    assert 400 > 2 + block_rows or block_bytes == 1 << 19  # one block: no table grows
    p = tmp_path / "t.csv"
    p.write_text(day_lines(days, blank_after={2, 310}))
    expected = reference_read_days(p)
    held, seen = [], []
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        for day, table in read_days(p):
            held.append(table)
            seen.append((day, table.tolist()))
    assert seen == expected
    assert [table.tolist() for table in held] == [rows for _, rows in expected]
    for i, table in enumerate(held):
        assert not any(np.shares_memory(table, other) for other in held[i + 1 :])
    assert [len(table) for table in held[3:5]] == [300, 1]
    assert allocated_rows(held[4]) == 300 + block_rows


def test_a_block_going_back_between_rows_of_its_day_names_the_row(tmp_path):
    # Lines 2-5 and 7 are on day 1, line 6 on day 0.  Rows are all one
    # length, so at two rows' bytes a block is three lines: the second,
    # lines 5-7, starts and ends on the day the first block ended on.
    days = [(1, [100, 101, 102, 103]), (0, [104]), (1, [105])]
    p = tmp_path / "t.csv"
    p.write_text(day_lines(days))
    lengths = {len(line) + 1 for line in p.read_text().splitlines()[1:]}
    assert len(lengths) == 1
    for block_bytes in (1, 2 * lengths.pop(), 1 << 19):
        with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
            error = error_of(read_days_list, p)
        assert (error.line, error.field) == (6, "ts_us")
        assert str(error) == "line 6: ts_us: day 2022-01-08 after day 2022-01-09: days must not go back"


def test_blocks_of_blank_lines_are_skipped(tmp_path, monkeypatch):
    # At one byte a block, a run of blank lines is read as blocks of two
    # blank lines, also before the first row and after the last.
    header, *lines = day_lines([(0, [100]), (1, [101, 102])]).splitlines(keepends=True)
    p = tmp_path / "t.csv"
    p.write_text(header + "\n\n" + lines[0] + "\n" * 4 + lines[1] + "\n\n\n" + lines[2] + "\n\n")
    expected = reference_read_days(p)
    blocks = []
    line_blocks = records_module._line_blocks

    def spy(fh):
        for block in line_blocks(fh):
            blocks.append(block)
            yield block

    monkeypatch.setattr(records_module, "_line_blocks", spy)
    for block_bytes in range(1, p.stat().st_size + 2):
        with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
            assert read_days_list(p) == expected
    assert b"\n\n" in blocks
    p.write_text(header + "\n\n\n")
    with mock.patch.object(records_module, "_BLOCK_BYTES", 1):
        assert read_days_list(p) == []


@pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES - 1, None])
def test_a_day_going_back_before_a_bad_line_raises_first(tmp_path, monkeypatch, block_bytes):
    # Line 3 goes back from 2022-09-17 to 2022-09-15 and line 4 breaks the
    # grammar.  The first bad line raises whether line 3 is decoded in a
    # block of its own (one byte), with line 2 (two rows' bytes less one)
    # or scanned with line 4 (None keeps the default block size).
    back = with_field("ts_us", str(1663372800000000 - 2 * US_PER_DAY))
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join([GOOD_ROW, back, "junk"]) + "\n")
    if block_bytes is not None:
        monkeypatch.setattr(records_module, "_BLOCK_BYTES", block_bytes)
    error = error_of(read_days_list, p)
    assert (error.line, error.field) == (3, "ts_us")
    assert str(error) == "line 3: ts_us: day 2022-09-15 after day 2022-09-17: days must not go back"
    assert outcome(reference_read_days, p) == ("error", 3, "ts_us", str(error))


def error_of(reader, path):
    with pytest.raises(CsvFormatError) as info:
        reader(path)
    return info.value


@pytest.mark.parametrize("row, field", BAD_ROWS[:4] + [(with_field("proto", "256"), None)])
@pytest.mark.parametrize("block_bytes", [1, ROW_BYTES, 1 << 19])
def test_bad_row_in_a_later_day_raises_as_the_line_reference(tmp_path, row, field, block_bytes):
    p = tmp_path / "t.csv"
    p.write_text(day_lines(THREE_DAYS, blank_after={2}) + row + "\n")
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        days_error = error_of(read_days_list, p)
    expected = error_of(reference_read_days, p)
    assert (days_error.line, days_error.field) == (expected.line, expected.field) == (14, field)
    assert str(days_error) == str(expected)


@pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES, 1 << 19])
def test_a_day_that_goes_back_names_its_first_line(tmp_path, block_bytes):
    # Lines 2-4 hold day 0, line 6 day 1 and lines 5 and 7 are blank, so
    # the first row back on day 0 is on line 8.
    days = THREE_DAYS[:2] + [(0, [4, 5])] + THREE_DAYS[2:]
    p = tmp_path / "t.csv"
    p.write_text(day_lines(days, blank_after={2, 3}))
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        error = error_of(read_days_list, p)
    assert (error.line, error.field) == (8, "ts_us")
    assert str(error) == "line 8: ts_us: day 2022-01-08 after day 2022-01-09: days must not go back"
    assert outcome(reference_read_days, p) == ("error", 8, "ts_us", str(error))


@pytest.mark.parametrize("block_bytes", [1, 2 * ROW_BYTES, 1 << 19])
def test_a_day_after_9999_12_31_names_its_first_line(tmp_path, block_bytes):
    # Line 2 is the last microsecond of 9999-12-31, line 3 blank, and
    # line 4 the first microsecond after it.
    last = (LAST_DAY - date(1970, 1, 1)).days - DAY0
    p = tmp_path / "t.csv"
    p.write_text(day_lines([(last, [US_PER_DAY - 1]), (last + 1, [0, 1])], blank_after={0}))
    expected = outcome(reference_read_days, p)
    with mock.patch.object(records_module, "_BLOCK_BYTES", block_bytes):
        error = error_of(read_days_list, p)
        p.write_text(day_lines([(last, [0, US_PER_DAY - 1])]))
        assert [day for day, _ in read_days_list(p)] == [LAST_DAY]
    assert (error.line, error.field) == (4, "ts_us")
    assert str(error) == "line 4: ts_us: 253402300800000000 is after 9999-12-31, the last day"
    assert expected == ("error", 4, "ts_us", str(error))
