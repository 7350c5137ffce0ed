import random
from datetime import date, timedelta

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
    partition_by_window,
    read_csv,
    read_csv_lenient,
    traffic_table,
    write_csv,
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
    for table in (read_csv(p), traffic_table([make_record()])):
        assert table.dtype == TRAFFIC_DTYPE
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
    p.write_text(CSV_HEADER + "\n")
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


def test_read_csv_lenient_skips_and_counts(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(
        CSV_HEADER + "\n"
        "1000,1.2.3.4,50000,10.0.0.1,51234,17,212\n"
        "2000,1.2.3.4,70000,10.0.0.1,51234,17,212\n"
        "garbage\n"
        "3000,1.2.3.5,50000,10.0.0.1,51234,17,212\n"
    )
    records, bad = read_csv_lenient(p)
    assert [r.ts_us for r in records] == [1000, 3000]
    assert [line for line, _ in bad] == [3, 4]


def test_write_read_round_trip(tmp_path):
    records = [
        make_record(ts_us=i * 1000, src=f"1.2.{i % 200}.{i % 250}", payload_len=i % 300)
        for i in range(500)
    ]
    p = tmp_path / "rt.csv"
    write_csv(traffic_table(records), p)
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
    write_csv(traffic_table([rec]), p)
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
@pytest.mark.parametrize(
    "row, field",
    [
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
    ],
)
def test_grammar_rejects_row(tmp_path, row, field):
    p = tmp_path / "t.csv"
    p.write_bytes(
        (CSV_HEADER + "\n" + GOOD_ROW + "\n" + row + "\n" + GOOD_ROW + "\n").encode()
    )
    with pytest.raises(CsvFormatError) as exc_info:
        read_csv(p)
    assert exc_info.value.line == 3
    assert exc_info.value.field == field
    records, bad = read_csv_lenient(p)
    assert len(records) == 2
    assert bad == [(3, str(exc_info.value))]


def test_grammar_rejects_crlf_header(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes((CSV_HEADER + "\r\n" + GOOD_ROW + "\n").encode())
    for reader in (read_csv, read_csv_lenient):
        with pytest.raises(CsvFormatError) as exc_info:
            reader(p)
        assert exc_info.value.line == 1 and exc_info.value.field is None


def test_grammar_field_count_and_range_errors_name_the_line(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + GOOD_ROW + ",7\n" + with_field("proto", "256") + "\n")
    records, bad = read_csv_lenient(p)
    assert len(records) == 0
    assert [line for line, _ in bad] == [2, 3]
    assert "expected 7 fields, got 8" in bad[0][1]
    assert "proto out of range" in bad[1][1]


def test_blank_lines_are_skipped(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n\n" + GOOD_ROW + "\n\n\n" + GOOD_ROW)
    assert len(read_csv(p)) == 2
    good, bad = read_csv_lenient(p)
    assert good.tolist() == read_csv(p).tolist() and bad == []


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
    write_csv(traffic_table(records), p)
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
    write_csv(traffic_table(rows), p)
    assert p.read_bytes() == reference_csv(rows)


@pytest.mark.parametrize("n", [0, 1, 65536, 65537])
def test_write_csv_across_chunk_boundaries(tmp_path, n):
    # Rows are rendered in 65536-row chunks; every edge row recurs in each.
    rows = [EDGE_ROWS[i % len(EDGE_ROWS)] for i in range(n)]
    p = tmp_path / "t.csv"
    write_csv(traffic_table(rows), p)
    assert p.read_bytes() == reference_csv(rows)


def _corrupt(row, kind, field_idx):
    """One grammar violation applied to a valid row."""
    parts = row.split(",")
    if kind == "sign":
        parts[field_idx] = "+" + parts[field_idx]
    elif kind == "leading_zero":
        parts[field_idx] = "0" + parts[field_idx]
    elif kind == "space":
        parts[field_idx] = " " + parts[field_idx]
    elif kind == "underscore":
        parts[field_idx] = parts[field_idx] + "_0"
    elif kind == "arabic":
        parts[field_idx] = parts[field_idx].translate(ARABIC_INDIC)
    elif kind == "missing":
        del parts[field_idx]
    elif kind == "cr":
        parts[-1] += "\r"
    return ",".join(parts)


@settings(max_examples=100)
@given(
    records=st.lists(records_st, min_size=1, max_size=20),
    injections=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.sampled_from(["sign", "leading_zero", "space", "underscore", "arabic", "missing", "cr", "blank"]),
            st.integers(min_value=0, max_value=6),
        ),
        max_size=10,
    ),
)
def test_lenient_counts_every_injected_row(tmp_path_factory, records, injections):
    lines = [csv_row(rec) for rec in records]
    n_bad = 0
    for pos, kind, field_idx in injections:
        if kind == "blank":
            row = ""
        else:
            row = _corrupt(csv_row(records[pos % len(records)]), kind, field_idx)
            n_bad += 1
        lines.insert(pos % (len(lines) + 1), row)
    p = tmp_path_factory.mktemp("inj") / "bad.csv"
    p.write_bytes((CSV_HEADER + "\n" + "\n".join(lines) + "\n").encode())
    good, bad = read_csv_lenient(p)
    assert good.tolist() == records
    assert len(bad) == n_bad


def test_strict_reports_the_first_bad_line_across_chunks(tmp_path, monkeypatch):
    # Rows are parsed in chunks; a range error buffered in an unparsed
    # chunk still wins over a later grammar error.
    monkeypatch.setattr(records_module, "_CHUNK_ROWS", 3)
    rows = [GOOD_ROW] * 4 + [with_field("proto", "256"), "junk"] + [GOOD_ROW] * 5
    p = tmp_path / "t.csv"
    p.write_text(CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(CsvFormatError) as exc_info:
        read_csv(p)
    assert exc_info.value.line == 6
    good, bad = read_csv_lenient(p)
    assert len(good) == 9
    assert [line for line, _ in bad] == [6, 7]


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


def test_partition_by_window_quarter_hour():
    recs = [
        make_record(ts_us=0, dst_port=50000),
        make_record(ts_us=15 * 60 * 1_000_000, dst_port=50000),
        make_record(ts_us=16 * 60 * 1_000_000, dst_port=50000),
    ]
    parts = partition_by_window(traffic_table(recs), timedelta(minutes=15))
    assert sorted(len(p.records) for p in parts.values()) == [1, 2]


def test_partition_by_window_rejects_uneven():
    with pytest.raises(ValueError):
        partition_by_window(traffic_table([]), timedelta(minutes=7))
