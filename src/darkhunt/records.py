"""The traffic table, canonical CSV serialization, and window/port partitioning.

Everything downstream (metrics, ranking, population analysis) consumes the
types in this module.  Traffic is one read-only numpy record array over
TRAFFIC_DTYPE, a row per packet and a column per CSV field; all operations
are pure functions, so partitions can be built and consumed concurrently.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from datetime import date, timedelta
from typing import Mapping

import numpy as np

__all__ = [
    "TRAFFIC_DTYPE",
    "PortDayPartition",
    "LabeledDataset",
    "CsvFormatError",
    "CSV_HEADER",
    "PROTO_UDP",
    "MAX_UDP_PAYLOAD",
    "US_PER_DAY",
    "SECONDS_PER_DAY",
    "ip_to_str",
    "ip_from_str",
    "day_of_ts",
    "traffic_table",
    "read_csv",
    "read_days",
    "write_csv_tables",
    "run_starts",
    "Segments",
    "segment_by_window",
    "partition_by_day_port",
]

CSV_HEADER = "ts_us,src_ip,src_port,dst_ip,dst_port,proto,payload_len"

# One observed packet header per row, one column per CSV field: ts_us
# int64 (microseconds since the Unix epoch, UTC), src_ip/dst_ip uint32
# (use ip_to_str / ip_from_str at the edges), ports uint16, proto uint8,
# payload_len uint16.
TRAFFIC_DTYPE = np.dtype(
    list(zip(CSV_HEADER.split(","), ["<i8", "<u4", "<u2", "<u4", "<u2", "u1", "<u2"]))
)

PROTO_UDP = 17
MAX_UDP_PAYLOAD = 65507  # 65535 - 8 (UDP header) - 20 (IP header)

_FIELDS = CSV_HEADER.split(",")
# Every field is unsigned; its inclusive maximum, for the table and the reader.
_MAXIMA = dict(zip(_FIELDS, (2**63 - 1, 2**32 - 1, 65535, 2**32 - 1, 65535, 255, MAX_UDP_PAYLOAD)))

US_PER_DAY = 86_400_000_000
SECONDS_PER_DAY = 86400.0
_EPOCH = date(1970, 1, 1)
_LAST_DAY = (date.max - _EPOCH).days  # 9999-12-31, the last day a date holds

# The CSV field patterns, used to name the field of a bad row: unsigned
# decimal integers in ASCII digits with no sign, separator or leading
# zero, and dotted quads whose octets follow the same rule and stay within
# 0-255.
_UINT_RE = re.compile("0|[1-9][0-9]*")
_OCTET = "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
_IPV4_RE = re.compile(r"\.".join([_OCTET] * 4))


def ip_to_str(ip: int) -> str:
    """Render a 32-bit address as dotted-quad."""
    return f"{ip >> 24 & 255}.{ip >> 16 & 255}.{ip >> 8 & 255}.{ip & 255}"


def ip_from_str(s: str) -> int:
    """Parse a strict dotted-quad IPv4 address to a 32-bit integer.

    Rejects IPv6, empty octets, out-of-range octets, leading zeros and
    non-ASCII digits.  No shorthand forms ("1.2.3" etc.) are accepted.
    """
    m = _IPV4_RE.fullmatch(s)
    if m is None:
        raise ValueError(f"not a dotted-quad IPv4 address: {s!r}")
    a, b, c, d = map(int, m.groups())
    return a << 24 | b << 16 | c << 8 | d


def day_of_ts(ts_us: int) -> date:
    """UTC calendar day containing a microsecond timestamp.

    Days are half-open [0000Z, next 0000Z): a timestamp exactly at
    midnight belongs to the day that starts there.
    """
    return _EPOCH + timedelta(days=int(ts_us) // US_PER_DAY)


def day_start_us(day: date) -> int:
    """Microsecond timestamp of a day's 0000Z boundary."""
    return (day - _EPOCH).days * US_PER_DAY


def traffic_table(rows) -> np.recarray:
    """A read-only traffic table over rows in TRAFFIC_DTYPE column order.

    `rows` is a TRAFFIC_DTYPE array (viewed, not copied) or a sequence of
    (ts_us, src_ip, src_port, dst_ip, dst_port, proto, payload_len) tuples.
    A value outside its field's range raises ValueError naming the field.
    """
    if isinstance(rows, np.ndarray):
        columns = [rows[name] for name in _FIELDS]
    else:
        rows = list(rows)
        columns = np.array(rows, dtype=object).reshape(-1, len(_FIELDS)).T
    for (name, hi), col in zip(_MAXIMA.items(), columns):
        bad = (col < 0) | (col > hi)
        if bad.any():
            raise ValueError(f"{name} out of range 0-{hi}: {col[bad][0]}")
    table = np.asarray(rows, dtype=TRAFFIC_DTYPE).view(np.recarray)
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class PortDayPartition:
    """All packets for one (UTC day, destination port) cell, ordered by time."""

    day: date
    dst_port: int
    records: np.recarray


@dataclass(frozen=True)
class LabeledDataset:
    """A traffic table plus the ground-truth daily port for every day spanned."""

    records: np.recarray
    labels: Mapping[date, int]


class CsvFormatError(ValueError):
    """Raised when a traffic CSV has the wrong schema or a malformed row."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = f"line {line}: " if line is not None else ""
        if field:
            prefix += f"{field}: "
        super().__init__(prefix + message)


# A row has 13 fields: ts, 4 octets, src_port, 4 octets, dst_port, proto,
# payload_len, ending at these separators.  The range checks the field
# patterns leave open: field column -> field name and inclusive maximum.
_ROW_SEPARATORS = b",...,,...,,,\n"
_LIMITS = {
    col: (name, _MAXIMA[name])
    for col, name in zip((0, 5, 10, 11, 12), ("ts_us", "src_port", "dst_port", "proto", "payload_len"))
}
_COLUMN_MAXIMA = np.full(13, 255, dtype=np.uint64)
_COLUMN_MAXIMA[list(_LIMITS)] = [hi for _, hi in _LIMITS.values()]
# The reader decodes each field from the 8-byte word that ends at its
# separator; ts_us also from the two words before that.  The pad before
# a block is the LF that ends the line before it, after room for those.
_PAD = b"0" * 23 + b"\n"
# Per digit count 0-20 (20 stands for 20 or more): the mask of a field's
# word, keeping the low nibble of each of its bytes that holds a digit;
# and the least value with that count and no leading zero, past every
# value for 0 and for 20 or more.
_WORD_MASKS = np.array([0x0F0F0F0F0F0F0F0F << 8 * (8 - min(d, 8)) & (1 << 64) - 1 for d in range(21)], dtype=np.uint64)
_LEAST = np.array([2**64 - 1, 0, *(10 ** (d - 1) for d in range(2, 20)), 2**64 - 1], dtype=np.uint64)
# Multiply-shift steps that turn a masked word into its value, joining
# digits into pairs, pairs into quads and quads into eights: SIMD within
# a register (Langdale & Lemire, VLDB J. 2019).
_SWAR_STEPS = ((10 << 8 | 1, 8, 0x00FF00FF00FF00FF), (100 << 16 | 1, 16, 0x0000FFFF0000FFFF), (10**4 << 32 | 1, 32, 0xFFFFFFFF))
# The scales of ts_us's two earlier words, and the octet shifts that join
# a dotted quad's four values into its address.
_TS_WORD_SCALES = np.array([[10**8], [10**16]], dtype=np.uint64)
_OCTET_SHIFTS = np.array([[24], [16], [8], [0]], dtype=np.uint64)
_WORK_WORDS = 45  # int64 decoder work words per row: 15 digit counts, word starts and words
_CHUNK_ROWS = 1 << 12  # rows per _render call: its byte matrix and temporaries stay cache-sized
_BLOCK_BYTES = 1 << 17  # bytes read per read_csv block, rounded up to a whole line
_MIN_ROW_BYTES = len("0,0.0.0.0,0,0.0.0.0,0,0,0\n")


def _line_error(line: str, line_no: int) -> CsvFormatError | None:
    """Name the first field of a line that breaks the grammar, else the first out of range."""
    parts = line.split(",")
    if len(parts) != 7:
        return CsvFormatError(f"expected 7 fields, got {len(parts)}", line=line_no)
    for name, raw in zip(_FIELDS, parts):
        if name.endswith("_ip"):
            if _IPV4_RE.fullmatch(raw) is None:
                message = f"not a dotted-quad IPv4 address: {raw!r}"
                return CsvFormatError(message, line=line_no, field=name)
        elif _UINT_RE.fullmatch(raw) is None:
            message = f"not an unsigned decimal integer: {raw!r}"
            return CsvFormatError(message, line=line_no, field=name)
    values = line.replace(".", ",").split(",")
    for col, (name, hi) in _LIMITS.items():
        if int(values[col]) > hi:
            return CsvFormatError(f"{name} out of range 0-{hi}: {values[col]}", line=line_no)
    return None


def _parse_block(block: bytes, work: np.ndarray | None = None, room=None) -> np.ndarray | None:
    """The rows of a block of LF-ended lines, or None if any is not canonical.

    A block is canonical exactly when every byte is a digit or separator,
    its separators come 13 a row as in _ROW_SEPARATORS, and every value
    is at most its _COLUMN_MAXIMA and at least _LEAST for its digit count.
    That refuses empty fields, leading zeros, and fields longer than 19
    digits or than their one word (whose value then has fewer digits than
    the field).  This is the README grammar; a test pins it to the writer.

    The rows are decoded straight into the start of room(n), a
    TRAFFIC_DTYPE array the caller gives with room for the block's n
    rows (a fresh array if room is None), and that part of it is
    returned; room is called only once the whole block is canonical.
    The temporaries go in `work`, a flat int64 array, if it holds
    _WORK_WORDS a row: a read that passes the same one for every block
    touches the same pages, where fresh arrays would be faulted in again
    each block.
    """
    data = _PAD + block
    b = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(b < 48)  # seps[0] is the pad's LF
    n = (len(seps) - 1) // 13
    if b.max() > 57 or b[-1] != 10 or b[seps[1:]].tobytes() != _ROW_SEPARATORS * n:
        return None
    if work is None or len(work) < _WORK_WORDS * n:
        work = np.empty(_WORK_WORDS * n, dtype=np.int64)
    # One contiguous array of n per field, the 13 fields then ts_us's two
    # earlier words: digit counts (which may clip to 0), the word starts,
    # and the words.  Word i is bytes i to i + 7 of data, unaligned.
    digits, at, v = work[: _WORK_WORDS * n].reshape(3, 15, n)
    np.subtract(seps[1:].reshape(n, 13).T, 8, out=at[:13])  # the one transposing pass
    np.subtract(at[1:13], at[:12], out=digits[1:13])
    np.subtract(seps[1::13], seps[:-1:13], out=digits[0])
    digits[:13] -= 1
    np.subtract(digits[0], [[8], [16]], out=digits[13:])
    np.subtract(at[0], [[8], [16]], out=at[13:])
    # np.take gathers the unaligned words about twice as fast as indexing.
    v = np.take(np.ndarray(len(data) - 7, "<u8", data, strides=(1,)), at, out=v.view(np.uint64), mode="clip")
    v &= np.take(_WORD_MASKS, digits, out=at.view(np.uint64), mode="clip")
    for mul, shift, keep in _SWAR_STEPS:
        v *= mul
        v >>= shift
        v &= keep
    # Exact up to 19 digits; a longer ts_us fails the check below
    # whatever it wraps to (the _LEAST past every value, or the maximum).
    v[13:] *= _TS_WORD_SCALES
    v[0] += v[13]
    v[0] += v[14]
    least = np.take(_LEAST, digits[:13], out=at[:13].view(np.uint64), mode="clip")
    v = v[:13]
    if ((v < least) | (v > _COLUMN_MAXIMA[:, None])).any():
        return None
    v[1:5] <<= _OCTET_SHIFTS
    v[6:10] <<= _OCTET_SHIFTS
    rows = np.empty(n, dtype=TRAFFIC_DTYPE) if room is None else room(n)[:n]
    for name, column in zip(_FIELDS, (v[0], v[1:5].sum(axis=0), v[5], v[6:10].sum(axis=0), *v[10:])):
        rows[name] = column
    return rows


def _scan(block: bytes, line_no: int, work: np.ndarray, room) -> np.ndarray:
    """The rows of a block _parse_block refused, line by line, decoded into room(n).

    Blank lines, the one legal non-canonical form, are skipped; the first
    other line that breaks the grammar or a field's range raises.
    """
    lines = block.split(b"\n")[:-1]
    for i, raw in enumerate(lines):
        if raw:
            error = _line_error(raw.decode("utf-8", errors="replace"), line_no + i)
            if error is not None:
                raise error
    lines = [raw + b"\n" for raw in lines if raw]
    rows = _parse_block(b"".join(lines), work, room)
    assert rows is not None, f"the block from line {line_no} passes the scan only"
    return rows


def _line_blocks(fh):
    """About _BLOCK_BYTES of whole lines at a time, each block ending in LF."""
    while block := fh.read(_BLOCK_BYTES) + fh.readline():
        yield block if block.endswith(b"\n") else block + b"\n"


def _row_blocks(fh, room):
    """(block, its rows, its first line number) per block after the header; see read_csv.

    A block's rows are decoded straight into the caller's table: see
    _parse_block for `room`.
    """
    header = fh.readline().decode("utf-8", errors="replace").removesuffix("\n")
    if header != CSV_HEADER:
        raise CsvFormatError(f"bad header: expected {CSV_HEADER!r}, got {header!r}", line=1)
    line_no = 2
    work = np.empty(_WORK_WORDS * (_BLOCK_BYTES // _MIN_ROW_BYTES + 1), dtype=np.int64)
    for block in _line_blocks(fh):
        rows = _parse_block(block, work, room)
        # Only a block that falls back to _scan can hold a blank line.
        lines = block.count(b"\n") if rows is None else len(rows)
        yield block, _scan(block, line_no, work, room) if rows is None else rows, line_no
        line_no += lines


def _frozen(rows: np.ndarray) -> np.recarray:
    """A read-only traffic table view of rows the decoder has bounded."""
    table = rows.view(np.recarray)
    table.flags.writeable = False
    return table


def read_csv(path) -> np.recarray:
    """Read a canonical traffic CSV into a traffic table, in file order.

    Strict: the first malformed row raises CsvFormatError naming the line
    and field (silent data loss corrupts population metrics).  The grammar
    is in the README; empty lines are skipped.  The file is read in blocks
    of whole lines, so only one block's temporaries are held at a time.
    Rows are decoded into one table sized for the shortest row (26 bytes);
    its pages past the last row are never touched, so they never become
    resident.
    """
    with open(path, "rb") as fh:
        table = np.empty(os.fstat(fh.fileno()).st_size // _MIN_ROW_BYTES, dtype=TRAFFIC_DTYPE)
        n = 0

        def room(k):
            if n + k > len(table):
                raise CsvFormatError("the file grew while it was read, or is not a regular file")
            return table[n:]

        for _, rows, _ in _row_blocks(fh, room):
            n += len(rows)
    return _frozen(table[:n])


def read_days(path):
    """Yield (UTC day, traffic table) per day of a traffic CSV, holding one day's rows.

    Reads like read_csv.  Rows may come in any order within a day; a row
    whose day is earlier than an earlier row's, or after 9999-12-31,
    raises CsvFormatError.  Each day's rows are decoded into a table of
    its own, which starts with room for a block's most rows and doubles
    as the day grows; a block's rows of a later day are copied into that
    day's new table.
    """

    def fresh():
        return np.empty(_BLOCK_BYTES // _MIN_ROW_BYTES + 1, dtype=TRAFFIC_DTYPE)

    with open(path, "rb") as fh:
        day, table, n = -1, fresh(), 0

        def room(k):
            nonlocal table
            if n + k > len(table):
                grown = np.empty(max(2 * len(table), n + k), dtype=TRAFFIC_DTYPE)
                grown[:n] = table[:n]
                table = grown
            return table[n:]

        for block, rows, line_no in _row_blocks(fh, room):
            days = rows["ts_us"] // US_PER_DAY
            bad = np.flatnonzero((np.diff(days, prepend=day) < 0) | (days > _LAST_DAY))
            if len(bad):
                i = bad[0]
                # Blank lines hold no row, so count the block's other lines.
                line = line_no + [k for k, raw in enumerate(block.split(b"\n")) if raw][i]
                if days[i] > _LAST_DAY:
                    raise CsvFormatError(f"{rows['ts_us'][i]} is after {date.max}, the last day", line, "ts_us")
                this, prev = (day_of_ts(d * US_PER_DAY) for d in (days[i], days[i - 1] if i else day))
                raise CsvFormatError(f"day {this} after day {prev}: days must not go back", line, "ts_us")
            starts = run_starts(days).tolist()
            # A run is in place if it continues the table's day (only the
            # first run can) or the table is empty (the first block's first
            # run); any other starts a new day, in a fresh table of its own.
            for lo, hi in zip(starts, starts[1:] + [len(rows)]):
                if days[lo] != day and n:
                    yield day_of_ts(day * US_PER_DAY), _frozen(table[:n])
                    table, n = fresh(), 0
                    table[: hi - lo] = rows[lo:hi]
                day = int(days[lo])
                n += hi - lo
        if n:
            yield day_of_ts(day * US_PER_DAY), _frozen(table[:n])


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """write_csv_tables' lookup tables, built on first use rather than at import.

    Every entry is a fixed-width ASCII field padded with NUL bytes, which
    no CSV row contains, so one bytes.translate drops all the padding:

    - half (uint64): a 16-bit address half as two octets, "ddd.ddd.";
    - num (uint64): 0-65535 as two NULs, five right-aligned digits, ",";
    - ts (uint32): three blocks of 10000 four-digit timestamp groups:
      zero-filled (for groups after the leading one), NUL-padded (the
      leading group) and all NUL (groups before the leading one).

    They are built one digit column at a time, in uint32 and uint8.
    """
    v = np.arange(65536, dtype=np.uint32)
    num = np.zeros((65536, 8), dtype=np.uint8)
    num[:, 7] = ord(",")
    ts = np.zeros((3, 10000, 4), dtype=np.uint8)
    for col, scale in enumerate((10000, 1000, 100, 10, 1)):
        digit = (v // scale % 10).astype(np.uint8)
        digit += ord("0")
        if col:
            ts[0, :, col - 1] = digit[:10000]
        # A leading zero is a NUL, but 0 itself prints as "0".
        num[:, 2 + col] = digit if scale == 1 else np.where(v >= scale, digit, np.uint8(0))
    ts[1] = num[:10000, 3:7]
    # Entry hi * 256 + lo is octet hi, ".", octet lo, ".".
    half = np.empty((256, 256, 8), dtype=np.uint8)
    half[:, :, :3] = num[:256, None, 4:7]
    half[:, :, 4:7] = num[None, :256, 4:7]
    half[:, :, [3, 7]] = ord(".")
    tables = half.view(np.uint64).ravel(), num.view(np.uint64).ravel(), ts.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


# Timestamp group scales: 20 digits in five groups of four hold 2**63 - 1.
_TS_GROUPS = 10 ** np.arange(16, -1, -4, dtype=np.int64)


def _render(t: np.ndarray, rows: np.ndarray | None = None) -> bytes:
    """CSV bytes of a table chunk, gathered from the digit tables.

    Each row is eleven 8-byte words of a padded byte matrix: ts_us and its
    separator (3 words), src_ip (2), src_port, dst_ip (2), dst_port,
    proto, payload_len (1 each).  The matrix is the start of `rows`, a
    uint64 array of at least len(t) rows of 11, or a fresh one if None.
    """
    half, num, ts = _digit_tables()
    rows = np.empty((len(t), 11), dtype=np.uint64) if rows is None else rows[: len(t)]
    # In-place steps and early dels keep the chunk's temporaries small.
    groups = t["ts_us"][:, None] // _TS_GROUPS
    groups %= 10000
    nonzero = groups != 0
    nonzero[:, -1] = True  # 0 prints as its last group, "0"
    # Table block per group: 0 after the leading group, 1 at it, 2 before.
    block = np.sign(nonzero.argmax(axis=1)[:, None] - np.arange(5)) + 1
    block *= 10000
    groups += block
    del nonzero, block
    rows.view(np.uint32)[:, :5] = ts[groups]
    del groups
    for word, name in ((3, "src_ip"), (6, "dst_ip")):
        rows[:, word] = half[t[name] >> 16]
        rows[:, word + 1] = half[t[name] & 0xFFFF]
    for word, name in zip((5, 8, 9, 10), ("src_port", "dst_port", "proto", "payload_len")):
        rows[:, word] = num[t[name]]
    out = rows.view(np.uint8)
    out[:, 20:24] = np.frombuffer(b",\0\0\0", dtype=np.uint8)
    out[:, [39, 63, 87]] = np.frombuffer(b",,\n", dtype=np.uint8)
    return out.tobytes().translate(None, b"\0")


def write_csv_tables(tables, path) -> int:
    """Write traffic tables one after another as one canonical CSV; returns the row count.

    Rows are rendered _CHUNK_ROWS at a time into one byte matrix that every
    chunk of every table reuses.
    """
    n = 0
    rows = np.empty((_CHUNK_ROWS, 11), dtype=np.uint64)
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for records in tables:
            for lo in range(0, len(records), _CHUNK_ROWS):
                fh.write(_render(records[lo : lo + _CHUNK_ROWS], rows))
            n += len(records)
    return n


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal values in a sorted array.

    Distinct values and their counts come from np.sort and this, not from
    np.unique: numpy 2.x's np.unique without return_* flags hashes, which
    is tens of times slower than a sort on large int64 arrays.
    """
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return np.flatnonzero(first)


@dataclass(frozen=True)
class Segments:
    """UDP packets sorted into (window start, destination port) segments.

    Segment i is records[bounds[i]:bounds[i + 1]], every packet to port[i]
    in the window starting at start_us[i].  Segments come in (start, port)
    order and hold packets ordered by timestamp (ties keep input order).
    """

    records: np.recarray
    bounds: np.ndarray
    start_us: np.ndarray
    port: np.ndarray


def segment_by_window(records: np.ndarray, window: timedelta) -> Segments:
    """Sort the UDP packets of a table into (window start, port) segments.

    Windows are aligned to 0000Z and must divide a day evenly (15 minutes,
    3 hours, 24 hours, ...).  Only proto-17 packets participate; other
    protocols are carried by the data model but never feed the metrics.
    """
    window_us = int(window.total_seconds() * 1_000_000)
    if window_us <= 0 or US_PER_DAY % window_us != 0:
        raise ValueError(f"window must evenly divide one day, got {window}")
    udp = np.flatnonzero(records["proto"] == PROTO_UDP)
    ts, port = records["ts_us"][udp], records["dst_port"][udp]
    start = ts // window_us * window_us
    order = np.lexsort((ts, port, start))
    start, port = start[order], port[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (start[1:] != start[:-1]) | (port[1:] != port[:-1])
    los = np.flatnonzero(first)
    # np.take gathers structured rows many times faster than fancy indexing.
    table = traffic_table(np.take(records, udp[order]))
    return Segments(table, np.append(los, len(order)), start[los], port[los])


def partition_by_day_port(records: np.ndarray) -> dict[tuple[date, int], PortDayPartition]:
    """segment_by_window's one-day segments as partitions keyed by (UTC day, port)."""
    seg = segment_by_window(records, timedelta(days=1))
    bounds = seg.bounds.tolist()
    days = [day_of_ts(start_us) for start_us in seg.start_us.tolist()]
    return {
        (day, port): PortDayPartition(day=day, dst_port=port, records=seg.records[lo:hi])
        for lo, hi, day, port in zip(bounds[:-1], bounds[1:], days, seg.port.tolist())
    }
