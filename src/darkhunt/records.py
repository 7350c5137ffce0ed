"""The traffic table, canonical CSV serialization, and window/port partitioning.

Also the ground-truth labels CSV (`simulate` writes it, `analyze` reads
it) and the manifest every artifact-producing command writes: they live
here, not in the simulator, so that only `simulate` loads the simulator.
Every other output is written here too, so each format has one set of
byte rules: CSV by `csv_text`, JSON by `write_json`, and a manifest's
config digest by `json_digest`.

Everything downstream (metrics, ranking, population analysis) consumes the
types in this module.  Traffic is one read-only numpy record array over
TRAFFIC_DTYPE, a row per packet and a column per CSV field; all operations
are pure functions, so partitions can be built and consumed concurrently.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import os
import re
import stat
import zlib
from datetime import date, timedelta
from typing import Mapping, NamedTuple

import numpy as np

from . import __version__

# The hash of run manifests (json_digest) and of the oracle secret: CPython's builtin
# sha256, as random.py takes its sha512.  It gives hashlib's digests without loading
# hashlib, so importing the package, analyze and population load neither hashlib nor
# OpenSSL (about 3.5 MB resident), in library use too.  For the rest of a CLI process,
# where numpy.random imports hashlib, cli._block_openssl keeps OpenSSL out.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

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
    "day_of_ts",
    "traffic_table",
    "read_days",
    "write_csv_tables",
    "run_heads",
    "run_starts",
    "SegmentWindows",
    "segment_keys",
    "segment_starts_ports",
    "partition_by_day_port",
    "write_labels_csv",
    "read_labels_csv",
    "write_manifest",
]

CSV_HEADER = "ts_us,src_ip,src_port,dst_ip,dst_port,proto,payload_len"

# One observed packet header per row, one column per CSV field: ts_us
# int64 (microseconds since the Unix epoch, UTC), src_ip/dst_ip uint32
# (use the stdlib's ipaddress at the edges), ports uint16, proto uint8,
# payload_len uint16.
TRAFFIC_DTYPE = np.dtype(
    list(zip(CSV_HEADER.split(","), ["<i8", "<u4", "<u2", "<u4", "<u2", "u1", "<u2"]))
)

PROTO_UDP = 17
MAX_UDP_PAYLOAD = 65507  # 65535 - 8 (UDP header) - 20 (IP header)

_FIELDS = CSV_HEADER.split(",")
# Every field is unsigned; its inclusive maximum, for the table and the reader.
_MAXIMA = dict(zip(_FIELDS, (2**63 - 1, 2**32 - 1, 65535, 2**32 - 1, 65535, 255, MAX_UDP_PAYLOAD)))
# The fields whose column type holds no value outside 0 to their maximum
# (the addresses, ports and proto): a column of that type needs no check.
_TYPE_BOUNDED = {
    name
    for name, hi in _MAXIMA.items()
    if np.iinfo(TRAFFIC_DTYPE[name]).min >= 0 and np.iinfo(TRAFFIC_DTYPE[name]).max <= hi
}

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
# The one day form date.fromisoformat takes on every Python from 3.10.
_DAY_RE = re.compile("[0-9]{4}-[0-9]{2}-[0-9]{2}")


def day_of_ts(ts_us: int) -> date:
    """UTC calendar day containing a microsecond timestamp.

    Days are half-open [0000Z, next 0000Z): a timestamp exactly at
    midnight belongs to the day that starts there.
    """
    return _EPOCH + timedelta(days=int(ts_us) // US_PER_DAY)


def day_start_us(day: date) -> int:
    """Microsecond timestamp of a day's 0000Z boundary."""
    return (day - _EPOCH).days * US_PER_DAY


def _parse_day(text: str, name: str) -> date:
    if _DAY_RE.fullmatch(text) is None:
        raise ValueError(f"{name}: not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


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
        if name in _TYPE_BOUNDED and col.dtype == TRAFFIC_DTYPE[name]:
            continue
        bad = (col < 0) | (col > hi)
        if bad.any():
            raise ValueError(f"{name} out of range 0-{hi}: {col[bad][0]}")
    table = np.asarray(rows, dtype=TRAFFIC_DTYPE).view(np.recarray)
    table.flags.writeable = False
    return table


class PortDayPartition(NamedTuple):
    """All packets for one (UTC day, destination port) cell, ordered by time."""

    day: date
    dst_port: int
    records: np.recarray


class LabeledDataset(NamedTuple):
    """A traffic table plus the ground-truth daily port for every day spanned."""

    records: np.recarray
    labels: Mapping[date, int]


class CsvFormatError(ValueError):
    """Raised when a traffic CSV has the wrong schema or a malformed row."""

    def __init__(self, message: str, line: int, field: str | None = None):
        self.line = line
        self.field = field
        prefix = f"line {line}: "
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
_CHUNK_ROWS = 1 << 11  # rows per _render call: its byte matrix and temporaries stay cache-sized
_BLOCK_BYTES = 1 << 17  # bytes read per read_days block, rounded up to a whole line
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


def _parse_block(block: bytes, work: np.ndarray, room) -> np.ndarray | None:
    """The rows of a block of LF-ended lines, or None if any is not canonical.

    A block is canonical exactly when every byte is a digit or separator,
    its separators come 13 a row as in _ROW_SEPARATORS, and every value
    is at most its _COLUMN_MAXIMA and at least _LEAST for its digit count.
    That refuses empty fields, leading zeros, and fields longer than 19
    digits or than their one word (whose value then has fewer digits than
    the field).  This is the README grammar; a test pins it to the writer.

    The rows are decoded straight into the start of room(n), a
    TRAFFIC_DTYPE array the caller gives with room for the block's n
    rows, and that part of it is returned; room is called only once the
    whole block is canonical.  The temporaries go in `work`, a flat int64
    array of at least _WORK_WORDS a row: a read that passes the same one
    for every block touches the same pages, where fresh arrays would be
    faulted in again each block.
    """
    data = _PAD + block
    b = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(b < 48)  # seps[0] is the pad's LF
    n = (len(seps) - 1) // 13
    if b.max() > 57 or b[-1] != 10 or b[seps[1:]].tobytes() != _ROW_SEPARATORS * n:
        return None
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
    rows = room(n)[:n]
    for name, column in zip(_FIELDS, (v[0], v[1:5].sum(axis=0), v[5], v[6:10].sum(axis=0), *v[10:])):
        rows[name] = column
    return rows


def _scan(block: bytes, line_no: int, day: int, work: np.ndarray, room) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows of a block, line by line, decoded into room(n), with their
    day numbers and the block's line count.

    `day` is the day number of the row before the block (-1 if none).
    Blank lines, the one legal non-canonical form, are skipped; the first
    other line that breaks the grammar, a field's range or a day rule (a
    day earlier than the row before's, or after 9999-12-31) raises.
    """
    lines = block.split(b"\n")[:-1]
    for i, raw in enumerate(lines):
        if not raw:
            continue
        line = raw.decode("utf-8", errors="replace")
        error = _line_error(line, line_no + i)
        if error is not None:
            raise error
        ts = int(line[: line.index(",")])
        if ts // US_PER_DAY > _LAST_DAY:
            raise CsvFormatError(f"{ts} is after {date.max}, the last day", line_no + i, "ts_us")
        if ts // US_PER_DAY < day:
            this, prev = day_of_ts(ts), day_of_ts(day * US_PER_DAY)
            raise CsvFormatError(f"day {this} after day {prev}: days must not go back", line_no + i, "ts_us")
        day = ts // US_PER_DAY
    rows = _parse_block(b"".join(raw + b"\n" for raw in lines if raw), work, room)
    assert rows is not None, f"the block from line {line_no} passes the scan only"
    return rows, rows["ts_us"] // US_PER_DAY, len(lines)


def _line_blocks(fh):
    """About _BLOCK_BYTES of whole lines at a time; only the file's last line may lack its LF."""
    while block := fh.read(_BLOCK_BYTES) + fh.readline():
        yield block


def _decode_days(fh, seen):
    """Yield (day number, traffic table) per day of the CSV open in fh: read_days' decoder.

    seen(raw) is called on the file's bytes as they are read, header first.
    """
    block_rows = _BLOCK_BYTES // _MIN_ROW_BYTES + 1
    work = np.empty(_WORK_WORDS * (_BLOCK_BYTES // len(_ROW_SEPARATORS) + 1), dtype=np.int64)

    raw = fh.readline()
    seen(raw)
    header = raw.decode("utf-8", errors="replace").removesuffix("\n")
    if header != CSV_HEADER:
        raise CsvFormatError(f"bad header: expected {CSV_HEADER!r}, got {header!r}", line=1)
    day, table, n = -1, np.empty(block_rows, dtype=TRAFFIC_DTYPE), 0
    line_no, lines = 2, 0  # line_no + lines is the next block's first line

    def room(k):
        nonlocal table
        if n + k > len(table):
            grown = np.empty(max(2 * len(table), n + k), dtype=TRAFFIC_DTYPE)
            grown[:n] = table[:n]
            table = grown
        return table[n:]

    for block in _line_blocks(fh):
        seen(block)
        if not block.endswith(b"\n"):
            block += b"\n"
        line_no += lines
        rows = _parse_block(block, work, room)
        if rows is not None:
            # A canonical block holds a row on every line.
            days, lines = rows["ts_us"] // US_PER_DAY, len(rows)
        if rows is None or not (day <= days[0] and days[-1] <= _LAST_DAY and (days[1:] >= days[:-1]).all()):
            # _scan raises at the block's first bad line, so it returns
            # only when every line the decoder refused is blank.
            rows, days, lines = _scan(block, line_no, day, work, room)
        starts = run_starts(days).tolist()
        # A run is in place if it continues the table's day (only the
        # first run can) or the table is empty (the first block's first
        # run); any other starts a new day, in a fresh table of its own.
        for lo, hi in zip(starts, starts[1:] + [len(rows)]):
            if days[lo] != day and n:
                yield day, traffic_table(table[:n])
                table, n = np.empty(n + block_rows, dtype=TRAFFIC_DTYPE), 0
                table[: hi - lo] = rows[lo:hi]
            day = int(days[lo])
            n += hi - lo
    if n:
        yield day, traffic_table(table[:n])


# The day cache beside a CSV, `.<name>.days`: every day's rows in
# TRAFFIC_DTYPE bytes, day after day; an index entry per day (its day
# number, row count and the CRC-32 of its rows); then the footer.  The
# footer's crc covers the index and the footer fields before it; its tag
# names the format, and a change to TRAFFIC_DTYPE or the layout needs a
# new one.
_CACHE_INDEX = np.dtype([("day", "<i8"), ("rows", "<i8"), ("crc", "<u4")])
_CACHE_FOOTER = np.dtype([("tag", "S8"), ("days", "<i8"), ("csv_size", "<i8"), ("csv_crc", "<u4"), ("crc", "<u4")])
_CACHE_TAG = b"dhdays1\n"
_CHECK_BYTES = 1 << 18  # bytes per read while a cache is checked


def _cache_path(path) -> str:
    head, tail = os.path.split(os.fsdecode(path))
    return os.path.join(head, f".{tail}.days")


def _crc_of_next(fh, size: int, buf: bytearray) -> int | None:
    """CRC-32 of fh's next `size` bytes, read through buf; None if fewer are left."""
    crc, view = 0, memoryview(buf)
    while size:
        got = fh.readinto(view[: min(size, len(view))])
        if not got:
            return None
        crc = zlib.crc32(view[:got], crc)
        size -= got
    return crc


def _open_cache(cache: str, csv_fh):
    """The open cache file and its index, if the cache at `cache` holds
    exactly the days of the CSV open in csv_fh; else None.

    Everything is checked before any day is read: the footer's tag and
    CRC, that the index fits the file's size, that the footer gives the
    CSV's size and CRC-32 (read through csv_fh, which is left at the
    start), and the CRC-32 of every day's rows.  A cache is only ever
    replaced whole (by rename), so the open file reads the checked bytes.
    """
    try:
        fh = open(cache, "rb")
    except OSError:
        return None
    try:
        info = os.fstat(fh.fileno())
        size = info.st_size
        if not stat.S_ISREG(info.st_mode) or size < _CACHE_FOOTER.itemsize:
            raise ValueError
        fh.seek(size - _CACHE_FOOTER.itemsize)
        footer_bytes = fh.read(_CACHE_FOOTER.itemsize)
        footer = np.frombuffer(footer_bytes, _CACHE_FOOTER)[0]
        days = int(footer["days"])
        if footer["tag"] != _CACHE_TAG or int(footer["csv_size"]) != os.fstat(csv_fh.fileno()).st_size:
            raise ValueError
        body = size - _CACHE_FOOTER.itemsize - days * _CACHE_INDEX.itemsize
        if days < 0 or body < 0:
            raise ValueError
        fh.seek(body)
        index_bytes = fh.read(days * _CACHE_INDEX.itemsize)
        if zlib.crc32(footer_bytes[:-4], zlib.crc32(index_bytes)) != footer["crc"]:
            raise ValueError
        index = np.frombuffer(index_bytes, _CACHE_INDEX)
        day, rows = index["day"], index["rows"]
        in_order = days == 0 or (0 <= day[0] and day[-1] <= _LAST_DAY and (day[1:] > day[:-1]).all())
        if not (in_order and (rows > 0).all() and int(rows.sum()) * TRAFFIC_DTYPE.itemsize == body):
            raise ValueError
        buf = bytearray(_CHECK_BYTES)
        csv_fh.seek(0)
        csv_crc = _crc_of_next(csv_fh, int(footer["csv_size"]), buf)
        if csv_crc != footer["csv_crc"] or csv_fh.read(1):
            raise ValueError
        fh.seek(0)
        for n, crc in zip(rows.tolist(), index["crc"].tolist()):
            if _crc_of_next(fh, n * TRAFFIC_DTYPE.itemsize, buf) != crc:
                raise ValueError
        fh.seek(0)
        return fh, index
    except (OSError, ValueError):
        fh.close()
        csv_fh.seek(0)
        return None


class _CacheWriter:
    """Days streamed into a temporary file beside a CSV, renamed to its
    cache once the CSV is whole: read_days' as it decodes the CSV, and
    write_csv_tables' as it writes it.

    Any OSError drops the file, so a cache that cannot be written is
    skipped.  The CSV's size and CRC-32 are summed from the bytes the
    decoder reads or the writer writes, so the cache matches exactly those
    bytes.
    """

    def __init__(self, cache: str, temp: str, fh):
        self.cache, self.temp, self.fh = cache, temp, fh
        self.index, self.csv_size, self.csv_crc = [], 0, 0

    @classmethod
    def create(cls, cache: str) -> _CacheWriter | None:
        """A writer to a new temporary file beside `cache`, or None if none can be made."""
        temp = f"{cache}.{os.urandom(4).hex()}.tmp"
        try:
            return cls(cache, temp, open(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), "wb"))
        except OSError:
            return None

    def seen(self, raw: bytes) -> None:
        self.csv_size += len(raw)
        self.csv_crc = zlib.crc32(raw, self.csv_crc)

    def add(self, day: int, rows: np.ndarray) -> None:
        """Append contiguous TRAFFIC_DTYPE rows of `day`, no day before the
        last one added: that day's index entry is extended (its CRC-32
        chained), a later one starts its own."""
        if self.fh is None:
            return
        if self.index and self.index[-1][0] == day:
            _, n, crc = self.index[-1]
            self.index[-1] = (day, n + len(rows), zlib.crc32(rows, crc))
        else:
            self.index.append((day, len(rows), zlib.crc32(rows)))
        try:
            self.fh.write(rows)
        except OSError:
            self.discard()

    def add_written(self, rows: np.ndarray) -> None:
        """Add a non-empty chunk of a table write_csv_tables checked, split
        at its days, if the decoder reads it back as it is: every value
        within its field's range, and days from 1970-01-01 to 9999-12-31
        that never go back.  Else the cache is discarded.

        A chunk whose first and last days (of its smallest and largest
        ts_us) are one day is added whole, with no per-row day."""
        if self.fh is None:
            return
        # payload_len is the one field outside _TYPE_BOUNDED whose type
        # holds values above its maximum; ts_us only goes below its range.
        ts = rows["ts_us"]
        first, end = int(ts.min()) // US_PER_DAY, int(ts.max()) // US_PER_DAY
        last = self.index[-1][0] if self.index else 0
        if rows["payload_len"].max() > MAX_UDP_PAYLOAD or not last <= first <= end <= _LAST_DAY:
            self.discard()
            return
        if first == end:
            self.add(first, rows)
            return
        days = ts // US_PER_DAY
        if not (days[1:] >= days[:-1]).all():
            self.discard()
            return
        starts = run_starts(days).tolist()
        for lo, hi in zip(starts, starts[1:] + [len(rows)]):
            self.add(int(days[lo]), rows[lo:hi])

    def commit(self) -> None:
        if self.fh is None:
            return
        index = np.array(self.index, dtype=_CACHE_INDEX).tobytes()
        footer = np.array([(_CACHE_TAG, len(self.index), self.csv_size, self.csv_crc, 0)], dtype=_CACHE_FOOTER)
        footer["crc"] = zlib.crc32(footer.tobytes()[:-4], zlib.crc32(index))
        try:
            self.fh.write(index + footer.tobytes())
            self.fh.close()
            os.replace(self.temp, self.cache)
        except OSError:
            self.discard()
        self.fh = None

    def discard(self) -> None:
        """Close and remove the temporary file, unless commit renamed it."""
        if self.fh is None:
            return
        fh, self.fh = self.fh, None
        try:
            fh.close()
        except OSError:
            pass
        try:
            os.unlink(self.temp)
        except OSError:
            pass


def read_days(path):
    """Yield (UTC day, traffic table) per day of a traffic CSV, holding one day's rows.

    Strict: the first malformed row raises CsvFormatError naming the line
    and field (silent data loss corrupts population metrics).  The grammar
    is in the README; empty lines are skipped.  Rows may come in any order
    within a day; a row whose day is earlier than an earlier row's, or
    after 9999-12-31, raises CsvFormatError.  Every row error comes from
    _scan, the line walk of a block the decoder refuses or whose days
    break a rule, so the first bad line raises whatever the block size.

    The file is read in blocks of whole lines, each decoded straight into
    its day's table with one work area for every block.  That is sized for
    a block of the shortest rows the decoder's separator check passes:
    rows of separators only (13 bytes), whose empty fields fail only its
    value check.  Each day's rows are decoded into a table of its own,
    which starts with room for the previous day's rows plus a block's most
    canonical rows (days of a capture are alike in size) and doubles past
    that; a block's rows of a later day are copied into that day's new
    table.  The tail of a work area or table that is never written never
    becomes resident.

    A CSV is decoded once: a complete read of a regular file leaves its
    tables in `.<name>.days` beside it (_CacheWriter), as write_csv_tables
    does when it writes one, and a later read whose CSV still has the size
    and CRC-32 it had yields the same tables from there (_open_cache), one
    np.fromfile per day.  A cache that is missing, stale or corrupt, or
    cannot be written, changes no table and no error; a read that raises
    or stops early leaves no file.
    """
    with open(path, "rb") as fh:
        cache = _cache_path(path) if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else None
        cached = _open_cache(cache, fh) if cache else None
        if cached:
            cache_fh, index = cached
            with cache_fh:
                for day, n in zip(index["day"].tolist(), index["rows"].tolist()):
                    yield day_of_ts(day * US_PER_DAY), traffic_table(np.fromfile(cache_fh, TRAFFIC_DTYPE, n))
            return
        writer = _CacheWriter.create(cache) if cache else None
        try:
            for day, table in _decode_days(fh, writer.seen if writer else lambda raw: None):
                if writer:
                    writer.add(day, table)
                yield day_of_ts(day * US_PER_DAY), table
            if writer:
                writer.commit()
        finally:
            if writer:
                writer.discard()


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """write_csv_tables' lookup tables, built on first use rather than at import.

    Every entry is a fixed-width ASCII field padded with NUL bytes, which
    no CSV row contains, so one bytes.translate drops all the padding:

    - octet (uint32): 0-255 as three right-aligned digits and ".";
    - num (uint64): 0-65535 as two NULs, five right-aligned digits, ",";
    - ts (uint32): three blocks of 10000 four-digit timestamp groups:
      zero-filled (for groups after the leading one), NUL-padded (the
      leading group) and all NUL (groups before the leading one).

    The zero-filled groups are built one digit column at a time; the
    rest are copied from them, so no temporary outgrows a 10000-entry
    column.
    """
    ts = np.zeros((3, 10000, 4), dtype=np.uint8)
    v = np.arange(10000, dtype=np.uint16)
    for col, scale in enumerate((1000, 100, 10, 1)):
        digit = v // scale
        digit %= 10
        digit += ord("0")
        ts[0, :, col] = digit
    # A leading zero is a NUL, but 0 itself prints as "0".
    ts[1] = ts[0]
    for col, scale in enumerate((1000, 100, 10)):
        ts[1, :scale, col] = 0
    octet = np.empty((256, 4), dtype=np.uint8)
    octet[:, :3] = ts[1, :256, 1:]
    octet[:, 3] = ord(".")
    # Values with leading digit d are the block from d * 10000: d (a NUL
    # for 0), then the four-digit group, NUL-padded only in the first.
    num = np.zeros((65536, 8), dtype=np.uint8)
    num[:, 7] = ord(",")
    for lead, lo in enumerate(range(0, 65536, 10000)):
        block = num[lo : lo + 10000]
        block[:, 3:7] = ts[0 if lead else 1, : len(block)]
        if lead:
            block[:, 2] = ord("0") + lead
    tables = octet.view(np.uint32).ravel(), num.view(np.uint64).ravel(), ts.view(np.uint32).ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


# Where ts_us's leading four-digit group falls: a value below 10**16 has
# nothing in its first group, below 10**12 nothing in its first two, ...
_TS_BOUNDS = np.array([[10**16], [10**12], [10**8], [10**4]], dtype=np.int64)
# The 4-byte slot after ts_us's last group: its comma and padding.
_TS_END = np.frombuffer(b",\0\0\0", dtype=np.uint32)[0]


def _render(t: np.ndarray, rows: np.ndarray) -> bytes:
    """CSV bytes of a table chunk, gathered from the digit tables.

    Each row is eleven 8-byte words of a padded byte matrix: ts_us and its
    separator (3 words), src_ip (2), src_port, dst_ip (2), dst_port,
    proto, payload_len (1 each).  The matrix is the start of `rows`, a
    uint64 array of at least len(t) rows of 11.
    """
    octet, num, ts = _digit_tables()
    rows = rows[: len(t)]
    # ts_us's five four-digit groups, most significant first: 20 digits
    # hold 2**63 - 1.  Dividing by one scalar at a time lets numpy divide
    # by multiply and shift; a group is then the value less its quotient
    # times 10000, which costs less than numpy's remainder.
    groups = np.empty((5, len(t)), dtype=np.int64)
    value, quotient = t["ts_us"].astype(np.int64), np.empty(len(t), dtype=np.int64)
    for group in groups[:0:-1]:
        np.floor_divide(value, 10000, out=quotient)
        np.multiply(quotient, -10000, out=group)
        group += value
        value, quotient = quotient, value
    groups[0] = value
    del value, quotient
    # Table block per group: 0 after the leading group, 1 at it, 2 before.
    # Group j is at or before the leading group when the value is below
    # the bound of group j - 1 (always, for the first), and before it when
    # below its own bound; the last group is never before it.
    below = (t["ts_us"] < _TS_BOUNDS) * 10000
    groups[0] += 10000
    groups[:4] += below
    groups[1:] += below
    del below
    words = rows.view(np.uint32)
    words[:, :5] = np.take(ts, groups).T
    words[:, 5] = _TS_END
    del groups
    # An address's four octets, most significant first whatever the
    # host's byte order, fill four 4-byte slots: words 3-4 or 6-7.
    for slot, name in ((6, "src_ip"), (12, "dst_ip")):
        words[:, slot : slot + 4] = np.take(octet, t[name].astype(">u4").view(np.uint8).reshape(-1, 4))
    for word, name in zip((5, 8, 9, 10), ("src_port", "dst_port", "proto", "payload_len")):
        rows[:, word] = np.take(num, t[name])
    out = rows.view(np.uint8)
    out[:, 39] = out[:, 63] = ord(",")
    out[:, 87] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def _write_table(fh, records: np.ndarray, rows: np.ndarray, writer: _CacheWriter | None) -> None:
    """Write a table's CSV rows to fh a chunk at a time, and each chunk to writer's cache.

    Its views of the table end with the call, so the caller can drop the
    table before the next one is made.
    """
    ts = records["ts_us"]
    # Negative is the one way out of range a ts_us column can go; the
    # digit tables would render it as another, positive timestamp.
    if len(ts) and ts.min() < 0:
        raise ValueError(f"ts_us out of range 0-{_MAXIMA['ts_us']}: {ts[ts < 0][0]}")
    if writer and not (records.dtype == TRAFFIC_DTYPE and records.flags.c_contiguous):
        writer.discard()  # the cache takes a table's own bytes, never a copy
    for lo in range(0, len(records), _CHUNK_ROWS):
        chunk = records[lo : lo + _CHUNK_ROWS]
        data = _render(chunk, rows)
        fh.write(data)
        if writer:
            writer.seen(data)
            writer.add_written(chunk)
        del data  # so the next chunk is rendered without it


def write_csv_tables(tables, path) -> int:
    """Write traffic tables one after another as one canonical CSV; returns the row count.

    Rows are rendered _CHUNK_ROWS at a time into one byte matrix that every
    chunk of every table reuses.  A regular file also gets the day cache a
    complete read_days of it leaves (_CacheWriter), byte for byte, from the
    chunks and bytes written, so no read of it decodes text.  Any old cache
    is removed first.  The new one is kept only if the CSV is written whole,
    every table is a contiguous TRAFFIC_DTYPE array and every chunk passes
    add_written's rules: exactly when the decoder yields the rows written.
    """
    n, writer = 0, None
    rows = np.empty((_CHUNK_ROWS, 11), dtype=np.uint64)
    try:
        with open(path, "wb") as fh:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                cache = _cache_path(path)
                try:
                    os.unlink(cache)
                except OSError:
                    pass
                writer = _CacheWriter.create(cache)
            header = CSV_HEADER.encode() + b"\n"
            fh.write(header)
            if writer:
                writer.seen(header)
            for records in tables:
                # A plain array: a recarray slices and gets fields in Python.
                records = np.asarray(records)
                _write_table(fh, records, rows, writer)
                n += len(records)
                del records  # so a generator can free it before it makes the next
        if writer:
            writer.commit()
    finally:
        if writer:
            writer.discard()
    return n


def write_labels_csv(labels, path) -> None:
    """Write the ground-truth `day,port` CSV."""
    write_csv_rows([("day", "port"), *sorted(labels.items())], path)


def read_labels_csv(path) -> dict[date, int]:
    """Read a `day,port` CSV back into a labels map."""
    labels = {}
    with open(path, "r", newline="") as fh:
        header = fh.readline().removesuffix("\n")
        if header != "day,port":
            raise ValueError(f"bad labels header: expected 'day,port', got {header!r}")
        for line_no, line in enumerate(fh, start=2):
            line = line.removesuffix("\n")
            if not line:
                continue
            try:
                fields = line.split(",")
                if len(fields) != 2:
                    raise ValueError(f"expected 2 fields, got {len(fields)}")
                day_s, port_s = fields
                if _UINT_RE.fullmatch(port_s) is None:
                    raise ValueError(f"port: not an unsigned decimal integer: {port_s!r}")
                day, port = _parse_day(day_s, "day"), int(port_s)
                if port > 65535:
                    raise ValueError(f"port out of range 0-65535: {port}")
                if day in labels:
                    raise ValueError(f"day {day} listed twice")
            except ValueError as exc:
                raise ValueError(f"labels line {line_no}: {exc}") from None
            labels[day] = port
    return labels


def write_manifest(out_dir, command: str, **fields) -> dict:
    """Write a run's manifest.json: tool, version and command plus fields.

    Keys are sorted and nothing time- or host-dependent is added, so equal
    runs give byte-identical manifests.  Returns the manifest.
    """
    manifest = {"tool": "darkhunt", "version": __version__, "command": command, **fields}
    write_json(manifest, os.path.join(out_dir, "manifest.json"))
    return manifest


def csv_text(rows) -> str:
    """Rows as CSV text, each line ended by LF, a field quoted only where it must be and None empty."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_csv_rows(rows, path) -> None:
    """Write rows to path as csv_text renders them."""
    with open(path, "w", newline="") as fh:
        fh.write(csv_text(rows))


def write_json(obj, path, sort_keys: bool = True) -> None:
    """Write obj to path as JSON indented by 2 and ended by LF, keys sorted unless sort_keys is false."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")


def json_digest(obj) -> str:
    """sha256 hex digest of obj's compact, key-sorted JSON: a manifest's config_sha256."""
    return sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def run_heads(keys: np.ndarray) -> np.ndarray:
    """A bool mask of the first element of each run of equal adjacent values."""
    first = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal adjacent values.

    Distinct values and their counts come from np.sort and this, not from
    np.unique: numpy 2.x's np.unique without return_* flags hashes, which
    is tens of times slower than a sort on large int64 arrays.
    """
    return np.flatnonzero(run_heads(keys))


class SegmentWindows(NamedTuple):
    """How segment_keys' keys name their windows.

    A key's bits from 16 up are its window's index counted from the first
    window, which starts at first_us; or, when starts_us is set (a span of
    2^47 windows or more), the rank of its window's start in starts_us.
    """

    window_us: int
    first_us: int
    starts_us: np.ndarray | None = None


def segment_keys(records: np.ndarray, window: timedelta) -> tuple[np.ndarray, np.ndarray, SegmentWindows]:
    """The (window start, destination port) segment of each UDP packet of a table, as one int64 key.

    Returns the UDP rows as a bool mask, a non-negative key per UDP row,
    (window index - first window's) << 16 | dst_port, and the SegmentWindows that
    segment_starts_ports reads the keys back with.  Keys sort in (window
    start, port) order.  Windows are aligned to 0000Z and must divide a
    day evenly (15 minutes, 3 hours, 24 hours, ...).  Only proto-17
    packets participate; other protocols are carried by the data model
    but never feed the metrics.
    """
    window_us = window // timedelta(microseconds=1)
    if window_us <= 0 or US_PER_DAY % window_us != 0:
        raise ValueError(f"window must evenly divide one day, got {window}")
    udp = records["proto"] == PROTO_UDP
    keys = records["ts_us"][udp]
    keys //= window_us
    first = int(keys.min()) if len(keys) else 0
    keys -= first
    windows = SegmentWindows(window_us, first * window_us)
    if len(keys) and int(keys.max()) >> 47:
        # Too many windows for the 47 bits above the port: key their ranks.
        starts, keys = np.unique(keys, return_inverse=True)
        starts += first
        starts *= window_us
        windows = windows._replace(starts_us=starts)
        keys = keys.astype(np.int64, copy=False).reshape(-1)
    keys <<= 16
    keys |= records["dst_port"][udp]
    return udp, keys, windows


def segment_starts_ports(segments: np.ndarray, windows: SegmentWindows) -> tuple[np.ndarray, np.ndarray]:
    """The window starts (int64 microseconds) and destination ports (uint16) of segment_keys' keys."""
    start_us = segments >> 16
    if windows.starts_us is not None:
        start_us = windows.starts_us[start_us]
    else:
        start_us *= windows.window_us
        start_us += windows.first_us
    return start_us, (segments & 0xFFFF).astype(np.uint16)


def partition_by_day_port(records: np.ndarray) -> dict[tuple[date, int], PortDayPartition]:
    """A table's one-day segment_keys segments as partitions keyed by (UTC day, port).

    Each partition holds its packets ordered by timestamp (ties keep input order).
    """
    udp, keys, windows = segment_keys(records, timedelta(days=1))
    order = np.lexsort((records["ts_us"][udp], keys))
    rows = np.flatnonzero(udp)
    # np.take gathers structured rows many times faster than fancy indexing.
    table = traffic_table(np.take(records, rows[order]))
    keys = keys[order]
    los = run_starts(keys)
    bounds = np.append(los, len(keys)).tolist()
    start_us, ports = segment_starts_ports(keys[los], windows)
    days = [day_of_ts(start) for start in start_us.tolist()]
    return {
        (day, port): PortDayPartition(day=day, dst_port=port, records=table[lo:hi])
        for lo, hi, day, port in zip(bounds[:-1], bounds[1:], days, ports.tolist())
    }
