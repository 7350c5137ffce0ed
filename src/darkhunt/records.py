"""Packet records, canonical CSV serialization, and day/port partitioning.

Everything downstream (metrics, ranking, population analysis) consumes the
types in this module.  Records are immutable; all operations are pure
functions, so partitions can be built and consumed concurrently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone
from typing import Iterable, Mapping, Sequence

__all__ = [
    "PacketRecord",
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
    "read_csv",
    "read_csv_lenient",
    "write_csv",
    "partition_by_day_port",
    "partition_by_window",
    "label_dataset",
]

CSV_HEADER = "ts_us,src_ip,src_port,dst_ip,dst_port,proto,payload_len"

PROTO_UDP = 17
MAX_UDP_PAYLOAD = 65507  # 65535 - 8 (UDP header) - 20 (IP header)

US_PER_DAY = 86_400_000_000
SECONDS_PER_DAY = 86400.0
_EPOCH = date(1970, 1, 1)

# The CSV grammar: unsigned decimal integers in ASCII digits with no sign,
# separator or leading zero, and dotted quads whose octets follow the same
# rule and stay within 0-255.
_UINT = "(0|[1-9][0-9]*)"
_OCTET = "(25[0-5]|2[0-4][0-9]|1[0-9][0-9]|[1-9][0-9]|[0-9])"
_IPV4 = r"\.".join([_OCTET] * 4)
_UINT_RE = re.compile(_UINT)
_IPV4_RE = re.compile(_IPV4)
_ROW_RE = re.compile(",".join([_UINT, _IPV4, _UINT, _IPV4, _UINT, _UINT, _UINT]) + "\n?")


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
    return _EPOCH + timedelta(days=ts_us // US_PER_DAY)


def day_start_us(day: date) -> int:
    """Microsecond timestamp of a day's 0000Z boundary."""
    return (day - _EPOCH).days * US_PER_DAY


@dataclass(frozen=True, slots=True)
class PacketRecord:
    """One observed UDP packet header.

    Addresses are 32-bit integers (use ip_to_str / ip_from_str at the
    edges); ts_us is microseconds since the Unix epoch, UTC.
    """

    ts_us: int
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    proto: int
    payload_len: int

    def __post_init__(self) -> None:
        if self.ts_us < 0:
            raise ValueError(f"ts_us must be >= 0, got {self.ts_us}")
        for name in ("src_ip", "dst_ip"):
            v = getattr(self, name)
            if not 0 <= v < 2**32:
                raise ValueError(f"{name} out of IPv4 range: {v}")
        for name in ("src_port", "dst_port"):
            v = getattr(self, name)
            if not 0 <= v <= 65535:
                raise ValueError(f"{name} out of range 0-65535: {v}")
        if not 0 <= self.proto <= 255:
            raise ValueError(f"proto out of range 0-255: {self.proto}")
        if not 0 <= self.payload_len <= MAX_UDP_PAYLOAD:
            raise ValueError(
                f"payload_len out of range 0-{MAX_UDP_PAYLOAD}: {self.payload_len}"
            )

    @property
    def day(self) -> date:
        return day_of_ts(self.ts_us)

    def to_csv_row(self) -> str:
        return (
            f"{self.ts_us},{ip_to_str(self.src_ip)},{self.src_port},"
            f"{ip_to_str(self.dst_ip)},{self.dst_port},{self.proto},{self.payload_len}"
        )


@dataclass(frozen=True)
class PortDayPartition:
    """All packets for one (UTC day, destination port) cell, ordered by time."""

    day: date
    dst_port: int
    records: tuple[PacketRecord, ...]

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class LabeledDataset:
    """Packet records plus the ground-truth daily port for every day spanned."""

    records: tuple[PacketRecord, ...]
    labels: Mapping[date, int]

    def days(self) -> list[date]:
        return sorted(self.labels)


class CsvFormatError(ValueError):
    """Raised when a traffic CSV has the wrong schema or a malformed row."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.line = line
        self.field = field
        prefix = f"line {line}: " if line is not None else ""
        if field:
            prefix += f"{field}: "
        super().__init__(prefix + message)


_FIELDS = CSV_HEADER.split(",")


def _row_error(line: str, line_no: int) -> CsvFormatError:
    """Name the first field of a row that breaks the grammar."""
    parts = line.removesuffix("\n").split(",")
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
    raise AssertionError(f"line {line_no} matches every field pattern but not the row")


def _read(path, bad: list[tuple[int, str]] | None) -> list[PacketRecord]:
    """The row loop behind read_csv (bad is None) and read_csv_lenient."""
    records = []
    with open(path, "r", encoding="utf-8", errors="replace", newline="\n") as fh:
        header = fh.readline().removesuffix("\n")
        if header != CSV_HEADER:
            raise CsvFormatError(
                f"bad header: expected {CSV_HEADER!r}, got {header!r}", line=1
            )
        for line_no, line in enumerate(fh, start=2):
            m = _ROW_RE.fullmatch(line)
            if m is not None:
                ts, s1, s2, s3, s4, sport, d1, d2, d3, d4, dport, proto, size = map(int, m.groups())
                try:
                    records.append(PacketRecord(
                        ts,
                        s1 << 24 | s2 << 16 | s3 << 8 | s4,
                        sport,
                        d1 << 24 | d2 << 16 | d3 << 8 | d4,
                        dport,
                        proto,
                        size,
                    ))
                    continue
                except ValueError as exc:
                    err = CsvFormatError(str(exc), line=line_no)
            elif line == "\n":
                continue
            else:
                err = _row_error(line, line_no)
            if bad is None:
                raise err
            bad.append((line_no, str(err)))
    return records


def read_csv(path) -> list[PacketRecord]:
    """Read a canonical traffic CSV, in file order.

    Strict: any malformed row raises CsvFormatError naming the line and
    field.  Use read_csv_lenient to skip and report bad rows instead
    (silent data loss corrupts population metrics, so skipping is always
    opt-in).  The grammar is in the README; empty lines are skipped.
    """
    return _read(path, None)


def read_csv_lenient(path) -> tuple[list[PacketRecord], list[tuple[int, str]]]:
    """Like read_csv but skips malformed rows, returning (records, bad_rows).

    bad_rows holds (line_number, reason) for each skipped row.  A bad
    header is still fatal.
    """
    bad: list[tuple[int, str]] = []
    return _read(path, bad), bad


def write_csv(records: Iterable[PacketRecord], path) -> None:
    """Write records in the canonical CSV format (LF newlines, no quoting)."""
    with open(path, "w", newline="") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            fh.write(rec.to_csv_row() + "\n")


def partition_by_window(
    records: Iterable[PacketRecord], window: timedelta
) -> dict[tuple[datetime, int], PortDayPartition]:
    """Group UDP records into (window start, destination port) partitions.

    Windows are aligned to 0000Z and must divide a day evenly (15 minutes,
    3 hours, 24 hours, ...).  Each partition's `day` is the UTC day
    containing the window, so daily-port labels still apply.  Only
    proto-17 records participate; other protocols are carried by the data
    model but never feed the metrics.  Within each partition records are
    ordered by timestamp.
    """
    window_us = int(window.total_seconds() * 1_000_000)
    if window_us <= 0 or US_PER_DAY % window_us != 0:
        raise ValueError(f"window must evenly divide one day, got {window}")
    buckets: dict[tuple[int, int], list[PacketRecord]] = {}
    for rec in records:
        if rec.proto != PROTO_UDP:
            continue
        start = (rec.ts_us // window_us) * window_us
        buckets.setdefault((start, rec.dst_port), []).append(rec)
    out = {}
    for (start_us, port), recs in buckets.items():
        recs.sort(key=lambda r: r.ts_us)
        start_dt = datetime.fromtimestamp(start_us / 1_000_000, tz=timezone.utc)
        out[(start_dt, port)] = PortDayPartition(
            day=day_of_ts(start_us), dst_port=port, records=tuple(recs)
        )
    return out


def partition_by_day_port(
    records: Iterable[PacketRecord],
) -> dict[tuple[date, int], PortDayPartition]:
    """partition_by_window over one-day windows, keyed by (UTC day, port)."""
    return {
        (part.day, port): part
        for (_, port), part in partition_by_window(records, timedelta(days=1)).items()
    }


def label_dataset(records: Sequence[PacketRecord], oracle) -> LabeledDataset:
    """Attach ground-truth daily ports to a record set.

    Labels cover every calendar day from the first to the last record
    inclusive, including gap days with no traffic.  `oracle` is any object
    with a daily_port(day) method (see darkhunt.portgen).
    """
    if not records:
        return LabeledDataset(records=(), labels={})
    first = min(r.ts_us for r in records)
    last = max(r.ts_us for r in records)
    day = day_of_ts(first)
    end = day_of_ts(last)
    labels = {}
    while day <= end:
        labels[day] = oracle.daily_port(day)
        day += timedelta(days=1)
    return LabeledDataset(records=tuple(records), labels=labels)
