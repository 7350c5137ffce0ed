"""Per-period port ranking and the discoverability score.

A hunter applies a metric to every active port in a period, ranks the
ports, and walks the top-n list.  Discoverability is the fraction of
periods in which the ground-truth port lands at rank <= n; n defaults to
100 (roughly 12 alerts an hour over an 8-hour shift).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from typing import Mapping, Optional, Sequence

import numpy as np

from .metrics import score_segments
from .records import (
    LabeledDataset,
    PortDayPartition,
    day_of_ts,
    run_starts,
    segment_by_window,
    window_start,
)

__all__ = [
    "DEFAULT_TOP_N",
    "RankEntry",
    "RankedPortList",
    "DiscoverabilityReport",
    "ReportRow",
    "rank_ports",
    "rank_of_labeled_port",
    "discoverability",
    "time_series_report",
    "write_report_csv",
    "write_report_json",
]

DEFAULT_TOP_N = 100


@dataclass(frozen=True)
class RankEntry:
    rank: int
    port: int
    value: float


@dataclass(frozen=True)
class RankedPortList:
    """Ports of one period ordered by descending metric value.

    Ties are broken by ascending port number; ranks are the distinct
    positions 1..len(entries).
    """

    day: date
    metric_id: str
    entries: tuple[RankEntry, ...]


@dataclass(frozen=True)
class DiscoverabilityReport:
    """How often the labeled port surfaced within the top n."""

    metric_id: str
    n: int
    per_day_rank: Mapping[date, Optional[int]]
    score: float


@dataclass(frozen=True)
class ReportRow:
    """One plottable time-series point: the labeled port's score and rank."""

    period: datetime | date
    metric_id: str
    score: Optional[float]
    rank: Optional[int]


def rank_ports(
    partitions: Mapping[int, PortDayPartition], metric_id: str
) -> RankedPortList:
    """Rank every port with traffic in one period by a metric.

    `partitions` maps dst_port -> partition for a single day or window.
    """
    nonempty = {p: part for p, part in partitions.items() if len(part.records)}
    if not nonempty:
        raise ValueError("rank_ports needs at least one non-empty partition")
    day = next(iter(nonempty.values())).day
    ports = np.array(list(nonempty))
    tables = [part.records for part in nonempty.values()]
    bounds = np.cumsum([0] + [len(t) for t in tables])
    values = score_segments(np.concatenate(tables), bounds, [metric_id])[metric_id]
    order = np.lexsort((ports, -values))
    entries = tuple(
        RankEntry(rank=i + 1, port=port, value=value)
        for i, (port, value) in enumerate(zip(ports[order].tolist(), values[order].tolist()))
    )
    return RankedPortList(day=day, metric_id=metric_id, entries=entries)


def rank_of_labeled_port(ranked: RankedPortList, labeled_port: int) -> Optional[int]:
    """Rank of the ground-truth port, or None if it received no packets."""
    for entry in ranked.entries:
        if entry.port == labeled_port:
            return entry.rank
    return None


def discoverability(
    per_day_ranks: Mapping[date, Optional[int]],
    n: int = DEFAULT_TOP_N,
    metric_id: str = "",
) -> DiscoverabilityReport:
    """Fraction of periods where the labeled port ranked n or better.

    A period where the labeled port was absent from traffic counts as not
    discovered, matching what a hunter who sees nothing would conclude.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not per_day_ranks:
        raise ValueError("discoverability needs at least one period")
    hits = sum(1 for r in per_day_ranks.values() if r is not None and r <= n)
    return DiscoverabilityReport(
        metric_id=metric_id,
        n=n,
        per_day_rank=dict(per_day_ranks),
        score=hits / len(per_day_ranks),
    )


def time_series_report(
    dataset: LabeledDataset,
    metric_ids: Sequence[str],
    window: timedelta = timedelta(days=1),
) -> dict[str, list[ReportRow]]:
    """Score and rank of the labeled port per period, for each metric.

    The records are segmented by (window start, port) once and every
    metric scores all segments at once; each metric then ranks every
    period's ports with one sort by (period, -value, port).  The window
    must divide a day evenly; each window is ranked independently and
    compared against its UTC day's label.  Periods with no traffic at all
    produce no row; periods with traffic but no packet on the labeled
    port produce a row with score/rank None.
    """
    seg = segment_by_window(dataset.records, window)
    values = score_segments(seg.records, seg.bounds, metric_ids)
    firsts = run_starts(seg.start_us)  # each period's first segment
    period = np.repeat(np.arange(len(firsts)), np.diff(np.append(firsts, len(seg.port))))
    starts = seg.start_us[firsts].tolist()
    labels = []
    for start_us in starts:
        day = day_of_ts(start_us)
        if day not in dataset.labels:
            raise ValueError(f"no label for day {day.isoformat()}")
        labels.append(dataset.labels[day])
    # Each period's labeled-port segment, or -1 when that port had no packet.
    labeled = np.full(len(firsts), -1)
    hits = np.flatnonzero(seg.port == np.array(labels, dtype=np.int64)[period])
    labeled[period[hits]] = hits
    found = (labeled >= 0).tolist()
    periods = [window_start(s) for s in starts]
    if window == timedelta(days=1):
        periods = [p.date() for p in periods]
    rows: dict[str, list[ReportRow]] = {}
    for metric_id, value in values.items():
        # Periods stay in place (they are sorted), so a segment's rank is
        # its sorted position less its period's first position, plus one.
        order = np.lexsort((seg.port, -value, period))
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order)) - firsts[period] + 1
        rows[metric_id] = [
            ReportRow(period=p, metric_id=metric_id, score=v if f else None, rank=r if f else None)
            for p, v, r, f in zip(
                periods, value[labeled].tolist(), rank[labeled].tolist(), found
            )
        ]
    return rows


def write_report_csv(rows: Sequence[ReportRow], path) -> None:
    """Emit the fixed `day,metric,score,rank` schema for plot tooling."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["day", "metric", "score", "rank"])
        for row in rows:
            writer.writerow(
                [
                    row.period.isoformat(),
                    row.metric_id,
                    "" if row.score is None else f"{row.score:.6g}",
                    "" if row.rank is None else row.rank,
                ]
            )


def write_report_json(reports: Sequence[DiscoverabilityReport], path) -> None:
    """Emit discoverability reports as JSON keyed by metric."""
    payload = {}
    for rep in reports:
        payload[rep.metric_id] = {
            "n": rep.n,
            "score": rep.score,
            "per_day_rank": {
                d.isoformat(): rank for d, rank in sorted(rep.per_day_rank.items())
            },
        }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
