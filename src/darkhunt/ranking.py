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

from .metrics import METRIC_IDS, compute_metric
from .records import LabeledDataset, PortDayPartition, partition_by_window

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
    if metric_id not in METRIC_IDS:
        raise ValueError(f"unknown metric {metric_id!r}")
    nonempty = {p: part for p, part in partitions.items() if len(part.records)}
    if not nonempty:
        raise ValueError("rank_ports needs at least one non-empty partition")
    day = next(iter(nonempty.values())).day
    scored = [
        (compute_metric(metric_id, part), port)
        for port, part in nonempty.items()
    ]
    scored.sort(key=lambda sv: (-sv[0], sv[1]))
    entries = tuple(
        RankEntry(rank=i + 1, port=port, value=value)
        for i, (value, port) in enumerate(scored)
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

    The records are partitioned once, whatever the number of metrics.
    The window must divide a day evenly; each window is ranked
    independently and compared against its UTC day's label.  Periods with
    no traffic at all produce no row; periods with traffic but no packet
    on the labeled port produce a row with score/rank None.
    """
    grouped: dict[datetime, dict[int, PortDayPartition]] = {}
    for (start, port), part in partition_by_window(dataset.records, window).items():
        grouped.setdefault(start, {})[port] = part
    rows: dict[str, list[ReportRow]] = {metric_id: [] for metric_id in metric_ids}
    for start in sorted(grouped):
        parts = grouped[start]
        day = next(iter(parts.values())).day
        if day not in dataset.labels:
            raise ValueError(f"no label for day {day.isoformat()}")
        period = start.date() if window == timedelta(days=1) else start
        for metric_id, metric_rows in rows.items():
            ranked = rank_ports(parts, metric_id)
            rank = rank_of_labeled_port(ranked, dataset.labels[day])
            score = None if rank is None else ranked.entries[rank - 1].value
            metric_rows.append(
                ReportRow(period=period, metric_id=metric_id, score=score, rank=rank)
            )
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
