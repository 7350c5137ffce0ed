"""Per-period port ranking and the discoverability score.

A hunter applies a metric to every active port in a period, ranks the
ports, and walks the top-n list.  Discoverability is the fraction of
periods in which the ground-truth port lands at rank <= n; n defaults to
100 (roughly 12 alerts an hour over an 8-hour shift).
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .metrics import score_segments
from .records import PortDayPartition, day_of_ts, run_starts, segment_by_window, write_csv_rows, write_json

__all__ = [
    "DEFAULT_TOP_N",
    "RankEntry",
    "DiscoverabilityReport",
    "ReportRow",
    "PeriodScores",
    "rank_ports",
    "rank_of_labeled_port",
    "discoverability",
    "score_periods",
    "labeled_rows",
    "write_report_csv",
    "write_report_json",
]

DEFAULT_TOP_N = 100


class RankEntry(NamedTuple):
    rank: int
    port: int
    value: float


class DiscoverabilityReport(NamedTuple):
    """How often the labeled port surfaced within the top n."""

    metric_id: str
    n: int
    per_day_rank: Mapping[date, Optional[int]]
    score: float


class ReportRow(NamedTuple):
    """One plottable time-series point: the labeled port's score and rank."""

    period: datetime | date
    metric_id: str
    score: Optional[float]
    rank: Optional[int]


def rank_ports(partitions: Mapping[int, PortDayPartition], metric_id: str) -> tuple[RankEntry, ...]:
    """Rank every port with traffic in one period by a metric: score_periods of their packets.

    `partitions` maps dst_port -> partition for one UTC day or a window in it.
    The entries are ordered by value descending, ties by port ascending;
    entry i has rank i + 1.
    """
    tables = [part.records for part in partitions.values() if len(part.records)]
    if not tables:
        raise ValueError("rank_ports needs at least one non-empty partition")
    scores = score_periods(np.concatenate(tables), [metric_id])
    if len(run_starts(scores.start_us)) != 1:
        raise ValueError("rank_ports needs UDP packets of exactly one UTC day")
    [values], [ranks] = scores.value.tolist(), scores.rank.tolist()
    entries = [None] * len(ranks)
    for port, value, rank in zip(scores.port.tolist(), values, ranks):
        entries[rank - 1] = RankEntry(rank=rank, port=port, value=value)
    return tuple(entries)


def rank_of_labeled_port(ranked: Sequence[RankEntry], labeled_port: int) -> Optional[int]:
    """Rank of the ground-truth port in rank_ports' entries, or None if it received no packets."""
    return next((entry.rank for entry in ranked if entry.port == labeled_port), None)


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


class PeriodScores(NamedTuple):
    """Segments in (window start, port) order; value and rank have a row per metric."""

    start_us: np.ndarray
    port: np.ndarray
    value: np.ndarray
    rank: np.ndarray


def _periods(start_us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each period's first segment, and each segment's period index."""
    firsts = run_starts(start_us)
    return firsts, np.repeat(np.arange(len(firsts)), np.diff(np.append(firsts, len(start_us))))


def score_periods(
    records: np.ndarray, metric_ids: Sequence[str], window: timedelta = timedelta(days=1)
) -> PeriodScores:
    """Score every (window start, port) segment of a table and rank it in its period.

    One segmentation and one score_segments call serve every metric; each
    metric then ranks with one sort by (period, -value), ties by port.
    Windows never cross 0000Z, so the results of a table's days,
    concatenated, equal the whole table's.
    """
    seg = segment_by_window(records, window)
    values = score_segments(records, seg.bounds, metric_ids, seg.order)
    firsts, period = _periods(seg.start_us)
    value = np.array([values[m] for m in metric_ids], dtype=float).reshape(len(metric_ids), len(seg.port))
    rank = np.empty(value.shape, dtype=np.int64)
    for v, r in zip(value, rank):
        # Periods stay in place (they are sorted), so a segment's rank is
        # its sorted position less its period's first position, plus one.
        # Segments come port-ascending within each period and lexsort is
        # stable, so tied values keep ascending port order without a port key.
        order = np.lexsort((-v, period))
        r[order] = np.arange(len(order)) - firsts[period] + 1
    return PeriodScores(seg.start_us, seg.port, value, rank)


def labeled_rows(
    parts: Sequence[PeriodScores], metric_ids: Sequence[str], labels: Mapping[date, int], window: timedelta
) -> dict[str, list[ReportRow]]:
    """The labeled port's score and rank per period of consecutive score_periods results.

    Each period is compared against its UTC day's label.  A period with no
    traffic gives no row; one whose labeled port is silent, score/rank None.
    """
    scores = PeriodScores(*(np.concatenate(cols, axis=-1) for cols in zip(*parts)))
    firsts, period = _periods(scores.start_us)
    starts = scores.start_us[firsts].tolist()
    days = [day_of_ts(s) for s in starts]
    for day in days:
        if day not in labels:
            raise ValueError(f"no label for day {day.isoformat()}")
    # Each period's labeled-port segment, or -1 when that port had no packet.
    labeled = np.full(len(firsts), -1)
    hits = np.flatnonzero(scores.port == np.array([labels[d] for d in days], dtype=np.int64)[period])
    labeled[period[hits]] = hits
    found = (labeled >= 0).tolist()
    periods = [datetime.fromtimestamp(s / 1_000_000, tz=timezone.utc) for s in starts]
    if window == timedelta(days=1):
        periods = [p.date() for p in periods]
    return {
        metric_id: [
            ReportRow(period=p, metric_id=metric_id, score=v if f else None, rank=r if f else None)
            for p, v, r, f in zip(periods, value[labeled].tolist(), rank[labeled].tolist(), found)
        ]
        for metric_id, value, rank in zip(metric_ids, scores.value, scores.rank)
    }


def write_report_csv(rows: Sequence[ReportRow], path) -> None:
    """Emit the fixed `day,metric,score,rank` schema for plot tooling."""
    body = [(r.period.isoformat(), r.metric_id, None if r.score is None else f"{r.score:.6g}", r.rank) for r in rows]
    write_csv_rows([("day", "metric", "score", "rank"), *body], path)


def write_report_json(reports: Sequence[DiscoverabilityReport], path) -> None:
    """Emit discoverability reports as JSON keyed by metric."""
    write_json(
        {
            rep.metric_id: {
                "n": rep.n,
                "score": rep.score,
                "per_day_rank": {d.isoformat(): rank for d, rank in rep.per_day_rank.items()},
            }
            for rep in reports
        },
        path,
    )
