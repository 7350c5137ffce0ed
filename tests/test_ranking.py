import json
import math
import tracemalloc
from collections import Counter, defaultdict
from datetime import date, datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkhunt.metrics import METRIC_IDS, score_segments
from darkhunt.ranking import (
    discoverability,
    rank_of_labeled_port,
    labeled_rows,
    rank_ports,
    score_periods,
    write_report_csv,
    write_report_json,
)
from darkhunt.records import PROTO_UDP, TRAFFIC_DTYPE, partition_by_day_port, segment_by_window, traffic_table
from conftest import make_record

US_PER_DAY = 86_400_000_000
DAY0 = date(1970, 1, 1)


def day_parts(records):
    """Partitions of a single day keyed by port."""
    parts = {}
    for (day, port), p in partition_by_day_port(traffic_table(records)).items():
        assert day == DAY0
        parts[port] = p
    return parts


def report(records, metric_ids, labels, window=timedelta(days=1)):
    """The labeled port's rows per metric, as analyze builds them from one table."""
    table = traffic_table(records)
    return labeled_rows([score_periods(table, metric_ids, window)], metric_ids, labels, window)


def burst(port, n_sources, ts0=0):
    return [
        make_record(ts_us=ts0 + i, src=1000 + port * 10000 + i, dst_port=port)
        for i in range(n_sources)
    ]


# ---------------------------------------------------------------- rank_ports

def test_rank_ports_orders_by_value():
    parts = day_parts(burst(50000, 5) + burst(5060, 3))
    ranked = rank_ports(parts, "address_count")
    assert [(e.rank, e.port) for e in ranked] == [(1, 50000), (2, 5060)]
    assert ranked[0].value == 5


def test_rank_ports_tie_breaks_by_port():
    parts = day_parts(burst(5353, 4) + burst(5060, 4) + burst(50000, 9))
    ranked = rank_ports(parts, "address_count")
    assert [(e.rank, e.port) for e in ranked] == [(1, 50000), (2, 5060), (3, 5353)]


def test_rank_ports_every_active_port_once():
    parts = day_parts(burst(1, 2) + burst(2, 2) + burst(3, 2))
    ranked = rank_ports(parts, "size_entropy")
    assert sorted(e.port for e in ranked) == [1, 2, 3]
    assert [e.rank for e in ranked] == [1, 2, 3]


def test_rank_ports_values_non_increasing():
    parts = day_parts(burst(1, 7) + burst(2, 3) + burst(3, 5))
    ranked = rank_ports(parts, "address_count")
    values = [e.value for e in ranked]
    assert values == sorted(values, reverse=True)


def test_rank_ports_rejects_empty():
    with pytest.raises(ValueError):
        rank_ports({}, "address_count")
    with pytest.raises(ValueError):
        rank_ports(day_parts(burst(1, 1)), "bogus")


def test_rank_ports_rejects_partitions_of_two_days():
    # Ranks are places within one period; partitions of two days make two periods.
    parts = partition_by_day_port(traffic_table(burst(1, 2) + burst(2, 2, ts0=US_PER_DAY)))
    with pytest.raises(ValueError, match="one UTC day"):
        rank_ports({port: p for (_, port), p in parts.items()}, "address_count")


# ------------------------------------------------------- rank_of_labeled_port

def test_rank_of_labeled_port():
    parts = day_parts(burst(50000, 5) + burst(5060, 3))
    ranked = rank_ports(parts, "address_count")
    assert rank_of_labeled_port(ranked, 50000) == 1
    assert rank_of_labeled_port(ranked, 5060) == 2
    assert rank_of_labeled_port(ranked, 60000) is None


# ------------------------------------------------------------ discoverability

def d(i):
    return DAY0 + timedelta(days=i)


def test_discoverability_all_hits():
    rep = discoverability({d(0): 1, d(1): 1, d(2): 1}, n=100)
    assert rep.score == 1.0


def test_discoverability_partial():
    rep = discoverability({d(0): 1, d(1): 2, d(2): 150}, n=100)
    assert rep.score == pytest.approx(2 / 3)


def test_discoverability_absent_counts_as_miss():
    rep = discoverability({d(0): 1, d(1): 1, d(2): 1, d(3): None}, n=100)
    assert rep.score == 0.75


def test_discoverability_rejects_bad_input():
    with pytest.raises(ValueError):
        discoverability({}, n=100)
    with pytest.raises(ValueError):
        discoverability({d(0): 1}, n=0)


@settings(max_examples=100)
@given(
    ranks=st.lists(
        st.one_of(st.none(), st.integers(min_value=1, max_value=500)),
        min_size=1,
        max_size=30,
    ),
    n1=st.integers(min_value=1, max_value=500),
    n2=st.integers(min_value=1, max_value=500),
)
def test_discoverability_monotone_in_n(ranks, n1, n2):
    per_day = {d(i): r for i, r in enumerate(ranks)}
    lo, hi = min(n1, n2), max(n1, n2)
    assert discoverability(per_day, n=lo).score <= discoverability(per_day, n=hi).score


def test_discoverability_at_port_count_equals_presence_fraction():
    # With n as large as the port universe, the score is just the share
    # of days the labeled port got any packet at all.
    per_day = {d(0): 3, d(1): None, d(2): 65535, d(3): 1}
    rep = discoverability(per_day, n=65536)
    assert rep.score == 0.75


# ------------------------------------------------- transform invariance

@settings(max_examples=60)
@given(
    counts=st.dictionaries(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=30),
        min_size=1,
        max_size=12,
    ),
    a=st.floats(min_value=0.1, max_value=7),
    b=st.floats(min_value=-5, max_value=5),
)
def test_strictly_increasing_transform_keeps_ranks(counts, a, b):
    records = []
    for port, n_src in counts.items():
        records.extend(burst(port, n_src))
    parts = day_parts(records)
    ranked = rank_ports(parts, "address_count")

    transformed = sorted(
        ((a * e.value + b, e.port) for e in ranked),
        key=lambda sv: (-sv[0], sv[1]),
    )
    assert [port for _, port in transformed] == [e.port for e in ranked]


# ---------------------------------------------------------- time series

class FixedOracle:
    def __init__(self, port):
        self.port = port

    def daily_port(self, day):
        return self.port


def test_time_series_single_day():
    records = burst(50000, 5) + burst(5060, 3)
    rows = report(records, ["address_count"], {DAY0: 50000})["address_count"]
    assert len(rows) == 1
    assert rows[0].period == DAY0
    assert rows[0].rank == 1 and rows[0].score == 5


def test_time_series_absent_label_port():
    records = burst(5060, 3)
    [row] = report(records, ["address_count"], {DAY0: 50000})["address_count"]
    assert row.rank is None and row.score is None


def test_time_series_multi_day_and_windows():
    recs = []
    for day_idx in range(3):
        recs += burst(50000, 5 - day_idx, ts0=day_idx * US_PER_DAY)
        recs += burst(5060, 3, ts0=day_idx * US_PER_DAY)
    labels = {d(i): 50000 for i in range(3)}
    rows = report(recs, ["address_count"], labels)["address_count"]
    assert [r.period for r in rows] == [d(0), d(1), d(2)]
    assert [r.rank for r in rows] == [1, 1, 2]  # day 2: 3 sources vs 3, tie -> 5060 first

    rows_3h = report(recs, ["address_count"], labels, timedelta(hours=3))["address_count"]
    assert len(rows_3h) == 3  # all bursts land in the first window of each day
    assert all(r.rank is not None for r in rows_3h)


def test_time_series_unlabeled_day_errors():
    with pytest.raises(ValueError):
        report(burst(50000, 2), ["address_count"], {d(1): 50000})


def test_time_series_all_metrics_match_single_metric_runs():
    recs = []
    for day_idx in range(3):
        recs += burst(50000, 5 - day_idx, ts0=day_idx * US_PER_DAY)
        recs += burst(5060, 3, ts0=day_idx * US_PER_DAY)
    labels = {d(i): 50000 for i in range(3)}
    together = report(recs, METRIC_IDS, labels, timedelta(hours=3))
    assert list(together) == list(METRIC_IDS)
    for metric_id in METRIC_IDS:
        alone = report(recs, [metric_id], labels, timedelta(hours=3))
        assert together[metric_id] == alone[metric_id]
        assert all(row.metric_id == metric_id for row in alone[metric_id])


def test_scoring_a_day_gathers_columns_not_rows():
    # The UDP rows' order, the segment keys and one gathered column at a
    # time: about 1.75 times the table's bytes, against 2.4 when segments
    # were a sorted copy of the rows.
    rng = np.random.default_rng(5)
    rows = np.zeros(40_000, dtype=TRAFFIC_DTYPE)
    rows["ts_us"] = rng.integers(0, US_PER_DAY, len(rows))
    # Like a simulated day: a few thousand sources over many addresses,
    # and padded payload sizes.
    rows["src_ip"] = rng.integers(0, 2**32, 3000)[rng.integers(0, 3000, len(rows))]
    rows["dst_ip"] = rng.integers(0, 2**32, len(rows))
    rows["dst_port"] = rng.integers(0, 20, len(rows))
    rows["payload_len"] = rng.integers(64, 192, len(rows))
    rows["proto"] = PROTO_UDP
    table = traffic_table(rows)
    score_periods(table, METRIC_IDS)  # first-use allocations are not counted
    tracemalloc.start()
    try:
        score_periods(table, METRIC_IDS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * table.nbytes, peak / table.nbytes


def test_size_entropy_of_many_small_segments_takes_one_log2_per_probability(monkeypatch):
    # 500 ports and 1,500 sizes in 15-minute windows: about 27,000 segments
    # of one or two rows, so nearly every row is its own (segment, size)
    # run, but only a few dozen probabilities occur.  The values are those
    # of the per-run loop; the peak was 4.6 times the table's bytes when
    # each run's probability became a Python float for its own math.log2.
    rng = np.random.default_rng(5)
    rows = np.zeros(40_000, dtype=TRAFFIC_DTYPE)
    rows["ts_us"] = rng.integers(0, US_PER_DAY, len(rows))
    rows["src_ip"] = rng.integers(0, 2**32, 3000)[rng.integers(0, 3000, len(rows))]
    rows["dst_ip"] = rng.integers(0, 2**32, len(rows))
    rows["dst_port"] = rng.integers(0, 500, len(rows))
    rows["payload_len"] = rng.integers(0, 1500, len(rows))
    rows["proto"] = PROTO_UDP
    table = traffic_table(rows)
    window = timedelta(minutes=15)
    segments = defaultdict(Counter)
    for ts, port, size in zip(rows["ts_us"].tolist(), rows["dst_port"].tolist(), rows["payload_len"].tolist()):
        segments[ts - ts % 900_000_000, port][size] += 1
    expected, probabilities = {}, set()
    for key, sizes in segments.items():
        n = sum(sizes.values())
        total = 0.0
        for size in sorted(sizes):
            total += (sizes[size] / n) * math.log2(sizes[size] / n)
            probabilities.add(sizes[size] / n)
        expected[key] = max(0.0, -total)

    log2, calls = math.log2, []
    monkeypatch.setattr(math, "log2", lambda x: calls.append(x) or log2(x))
    score_periods(table, ["size_entropy"], window)  # also keeps first-use allocations out of the peak
    monkeypatch.undo()
    assert sorted(calls) == sorted(probabilities) and len(probabilities) < 100
    tracemalloc.start()
    try:
        scores = score_periods(table, ["size_entropy"], window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(scores.port) == len(expected) > 25_000
    got = dict(zip(zip(scores.start_us.tolist(), scores.port.tolist()), scores.value[0].tolist()))
    assert got == expected
    assert peak < 4.2 * table.nbytes, peak / table.nbytes


# ------------------------------------------- segment report vs reference

def reference_scores(packets):
    """The four metrics of one partition's rows, with sets and math.log2.

    Entropy terms are added one at a time in ascending size order.
    """
    sources = {r[1] for r in packets}
    sizes = Counter(r[6] for r in packets)
    n = len(packets)
    total = 0.0
    for size in sorted(sizes):
        total += (sizes[size] / n) * math.log2(sizes[size] / n)
    return {
        "address_count": float(len(sources)),
        "block_count": float(len({ip >> 8 for ip in sources})),
        "src_spread": len(sources) / len({r[3] for r in packets}),
        "size_entropy": max(0.0, -total),
    }


def reference_report(rows, labels, window):
    """The labeled rows as one metric call per partition and a sort per period."""
    window_us = int(window.total_seconds() * 1_000_000)
    parts = defaultdict(list)
    for row in rows:
        if row[5] == 17:
            parts[row[0] // window_us * window_us, row[4]].append(row)
    scores = {key: reference_scores(packets) for key, packets in parts.items()}
    report = {metric_id: [] for metric_id in METRIC_IDS}
    for start in sorted({start for start, _ in parts}):
        period = datetime.fromtimestamp(start / 1_000_000, tz=timezone.utc)
        label = labels[period.date()]
        ports = [port for s, port in parts if s == start]
        for metric_id, metric_rows in report.items():
            ranked = sorted(ports, key=lambda port: (-scores[start, port][metric_id], port))
            found = label in ranked
            metric_rows.append((
                period.date() if window == timedelta(days=1) else period,
                scores[start, label][metric_id] if found else None,
                ranked.index(label) + 1 if found else None,
            ))
    return scores, report


QUARTER_US = 15 * 60 * 1_000_000
report_rows_st = st.lists(
    st.tuples(
        # Two days, a few 15-minute windows, up to a minute of jitter.
        st.builds(
            lambda day, quarter, jitter: day * US_PER_DAY + quarter * QUARTER_US + jitter,
            st.integers(0, 1),
            st.sampled_from([0, 1, 12, 95]),
            st.integers(0, 60_000_000),
        ),
        st.sampled_from([0, 1, 256, 0x01020304, 0x01020399, 2**32 - 1]) | st.integers(0, 2**32 - 1),
        st.just(50000),
        st.sampled_from([1, 2, 2**32 - 1]) | st.integers(0, 2**32 - 1),
        # Port 0 is busy, so some segments sum many entropy terms.
        st.sampled_from([0, 0, 0, 0, 1, 2, 3, 4, 5]),
        st.sampled_from([17, 17, 17, 6]),
        st.sampled_from([0, 100, 65507]) | st.integers(0, 65507),
    ),
    max_size=100,
)


def bits(value):
    return None if value is None else value.hex()


@pytest.mark.parametrize(
    "window",
    [timedelta(minutes=15), timedelta(hours=3), timedelta(days=1)],
    ids=["15m", "3h", "1d"],
)
@settings(max_examples=40)
@given(rows=report_rows_st, label_ports=st.tuples(st.integers(0, 5), st.integers(0, 5)))
def test_segment_report_matches_per_partition_reference(window, rows, label_ports):
    labels = {d(0): label_ports[0], d(1): label_ports[1]}
    ref_scores, ref_report = reference_report(rows, labels, window)
    got_report = report(rows, METRIC_IDS, labels, window)
    assert list(got_report) == list(METRIC_IDS)
    for metric_id in METRIC_IDS:
        got = [(r.period, bits(r.score), r.rank) for r in got_report[metric_id]]
        assert got == [(p, bits(v), rank) for p, v, rank in ref_report[metric_id]]
    # Every segment, not only the labeled ports', scores bit for bit.
    table = traffic_table(rows)
    seg = segment_by_window(table, window)
    values = score_segments(table, seg.bounds, METRIC_IDS, seg.order)
    for i, key in enumerate(zip(seg.start_us.tolist(), seg.port.tolist())):
        for metric_id in METRIC_IDS:
            assert bits(float(values[metric_id][i])) == bits(ref_scores[key][metric_id])
    zero = [float(v) for v in values["size_entropy"] if v == 0]
    assert all(math.copysign(1.0, v) == 1.0 for v in zero)


# ---------------------------------------------------------------- emitters

def test_write_report_csv_golden(tmp_path):
    # Byte-exact golden: the report schema is an interchange contract.
    records = burst(50000, 2) + burst(5060, 3) + burst(50000, 4, ts0=US_PER_DAY)
    labels = {d(0): 50000, d(1): 50000}
    rows = report(records, ["address_count"], labels)["address_count"]
    out = tmp_path / "report.csv"
    write_report_csv(rows, out)
    assert out.read_text() == (
        "day,metric,score,rank\n"
        "1970-01-01,address_count,2,2\n"
        "1970-01-02,address_count,4,1\n"
    )


def test_write_report_json(tmp_path):
    rep = discoverability({d(0): 1, d(1): None}, n=100, metric_id="address_count")
    out = tmp_path / "disc.json"
    write_report_json([rep], out)
    payload = json.loads(out.read_text())
    assert payload["address_count"]["score"] == 0.5
    assert payload["address_count"]["per_day_rank"] == {
        "1970-01-01": 1,
        "1970-01-02": None,
    }
