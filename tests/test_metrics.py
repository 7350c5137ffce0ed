import math
from collections import Counter
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from darkhunt.metrics import score_segments, size_entropy
from darkhunt.records import PortDayPartition, partition_by_day_port, traffic_table
from conftest import make_record


def part_of(records):
    parts = partition_by_day_port(traffic_table(records))
    assert len(parts) == 1
    return next(iter(parts.values()))


def empty_part():
    return PortDayPartition(day=date(1970, 1, 1), dst_port=50000, records=traffic_table([]))


def score(metric_id):
    """One metric of one partition, scored as a single segment by score_segments."""

    def f(part):
        n = len(part.records)
        [value] = score_segments(part.records, np.array([0, n]), [metric_id], np.arange(n))[metric_id].tolist()
        return value

    return f


address_count, block_count, src_spread = map(score, ("address_count", "block_count", "src_spread"))


# ---------------------------------------------------------------- examples

def test_address_count_dedupes():
    p = part_of([
        make_record(src="1.2.3.4"),
        make_record(src="1.2.3.5"),
        make_record(src="1.2.3.4"),
    ])
    assert address_count(p) == 2


def test_address_count_empty():
    assert address_count(empty_part()) == 0


def test_block_count_same_slash24():
    p = part_of([make_record(src="1.2.3.4"), make_record(src="1.2.3.99")])
    assert block_count(p) == 1


def test_block_count_distinct_slash24():
    p = part_of([make_record(src="1.2.3.4"), make_record(src="1.2.4.4")])
    assert block_count(p) == 2


def test_src_spread_many_to_one():
    p = part_of([
        make_record(src="1.2.3.1"),
        make_record(src="1.2.3.2"),
        make_record(src="1.2.3.3"),
    ])
    assert src_spread(p) == 3.0


def test_src_spread_block_scanner():
    # One source sweeping 256 destinations: the classic low-spread shape.
    recs = [make_record(src="5.6.7.8", dst=f"10.0.0.{i}", ts_us=i) for i in range(256)]
    p = part_of(recs)
    assert src_spread(p) == pytest.approx(1 / 256)


def test_src_spread_empty_partition_errors():
    with pytest.raises(ValueError):
        src_spread(empty_part())


def test_entropy_identical_sizes_is_zero():
    p = part_of([make_record(payload_len=77, ts_us=i) for i in range(50)])
    assert size_entropy(p) == 0.0


def test_entropy_128_distinct_sizes_is_seven_bits():
    p = part_of([make_record(payload_len=100 + i, ts_us=i) for i in range(128)])
    assert size_entropy(p) == pytest.approx(7.0)


def test_entropy_empty_partition_errors():
    with pytest.raises(ValueError):
        size_entropy(empty_part())


# ---------------------------------------------------------------- invariants

sizes_strategy = st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=200)
records_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**32 - 1),  # src
        st.integers(min_value=0, max_value=2**32 - 1),  # dst
        st.integers(min_value=0, max_value=1000),  # payload
    ),
    min_size=1,
    max_size=120,
)


def build_part(items):
    return part_of([
        make_record(ts_us=i, src=src, dst=dst, payload_len=plen)
        for i, (src, dst, plen) in enumerate(items)
    ])


@settings(max_examples=120)
@given(records_strategy)
def test_block_count_at_most_address_count(items):
    p = build_part(items)
    assert 0 <= block_count(p) <= address_count(p)


@settings(max_examples=120)
@given(records_strategy)
def test_entropy_bounds(items):
    p = build_part(items)
    n = len(p.records)
    distinct = len({r.payload_len for r in p.records})
    h = size_entropy(p)
    assert -1e-9 <= h <= math.log2(n) + 1e-9
    assert h <= math.log2(distinct) + 1e-9 if distinct > 1 else h == 0.0


@settings(max_examples=60)
@given(records_strategy, st.randoms(use_true_random=False))
def test_order_invariance(items, rnd):
    recs = [
        make_record(ts_us=i, src=src, dst=dst, payload_len=plen)
        for i, (src, dst, plen) in enumerate(items)
    ]
    shuffled = recs[:]
    rnd.shuffle(shuffled)
    a = part_of(recs)
    # Bypass partitioning for the shuffled copy to keep raw order.
    b = PortDayPartition(day=a.day, dst_port=a.dst_port, records=traffic_table(shuffled))
    for f in (address_count, block_count, src_spread, size_entropy):
        assert f(a) == f(b)


@settings(max_examples=60)
@given(records_strategy)
def test_duplication_invariance(items):
    recs = [
        make_record(ts_us=i, src=src, dst=dst, payload_len=plen)
        for i, (src, dst, plen) in enumerate(items)
    ]
    doubled = recs + [
        make_record(ts_us=len(recs) + i, src=src, dst=dst, payload_len=plen)
        for i, (src, dst, plen) in enumerate(items)
    ]
    a, b = part_of(recs), part_of(doubled)
    for f in (address_count, block_count, src_spread, size_entropy):
        assert f(a) == f(b)


@settings(max_examples=120)
@given(records_strategy)
def test_metrics_match_python_reference(items):
    # Per-packet Python loops, as the metrics were first written, are the
    # reference; entropy terms are summed over sizes in ascending order.
    p = build_part(items)
    rows = p.records.tolist()
    sources = {r[1] for r in rows}
    counts = Counter(r[6] for r in rows)
    n = len(rows)
    entropy = max(0.0, -sum((counts[s] / n) * math.log2(counts[s] / n) for s in sorted(counts)))
    assert address_count(p) == len(sources)
    assert block_count(p) == len({ip >> 8 for ip in sources})
    assert src_spread(p) == len(sources) / len({r[3] for r in rows})
    assert size_entropy(p) == entropy
