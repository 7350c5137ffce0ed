"""Per-port detection metrics over (period, port) traffic segments.

Four lightweight metrics a hunter can rank ports by:

- address_count: unique source addresses.
- block_count:   unique /24 prefixes of source addresses; robust against
  scanners that sweep from a single block.
- src_spread:    unique sources / unique destinations; block scanners
  score low (one source, many targets), thinly-spread coordinated
  scanners score high.
- size_entropy:  Shannon entropy (bits) of the per-packet payload-length
  distribution; padded/encrypted probes approach uniform while ordinary
  scan tools send a handful of fixed sizes.

All metrics are pure functions of a partition's columns and exactly
invariant under packet reordering and under duplicating every packet.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .records import PortDayPartition, run_heads, run_starts

__all__ = ["METRIC_IDS", "size_entropy", "score_segments"]

METRIC_IDS = ("address_count", "block_count", "src_spread", "size_entropy")


def score_segments(
    records: np.ndarray, keys: np.ndarray, metric_ids: Sequence[str], rows: np.ndarray | slice = slice(None)
) -> tuple[np.ndarray, np.ndarray]:
    """Every segment of a table and its metric values.

    keys holds a non-negative int64 segment key for each of the rows of
    records that rows selects (segment_keys' UDP mask, or every row); a
    segment is every row with one key.  Returns the segments' keys,
    ascending, and a float array with a row per metric id, in order, and
    a column per segment.

    Each metric sorts its own packed keys in place, (key << 32 | value)
    or (key << 16 | size): segments are runs of the high bits and a
    segment's distinct values the runs within them.  Keys of 2^31 and up
    are first replaced by their dense ranks, so the packed keys fit 63
    bits.  size_entropy sums the terms (c/n) * log2(c/n) of a segment's
    distinct sizes in ascending size order, one after another from 0.0,
    with math.log2, so every value is bit-identical to that sum written
    as a Python loop.
    """
    for i, metric_id in enumerate(metric_ids):
        if metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric {metric_id!r}; expected one of {METRIC_IDS}")
        if metric_id in metric_ids[:i]:
            raise ValueError(f"metric {metric_id!r} given twice")
    if not len(keys) or not metric_ids:
        segments = np.unique(keys)
        return segments, np.empty((len(metric_ids), len(segments)))
    segments = None
    if keys.max() >= 1 << 31:
        segments, keys = np.unique(keys, return_inverse=True)

    def sorted_keys(name, shift):
        # (key << shift | value), built and sorted in place.
        packed = keys << shift
        packed |= records[name][rows]
        packed.sort()
        return packed

    # Every packed array sorts by key first, so a segment holds the same
    # sorted rows in each: firsts, each segment's first row, serve them all.
    firsts = None

    def segments_of(packed, shift):
        # Each segment's first row and key, from sorted packed keys shifted
        # in place to their keys.
        packed >>= shift
        starts = run_starts(packed)
        return starts, packed[starts]

    def distinct(heads):
        # The number of distinct values in each segment: its run heads.
        return np.add.reduceat(heads, firsts, dtype=np.int64)

    # The entropy first, before the values are allocated: its temporaries
    # set the call's peak.
    if "size_entropy" in metric_ids:
        sizes = sorted_keys("payload_len", 16)
        heads = run_heads(sizes)
        firsts, found = segments_of(sizes, 16)
        del sizes
        count = np.diff(np.append(np.flatnonzero(heads), len(keys)))
        run_seg = np.repeat(np.arange(len(firsts)), distinct(heads))
        del heads
        p = count / np.diff(np.append(firsts, len(keys)))[run_seg]
        del count
        # Runs share few probabilities: one math.log2 call for each.
        probabilities, inverse = np.unique(p, return_inverse=True)
        p *= np.fromiter(map(math.log2, probabilities.tolist()), dtype=float, count=len(probabilities))[inverse]
        del inverse
        # bincount adds each segment's weights in input order, one at a time.
        total = np.bincount(run_seg, weights=p)
        del run_seg, p
    counts = {}
    if {"address_count", "block_count", "src_spread"} & set(metric_ids):
        src = sorted_keys("src_ip", 32)
        heads = {"address_count": run_heads(src)}
        shift = 32
        if "block_count" in metric_ids:
            src >>= 8
            heads["block_count"] = run_heads(src)
            shift = 24
        if firsts is None:
            firsts, found = segments_of(src, shift)
        del src
        counts = {metric_id: distinct(h) for metric_id, h in heads.items()}
        del heads
    if "src_spread" in metric_ids:
        destinations = distinct(run_heads(sorted_keys("dst_ip", 32)))
    values = np.empty((len(metric_ids), len(found)))
    for metric_id, row in zip(metric_ids, values):
        if metric_id == "size_entropy":
            row[:] = np.where(total < 0, -total, 0.0)  # max(0.0, -total): never -0.0
        elif metric_id == "src_spread":
            np.divide(counts["address_count"], destinations, out=row)
        else:
            row[:] = counts[metric_id]
    return (found if segments is None else segments), values


def size_entropy(part: PortDayPartition) -> float:
    """Shannon entropy (base 2) of the empirical payload-length distribution.

    Plug-in estimator over per-packet sizes, no bias correction; for n
    packets over k distinct sizes the value is bounded by
    log2(min(n, k)).  Note the estimator is biased low for small n: with
    padding uniform over 128 sizes it reads ~6.2 bits at n=128 and climbs
    into the 6.8-7.0 band once n reaches several hundred packets.  Terms
    are summed over distinct sizes in ascending order, so the value is
    exactly independent of packet order.
    """
    n = len(part.records)
    if not n:
        raise ValueError("size_entropy is undefined on an empty partition")
    _, [[value]] = score_segments(part.records, np.zeros(n, dtype=np.int64), ["size_entropy"])
    return float(value)
