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

from .records import PortDayPartition, run_starts

__all__ = ["METRIC_IDS", "size_entropy", "score_segments"]

METRIC_IDS = ("address_count", "block_count", "src_spread", "size_entropy")


def score_segments(
    records: np.ndarray, bounds: np.ndarray, metric_ids: Sequence[str], order: np.ndarray
) -> dict[str, np.ndarray]:
    """Metric values of every segment of a table, as float arrays by metric id.

    Segment i is records[order[bounds[i]:bounds[i + 1]]]; only the columns
    the metrics read are gathered, one at a time.  Distinct counts are
    runs in one sort of (segment << 32 | value).  size_entropy sums the
    terms (c/n) * log2(c/n) of a segment's distinct sizes in ascending size
    order, one after another from 0.0, with math.log2, so every value is
    bit-identical to that sum written as a Python loop.
    """
    n = np.diff(bounds)
    for metric_id in metric_ids:
        if metric_id not in METRIC_IDS:
            raise ValueError(f"unknown metric {metric_id!r}; expected one of {METRIC_IDS}")
        if metric_id in ("src_spread", "size_entropy") and not n.all():
            raise ValueError(f"{metric_id} is undefined on an empty partition")

    def sorted_keys(name, shift):
        # (segment << shift | value), built and sorted in place.
        keys = np.repeat(np.arange(len(n), dtype=np.int64) << shift, n)
        keys |= np.take(records[name], order)
        keys.sort()
        return keys

    def distinct(keys, shift):
        # keys are sorted with the segment in the bits from `shift` up.
        firsts = keys[run_starts(keys)]
        firsts >>= shift
        return np.bincount(firsts, minlength=len(n))

    out = {}
    if {"address_count", "block_count", "src_spread"} & set(metric_ids):
        src = sorted_keys("src_ip", 32)
        out["address_count"] = distinct(src, 32).astype(float)
        src >>= 8
        out["block_count"] = distinct(src, 24).astype(float)
        del src
    if "src_spread" in metric_ids:
        out["src_spread"] = out["address_count"] / distinct(sorted_keys("dst_ip", 32), 32)
    if "size_entropy" in metric_ids:
        sizes = sorted_keys("payload_len", 16)
        starts = run_starts(sizes)
        run_seg = sizes[starts] >> 16
        p = np.diff(np.append(starts, len(sizes))) / n[run_seg]
        del sizes, starts
        # Runs share few probabilities: one math.log2 call for each.
        distinct, inverse = np.unique(p, return_inverse=True)
        p *= np.fromiter(map(math.log2, distinct.tolist()), dtype=float, count=len(distinct))[inverse]
        del inverse
        # bincount adds each segment's weights in input order, one at a time.
        total = np.bincount(run_seg, weights=p, minlength=len(n))
        out["size_entropy"] = np.where(total < 0, -total, 0.0)  # max(0.0, -total): never -0.0
    return {metric_id: out[metric_id] for metric_id in metric_ids}


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
    [value] = score_segments(part.records, np.array([0, n]), ["size_entropy"], np.arange(n))["size_entropy"]
    return float(value)
