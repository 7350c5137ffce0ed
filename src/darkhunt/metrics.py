"""Per-port detection metrics over (day, port) traffic partitions.

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

import numpy as np

from .records import PortDayPartition

__all__ = [
    "METRIC_IDS",
    "address_count",
    "block_count",
    "src_spread",
    "size_entropy",
    "compute_metric",
]

METRIC_IDS = ("address_count", "block_count", "src_spread", "size_entropy")


def address_count(part: PortDayPartition) -> int:
    """Count of distinct source addresses."""
    return len(np.unique(part.records["src_ip"]))


def block_count(part: PortDayPartition) -> int:
    """Count of distinct /24 CIDR blocks among source addresses."""
    return len(np.unique(part.records["src_ip"] >> 8))


def src_spread(part: PortDayPartition) -> float:
    """Distinct source addresses per distinct destination address.

    Defined over addresses on both sides, not packet counts.
    """
    if not len(part.records):
        raise ValueError("src_spread is undefined on an empty partition")
    return len(np.unique(part.records["src_ip"])) / len(np.unique(part.records["dst_ip"]))


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
    counts = np.unique(part.records["payload_len"], return_counts=True)[1].tolist()
    return max(0.0, -sum((c / n) * math.log2(c / n) for c in counts))


_METRIC_FUNCS = {
    "address_count": address_count,
    "block_count": block_count,
    "src_spread": src_spread,
    "size_entropy": size_entropy,
}


def compute_metric(metric_id: str, part: PortDayPartition) -> float:
    """Evaluate one metric by id; ids are listed in METRIC_IDS."""
    try:
        func = _METRIC_FUNCS[metric_id]
    except KeyError:
        raise ValueError(
            f"unknown metric {metric_id!r}; expected one of {METRIC_IDS}"
        ) from None
    return float(func(part))
