"""Darkspace (network telescope) address sets and the analytic observability model.

A telescope is a set of routed-but-unused IPv4 blocks of total size k.
For a host scanning the whole address space uniformly at s packets/second
on one port for d seconds:

- collision probability per packet   p_collision = k / 2^32
- observation probability per host   p_observe  = 1 - (1 - p_collision)^(s*d)
- expected packets seen per host     expected_packets = p_collision * s * d

These drive how fast a coordinated scanner becomes visible as a function
of darkspace size.
"""

from __future__ import annotations

import ipaddress
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Sequence

import numpy as np

from .records import _UINT_RE

__all__ = [
    "TelescopeSpec",
    "ScanPopulation",
    "p_collision",
    "p_observe",
    "expected_packets",
    "expected_observed_hosts",
    "visible_rate",
    "days_to_coverage",
    "time_to_n_packets",
    "observability_table",
    "DEFAULT_TABLE_PREFIXES",
]

IPV4_SPACE = 2**32

# Classic reporting sizes: a single address, a /24, a small research
# telescope (/22) and a large institutional one (/16).
DEFAULT_TABLE_PREFIXES = (32, 24, 22, 16)


def _prefix_len(text: str) -> int:
    """The N of a /N prefix: an unsigned decimal integer as in the CSV grammar, 0-32."""
    if _UINT_RE.fullmatch(text) is None or int(text) > 32:
        raise ValueError(f"bad prefix length {text!r}")
    return int(text)


@dataclass(frozen=True)
class TelescopeSpec:
    """Normalized darkspace address set.

    Blocks are deduplicated and merged; k is the size of their union.
    Supports vectorized membership tests and indexed access
    (addresses_at_array) so the simulator can place hits uniformly over
    the telescope.
    """

    cidrs: tuple[ipaddress.IPv4Network, ...]
    k: int
    # Each block's first address and the address after its last, in
    # order: an address is inside exactly when an odd number of bounds
    # are at or below it.  Derived from cidrs, so left out of ==.
    _bounds: np.ndarray = field(compare=False, repr=False)

    @classmethod
    def from_cidrs(cls, cidrs: Iterable[str | ipaddress.IPv4Network]) -> "TelescopeSpec":
        nets = []
        for c in cidrs:
            text = str(c).strip()
            if "/" in text:
                _prefix_len(text.partition("/")[2])
            nets.append(ipaddress.IPv4Network(text, strict=False))
        if not nets:
            raise ValueError("telescope needs at least one CIDR block")
        merged = tuple(ipaddress.collapse_addresses(nets))
        bounds = []
        for net in merged:
            bounds += [int(net.network_address), int(net.broadcast_address) + 1]
        bounds = np.array(bounds, dtype=np.int64)
        bounds.flags.writeable = False
        return cls(cidrs=merged, k=sum(net.num_addresses for net in merged), _bounds=bounds)

    @classmethod
    def from_prefix(cls, prefix_len: int) -> "TelescopeSpec":
        """A single-block telescope of the given prefix length, at 10.0.0.0.

        The analytic model depends on k alone.
        """
        return cls.from_cidrs([f"10.0.0.0/{prefix_len}"])

    def contains_array(self, ips: np.ndarray) -> np.ndarray:
        """Vectorized membership test over an int array of addresses."""
        i = np.searchsorted(self._bounds, ips, side="right")
        i &= 1
        return i.astype(bool)

    @cached_property
    def _index_offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Each block's first index, and what an index in that block adds to
        become its address: the block's first address less that index."""
        starts, sizes = self._bounds[::2], np.diff(self._bounds)[::2]
        before = np.cumsum(sizes) - sizes  # the addresses in the blocks before each block
        return before, starts - before

    def addresses_at_array(self, indices: np.ndarray) -> np.ndarray:
        """The telescope's addresses at an int array of indices in [0, k), in block order."""
        before, offsets = self._index_offsets
        j = np.searchsorted(before, indices, side="right")
        j -= 1
        out = offsets[j]
        del j
        out += indices
        return out

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.cidrs)


@dataclass(frozen=True)
class ScanPopulation:
    """A population of coordinated scanning hosts.

    host_count hosts, each probing uniform-random IPv4 addresses at
    rate_pps packets/second, staying on one destination port for
    duration_s seconds (one daily-port period by default).
    """

    host_count: int
    rate_pps: float = 10.0
    duration_s: float = 86400.0

    def __post_init__(self) -> None:
        if self.host_count < 0:
            raise ValueError(f"host_count must be >= 0, got {self.host_count}")
        if not (0 <= self.rate_pps < math.inf and 0 < self.duration_s < math.inf):
            raise ValueError(
                f"rate_pps must be finite and >= 0 and duration_s finite and > 0, "
                f"got {self.rate_pps} and {self.duration_s}"
            )


def _finite(what: str, answer: Callable[[], float], **inputs: float) -> float:
    """answer(), if it is a finite float, or a ValueError naming `inputs`.

    Finite inputs can overflow: 3000 hosts at 1e308 pps have an infinite
    visible rate, 128 packets at 5e-324 pps take infinite seconds, and an
    int host count can be too large for a float at all.  An answer made
    from such a value (inf packets, 0 s, a day count) would be wrong.
    """
    try:
        value = answer()
    except OverflowError:  # an int that no float holds
        value = math.inf
    if math.isfinite(value):
        return value
    named = ", ".join(f"{name} {v}" for name, v in inputs.items())
    raise ValueError(f"the {what} from {named} is not a finite number")


def p_collision(telescope: TelescopeSpec) -> float:
    """Probability that one uniform-random probe lands in the telescope."""
    return telescope.k / IPV4_SPACE


def p_observe(telescope: TelescopeSpec, pop: ScanPopulation) -> float:
    """Probability one host is seen at least once during its port period."""
    pc = p_collision(telescope)
    if pc >= 1.0:
        return 1.0
    # 1 - (1 - pc)^(s*d), via expm1/log1p to keep precision at tiny pc; an
    # overflowed exponent (-inf) gives 1.0, which is right.
    return -math.expm1(pop.rate_pps * pop.duration_s * math.log1p(-pc))


def expected_packets(telescope: TelescopeSpec, pop: ScanPopulation) -> float:
    """Expected telescope-observed packets from one host over its port period."""
    return _finite(
        "expected packets",
        lambda: p_collision(telescope) * pop.rate_pps * pop.duration_s,
        rate_pps=pop.rate_pps,
        duration_s=pop.duration_s,
    )


def expected_observed_hosts(telescope: TelescopeSpec, pop: ScanPopulation) -> float:
    """Expected number of distinct hosts seen: host_count * p_observe."""
    return _finite("observed hosts", lambda: pop.host_count * p_observe(telescope, pop), host_count=pop.host_count)


def visible_rate(telescope: TelescopeSpec, pop: ScanPopulation) -> float:
    """Aggregate packet arrival rate (pps) at the telescope from all hosts."""
    return _finite(
        "visible rate",
        lambda: pop.host_count * pop.rate_pps * p_collision(telescope),
        host_count=pop.host_count,
        rate_pps=pop.rate_pps,
    )


def days_to_coverage(
    telescope: TelescopeSpec, pop: ScanPopulation, target_fraction: float
) -> int:
    """Smallest whole number of days until a host has been seen with
    probability >= target_fraction.

    Days are independent trials with per-day success p_observe (the port
    changes daily but the uniform scanning is memoryless).
    """
    if not 0 < target_fraction < 1:
        raise ValueError(f"target_fraction must be in (0, 1), got {target_fraction}")
    pc = p_collision(telescope)
    sd = pop.rate_pps * pop.duration_s  # inf when it overflows: then 1 day is the answer
    if pc * sd == 0:
        raise ValueError("zero collision rate: coverage target unreachable")
    if pc >= 1.0:
        return 1
    # 1 - (1-pc)^(sd * D) >= target  <=>  D >= log(1-target) / (sd * log(1-pc))
    days = _finite(
        "day count",
        lambda: math.log1p(-target_fraction) / (sd * math.log1p(-pc)),
        target_fraction=target_fraction,
        rate_pps=pop.rate_pps,
        duration_s=pop.duration_s,
    )
    d = max(1, math.ceil(days))
    # Guard against float edge cases around the ceiling.
    while d > 1 and -math.expm1(sd * (d - 1) * math.log1p(-pc)) >= target_fraction:
        d -= 1
    return d


def time_to_n_packets(visible_rate_pps: float, n_packets: int) -> float:
    """Seconds of collection until n_packets have arrived at the telescope.

    visible_rate_pps is the aggregate telescope-visible rate, e.g. from
    visible_rate(); for coordinated scanners that is
    host_count * rate_pps * p_collision.
    """
    if n_packets < 0:
        raise ValueError(f"n_packets must be >= 0, got {n_packets}")
    if n_packets == 0:
        return 0.0
    if visible_rate_pps <= 0:
        raise ValueError("visible rate must be > 0 to accumulate packets")
    return _finite(
        "collection time",
        lambda: n_packets / visible_rate_pps,
        n_packets=n_packets,
        visible_rate_pps=visible_rate_pps,
    )


def observability_table(
    prefixes: Sequence[int] = DEFAULT_TABLE_PREFIXES,
    rate_pps: float = 10.0,
    duration_s: float = 86400.0,
) -> list[dict]:
    """Per-host observability versus darkspace size.

    One row per prefix length: collision probability, observation
    probability over one port period, and expected packets per host.
    """
    rows = []
    for plen in prefixes:
        tel = TelescopeSpec.from_prefix(plen)
        pop = ScanPopulation(host_count=1, rate_pps=rate_pps, duration_s=duration_s)
        rows.append(
            {
                "size": f"/{plen}",
                "p_collision": p_collision(tel),
                "p_observe": p_observe(tel, pop),
                "expected_packets": expected_packets(tel, pop),
            }
        )
    return rows
