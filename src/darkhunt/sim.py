"""Ground-truth traffic simulator.

Generates what a darkspace would capture from a Crackonosh-style botnet
(coordinated uniform IPv4 scanning on a shared daily port, padded payload
sizes) together with ordinary background scanners (modal packet sizes,
block-concentrated sources) and a long tail of one-off noise probes.

Scanning hosts probe uniform-random addresses, so per host and day the
telescope hit count is Binomial(packets_sent, k/2^32).  The simulator
samples that binomial and places the hits uniformly in time and across
telescope addresses, which is statistically identical to drawing every
target but runs at desk scale.

Output is deterministic for a fixed config: each simulated day draws all
its coordinated hosts from one RNG substream keyed by (seed, kind, day),
its noise from another, and each background campaign's packets from one
keyed by (seed, kind, campaign, day), and every row of a day lies in that
day, so results are byte-identical no matter how days are parallelized or
reordered.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass
from datetime import date, timedelta
from functools import cached_property
from itertools import accumulate
from numbers import Integral, Real
from typing import Optional

import numpy as np

from .portgen import PORT_HI, PORT_LO, DailyPortOracle
from .records import (
    MAX_UDP_PAYLOAD,
    PROTO_UDP,
    SECONDS_PER_DAY,
    TRAFFIC_DTYPE,
    US_PER_DAY,
    _LAST_DAY,
    LabeledDataset,
    _parse_day,
    day_start_us,
    json_digest,
    sha256,
    traffic_table,
    write_csv_tables,
    write_labels_csv,
    write_manifest,
)
from .telescope import IPV4_SPACE, TelescopeSpec

__all__ = [
    "BackgroundScanner",
    "CrackonoshConfig",
    "SimConfig",
    "default_background",
    "three_epoch_schedule",
    "simulate",
    "simulate_days",
    "write_dataset",
    "config_digest",
]

# Ephemeral UDP source-port range used by the scanners.
EPHEMERAL_LO = 49152
EPHEMERAL_HI = 65535

# Noise probes go to ports 1-49107, below the default daily-port range.
_NOISE_PORTS = PORT_LO - 1

# Address space outside ordinary public unicast; no scanner sends from it.
_RESERVED = TelescopeSpec.from_cidrs([
    "0.0.0.0/8", "10.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16",
    "172.16.0.0/12", "192.168.0.0/16", "224.0.0.0/3",
])

# RNG substream kinds (first element of the stream key after the seed).
_K_PLACE = 0
_K_HOST = 1
_K_BG_SETUP = 2
_K_BG_DAY = 3
_K_NOISE = 4

# The order of simulated rows, as np.lexsort keys: least significant first.
_SORT_KEYS = ("payload_len", "dst_port", "src_port", "dst_ip", "src_ip", "ts_us")

# The keys of a config; crackonosh, a population schedule and a background
# scanner take those of the function or class they are passed to.
_CONFIG_KEYS = ("seed", "start_day", "telescope", "secret", "port_range", "crackonosh", "background",
                "noise_ports_per_day", "mode")

# The largest rate_pps: a day's sends, rate_pps * 86400, stay within both
# an int64 and Generator.poisson's domain.
MAX_RATE_PPS = 2**62 / SECONDS_PER_DAY


def _require(kind: type, name: str, *values) -> None:
    """Raise ValueError unless each value is of kind, Integral or Real (in a float's range); a bool is neither."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{name} must be {'an integer' if kind is Integral else 'a number'}, got {value!r}")
        if kind is Real and isinstance(value, Integral) and abs(value) > sys.float_info.max:
            raise ValueError(f"{name} must be a number within the range of a float")


def _stream(seed: int, kind: int, a: int = 0, b: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, kind, a, b))))


@dataclass(frozen=True)
class BackgroundScanner:
    """One ordinary scanning campaign observed by the telescope.

    rate_pps is the aggregate arrival rate at the telescope.  Sources are
    either one fixed address ("single") or up to 256 addresses inside one
    /24 ("block").  Packet sizes follow a modal distribution of at most 4
    fixed sizes, whose entropy is bounded by 2 bits by construction.
    """

    service_port: int
    source_mode: str  # "single" | "block"
    rate_pps: float
    sizes: tuple[int, ...]
    size_probs: tuple[float, ...]
    n_sources: int = 1

    def __post_init__(self) -> None:
        _require(Integral, "service_port", self.service_port)
        _require(Integral, "n_sources", self.n_sources)
        _require(Integral, "sizes", *self.sizes)
        _require(Real, "rate_pps", self.rate_pps)
        _require(Real, "size_probs", *self.size_probs)
        if not 0 <= self.service_port <= 65535:
            raise ValueError(f"service_port out of range: {self.service_port}")
        if self.source_mode not in ("single", "block"):
            raise ValueError(f"source_mode must be 'single' or 'block': {self.source_mode}")
        if not 0 < self.rate_pps <= MAX_RATE_PPS:
            raise ValueError(f"rate_pps must be > 0 and at most {MAX_RATE_PPS:g}, got {self.rate_pps}")
        if not 1 <= len(self.sizes) <= 4:
            raise ValueError("modal size distribution needs 1-4 distinct sizes")
        if len(self.sizes) != len(set(self.sizes)):
            raise ValueError("modal sizes must be distinct")
        if any(not 0 <= size <= MAX_UDP_PAYLOAD for size in self.sizes):
            raise ValueError(f"modal sizes must be within 0-{MAX_UDP_PAYLOAD}: {self.sizes}")
        if len(self.size_probs) != len(self.sizes):
            raise ValueError("size_probs must match sizes")
        if abs(sum(self.size_probs) - 1.0) > 1e-9 or any(p <= 0 for p in self.size_probs):
            raise ValueError("size_probs must be positive and sum to 1")
        if self.source_mode == "single":
            if self.n_sources != 1:
                raise ValueError("single source mode means exactly 1 source")
        elif not 1 <= self.n_sources <= 256:
            raise ValueError("block mode supports 1-256 sources in one /24")


@dataclass(frozen=True)
class CrackonoshConfig:
    """Coordinated-scanner population for the simulator.

    population lists the live host count for each simulated day (the
    schedule length is the run length).  A fixed fraction of hosts are
    always on; the rest are up for a contiguous 8-16 h window each day.
    Payload lengths are padded uniformly over padding_sizes distinct
    values starting at payload_base; 128 sizes lands the partition
    entropy in the observed 6.8-7.0 bit band once enough packets accrue.
    Source addresses are uniform over public space with at most per24_cap
    hosts in any /24.
    """

    population: tuple[int, ...]
    rate_pps: float = 10.0
    padding_sizes: int = 128
    payload_base: int = 64
    always_on_fraction: float = 0.6
    per24_cap: int = 2

    def __post_init__(self) -> None:
        if not self.population:
            raise ValueError("population schedule must cover at least one day")
        _require(Integral, "population", *self.population)
        if any(n < 0 for n in self.population):
            raise ValueError("population counts must be >= 0")
        # No more hosts a day than IPv4 has addresses, whatever room
        # per24_cap leaves (SimConfig checks that room).
        if any(n > IPV4_SPACE for n in self.population):
            raise ValueError(f"population counts must be at most {IPV4_SPACE}, the IPv4 address count")
        for name in ("padding_sizes", "payload_base", "per24_cap"):
            _require(Integral, name, getattr(self, name))
        for name in ("rate_pps", "always_on_fraction"):
            _require(Real, name, getattr(self, name))
        if not 0 <= self.rate_pps <= MAX_RATE_PPS:
            raise ValueError(f"rate_pps must be >= 0 and at most {MAX_RATE_PPS:g}, got {self.rate_pps}")
        if self.padding_sizes < 1:
            raise ValueError("padding_sizes must be >= 1")
        if self.payload_base < 0 or self.payload_base + self.padding_sizes - 1 > MAX_UDP_PAYLOAD:
            raise ValueError("payload sizes exceed the UDP payload bound")
        if not 0.0 <= self.always_on_fraction <= 1.0:
            raise ValueError("always_on_fraction must be in [0, 1]")
        if self.per24_cap < 1:
            raise ValueError("per24_cap must be >= 1")


@dataclass(frozen=True)
class SimConfig:
    """Complete, hashable description of one simulator run."""

    seed: int
    start_day: date
    telescope: TelescopeSpec
    oracle: DailyPortOracle
    crackonosh: CrackonoshConfig
    background: tuple[BackgroundScanner, ...] = ()
    noise_ports_per_day: int = 0

    def __post_init__(self) -> None:
        _require(Integral, "seed", self.seed)
        _require(Integral, "noise_ports_per_day", self.noise_ports_per_day)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.noise_ports_per_day <= _NOISE_PORTS:
            raise ValueError(f"noise_ports_per_day must be within 0-{_NOISE_PORTS}")
        if day_start_us(self.start_day) < 0 or (date.max - self.start_day).days < self.days - 1:
            raise ValueError(f"days must fall in 1970-01-01 to {date.max}, got {self.days} from {self.start_day}")
        # Hosts are drawn with replacement, so each /24 with any public
        # address left has room for per24_cap of them.
        cap, most = self.crackonosh.per24_cap, max(self.crackonosh.population)
        room = cap * (2**24 - sum(net.num_addresses >> 8 for net in self.blocked.cidrs))
        if room == 0:
            raise ValueError("telescope leaves no public address for scanners to send from")
        if most > room:
            raise ValueError(
                f"{most} hosts do not fit in the public space outside the telescope: "
                f"at most {room} at per24_cap {cap}"
            )

    @property
    def days(self) -> int:
        return len(self.crackonosh.population)

    @cached_property
    def blocked(self) -> TelescopeSpec:
        """The space no scanner sends from: the telescope and _RESERVED."""
        return TelescopeSpec.from_cidrs(self.telescope.cidrs + _RESERVED.cidrs)


def three_epoch_schedule(days_per_epoch: int, scale: float = 1.0) -> tuple[int, ...]:
    """Observed population trajectory: ~90k, then ~40k, then ~26k hosts.

    Scale it down (e.g. 0.01) for desk-size runs; counts are rounded.
    """
    _require(Integral, "days_per_epoch", days_per_epoch)
    _require(Real, "scale", scale)
    # Three epochs must fit in 1970-01-01 to 9999-12-31.
    if not 1 <= days_per_epoch <= (_LAST_DAY + 1) // 3:
        raise ValueError(f"days_per_epoch must be within 1-{(_LAST_DAY + 1) // 3}, got {days_per_epoch}")
    if not 0 <= scale < math.inf:
        raise ValueError(f"scale must be finite and >= 0, got {scale}")
    schedule = []
    for count in (90000, 40000, 26000):
        schedule.extend([round(count * scale)] * days_per_epoch)
    return tuple(schedule)


# Service ports commonly scanned for vulnerabilities or DDoS reflection.
# SNMP sightings in the wild are reported against both 161 and 123 (the
# latter properly NTP), so the default set carries both.
_SIP_SIZES = ((412, 418, 382), (0.6, 0.25, 0.15))
_MDNS_SIZES = ((46, 50), (0.8, 0.2))
_BT_SIZES = ((103, 107, 111, 99), (0.4, 0.3, 0.2, 0.1))
_WSD_SIZES = ((656, 680), (0.7, 0.3))
_SSDP_SIZES = ((94, 98, 132), (0.5, 0.4, 0.1))
_MSSQL_SIZES = ((1,), (1.0,))
_NTP_SIZES = ((8, 48), (0.6, 0.4))
_SNMP_SIZES = ((40, 42), (0.75, 0.25))


def default_background() -> tuple[BackgroundScanner, ...]:
    """A fixed set of service scanners resembling everyday UDP background.

    Per-port source totals sit in the few-hundred range so that a shrinking
    coordinated population gradually loses address-count rank against them.
    """

    def block(port, n, pkts_per_day, dist):
        return BackgroundScanner(
            service_port=port,
            source_mode="block",
            rate_pps=pkts_per_day / SECONDS_PER_DAY,
            sizes=dist[0],
            size_probs=dist[1],
            n_sources=n,
        )

    return (
        # SIP: three campaign blocks plus one classic single-source sweeper.
        block(5060, 250, 1500, _SIP_SIZES),
        block(5060, 250, 1500, _SIP_SIZES),
        block(5060, 200, 1200, _SIP_SIZES),
        BackgroundScanner(5060, "single", 3000 / SECONDS_PER_DAY, *_SIP_SIZES),
        # mDNS
        block(5353, 256, 1536, _MDNS_SIZES),
        block(5353, 256, 1536, _MDNS_SIZES),
        # BitTorrent
        block(6881, 200, 1200, _BT_SIZES),
        block(6881, 200, 1200, _BT_SIZES),
        block(6881, 150, 900, _BT_SIZES),
        # WS-Discovery
        block(3702, 215, 1300, _WSD_SIZES),
        block(3702, 215, 1300, _WSD_SIZES),
        # SSDP
        block(1900, 175, 1050, _SSDP_SIZES),
        block(1900, 175, 1050, _SSDP_SIZES),
        # MSSQL ping
        block(1433, 150, 900, _MSSQL_SIZES),
        block(1433, 150, 900, _MSSQL_SIZES),
        # NTP / SNMP
        block(123, 180, 1080, _NTP_SIZES),
        block(161, 90, 540, _SNMP_SIZES),
    )


def _draw_public_ips(rng: np.random.Generator, n: int, blocked: TelescopeSpec) -> np.ndarray:
    """n uniform addresses outside blocked, with replacement (no cap)."""
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        batch = rng.integers(0, IPV4_SPACE, size=max(1024, 2 * (n - filled)), dtype=np.int64)
        good = batch[~blocked.contains_array(batch)]
        take = min(n - filled, good.size)
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def _under_cap(ips: np.ndarray, cap: int) -> np.ndarray:
    """Mask of the addresses that find fewer than cap addresses before them in their /24.

    One sort of (/24, position) keys puts each /24's addresses together in
    position order; an address's rank is its distance from its run's start.
    """
    keys = ips >> 8
    keys <<= 32
    keys |= np.arange(ips.size)
    keys.sort()
    first = np.ones(ips.size, dtype=bool)
    first[1:] = keys[1:] >> 32 != keys[:-1] >> 32
    rank = np.arange(ips.size)
    run_start = np.where(first, rank, 0)
    np.maximum.accumulate(run_start, out=run_start)
    rank -= run_start
    keys &= 0xFFFFFFFF
    kept = np.empty(ips.size, dtype=bool)
    kept[keys] = rank < cap
    return kept


def _place_hosts(rng: np.random.Generator, n: int, blocked: TelescopeSpec, cap: int) -> np.ndarray:
    """n hosts drawn outside blocked, keeping in draw order each host that
    finds fewer than cap hosts before it in its /24."""
    placed = np.empty(0, dtype=np.int64)
    while placed.size < n:
        ips = np.concatenate([placed, _draw_public_ips(rng, max(256, n - placed.size), blocked)])
        drawn = ips[placed.size :][_under_cap(ips, cap)[placed.size :]]
        placed = np.concatenate([placed, drawn[: n - placed.size]])
    return placed


def _store_ts(rows: np.ndarray, day_us: int, offsets_s: np.ndarray) -> None:
    """Store offsets in seconds after day_us as rows' ts_us, floored to the
    microsecond and capped at the day's last, so every row lies in its day;
    offsets_s is overwritten."""
    offsets_s *= 1e6
    np.floor(offsets_s, out=offsets_s)
    np.minimum(offsets_s, US_PER_DAY - 1, out=offsets_s)
    rows["ts_us"] = offsets_s
    rows["ts_us"] += day_us


# A day is drawn in parts, each a generator: it draws up to its row count
# and yields it, is sent its slice of the day's one TRAFFIC_DTYPE table,
# and then fills every column as soon as it is drawn, so no full-width
# int64 column outlives its draw.  Each part draws from its own stream,
# so its draws are the same whatever runs between its two halves.
def _crackonosh_day(
    config: SimConfig,
    day_idx: int,
    port: int,
    host_ips: np.ndarray,
    host_always_on: np.ndarray,
):
    """Telescope hits of the day's live hosts 0..population[day]-1."""
    ck = config.crackonosh
    tel = config.telescope
    day_us = day_start_us(config.start_day + timedelta(days=day_idx))
    n_hosts = ck.population[day_idx]
    rng = _stream(config.seed, _K_HOST, day_idx)
    # Part-time hosts are up for one 8-16 h window; always-on hosts get
    # the whole day, and their start draw is uniform(0, 0) = 0.
    dur = rng.uniform(8 * 3600.0, 16 * 3600.0, size=n_hosts)
    dur[host_always_on[:n_hosts]] = SECONDS_PER_DAY
    t0 = rng.uniform(0.0, SECONDS_PER_DAY - dur)
    hits = rng.binomial(np.rint(ck.rate_pps * dur).astype(np.int64), tel.k / IPV4_SPACE)
    n = int(hits.sum())
    rows = yield n
    # Offsets into the telescope, below k <= 2**32, so they fit the
    # column; they become addresses once the rest is filled (see below).
    rows["dst_ip"] = rng.integers(0, tel.k, size=n)
    # Rows go host by host, each host's values repeated once per hit: no
    # per-row host index is held.
    offsets = rng.random(n)
    offsets *= np.repeat(dur, hits)
    offsets += np.repeat(t0, hits)
    _store_ts(rows, day_us, offsets)
    del offsets
    rows["src_ip"] = np.repeat(host_ips[:n_hosts], hits)
    rows["src_port"] = rng.integers(EPHEMERAL_LO, EPHEMERAL_HI + 1, size=n)
    rows["dst_port"] = port
    rows["proto"] = PROTO_UDP
    rows["payload_len"] = rng.integers(0, ck.padding_sizes, size=n)
    rows["payload_len"] += ck.payload_base
    rows["dst_ip"] = tel.addresses_at_array(rows["dst_ip"])


def _background_day(
    config: SimConfig,
    day_idx: int,
    scanner_idx: int,
    scanner: BackgroundScanner,
    sources: np.ndarray,
):
    tel = config.telescope
    day_us = day_start_us(config.start_day + timedelta(days=day_idx))
    rng = _stream(config.seed, _K_BG_DAY, scanner_idx, day_idx)
    n_pkts = int(rng.poisson(scanner.rate_pps * SECONDS_PER_DAY))
    rows = yield n_pkts
    # Every source speaks before any repeats, so daily per-port source
    # counts stay at the configured level.
    perm = rng.permutation(sources.size)
    if n_pkts >= sources.size:
        extra = rng.integers(0, sources.size, size=n_pkts - sources.size)
        src_idx = np.concatenate([perm, extra])
    else:
        src_idx = perm[:n_pkts]
    rows["src_ip"] = sources[src_idx]
    _store_ts(rows, day_us, rng.uniform(0.0, SECONDS_PER_DAY, size=n_pkts))
    rows["dst_ip"] = tel.addresses_at_array(rng.integers(0, tel.k, size=n_pkts))
    rows["src_port"] = rng.integers(EPHEMERAL_LO, EPHEMERAL_HI + 1, size=n_pkts)
    rows["payload_len"] = np.array(scanner.sizes, dtype=np.int64)[
        rng.choice(len(scanner.sizes), size=n_pkts, p=scanner.size_probs)
    ]
    rows["dst_port"] = scanner.service_port
    rows["proto"] = PROTO_UDP


def _noise_day(config: SimConfig, day_idx: int):
    """One-off probes: a long tail of low ports with one source and 1-3 packets.

    Ports stay below the coordinated-scanner range (they mimic service
    scanning), so the daily port is never polluted by noise.  Each port's
    probes share one source and one payload size.
    """
    n_ports = config.noise_ports_per_day
    tel = config.telescope
    day_us = day_start_us(config.start_day + timedelta(days=day_idx))
    rng = _stream(config.seed, _K_NOISE, day_idx)
    ports = rng.choice(_NOISE_PORTS, size=n_ports, replace=False) + 1
    srcs = _draw_public_ips(rng, n_ports, config.blocked)
    sizes = rng.integers(40, 401, size=n_ports)
    repeats = rng.integers(1, 4, size=n_ports)
    rows = yield int(repeats.sum())
    probe = np.repeat(np.arange(n_ports), repeats)
    rows["src_ip"] = srcs[probe]
    rows["dst_port"] = ports[probe]
    rows["payload_len"] = sizes[probe]
    _store_ts(rows, day_us, rng.uniform(0.0, SECONDS_PER_DAY, size=probe.size))
    rows["dst_ip"] = tel.addresses_at_array(rng.integers(0, tel.k, size=probe.size))
    rows["src_port"] = rng.integers(EPHEMERAL_LO, EPHEMERAL_HI + 1, size=probe.size)
    rows["proto"] = PROTO_UDP


def _time_order(keys) -> tuple[np.ndarray, np.ndarray]:
    """np.lexsort(keys), whose last key is the timestamp, by one argsort of it and
    a lexsort (row index last, for stability) of only the rows with tied timestamps;
    returns the order and the timestamps in that order."""
    ts = keys[-1]
    order = np.argsort(ts)
    # Indexing copies none of a strided column, where np.take copies all of it.
    ts = ts[order]
    tied = np.zeros(ts.size + 1, dtype=bool)
    np.equal(ts[1:], ts[:-1], out=tied[1:-1])
    tied = tied[1:] | tied[:-1]
    sub = order[tied]
    order[tied] = sub[np.lexsort((sub, *(key[sub] for key in keys)))]
    return order, ts


def simulate_days(config: SimConfig):
    """Yield (day, daily port, time-ordered traffic table) for each simulated day.

    Hosts are placed and campaigns set up once, then each day is drawn and
    sorted on its own, in the order one lexsort of the whole run on (ts,
    src, dst, sport, dport, size) gives, since every row of a day lies in
    that day (_store_ts).  A day's rows are drawn into one table, sized
    from the parts' counts, and sorted in place a column at a time.
    """
    ck = config.crackonosh
    max_pop = max(ck.population)
    place_rng = _stream(config.seed, _K_PLACE)
    host_ips = _place_hosts(place_rng, max_pop, config.blocked, ck.per24_cap)
    host_always_on = place_rng.random(max_pop) < ck.always_on_fraction

    # Background infrastructure is fixed for the whole run: each campaign
    # keeps the same source block across days.
    bg_sources = []
    for scanner_idx, scanner in enumerate(config.background):
        setup = _stream(config.seed, _K_BG_SETUP, scanner_idx)
        if scanner.source_mode == "single":
            sources = _draw_public_ips(setup, 1, config.blocked)
        else:
            base = (int(_draw_public_ips(setup, 1, config.blocked)[0]) >> 8) << 8
            sources = base + setup.choice(256, size=scanner.n_sources, replace=False)
        bg_sources.append(sources)

    for day_idx in range(config.days):
        day = config.start_day + timedelta(days=day_idx)
        port = config.oracle.daily_port(day)
        parts = [_crackonosh_day(config, day_idx, port, host_ips, host_always_on)]
        for idx, scanner in enumerate(config.background):
            parts.append(_background_day(config, day_idx, idx, scanner, bg_sources[idx]))
        parts.append(_noise_day(config, day_idx))
        bounds = list(accumulate(map(next, parts), initial=0))
        rows = np.empty(bounds[-1], dtype=TRAFFIC_DTYPE)
        for part, lo, hi in zip(parts, bounds, bounds[1:]):
            with suppress(StopIteration):
                part.send(rows[lo:hi])
        del parts
        order, rows["ts_us"] = _time_order([rows[name] for name in _SORT_KEYS])
        # The other columns are at most 4 bytes wide: np.take's copy of
        # one and its result take no more than the timestamps did.
        for name in TRAFFIC_DTYPE.names[1:]:
            rows[name] = np.take(rows[name], order)
        del order
        table = traffic_table(rows)
        del rows  # hold only the table while the caller consumes it
        yield day, port, table
        del table  # so the day is gone before the next is drawn, once the caller drops it


def simulate(config: SimConfig) -> LabeledDataset:
    """Run the simulator, returning a time-ordered traffic table plus ground truth."""
    days = list(simulate_days(config))
    records = traffic_table(np.concatenate([table for _, _, table in days]))
    return LabeledDataset(records=records, labels={day: port for day, port, _ in days})


def config_from_dict(d: dict, secret_override: Optional[str] = None) -> SimConfig:
    """Build a SimConfig from a parsed JSON config (see README for the format).

    The oracle secret comes from, in order: secret_override, the
    DARKHUNT_SECRET environment variable, a `{"env": "NAME"}` reference,
    or a plain string in the file.  Secrets are never logged.
    """
    unknown = [key for key in d if key not in _CONFIG_KEYS]
    if unknown:
        raise ValueError(f"unknown config key {unknown[0]!r}")
    # The simulator has one draw; the key stays so that configs naming it still load.
    if d.get("mode", "direct") != "direct":
        raise ValueError(f"mode must be 'direct', got {d['mode']!r}")
    try:
        seed = d["seed"]
        start_day = _parse_day(d["start_day"], "start_day")
        tel_field = d["telescope"]
    except KeyError as exc:
        raise ValueError(f"config missing required key: {exc.args[0]}") from None
    cidrs = [tel_field] if isinstance(tel_field, str) else list(tel_field)
    telescope = TelescopeSpec.from_cidrs(cidrs)

    raw = d.get("secret")
    if not isinstance(raw, (str, dict, type(None))):
        # The value is not echoed: it may be a secret in the wrong form.
        raise ValueError(f'secret must be a string or {{"env": NAME}}, got {type(raw).__name__}')
    secret = secret_override if secret_override is not None else os.environ.get("DARKHUNT_SECRET")
    if secret is None:
        if raw is None:
            raise ValueError("config has no secret and DARKHUNT_SECRET is unset")
        if isinstance(raw, dict):
            env_name = raw.get("env", "")
            secret = os.environ.get(env_name)
            if secret is None:
                raise ValueError(f"secret environment variable {env_name!r} is unset")
        else:
            secret = raw
    port_range = d.get("port_range", [PORT_LO, PORT_HI])
    if type(port_range) is not list or len(port_range) != 2:
        raise ValueError("port_range must be a [lo, hi] pair")
    oracle = DailyPortOracle(secret.encode(), *port_range)

    # A JSON integer rate or probability a float holds is the float it
    # stands for; anything else goes as it is, for the config classes to check.
    def real(v):
        return float(v) if type(v) is int and abs(v) <= sys.float_info.max else v

    ck_d = dict(d.get("crackonosh", {}))
    ck_d.update({key: real(ck_d[key]) for key in ("rate_pps", "always_on_fraction") if key in ck_d})
    pop_field = ck_d.pop("population", None)
    if pop_field is None:
        raise ValueError("config missing crackonosh.population")
    if isinstance(pop_field, dict):
        schedule = dict(pop_field)
        if schedule.pop("schedule", None) != "three_epoch":
            raise ValueError(f"unknown population schedule: {pop_field.get('schedule')!r}")
        population = three_epoch_schedule(**{"days_per_epoch": 1, **schedule})
    else:
        population = tuple(pop_field)
    crackonosh = CrackonoshConfig(population=population, **ck_d)

    bg_field = d.get("background", "none")
    if bg_field == "default":
        background = default_background()
    elif bg_field in ("none", None):
        background = ()
    else:
        background = tuple(
            BackgroundScanner(
                **dict(s, rate_pps=real(s["rate_pps"]), sizes=tuple(s["sizes"]),
                       size_probs=tuple(map(real, s["size_probs"])))
            )
            for s in bg_field
        )

    return SimConfig(
        seed=seed,
        start_day=start_day,
        telescope=telescope,
        oracle=oracle,
        crackonosh=crackonosh,
        background=background,
        noise_ports_per_day=d.get("noise_ports_per_day", 0),
    )


def load_config(
    path,
    secret_override: Optional[str] = None,
    seed_override: Optional[int] = None,
    scale_override: Optional[float] = None,
) -> SimConfig:
    """Read a JSON simulator config file."""
    with open(path, "r") as fh:
        d = json.load(fh)
    if not isinstance(d, dict):
        raise ValueError("a config must be a JSON object")
    if not isinstance(d.get("crackonosh", {}), dict):
        raise ValueError("crackonosh must be a JSON object")
    if seed_override is not None:
        d["seed"] = seed_override
    if scale_override is not None:
        pop = d.get("crackonosh", {}).get("population")
        if not isinstance(pop, dict):
            raise ValueError("--scale only applies to schedule-based populations")
        pop["scale"] = scale_override
    return config_from_dict(d, secret_override=secret_override)


def config_digest(config: SimConfig) -> str:
    """Stable hash of a config for run manifests.

    The oracle secret is folded in via its own digest so manifests never
    carry recoverable secret material.
    """
    payload = {
        "seed": config.seed,
        "start_day": config.start_day.isoformat(),
        "telescope": [str(c) for c in config.telescope.cidrs],
        "secret_sha256": sha256(config.oracle.secret).hexdigest(),
        "port_range": [config.oracle.port_lo, config.oracle.port_hi],
        "crackonosh": asdict(config.crackonosh),
        "background": [asdict(s) for s in config.background],
        "noise_ports_per_day": config.noise_ports_per_day,
        "mode": "direct",
    }
    return json_digest(payload)


def write_dataset(config: SimConfig, out_dir, inputs: Optional[dict] = None) -> dict:
    """Simulate into traffic.csv, labels.csv and the run manifest, writing
    each day as soon as it is drawn; returns the manifest."""
    os.makedirs(out_dir, exist_ok=True)
    labels = {}

    def tables():
        for day, port, table in simulate_days(config):
            labels[day] = port
            yield table
            del table

    records = write_csv_tables(tables(), os.path.join(out_dir, "traffic.csv"))
    write_labels_csv(labels, os.path.join(out_dir, "labels.csv"))
    return write_manifest(
        out_dir,
        "simulate",
        seed=config.seed,
        config_sha256=config_digest(config),
        inputs=inputs or {},
        outputs={"traffic": "traffic.csv", "labels": "labels.csv"},
        records=records,
        days=config.days,
    )
