import hashlib
import ipaddress
import json
import tracemalloc
import weakref
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from darkhunt import sim as sim_module
from darkhunt.portgen import DailyPortOracle
from darkhunt.records import (
    PROTO_UDP,
    SECONDS_PER_DAY,
    TRAFFIC_DTYPE,
    US_PER_DAY,
    day_of_ts,
    day_start_us,
    read_days,
    read_labels_csv,
    write_labels_csv,
)
from darkhunt.sim import (
    MAX_RATE_PPS,
    BackgroundScanner,
    CrackonoshConfig,
    SimConfig,
    config_digest,
    config_from_dict,
    default_background,
    simulate,
    simulate_days,
    three_epoch_schedule,
    write_dataset,
)
from darkhunt.telescope import TelescopeSpec, p_collision

ORACLE = DailyPortOracle(secret=b"sim-tests")
START = date(2024, 1, 1)


def small_config(**overrides):
    base = dict(
        seed=9,
        start_day=START,
        telescope=TelescopeSpec.from_prefix(12),
        oracle=ORACLE,
        crackonosh=CrackonoshConfig(population=(30, 30), always_on_fraction=1.0),
    )
    base.update(overrides)
    return SimConfig(**base)


# ------------------------------------------------------------- determinism

def test_identical_config_identical_records():
    cfg = small_config()
    assert simulate(cfg).records.tolist() == simulate(cfg).records.tolist()


def test_byte_identical_csv(tmp_path):
    cfg = small_config()
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        write_dataset(cfg, out)
        hashes.append(hashlib.sha256((out / "traffic.csv").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def test_different_seed_different_traffic():
    a = simulate(small_config(seed=1))
    b = simulate(small_config(seed=2))
    assert a.records.tolist() != b.records.tolist()


# --------------------------------------------------------------- streaming

@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=300),
    n_ts=st.integers(min_value=1, max_value=50),
    n_values=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_time_order_is_the_six_key_lexsort(n, n_ts, n_values, seed):
    # Timestamps from a few values and keys from fewer force ties on every
    # key, and full duplicates, whose order only the row index settles.
    rng = np.random.default_rng(seed)
    ts = rng.choice(rng.integers(0, 2**62, size=n_ts), size=n)
    size, dport, sport, dst, src = rng.integers(0, n_values, size=(5, n))
    keys = (size, dport, sport, dst, src, ts)
    order, sorted_ts = sim_module._time_order(keys)
    assert order.tolist() == np.lexsort(keys).tolist()
    assert sorted_ts.tolist() == ts[order].tolist()


def test_rows_at_a_days_end_stay_in_their_day(monkeypatch):
    # Offsets of exactly 86400 s floor to the next day's first microsecond;
    # on the first and the last day they are capped at the day's last.
    offsets = {0: [86400.0, 10.0, 86400.0], 1: [0.0, 5.0], 2: [20.0, 86400.0]}

    def noise_part(config, day_idx):
        # A day part: yield the row count, then fill the rows it is sent.
        rows = yield len(offsets[day_idx])
        for name in ("src_port", "dst_ip", "dst_port", "payload_len"):
            rows[name] = 1
        rows["src_ip"] = np.arange(len(rows))
        rows["proto"] = PROTO_UDP
        sim_module._store_ts(rows, day_start_us(START + timedelta(days=day_idx)), np.array(offsets[day_idx]))

    monkeypatch.setattr(sim_module, "_noise_day", noise_part)
    cfg = small_config(crackonosh=CrackonoshConfig(population=(0, 0, 0)))
    days = list(simulate_days(cfg))
    assert [day for day, _, _ in days] == [START + timedelta(days=i) for i in range(3)]
    last = US_PER_DAY - 1
    assert [(table.ts_us - day_start_us(day)).tolist() for day, _, table in days] == [
        [10_000_000, last, last], [0, 5_000_000], [20_000_000, last]
    ]


def spy_on_drawing(monkeypatch, refs):
    """Make each coordinated-part draw assert that every day in refs is gone."""
    crackonosh_day = sim_module._crackonosh_day

    def spy(config, day_idx, *args):
        assert [ref() for ref in refs] == [None] * len(refs), f"a day is alive when day {day_idx} is drawn"
        return crackonosh_day(config, day_idx, *args)

    monkeypatch.setattr(sim_module, "_crackonosh_day", spy)


def test_simulate_days_drops_each_day_before_drawing_the_next(monkeypatch):
    refs = []
    spy_on_drawing(monkeypatch, refs)
    for _, _, table in simulate_days(small_config(crackonosh=CrackonoshConfig(population=(50, 50, 50)))):
        refs.append(weakref.ref(table))
        del table
    assert len(refs) == 3


def test_write_dataset_drops_each_day_before_drawing_the_next(tmp_path, monkeypatch):
    refs = []
    spy_on_drawing(monkeypatch, refs)
    simulate_days_ = sim_module.simulate_days

    def recorded(config):
        for day, port, table in simulate_days_(config):
            refs.append(weakref.ref(table))
            yield day, port, table
            del table

    monkeypatch.setattr(sim_module, "simulate_days", recorded)
    write_dataset(small_config(crackonosh=CrackonoshConfig(population=(50, 50, 50))), tmp_path)
    assert len(refs) == 3


def test_first_day_streams_without_drawing_later_days(monkeypatch):
    cfg = small_config(background=default_background()[:3], noise_ports_per_day=20)
    records = simulate(cfg).records
    drawn = []
    crackonosh_day = sim_module._crackonosh_day

    def spy(config, day_idx, *args):
        drawn.append(day_idx)
        return crackonosh_day(config, day_idx, *args)

    monkeypatch.setattr(sim_module, "_crackonosh_day", spy)
    day, port, table = next(simulate_days(cfg))
    assert drawn == [0]
    assert (day, port) == (START, ORACLE.daily_port(START))
    day0 = records[records.ts_us < day_start_us(START) + US_PER_DAY]
    assert len(day0) > 0 and table.tolist() == day0.tolist()


def test_drawing_a_day_holds_its_rows_about_once():
    # The day's one table and its sort order, or the coordinated part's
    # temporaries: about 1.85 times the table's bytes, against 2.6 when the
    # parts were concatenated into a second table and gathered into a third.
    cfg = small_config(
        crackonosh=CrackonoshConfig(population=(30,), always_on_fraction=0.9),
        background=default_background(),
        noise_ports_per_day=250,
    )
    next(simulate_days(cfg))  # first-use imports (numpy.random) are not counted
    tracemalloc.start()
    try:
        [(_, _, table)] = simulate_days(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) > 20_000
    assert peak < 2.2 * table.nbytes, peak / table.nbytes


def draw_coordinated_day(part, *args):
    """The table a _crackonosh_day-like generator fills for its row count."""
    part = part(*args)
    rows = np.empty(next(part), dtype=TRAFFIC_DTYPE)
    with pytest.raises(StopIteration):
        part.send(rows)
    return rows


def traced_coordinated_day(cfg, n_hosts):
    """A coordinated day of n_hosts and the peak bytes tracemalloc saw while drawing it."""
    host_ips = np.arange(n_hosts, dtype=np.int64)
    always_on = np.arange(n_hosts) % 5 < 3
    args = (sim_module._crackonosh_day, cfg, 0, 1234, host_ips, always_on)
    draw_coordinated_day(*args)  # first-use imports are not counted
    tracemalloc.start()
    try:
        rows = draw_coordinated_day(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rows, peak


def test_a_coordinated_day_holds_each_host_draw_once():
    # A paper-scale day on a /22: 90,000 hosts and about 15,000 hits.
    # Beside the day's rows the draw holds one word a host (its hit count),
    # up to three words a row while the telescope offsets become addresses,
    # and one chunk's temporaries: about 13 bytes a host, against 28 when
    # every host's window, start and send count lived as long as its hits.
    n_hosts = 90_000
    cfg = small_config(telescope=TelescopeSpec.from_prefix(22), crackonosh=CrackonoshConfig(population=(n_hosts,)))
    rows, peak = traced_coordinated_day(cfg, n_hosts)
    assert len(rows) > 10_000
    bound = 8 * n_hosts + 3 * 8 * len(rows) + 4 * 8 * sim_module._CHUNK
    assert peak - rows.nbytes < bound, (peak - rows.nbytes) / n_hosts


def test_a_coordinated_days_memory_per_host_is_flat():
    # On a /24 at 0.01 pps almost no host is seen, so the rows cost nothing
    # and a host costs its hit count: going from 90k to 900k hosts adds
    # about 8 bytes a host, against 32 when every host's window, start and
    # send count were drawn at once.
    per_host = {}
    for n_hosts in (90_000, 900_000):
        cfg = small_config(telescope=TelescopeSpec.from_prefix(24),
                           crackonosh=CrackonoshConfig(population=(n_hosts,), rate_pps=0.01))
        rows, peak = traced_coordinated_day(cfg, n_hosts)
        per_host[n_hosts] = (peak - rows.nbytes) / n_hosts
    assert per_host[900_000] <= per_host[90_000], per_host
    added = (900_000 * per_host[900_000] - 90_000 * per_host[90_000]) / 810_000
    assert added < 9, added


def crackonosh_day_reference(config, day_idx, port, host_ips, host_always_on):
    """The one-shot draw sim._crackonosh_day replaced: every host's window,
    start and send count drawn at once and held through the fill."""
    ck = config.crackonosh
    tel = config.telescope
    day_us = day_start_us(config.start_day + timedelta(days=day_idx))
    n_hosts = ck.population[day_idx]
    rng = sim_module._stream(config.seed, sim_module._K_HOST, day_idx)
    dur = rng.uniform(8 * 3600.0, 16 * 3600.0, size=n_hosts)
    dur[host_always_on[:n_hosts]] = SECONDS_PER_DAY
    t0 = rng.uniform(0.0, SECONDS_PER_DAY - dur)
    hits = rng.binomial(np.rint(ck.rate_pps * dur).astype(np.int64), tel.k / 2**32)
    n = int(hits.sum())
    rows = yield n
    rows["dst_ip"] = rng.integers(0, tel.k, size=n)
    offsets = rng.random(n)
    offsets *= np.repeat(dur, hits)
    offsets += np.repeat(t0, hits)
    sim_module._store_ts(rows, day_us, offsets)
    rows["src_ip"] = np.repeat(host_ips[:n_hosts], hits)
    rows["src_port"] = rng.integers(sim_module.EPHEMERAL_LO, sim_module.EPHEMERAL_HI + 1, size=n)
    rows["dst_port"] = port
    rows["proto"] = PROTO_UDP
    rows["payload_len"] = rng.integers(0, ck.padding_sizes, size=n)
    rows["payload_len"] += ck.payload_base
    rows["dst_ip"] = tel.addresses_at_array(rows["dst_ip"])


CHUNK = sim_module._CHUNK


@pytest.mark.parametrize("n_hosts", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5, 90_000])
def test_a_coordinated_day_matches_the_one_shot_reference(n_hosts):
    # The same rows, byte for byte, whether a chunk bound falls inside the
    # population or not.  Day 1 of a run whose largest day has more hosts,
    # as in the paper's later epochs; on a /24 at 0.01 pps most hosts get
    # no hits.
    rng = np.random.default_rng(n_hosts)
    host_ips = rng.integers(0, 2**32, size=n_hosts + 7)
    for fraction in (0.0, 0.6, 1.0):
        always_on = rng.random(n_hosts + 7) < fraction
        for prefix, rate_pps in ((22, 10.0), (24, 0.01)):
            cfg = small_config(telescope=TelescopeSpec.from_prefix(prefix),
                               crackonosh=CrackonoshConfig(population=(3, n_hosts), rate_pps=rate_pps))
            args = (cfg, 1, 50_000, host_ips, always_on)
            rows = draw_coordinated_day(sim_module._crackonosh_day, *args)
            assert rows.tobytes() == draw_coordinated_day(crackonosh_day_reference, *args).tobytes()
            if n_hosts == 90_000:
                assert len(rows) > 5_000 if prefix == 22 else len(rows) < 100


def test_days_are_independent_substreams():
    # Each day draws from its own (seed, kind, day) streams: appending a
    # day to the schedule leaves every earlier day's packets as they were.
    def run(population):
        return simulate(small_config(
            crackonosh=CrackonoshConfig(population=population, rate_pps=1.0, always_on_fraction=0.5),
            background=default_background(),
            noise_ports_per_day=20,
        )).records

    one_day, two_days = run((30,)), run((30, 20))
    assert len(one_day) > 0
    day0 = two_days[two_days.ts_us < day_start_us(date(2024, 1, 2))]
    assert day0.tolist() == one_day.tolist()


# ------------------------------------------------------------ ground truth

def test_crackonosh_packets_hit_telescope_on_daily_port():
    cfg = small_config()
    ds = simulate(cfg)
    assert len(ds.records) > 0
    assert sorted(ds.labels) == [START, date(2024, 1, 2)]
    for day, port in ds.labels.items():
        assert port == ORACLE.daily_port(day)
    assert cfg.telescope.contains_array(ds.records.dst_ip).all()
    for rec in ds.records:
        assert rec.proto == 17
        assert rec.dst_port == ds.labels[day_of_ts(rec.ts_us)]
        assert 49152 <= rec.src_port <= 65535


def test_payload_sizes_uniform_support():
    cfg = small_config(
        crackonosh=CrackonoshConfig(
            population=(40,), always_on_fraction=1.0, padding_sizes=16, payload_base=200
        )
    )
    ds = simulate(cfg)
    sizes = {r.payload_len for r in ds.records}
    assert sizes <= set(range(200, 216))
    assert len(sizes) == 16  # thousands of draws cover all 16 values


def test_per24_source_cap():
    cfg = small_config(
        crackonosh=CrackonoshConfig(population=(500,), always_on_fraction=1.0, per24_cap=2)
    )
    ds = simulate(cfg)
    blocks = {}
    for src in {r.src_ip for r in ds.records}:
        blocks[src >> 8] = blocks.get(src >> 8, 0) + 1
    assert blocks and max(blocks.values()) <= 2
    # Structural consequence: block count is at least half the address count.
    n_addrs = len({r.src_ip for r in ds.records})
    assert len(blocks) >= n_addrs / 2


def test_windowed_hosts_stay_inside_a_short_window():
    # 200 part-time 1 pps hosts on a /8: each host's packets fall inside
    # its own 8-16 h window, and the mean hits per host match
    # rate * 12 h * k/2^32 (N = rint(dur) sent, each hitting w.p. 1/256).
    n_hosts, pc = 200, 1 / 256
    var_dur = (8 * 3600) ** 2 / 12
    var_hits = 12 * 3600 * pc * (1 - pc) + pc**2 * var_dur
    for seed in (31, 32, 33):
        cfg = small_config(
            seed=seed,
            telescope=TelescopeSpec.from_prefix(8),
            crackonosh=CrackonoshConfig(population=(n_hosts,), rate_pps=1.0, always_on_fraction=0.0),
        )
        records = simulate(cfg).records
        ips, counts = np.unique(records.src_ip, return_counts=True)
        assert ips.size == n_hosts, "a /8 sees a 1 pps host ~170 times a day"
        for ip in ips.tolist():
            ts = records.ts_us[records.src_ip == ip]
            assert ts.max() - ts.min() <= 16 * 3600 * 10**6
        assert abs(counts.mean() - 12 * 3600 * pc) <= 4 * (var_hits / n_hosts) ** 0.5


def test_sources_avoid_reserved_and_telescope_space():
    cfg = small_config(
        crackonosh=CrackonoshConfig(population=(300,), always_on_fraction=1.0)
    )
    ds = simulate(cfg)
    assert not cfg.telescope.contains_array(ds.records.src_ip).any()
    for src in {r.src_ip for r in ds.records}:
        o1 = src >> 24
        assert o1 not in (0, 10, 127) and o1 < 224


# ------------------------------------------------------------- placement

def draw_public_ips_reference(rng, n, telescope):
    """The draw sim._draw_public_ips replaced: two membership tests per batch."""
    out = np.empty(n, dtype=np.int64)
    filled = 0
    while filled < n:
        batch = rng.integers(0, 2**32, size=max(1024, 2 * (n - filled)), dtype=np.int64)
        ok = ~sim_module._RESERVED.contains_array(batch)
        ok &= ~telescope.contains_array(batch)
        good = batch[ok]
        take = min(n - filled, good.size)
        out[filled : filled + take] = good[:take]
        filled += take
    return out


def place_hosts_reference(rng, n, telescope, cap):
    """The per-address loop sim._place_hosts replaced: a dict of /24 counts."""
    out = np.empty(n, dtype=np.int64)
    block_counts = {}
    filled = 0
    while filled < n:
        for ip in draw_public_ips_reference(rng, max(256, n - filled), telescope):
            blk = int(ip) >> 8
            if block_counts.get(blk, 0) >= cap:
                continue
            block_counts[blk] = block_counts.get(blk, 0) + 1
            out[filled] = ip
            filled += 1
            if filled == n:
                break
    return out


PLACEMENT_TELESCOPES = [[f"64.0.0.0/{prefix}"] for prefix in range(9, 23)] + [
    ["10.0.0.0/9", "23.0.0.0/11", "64.0.0.0/10", "100.100.100.0/22"]
]


@pytest.mark.parametrize("cidrs", PLACEMENT_TELESCOPES, ids=",".join)
def test_placement_matches_the_reference_loop(cidrs):
    # The same addresses in the same order, and the generator left in the
    # same state, over sizes that take one batch and sizes that take many.
    telescope = TelescopeSpec.from_cidrs(cidrs)
    blocked = small_config(telescope=telescope).blocked
    prefix = telescope.cidrs[0].prefixlen
    for n, cap, seed in [(1, 1, prefix), (255, 2, prefix + 1), (4000, 3, prefix + 2),
                         (20000, 1, prefix + 3)]:
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        placed = sim_module._place_hosts(rng_a, n, blocked, cap)
        assert placed.tolist() == place_hosts_reference(rng_b, n, telescope, cap).tolist()
        assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize(
    "cidrs,cap", [(["64.0.0.0/22"], 1), (["64.0.0.0/9"], 2), (PLACEMENT_TELESCOPES[-1], 3)]
)
def test_placement_matches_the_reference_loop_at_200k_hosts(cidrs, cap):
    # At 200k hosts and cap 1, about 1.3k draws share a /24 with an
    # earlier host and are refused, so more batches follow the first.
    telescope = TelescopeSpec.from_cidrs(cidrs)
    blocked = small_config(telescope=telescope).blocked
    for seed in (3, 4):
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        placed = sim_module._place_hosts(rng_a, 200_000, blocked, cap)
        assert placed.tolist() == place_hosts_reference(rng_b, 200_000, telescope, cap).tolist()
        assert rng_a.random() == rng_b.random()
        assert np.unique(placed >> 8, return_counts=True)[1].max() <= cap


@pytest.mark.parametrize("cap", [1, 2])
def test_placing_the_papers_hosts_holds_under_three_words_a_host(cap):
    # The first epoch's 90k hosts on CI's /22.  Beside the placed hosts,
    # placement holds the sort keys and one chunk's draw: about 2.3 words
    # a host, against 5.3 when each batch was drawn whole beside its mask
    # and the addresses it kept.  At cap 1 about 280 draws are refused,
    # so a second batch is ranked against the 90k placed ones.
    blocked = small_config(telescope=TelescopeSpec.from_prefix(22)).blocked
    sim_module._place_hosts(np.random.default_rng(1), 1000, blocked, cap)  # first-use allocations
    tracemalloc.start()
    try:
        placed = sim_module._place_hosts(np.random.default_rng(1), 90_000, blocked, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert placed.size == 90_000
    assert peak < 3 * 8 * placed.size, peak / placed.nbytes


def under_cap_reference(ips, cap):
    """The rule sim._under_cap replaced: a stable argsort by /24 and each
    address's distance from its /24's first sorted position."""
    order = np.argsort(ips >> 8, kind="stable")
    block = ips[order] >> 8
    rank = np.arange(ips.size) - np.searchsorted(block, block)
    kept = np.empty(ips.size, dtype=bool)
    kept[order] = rank < cap
    return kept


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(min_value=0, max_value=3000),
    n_blocks=st.integers(min_value=1, max_value=50),
    cap=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    chunk=st.sampled_from([1, 2, 7, sim_module._CHUNK]),
)
def test_under_cap_matches_the_stable_argsort_rule(size, n_blocks, cap, seed, chunk):
    # Addresses from a few /24s anywhere in IPv4, so most share a /24; the
    # first ones stand for hosts already placed.  Small chunks put chunk
    # bounds among each /24's first cap addresses.
    rng = np.random.default_rng(seed)
    blocks = rng.integers(0, 2**24, size=n_blocks)
    ips = rng.choice(blocks, size=size) << 8 | rng.integers(0, 256, size=size)
    placed = int(rng.integers(0, size + 1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sim_module, "_CHUNK", chunk)
        kept = sim_module._under_cap(ips[:placed], ips[placed:], cap)
    assert kept.tolist() == under_cap_reference(ips, cap)[placed:].tolist()


# ----------------------------------------------------- cross-module examples

def test_relabeling_with_same_oracle_matches_ground_truth():
    # Whoever holds the oracle recovers every day's label from the traffic
    # alone, and every coordinated packet is on its day's port.
    cfg = small_config()
    ds = simulate(cfg)
    relabeled = {
        day_of_ts(ts): ORACLE.daily_port(day_of_ts(ts)) for ts in ds.records.ts_us.tolist()
    }
    assert relabeled == dict(ds.labels)
    for rec in ds.records:
        assert rec.dst_port == relabeled[day_of_ts(rec.ts_us)]


def test_two_thousand_sources_outrank_default_background():
    # A coordinated population observed as ~2400 sources versus background
    # campaigns of at most ~700 sources each: rank 1 by address count.
    from darkhunt.ranking import rank_of_labeled_port, rank_ports
    from darkhunt.records import partition_by_day_port

    cfg = small_config(
        telescope=TelescopeSpec.from_prefix(18),
        crackonosh=CrackonoshConfig(population=(2500,), always_on_fraction=1.0),
        background=default_background(),
        noise_ports_per_day=50,
    )
    ds = simulate(cfg)
    parts = {port: p for (_, port), p in partition_by_day_port(ds.records).items()}
    label = ds.labels[START]
    assert len({r.src_ip for r in parts[label].records}) > 2000
    ranked = rank_ports(parts, "address_count")
    assert rank_of_labeled_port(ranked, label) == 1


def test_coordinated_spread_beats_single_source_at_equal_budget():
    # Same telescope, same packet budget: thinly-spread coordination scores
    # orders of magnitude higher on src_spread than one busy scanner.
    from darkhunt.ranking import rank_ports
    from darkhunt.records import partition_by_day_port

    def src_spread(part):
        [entry] = rank_ports({part.dst_port: part}, "src_spread")
        return entry.value

    tel = TelescopeSpec.from_prefix(22)
    coordinated = simulate(small_config(
        telescope=tel,
        crackonosh=CrackonoshConfig(population=(2000,), always_on_fraction=1.0),
    ))
    budget = len(coordinated.records)
    assert budget > 128
    lone = BackgroundScanner(
        service_port=5060,
        source_mode="single",
        rate_pps=budget / 86400,
        sizes=(412,),
        size_probs=(1.0,),
    )
    block_scan = simulate(small_config(
        telescope=tel,
        crackonosh=CrackonoshConfig(population=(0,), always_on_fraction=1.0),
        background=(lone,),
    ))
    [part_a] = partition_by_day_port(coordinated.records).values()
    [part_b] = partition_by_day_port(block_scan.records).values()
    assert src_spread(part_a) > 100 * src_spread(part_b)


# ------------------------------------------------- probe-by-probe reference

def probe_by_probe_hits(seed, telescope, rate_pps):
    """Reference for one always-on host: every probe of its day is sent at a
    uniform time to a uniform IPv4 address, and the telescope captures the
    probes that hit it.  Returns their microsecond offsets into the day, sorted."""
    rng = np.random.default_rng(seed)
    n_sent = round(rate_pps * SECONDS_PER_DAY)
    targets = rng.integers(0, 2**32, size=n_sent, dtype=np.int64)
    sent_s = rng.uniform(0.0, SECONDS_PER_DAY, size=n_sent)
    return np.sort(np.floor(sent_s[telescope.contains_array(targets)] * 1e6).astype(np.int64))


def one_host_offsets(seed, telescope, rate_pps):
    """The simulator's hits for the reference's host, as microsecond offsets in time order."""
    cfg = SimConfig(
        seed=seed,
        start_day=START,
        telescope=telescope,
        oracle=ORACLE,
        crackonosh=CrackonoshConfig(population=(1,), rate_pps=rate_pps, always_on_fraction=1.0),
    )
    return simulate(cfg).records.ts_us - day_start_us(START)


def test_hit_counts_match_the_probe_by_probe_reference():
    # 1 host at 0.02 pps against a /8 (collision 1/256): per-day telescope
    # hits are Binomial(1728, 1/256) either way; compare means over seeds
    # within 3 sigma.
    tel = TelescopeSpec.from_prefix(8)
    counts = {
        "simulator": [one_host_offsets(seed, tel, 0.02).size for seed in range(120)],
        "reference": [probe_by_probe_hits(seed, tel, 0.02).size for seed in range(120)],
    }
    n_sent = round(0.02 * 86400)
    pc = p_collision(tel)
    sigma_single = (n_sent * pc * (1 - pc)) ** 0.5
    sigma_diff = sigma_single * (2 / 120) ** 0.5
    assert abs(np.mean(counts["simulator"]) - np.mean(counts["reference"])) <= 3 * sigma_diff
    # Both track the analytic expectation too.
    sigma_mean = sigma_single / 120**0.5
    for sample in counts.values():
        assert abs(np.mean(sample) - n_sent * pc) <= 3 * sigma_mean


def test_time_to_128_packets_matches_the_probe_by_probe_reference():
    # One always-on 2 pps host on a /8 reaches 128 telescope packets after
    # ~4.5 h.  The simulator places its hits in time after drawing their
    # count; the reference times every probe, so the two must agree on the
    # whole distribution of that time, not only on mean counts.
    tel = TelescopeSpec.from_prefix(8)
    simulator = [int(one_host_offsets(seed, tel, 2.0)[127]) for seed in range(60)]
    reference = [int(probe_by_probe_hits(seed, tel, 2.0)[127]) for seed in range(60)]
    assert ks_2samp(simulator, reference).pvalue > 0.01


# ---------------------------------------------------------------- background

def test_background_only_never_touches_oracle_port():
    cfg = small_config(
        crackonosh=CrackonoshConfig(population=(0, 0), always_on_fraction=1.0),
        background=default_background(),
        noise_ports_per_day=100,
    )
    ds = simulate(cfg)
    assert len(ds.records) > 1000
    oracle_ports = set(ds.labels.values())
    assert all(r.dst_port not in oracle_ports for r in ds.records)
    assert all(r.dst_port < 49108 for r in ds.records)


def test_background_source_structure():
    scanner = BackgroundScanner(
        service_port=5060,
        source_mode="block",
        rate_pps=2000 / 86400,
        sizes=(412, 418),
        size_probs=(0.7, 0.3),
        n_sources=100,
    )
    cfg = small_config(
        crackonosh=CrackonoshConfig(population=(0,), always_on_fraction=1.0),
        background=(scanner,),
    )
    ds = simulate(cfg)
    srcs = {r.src_ip for r in ds.records}
    assert len(srcs) == 100
    assert len({s >> 8 for s in srcs}) == 1  # all in one /24
    assert {r.payload_len for r in ds.records} == {412, 418}


def test_single_source_scanner():
    scanner = BackgroundScanner(
        service_port=1433,
        source_mode="single",
        rate_pps=500 / 86400,
        sizes=(1,),
        size_probs=(1.0,),
    )
    cfg = small_config(
        crackonosh=CrackonoshConfig(population=(0,), always_on_fraction=1.0),
        background=(scanner,),
    )
    ds = simulate(cfg)
    assert len({r.src_ip for r in ds.records}) == 1


def test_background_scanner_validation():
    ok = dict(service_port=53, source_mode="block", rate_pps=1.0, n_sources=10)
    with pytest.raises(ValueError):
        BackgroundScanner(**ok, sizes=(1, 2, 3, 4, 5), size_probs=(0.2,) * 5)
    with pytest.raises(ValueError):
        BackgroundScanner(**ok, sizes=(1, 2), size_probs=(0.7, 0.2))
    with pytest.raises(ValueError):
        BackgroundScanner(
            service_port=53, source_mode="single", rate_pps=1.0, n_sources=5,
            sizes=(1,), size_probs=(1.0,),
        )
    with pytest.raises(ValueError):
        BackgroundScanner(**ok, sizes=(1, 1), size_probs=(0.5, 0.5))
    with pytest.raises(ValueError, match="modal sizes must be within 0-65507"):
        BackgroundScanner(**ok, sizes=(100, 65508), size_probs=(0.5, 0.5))
    # Uniform over 4 sizes sits exactly at the 2-bit construction bound;
    # float slack within the sum tolerance does not push it over.
    BackgroundScanner(**ok, sizes=(1, 2, 3, 4), size_probs=(0.25,) * 4)
    BackgroundScanner(**ok, sizes=(1, 2, 3, 4), size_probs=(0.2500000002,) * 4)


def test_default_background_is_modal_and_low_port():
    for scanner in default_background():
        assert scanner.service_port < 49108
        assert len(scanner.sizes) <= 4


# -------------------------------------------------------- ephemeral src ports

def test_ephemeral_port_range_and_uniformity():
    # Scanner source ports are uniform over the ephemeral range 49152-65535.
    ds = simulate(small_config())
    draws = np.array([rec.src_port for rec in ds.records])
    assert draws.size > 10_000
    assert draws.min() >= 49152 and draws.max() <= 65535
    bins = np.bincount((draws - 49152) // 1024, minlength=16)
    assert chisquare(bins).pvalue > 0.001


# ----------------------------------------------------------------- schedules

def test_three_epoch_schedule_scaling():
    assert three_epoch_schedule(1) == (90000, 40000, 26000)
    assert three_epoch_schedule(2, 0.01) == (900, 900, 400, 400, 260, 260)
    assert three_epoch_schedule(1, 0.0) == (0, 0, 0)


def test_zero_day_run_rejected():
    with pytest.raises(ValueError):
        CrackonoshConfig(population=())


# ------------------------------------------------------------------- outputs

def test_write_dataset_round_trip(tmp_path):
    cfg = small_config()
    ds = simulate(cfg)
    write_dataset(cfg, tmp_path / "out")
    read = [row for _, table in read_days(tmp_path / "out" / "traffic.csv") for row in table.tolist()]
    assert read == ds.records.tolist()
    assert read_labels_csv(tmp_path / "out" / "labels.csv") == dict(ds.labels)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["seed"] == cfg.seed
    assert manifest["config_sha256"] == config_digest(cfg)
    assert manifest["records"] == len(ds.records)


def test_manifest_stable_across_reruns(tmp_path):
    cfg = small_config()
    write_dataset(cfg, tmp_path / "a")
    write_dataset(cfg, tmp_path / "b")
    assert (tmp_path / "a" / "manifest.json").read_bytes() == (
        tmp_path / "b" / "manifest.json"
    ).read_bytes()


def test_config_digest_sensitive_to_secret_but_hides_it():
    cfg_a = small_config(oracle=DailyPortOracle(secret=b"aaa"))
    cfg_b = small_config(oracle=DailyPortOracle(secret=b"bbb"))
    assert config_digest(cfg_a) != config_digest(cfg_b)


# -------------------------------------------------------------- config files

def base_dict():
    return {
        "seed": 4,
        "start_day": "2024-01-01",
        "telescope": ["10.0.0.0/16"],
        "secret": "file-secret",
        "crackonosh": {"population": [5, 5], "always_on_fraction": 1.0},
    }


def test_config_from_dict_minimal():
    cfg = config_from_dict(base_dict())
    assert cfg.days == 2
    assert cfg.telescope.k == 65536
    assert cfg.oracle.secret == b"file-secret"
    assert cfg.background == ()


def test_config_from_dict_schedule_and_default_background():
    d = base_dict()
    d["crackonosh"] = {
        "population": {"schedule": "three_epoch", "days_per_epoch": 2, "scale": 0.001}
    }
    d["background"] = "default"
    cfg = config_from_dict(d)
    assert cfg.crackonosh.population == (90, 90, 40, 40, 26, 26)
    assert len(cfg.background) == len(default_background())


SCANNER = {"service_port": 53, "source_mode": "single", "sizes": [70]}
CRACKONOSH = {"population": [5, 5]}


# JSON integers that a float holds hash as that float: background
# scanners' and crackonosh's rates and probabilities alike.
@pytest.mark.parametrize(
    "key,floats,ints",
    [
        ("background", [dict(SCANNER, rate_pps=1.0, size_probs=[1.0])], [dict(SCANNER, rate_pps=1, size_probs=[1])]),
        ("crackonosh", dict(CRACKONOSH, rate_pps=10.0), dict(CRACKONOSH, rate_pps=10)),
        ("crackonosh", dict(CRACKONOSH, always_on_fraction=1.0), dict(CRACKONOSH, always_on_fraction=1)),
    ],
)
def test_config_from_dict_hashes_integer_background_rates_as_floats(key, floats, ints):
    assert config_digest(config_from_dict(dict(base_dict(), **{key: floats}))) == config_digest(
        config_from_dict(dict(base_dict(), **{key: ints}))
    )


def test_config_from_dict_takes_mode_direct_as_no_mode():
    # A config that names the one draw keeps the config_sha256 it had.
    assert config_digest(config_from_dict(dict(base_dict(), mode="direct"))) == config_digest(
        config_from_dict(base_dict())
    )


def test_rate_bound_keeps_a_days_sends_in_int64_and_poisson():
    # Configs at the bound are only built: simulating one would draw on the
    # order of 2**62 rows.
    assert CrackonoshConfig(population=(1,), rate_pps=MAX_RATE_PPS).rate_pps == MAX_RATE_PPS
    assert BackgroundScanner(53, "single", MAX_RATE_PPS, (70,), (1.0,)).rate_pps == MAX_RATE_PPS
    sends = MAX_RATE_PPS * SECONDS_PER_DAY
    assert np.rint(np.array([sends])).astype(np.int64)[0] == 2**62
    assert np.random.default_rng(0).poisson(sends) > 0


def test_config_from_dict_secret_sources(monkeypatch):
    d = base_dict()
    del d["secret"]
    monkeypatch.delenv("DARKHUNT_SECRET", raising=False)
    with pytest.raises(ValueError):
        config_from_dict(d)
    monkeypatch.setenv("DARKHUNT_SECRET", "env-secret")
    assert config_from_dict(d).oracle.secret == b"env-secret"
    monkeypatch.delenv("DARKHUNT_SECRET")
    d["secret"] = {"env": "MY_SECRET"}
    with pytest.raises(ValueError):
        config_from_dict(d)
    monkeypatch.setenv("MY_SECRET", "indirect")
    assert config_from_dict(d).oracle.secret == b"indirect"
    assert config_from_dict(d, secret_override="flag-wins").oracle.secret == b"flag-wins"


@pytest.mark.parametrize("start_day, days", [(date(1969, 12, 31), 1), (date(9999, 12, 30), 3)])
def test_config_rejects_a_day_outside_1970_to_9999(start_day, days):
    with pytest.raises(ValueError, match=f"got {days} from {start_day}"):
        small_config(start_day=start_day, crackonosh=CrackonoshConfig(population=(5,) * days))


def test_a_run_may_end_on_9999_12_31():
    # The last day's end is one day past its start in microseconds; as a
    # date it would be 10000-01-01, which a date cannot hold.
    last = date(9999, 12, 31)
    cfg = small_config(start_day=date(9999, 12, 30), crackonosh=CrackonoshConfig(population=(5, 5)))
    days = list(simulate_days(cfg))
    assert [day for day, _, _ in days] == [last - timedelta(days=1), last]
    ts = np.concatenate([table["ts_us"] for _, _, table in days])
    assert day_start_us(last - timedelta(days=1)) <= ts.min() and ts.max() < day_start_us(last) + US_PER_DAY


def test_config_from_dict_missing_keys():
    d = base_dict()
    del d["telescope"]
    with pytest.raises(ValueError):
        config_from_dict(d)
    d = base_dict()
    del d["crackonosh"]
    with pytest.raises(ValueError):
        config_from_dict(d)


RESERVED_CIDRS = ("0.0.0.0/8", "10.0.0.0/8", "127.0.0.0/8", "169.254.0.0/16",
                  "172.16.0.0/12", "192.168.0.0/16", "224.0.0.0/3")


def complement(cidrs):
    """CIDR strings of the IPv4 space outside the given networks."""
    left = [ipaddress.IPv4Network("0.0.0.0/0")]
    for cut in map(ipaddress.IPv4Network, cidrs):
        # Two CIDR blocks are nested or disjoint.
        kept = []
        for net in left:
            if cut.subnet_of(net):
                kept.extend(net.address_exclude(cut))
            elif not net.subnet_of(cut):
                kept.append(net)
        left = kept
    return [str(net) for net in left]


def test_config_rejects_a_telescope_leaving_no_public_source():
    # Scanners send from public space outside the telescope; with none left,
    # drawing a source address could never succeed.
    d = base_dict()
    for telescope in (["0.0.0.0/0"], ["0.0.0.0/1", "128.0.0.0/1"], complement(RESERVED_CIDRS)):
        d["telescope"] = telescope
        with pytest.raises(ValueError, match="no public address"):
            config_from_dict(d)
    # One public address is enough for a day of per24_cap hosts.
    d["telescope"] = complement(RESERVED_CIDRS + ("1.2.3.4/32",))
    d["crackonosh"] = {"population": [2, 1]}
    assert config_from_dict(d).telescope.k == 2**32 - TelescopeSpec.from_cidrs(RESERVED_CIDRS).k - 1


def test_config_bounds_a_days_hosts_by_the_address_space():
    # Room grows with per24_cap, so only this bound refuses a day of more
    # hosts than IPv4 has addresses.
    d = base_dict()
    d["crackonosh"] = {"population": [5, 2**32 + 1], "per24_cap": 10**20}
    with pytest.raises(ValueError, match="population counts must be at most 4294967296, the IPv4 address count"):
        config_from_dict(d)
    d["crackonosh"] = {"population": [2**32], "per24_cap": 10**20}
    assert config_from_dict(d).crackonosh.population == (2**32,)


def test_config_rejects_a_day_that_public_space_cannot_hold():
    # One public /24 holds per24_cap hosts: drawn with replacement, at
    # most 2 of them by default, so a 300-host day could never be placed.
    d = base_dict()
    d["telescope"] = complement(RESERVED_CIDRS + ("1.2.3.0/24",))
    d["crackonosh"] = {"population": [300]}
    with pytest.raises(ValueError, match="300 hosts do not fit .* at most 2 at per24_cap 2"):
        config_from_dict(d)
    d["crackonosh"] = {"population": [3, 4], "per24_cap": 4}
    assert config_from_dict(d).crackonosh.per24_cap == 4
    d["crackonosh"] = {"population": [3, 5], "per24_cap": 4}
    with pytest.raises(ValueError, match="5 hosts do not fit"):
        config_from_dict(d)
    # The room counts only /24s wholly blocked: two public halves of two
    # /24s are two /24s of room.
    d["telescope"] = complement(RESERVED_CIDRS + ("1.2.3.0/25", "1.2.4.128/25"))
    d["crackonosh"] = {"population": [4], "per24_cap": 2}
    assert config_from_dict(d).days == 1
    d["crackonosh"] = {"population": [5], "per24_cap": 2}
    with pytest.raises(ValueError, match="at most 4"):
        config_from_dict(d)


# ------------------------------------------------------------------ labels

def test_labels_accept_ports_0_and_65535(tmp_path):
    labels = {date(2024, 1, 2): 0, date(2024, 1, 1): 65535}
    path = tmp_path / "labels.csv"
    write_labels_csv(labels, path)
    assert read_labels_csv(path) == labels


@pytest.mark.parametrize(
    "body,message",
    [
        ("2024-01-01,70000\n", "labels line 2: port out of range 0-65535: 70000"),
        ("2024-01-01,-1\n", "labels line 2: port: not an unsigned decimal integer: '-1'"),
        ("2024-01-01,50000\n2024-01-02,50001\n2024-01-01,5\n", "labels line 4: day 2024-01-01 listed twice"),
    ],
)
def test_labels_reject_a_bad_port_and_a_repeated_day(tmp_path, body, message):
    path = tmp_path / "labels.csv"
    path.write_text("day,port\n" + body)
    with pytest.raises(ValueError, match=f"^{message}$"):
        read_labels_csv(path)
