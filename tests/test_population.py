import math
import tracemalloc
from datetime import date

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import find_peaks

from darkhunt.population import (
    _PEAK_FLOOR,
    _local_maxima,
    _quartiles,
    BINS_PER_DAY,
    always_on,
    density_profile,
    estimate_rate,
    peaks_to_rates,
    write_density_csv,
    write_peaks_json,
)
from darkhunt.portgen import DailyPortOracle
from darkhunt.records import TRAFFIC_DTYPE, traffic_table
from darkhunt.sim import CrackonoshConfig, SimConfig, simulate
from darkhunt.telescope import TelescopeSpec, p_collision
from conftest import make_record

US_PER_DAY = 86_400_000_000
BIN_US = US_PER_DAY // BINS_PER_DAY


# ------------------------------------------------------------------ always_on

def one_per_bin(src, n_bins, ts_offset=0):
    return [
        make_record(ts_us=ts_offset + i * BIN_US + 5, src=src, dst_port=50000)
        for i in range(n_bins)
    ]


def test_always_on_requires_all_bins():
    full = one_per_bin(111, BINS_PER_DAY)
    partial = one_per_bin(222, BINS_PER_DAY - 1)
    report = always_on(traffic_table(full + partial))
    assert report.always_on_ips == frozenset({111})
    assert report.per_ip_daily_packets == {111: BINS_PER_DAY}


def test_always_on_counts_all_packets_of_qualified_ips():
    extra = [make_record(ts_us=7, src=111, dst_port=50000)]
    report = always_on(traffic_table(one_per_bin(111, BINS_PER_DAY) + extra))
    assert report.per_ip_daily_packets[111] == BINS_PER_DAY + 1


def test_always_on_bins_align_to_midnight():
    # A packet at the very last microsecond of the day still lands in bin 143.
    recs = one_per_bin(111, BINS_PER_DAY - 1)
    recs.append(make_record(ts_us=US_PER_DAY - 1, src=111, dst_port=50000))
    report = always_on(traffic_table(recs))
    assert report.always_on_ips == frozenset({111})


def test_always_on_rejects_multi_day_input():
    recs = [make_record(ts_us=0), make_record(ts_us=US_PER_DAY)]
    with pytest.raises(ValueError):
        always_on(traffic_table(recs))
    # The error names the first row's day and that of the first row, in
    # row order, whose day differs, earlier or later.
    recs = [make_record(ts_us=ts) for ts in (US_PER_DAY + 5, US_PER_DAY - 1, 2 * US_PER_DAY)]
    with pytest.raises(ValueError, match="^records span multiple days: 1970-01-02 and 1970-01-01$"):
        always_on(traffic_table(recs))


def test_always_on_memory_is_three_int64_words_a_row():
    # A paper-scale day at a /17: most sources send a few packets, so
    # nearly every row is its own (source, bin) key; 20 sources send two
    # packets a bin.  Beside the table, always_on holds its keys and the
    # gathered timestamps (an int64 word a row each) and at most one more
    # word a row of run starts.
    rng = np.random.default_rng(47)
    n = 200_000
    few = n - 20 * 2 * BINS_PER_DAY
    rows = np.zeros(n, TRAFFIC_DTYPE)
    rows["ts_us"][:few] = rng.integers(0, US_PER_DAY, few)
    rows["src_ip"][:few] = rng.integers(0, few // 6, few) * 7 + 1
    rows["ts_us"][few:] = np.repeat(np.arange(2 * BINS_PER_DAY) * (BIN_US // 2), 20)
    rows["src_ip"][few:] = np.tile(np.arange(20) * 7, 2 * BINS_PER_DAY)
    rows["proto"] = 17
    table = traffic_table(rows)
    bound = 3 * np.dtype(np.int64).itemsize * n
    tracemalloc.start()
    try:
        report = always_on(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.always_on_ips == frozenset(range(0, 140, 7))
    assert peak <= bound


def test_always_on_empty_errors():
    with pytest.raises(ValueError):
        always_on(traffic_table([]))


def test_always_on_telescope_filter():
    tel = TelescopeSpec.from_cidrs(["10.0.0.0/24"])
    inside = one_per_bin(111, BINS_PER_DAY)
    outside = [
        make_record(ts_us=i * BIN_US + 9, src=222, dst="192.0.2.1", dst_port=50000)
        for i in range(BINS_PER_DAY)
    ]
    report = always_on(traffic_table(inside + outside), telescope=tel)
    assert report.always_on_ips == frozenset({111})


def test_always_on_counts_udp_only():
    # A TCP-only source in every bin is not an always-on UDP scanner, and
    # TCP packets of a UDP source do not add to its daily count.
    tcp_only = [
        make_record(ts_us=i * BIN_US + 3, src=333, dst_port=50000, proto=6)
        for i in range(BINS_PER_DAY)
    ]
    mixed_tcp = [make_record(ts_us=11, src=111, dst_port=50000, proto=6)]
    report = always_on(traffic_table(one_per_bin(111, BINS_PER_DAY) + tcp_only + mixed_tcp))
    assert report.always_on_ips == frozenset({111})
    assert report.per_ip_daily_packets == {111: BINS_PER_DAY}


@settings(max_examples=60)
@given(
    full=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=4, unique=True),
    extra=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=US_PER_DAY - 1),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.sampled_from([6, 17]),
        ),
        min_size=1,
        max_size=40,
    ),
)
def test_always_on_matches_loop_reference(full, extra):
    # A per-packet loop over sets of bins is the reference.
    recs = [r for src in full for r in one_per_bin(src, BINS_PER_DAY)]
    recs += [make_record(ts_us=ts, src=src, proto=proto) for ts, src, proto in extra]
    bins, counts = {}, {}
    for ts, src, _, _, _, proto, _ in recs:
        if proto == 17:
            bins.setdefault(src, set()).add(ts // BIN_US)
            counts[src] = counts.get(src, 0) + 1
    qualified = sorted(ip for ip, b in bins.items() if len(b) == BINS_PER_DAY)
    if not bins:
        with pytest.raises(ValueError):
            always_on(traffic_table(recs))
        return
    report = always_on(traffic_table(recs))
    assert report.day == date(1970, 1, 1)
    assert report.always_on_ips == frozenset(qualified)
    assert report.per_ip_daily_packets == {ip: counts[ip] for ip in qualified}


def test_almost_no_always_on_hosts_on_slash16():
    # ~13 packets/host/day cannot cover 144 bins.
    tel = TelescopeSpec.from_prefix(16)
    cfg = SimConfig(
        seed=5,
        start_day=date(2024, 1, 1),
        telescope=tel,
        oracle=DailyPortOracle(secret=b"ao"),
        crackonosh=CrackonoshConfig(population=(200,), always_on_fraction=1.0),
    )
    ds = simulate(cfg)
    report = always_on(ds.records, telescope=tel)
    assert len(report.always_on_ips) == 0


def test_always_on_count_matches_monte_carlo_oracle():
    # On a ~4M-address telescope a 10pps host covers all 144 bins with
    # probability ~0.66; the pipeline count must agree with an independent
    # per-bin binomial oracle within 3 combined standard errors.
    tel = TelescopeSpec.from_prefix(10)
    pc = p_collision(tel)
    n_hosts = 400
    cfg = SimConfig(
        seed=77,
        start_day=date(2024, 1, 1),
        telescope=tel,
        oracle=DailyPortOracle(secret=b"mc"),
        crackonosh=CrackonoshConfig(population=(n_hosts,), always_on_fraction=1.0),
    )
    ds = simulate(cfg)
    report = always_on(ds.records, telescope=tel)
    p_sim = len(report.always_on_ips) / n_hosts

    reps = 4000
    rng = np.random.default_rng(123)
    per_bin = round(10.0 * 86400 / BINS_PER_DAY)
    counts = rng.binomial(per_bin, pc, size=(reps, BINS_PER_DAY))
    p_mc = float((counts > 0).all(axis=1).mean())

    pooled = (len(report.always_on_ips) + p_mc * reps) / (n_hosts + reps)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n_hosts + 1 / reps))
    assert abs(p_sim - p_mc) <= 3 * se


# -------------------------------------------------------------- estimate_rate

def test_estimate_rate_slash16_anchor():
    s = estimate_rate(13.2, 86400, 65536)
    assert s == pytest.approx(10.0, abs=0.05)
    assert s == (13.2 / 86400) * 2**32 / 65536


def test_estimate_rate_zero_and_identity():
    assert estimate_rate(0, 86400, 1024) == 0.0
    assert estimate_rate(864000, 86400, 2**32) == 10.0


def test_estimate_rate_rejects_bad_input():
    with pytest.raises(ValueError):
        estimate_rate(-1, 86400, 1024)
    with pytest.raises(ValueError):
        estimate_rate(1, 0, 1024)
    with pytest.raises(ValueError):
        estimate_rate(1, 86400, 0)


@settings(max_examples=100)
@given(
    r=st.floats(min_value=0, max_value=1e6),
    scale=st.floats(min_value=0.1, max_value=50),
    k=st.integers(min_value=1, max_value=2**32),
)
def test_estimate_rate_linear_in_r_inverse_in_k(r, scale, k):
    base = estimate_rate(r, 86400, k)
    assert estimate_rate(r * scale, 86400, k) == pytest.approx(base * scale, rel=1e-9)
    if k * 2 <= 2**32:
        assert estimate_rate(r, 86400, k * 2) == pytest.approx(base / 2, rel=1e-9)


# ------------------------------------------------------------ density profile

def test_density_equal_samples_single_peak_at_value():
    profile = density_profile([250.0] * 40)
    assert len(profile.peaks) == 1
    grid_step = profile.grid[1] - profile.grid[0]
    assert abs(profile.peaks[0] - 250.0) <= grid_step


def test_density_bimodal_mixture_recovers_both_modes():
    rng = np.random.default_rng(42)
    samples = np.concatenate(
        [rng.normal(1370, 60, 500), rng.normal(2508, 60, 500)]
    )
    profile = density_profile(samples)
    assert len(profile.peaks) == 2
    lo, hi = sorted(profile.peaks)
    assert abs(lo - 1370) <= profile.bandwidth
    assert abs(hi - 2508) <= profile.bandwidth


def test_density_unimodal_single_peak():
    rng = np.random.default_rng(43)
    profile = density_profile(rng.normal(2000, 50, 800))
    assert len(profile.peaks) == 1


def test_density_integrates_to_one():
    rng = np.random.default_rng(44)
    for sample in (rng.normal(100, 5, 50), rng.uniform(0, 1000, 300)):
        profile = density_profile(sample)
        integral = float(np.trapezoid(profile.density, profile.grid))
        assert integral == pytest.approx(1.0, rel=1e-6)
    assert (profile.density >= 0).all()


@pytest.mark.parametrize("n", [2, 2047, 2049, 5000])
def test_density_is_bit_identical_to_the_whole_matrix_sum(n):
    # Blocks of grid rows change how much of the kernel matrix is live, not its sums.
    x = np.random.default_rng(n).gamma(2.0, 300.0, n)
    profile = density_profile(x)
    z = (profile.grid[:, None] - x[None, :]) / profile.bandwidth
    whole = np.exp(-0.5 * z * z).sum(axis=1) / (n * profile.bandwidth * math.sqrt(2 * math.pi))
    assert profile.density.tobytes() == whole.tobytes()


def test_density_memory_is_bounded_at_100k_samples():
    # Each whole 512 x n temporary would take 410 MB here.
    x = np.random.default_rng(46).normal(3000, 400, 100_000)
    tracemalloc.start()
    try:
        density_profile(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_density_bandwidth_override():
    rng = np.random.default_rng(45)
    samples = rng.normal(500, 20, 200)
    profile = density_profile(samples, bandwidth=35.0)
    assert profile.bandwidth == 35.0
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bandwidth must be finite and > 0"):
            density_profile(samples, bandwidth=bad)


def test_density_needs_two_samples():
    with pytest.raises(ValueError):
        density_profile([5.0])
    with pytest.raises(ValueError):
        density_profile([])


# Quartile samples: any finite floats (-0.0 as 0.0: numpy's partition and
# np.sort may order the two zeros differently), ties, all-equal samples
# and daily packet counts.
FLOATS = st.floats(-1e300, 1e300).map(lambda v: v + 0.0)
QUARTILE_SAMPLES = st.one_of(
    st.lists(FLOATS, min_size=2, max_size=60),
    st.lists(st.sampled_from([0.0, 1.0, 2.5, 1e300]), min_size=2, max_size=60),
    st.tuples(FLOATS, st.integers(2, 60)).map(lambda vn: [vn[0]] * vn[1]),
    st.lists(st.integers(0, 10**7).map(float), min_size=2, max_size=400),
)


@settings(max_examples=400, deadline=None)
@given(QUARTILE_SAMPLES)
@example([5.0, -3.0])
@example([7.0, 7.0])
@example([1e300, -1e300, 1e300])
def test_quartiles_match_numpy_percentile_bit_for_bit(x):
    x = np.array(x)
    assert np.array(_quartiles(x)).tobytes() == np.percentile(x, [75, 25]).tobytes()


def scipy_peaks(density):
    idx, _ = find_peaks(density, height=_PEAK_FLOOR * float(density.max()))
    return tuple(idx)


def test_peaks_match_find_peaks_on_equal_sample_plateau():
    # All-equal samples give a symmetric KDE whose top can be a two-point
    # plateau; both finders must report the same (middle) index.
    for value in (250.0, 1.0, 0.0, 1370.0):
        profile = density_profile([value] * 40)
        expected = scipy_peaks(profile.density)
        assert len(expected) == 1
        assert profile.peaks == tuple(float(profile.grid[i]) for i in expected)


def test_peaks_match_find_peaks_on_random_kdes():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        n = int(rng.integers(2, 60))
        kind = rng.integers(3)
        if kind == 0:
            samples = rng.normal(rng.uniform(0, 3000), rng.uniform(1, 200), n)
        elif kind == 1:
            samples = rng.integers(0, 6, n).astype(float) * rng.uniform(10, 500)
        else:
            samples = np.full(n, float(rng.integers(0, 5000)))
        profile = density_profile(samples)
        expected = scipy_peaks(profile.density)
        assert profile.peaks == tuple(float(profile.grid[i]) for i in expected)


def test_peak_finder_plateaus_edges_and_floor():
    y = np.array([0, 1, 3, 3, 3, 1, 2, 2, 0, 5, 5, 4, 4, 6, 6], dtype=float)
    expected, _ = find_peaks(y, height=0)
    assert list(_local_maxima(y, 0)) == list(expected) == [3, 6, 9]
    # The floor is inclusive: a peak exactly at the floor stays.
    assert list(_local_maxima(y, 3)) == [3, 9]
    assert list(_local_maxima(np.ones(8), 0)) == []


def test_peak_count_matches_components_when_separated():
    # Well-separated components (>4 bandwidths apart) each get one peak.
    rng = np.random.default_rng(46)
    samples = np.concatenate(
        [rng.normal(0, 10, 400), rng.normal(500, 10, 400), rng.normal(1000, 10, 400)]
    )
    profile = density_profile(samples, bandwidth=20.0)
    assert len(profile.peaks) == 3


# ------------------------------------------------------------- peaks_to_rates

def test_peaks_to_rates_applies_rate_formula():
    profile = density_profile([100.0, 100.0, 100.0])
    rates = peaks_to_rates(profile, 2**16)
    assert len(rates) == len(profile.peaks)
    assert rates[0] == pytest.approx(estimate_rate(profile.peaks[0], 86400, 2**16))


def test_peaks_to_rates_published_anchor_needs_implied_k():
    # A 1370.31 packets/day peak maps to 12.4 pps only for an effective
    # telescope of ~5.49M addresses; for the stated ~10.66M-address
    # telescope the same peak maps to ~6.4 pps.  Both follow from the
    # formula; the effective size is an input, never hard-coded.
    implied_k = round((1370.31 / 86400) * 2**32 / 12.4)
    assert estimate_rate(1370.31, 86400, implied_k) == pytest.approx(12.4, abs=0.01)
    stated_k = 41636 * 256
    assert estimate_rate(1370.31, 86400, stated_k) == pytest.approx(6.39, abs=0.05)


def test_peaks_to_rates_requires_peaks():
    profile = density_profile([1.0, 2.0])
    empty = type(profile)(
        bandwidth=profile.bandwidth,
        grid=profile.grid,
        density=profile.density,
        peaks=(),
    )
    with pytest.raises(ValueError):
        peaks_to_rates(empty, 1024)


# ------------------------------------------------------------------ exporters

def test_density_exports(tmp_path):
    rng = np.random.default_rng(47)
    profile = density_profile(rng.normal(300, 30, 100))
    csv_path = tmp_path / "density.csv"
    json_path = tmp_path / "peaks.json"
    write_density_csv(profile, csv_path)
    write_peaks_json(profile, json_path, k_telescope=2**20)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "grid,density"
    assert len(lines) == 1 + len(profile.grid)
    import json

    payload = json.loads(json_path.read_text())
    assert payload["peaks_packets_per_day"] == list(profile.peaks)
    assert payload["k_telescope"] == 2**20
    assert payload["peaks_pps"] == peaks_to_rates(profile, 2**20)


@pytest.mark.parametrize("bandwidth", [1e-320, 1e307, 3e307, 1e308])
def test_density_refuses_a_bandwidth_beyond_finite_floats(bandwidth):
    # Too narrow, the density's largest value overflows; too wide, its scale
    # or the grid does.  Either is refused before numpy computes it, so no
    # RuntimeWarning is raised (the suite makes one an error).
    samples = np.random.default_rng(48).normal(2000, 100, 50)
    with pytest.raises(ValueError, match="is not finite at this bandwidth"):
        density_profile(samples, bandwidth=bandwidth)


@pytest.mark.parametrize("bandwidth", [1e-150, 1e-160, 1e-307])
def test_density_at_a_tiny_bandwidth_is_finite_without_peaks(bandwidth):
    # Kernels far narrower than the grid's step are 0 between samples, with
    # no overflow warning for the kernel arguments that pass the float range.
    samples = np.random.default_rng(48).normal(2000, 100, 50)
    profile = density_profile(samples, bandwidth=bandwidth)
    assert np.isfinite(profile.density).all() and profile.peaks == ()
