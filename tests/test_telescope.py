import ipaddress
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darkhunt.telescope import (
    DEFAULT_TABLE_PREFIXES,
    ScanPopulation,
    TelescopeSpec,
    days_to_coverage,
    expected_observed_hosts,
    expected_packets,
    observability_table,
    p_collision,
    p_observe,
    time_to_n_packets,
    visible_rate,
)

POP_10PPS_DAY = ScanPopulation(host_count=1, rate_pps=10.0, duration_s=86400.0)


# ------------------------------------------------------------ telescope spec

def test_cidr_union_dedup_and_merge():
    tel = TelescopeSpec.from_cidrs(["10.0.0.0/24", "10.0.1.0/24", "10.0.0.0/24"])
    assert tel.k == 512
    assert [str(c) for c in tel.cidrs] == ["10.0.0.0/23"]


def test_cidr_overlap_counts_once():
    tel = TelescopeSpec.from_cidrs(["10.0.0.0/16", "10.0.128.0/24"])
    assert tel.k == 65536


def test_membership_and_indexing():
    tel = TelescopeSpec.from_cidrs(["10.0.0.0/30", "192.0.2.0/31"])
    assert tel.k == 6
    members = tel.addresses_at_array(np.arange(tel.k))
    assert sorted(members.tolist()) == members.tolist()
    assert tel.contains_array(members).all()
    assert not tel.contains_array(np.array([members[0] - 1, members[-1] + 1])).any()


def test_indexing_matches_ipaddress():
    # Three blocks: two that touch without merging, and one far above.
    tel = TelescopeSpec.from_cidrs(["10.0.0.0/28", "203.0.113.0/29", "10.0.0.16/30"])
    expected = [int(a) for net in tel.cidrs for a in net]
    assert len(tel.cidrs) == 3 and len(expected) == tel.k
    # The simulator passes offsets in the table's uint32 address column.
    for dtype in (np.int64, np.uint32):
        assert tel.addresses_at_array(np.arange(tel.k, dtype=dtype)).tolist() == expected


ADDRESSES = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(min_value=0, max_value=2**32 - 1))


@st.composite
def cidr_sets(draw):
    """A few CIDRs, each maybe with its next neighbour (adjacent), its first
    half (inside it) or its supernet (around it)."""
    nets = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        net = ipaddress.IPv4Network((draw(ADDRESSES), draw(st.integers(min_value=0, max_value=32))), strict=False)
        nets.append(net)
        kind = draw(st.sampled_from(["alone", "adjacent", "inside", "around"]))
        if kind == "adjacent" and int(net.broadcast_address) < 2**32 - 1:
            nets.append(ipaddress.IPv4Network((int(net.broadcast_address) + 1, net.prefixlen)))
        elif kind == "inside" and net.prefixlen < 32:
            nets.append(next(net.subnets()))
        elif kind == "around" and net.prefixlen > 0:
            nets.append(net.supernet())
    return nets


@settings(max_examples=300, deadline=None)
@given(nets=cidr_sets(), extra=st.lists(ADDRESSES, max_size=20))
def test_membership_matches_ipaddress(nets, extra):
    tel = TelescopeSpec.from_cidrs(nets)
    # Every block's edges and the addresses either side of them.
    probe = {0, 2**32 - 1, *extra}
    for net in nets:
        lo, hi = int(net.network_address), int(net.broadcast_address)
        probe |= {a for a in (lo - 1, lo, hi, hi + 1) if 0 <= a < 2**32}
    probe = sorted(probe)
    expected = [any(ipaddress.IPv4Address(a) in net for net in nets) for a in probe]
    for dtype in (np.int64, np.uint32):
        assert tel.contains_array(np.array(probe, dtype=dtype)).tolist() == expected


def test_rejects_empty_and_bad_cidr():
    with pytest.raises(ValueError):
        TelescopeSpec.from_cidrs([])
    with pytest.raises(ValueError):
        TelescopeSpec.from_cidrs(["not-a-cidr"])


# ------------------------------------------------------------ analytic model

def table_tolerance(expected, sig_figs):
    """Accept the looser of 1% relative or half a unit in the last digit
    the anchor was published with (0.19 carries 2 significant figures,
    2.38e-07 carries 3)."""
    half_ulp = 0.5 * 10 ** (math.floor(math.log10(abs(expected))) - (sig_figs - 1))
    return max(0.01 * abs(expected), half_ulp)


# (value, printed significant figures) per cell.
TABLE_ANCHORS = {
    32: ((2.33e-10, 3), (2.01e-04, 3), (2.01e-04, 3)),
    24: ((5.96e-08, 3), (5.02e-02, 3), (5.15e-02, 3)),
    22: ((2.38e-07, 3), (0.19, 2), (0.21, 2)),
    16: ((1.53e-05, 3), (1.00, 3), (13.2, 3)),
}


@pytest.mark.parametrize("prefix", sorted(TABLE_ANCHORS))
def test_observability_anchors(prefix):
    tel = TelescopeSpec.from_prefix(prefix)
    (pc_exp, pc_sig), (po_exp, po_sig), (ep_exp, ep_sig) = TABLE_ANCHORS[prefix]
    assert p_collision(tel) == tel.k / 2**32
    assert p_collision(tel) == pytest.approx(pc_exp, abs=table_tolerance(pc_exp, pc_sig))
    assert p_observe(tel, POP_10PPS_DAY) == pytest.approx(
        po_exp, abs=table_tolerance(po_exp, po_sig)
    )
    assert expected_packets(tel, POP_10PPS_DAY) == pytest.approx(
        ep_exp, abs=table_tolerance(ep_exp, ep_sig)
    )


def test_observability_table_shape():
    rows = observability_table()
    assert [r["size"] for r in rows] == [f"/{n}" for n in DEFAULT_TABLE_PREFIXES]


def test_spot_values_18_and_19():
    for prefix, expected in ((18, 0.96), (19, 0.81)):
        tel = TelescopeSpec.from_prefix(prefix)
        assert p_observe(tel, POP_10PPS_DAY) == pytest.approx(expected, abs=0.01)


def test_p_observe_zero_collision():
    # duration 0 is rejected, so emulate pc -> 0 with rate 0.
    tel = TelescopeSpec.from_prefix(32)
    pop = ScanPopulation(host_count=1, rate_pps=0.0, duration_s=86400.0)
    assert p_observe(tel, pop) == 0.0
    assert expected_packets(tel, pop) == 0.0


def test_expected_observed_hosts():
    tel16 = TelescopeSpec.from_prefix(16)
    tel22 = TelescopeSpec.from_prefix(22)
    pop = ScanPopulation(host_count=5000, rate_pps=10.0, duration_s=86400.0)
    assert expected_observed_hosts(tel16, pop) == pytest.approx(5000, rel=1e-3)
    assert expected_observed_hosts(tel22, pop) == pytest.approx(950, rel=0.03)
    assert expected_observed_hosts(tel16, ScanPopulation(host_count=0)) == 0.0


def test_small_pc_exponential_limit():
    # For pc*s*d <= 1 and k <= 2^22 the exact value tracks 1-exp(-pc*s*d).
    for prefix in range(32, 9, -1):
        tel = TelescopeSpec.from_prefix(prefix)
        pc = p_collision(tel)
        sd = 10.0 * 86400.0
        if pc * sd > 1 or tel.k > 2**22:
            continue
        exact = p_observe(tel, POP_10PPS_DAY)
        approx = 1 - math.exp(-pc * sd)
        assert exact == pytest.approx(approx, rel=1e-3)


@settings(max_examples=80)
@given(
    prefix=st.integers(min_value=8, max_value=32),
    rate=st.floats(min_value=0.01, max_value=100),
    dur=st.floats(min_value=60, max_value=200000),
)
def test_monotone_in_size_rate_duration(prefix, rate, dur):
    tel = TelescopeSpec.from_prefix(prefix)
    pop = ScanPopulation(host_count=1, rate_pps=rate, duration_s=dur)
    po = p_observe(tel, pop)
    ep = expected_packets(tel, pop)
    assert 0 <= po <= 1

    if prefix > 8:
        bigger = TelescopeSpec.from_prefix(prefix - 1)
        assert p_observe(bigger, pop) >= po
        assert expected_packets(bigger, pop) == pytest.approx(2 * ep, rel=1e-12)
    faster = ScanPopulation(host_count=1, rate_pps=rate * 2, duration_s=dur)
    assert p_observe(tel, faster) >= po
    assert expected_packets(tel, faster) == pytest.approx(2 * ep, rel=1e-12)
    longer = ScanPopulation(host_count=1, rate_pps=rate, duration_s=dur * 2)
    assert p_observe(tel, longer) >= po


# ------------------------------------------------------------ coverage time

def test_days_to_coverage_slash22():
    # Per-day observation probability 0.186 compounds to 95% in 15 days;
    # 13 days only reaches ~93.5%.
    tel = TelescopeSpec.from_prefix(22)
    days = days_to_coverage(tel, POP_10PPS_DAY, 0.95)
    assert days == 15
    po = p_observe(tel, POP_10PPS_DAY)
    assert 1 - (1 - po) ** 13 < 0.95 < 1 - (1 - po) ** 15


def test_days_to_coverage_slash16():
    assert days_to_coverage(TelescopeSpec.from_prefix(16), POP_10PPS_DAY, 0.95) == 1


def test_days_to_coverage_tiny_target_is_one_day():
    assert days_to_coverage(TelescopeSpec.from_prefix(16), POP_10PPS_DAY, 1e-9) == 1


def test_days_to_coverage_monotone_in_size():
    prev = None
    for prefix in (24, 22, 20, 18, 16):
        days = days_to_coverage(TelescopeSpec.from_prefix(prefix), POP_10PPS_DAY, 0.95)
        if prev is not None:
            assert days <= prev
        prev = days


def test_days_to_coverage_rejects_degenerate():
    tel = TelescopeSpec.from_prefix(22)
    with pytest.raises(ValueError):
        days_to_coverage(tel, POP_10PPS_DAY, 1.0)
    with pytest.raises(ValueError):
        days_to_coverage(tel, ScanPopulation(host_count=1, rate_pps=0.0), 0.95)


# ------------------------------------------------------------ time to packets

def test_time_to_n_packets_hand_arithmetic():
    tel = TelescopeSpec.from_prefix(22)
    rate = visible_rate(tel, ScanPopulation(host_count=3000, rate_pps=10.0))
    assert rate == pytest.approx(3000 * 10 * 1024 / 2**32)
    seconds = time_to_n_packets(rate, 128)
    # 128 / (3000 * 10 * 2.38e-7) ~ 17.9e3 s ~ 5 hours.
    assert seconds == pytest.approx(17895.7, rel=0.01)
    assert seconds == pytest.approx(17927, rel=0.01)
    assert seconds / 3600 == pytest.approx(5.0, abs=0.1)


def test_time_to_n_packets_40k_hosts():
    tel = TelescopeSpec.from_prefix(22)
    rate = visible_rate(tel, ScanPopulation(host_count=40000, rate_pps=10.0))
    assert rate == pytest.approx(0.0952, rel=0.01)
    assert time_to_n_packets(rate, 128) == pytest.approx(1345, rel=0.01)


def test_time_to_n_packets_edge_cases():
    assert time_to_n_packets(1.0, 0) == 0.0
    with pytest.raises(ValueError):
        time_to_n_packets(0.0, 128)
    with pytest.raises(ValueError):
        time_to_n_packets(1.0, -1)


# ---------------------------------------------------------- finite answers

@pytest.mark.parametrize(
    "answer, named",
    [
        (lambda tel: visible_rate(tel, ScanPopulation(host_count=3000, rate_pps=1e308)), "rate_pps 1e+308"),
        (lambda tel: visible_rate(tel, ScanPopulation(host_count=10**400)), f"host_count {10**400}"),
        (lambda tel: expected_observed_hosts(tel, ScanPopulation(host_count=10**400)), f"host_count {10**400}"),
        (lambda tel: expected_packets(tel, ScanPopulation(1, 1e308, 1e10)), "duration_s 10000000000.0"),
        (lambda tel: days_to_coverage(tel, ScanPopulation(1, 1e-320), 0.5), "rate_pps 1e-320"),
        (lambda tel: time_to_n_packets(5e-324, 128), "n_packets 128, visible_rate_pps 5e-324"),
        (lambda tel: time_to_n_packets(1.0, 10**400), f"n_packets {10**400}"),
    ],
    ids=[
        "visible-rate", "visible-rate-int", "observed-hosts-int", "expected-packets", "coverage-tiny-rate",
        "tte-tiny-rate", "tte-huge-packets",
    ],
)
def test_an_answer_that_overflows_names_its_inputs(answer, named):
    # Finite inputs, but an answer beyond any float: no answer (inf packets,
    # 0 s, a day count) is made from it.
    with pytest.raises(ValueError, match="is not a finite number") as exc_info:
        answer(TelescopeSpec.from_prefix(22))
    assert named in str(exc_info.value)


def test_answers_near_the_float_limits_are_kept():
    tel = TelescopeSpec.from_prefix(22)
    assert visible_rate(tel, ScanPopulation(host_count=3000, rate_pps=1e300)) == 3000 * 1e300 * p_collision(tel)
    assert time_to_n_packets(1e-300, 128) == 128 / 1e-300
    # log(1 - 1e-300) / (1e-300 pps * 86400 s * log(1 - 2^-22)) = 48.5 days
    assert days_to_coverage(tel, ScanPopulation(1, 1e-300), 1e-300) == 49
    # rate * duration overflows, but only inside answers that saturate: a
    # host seen for certain, in 1 day.
    assert p_observe(tel, ScanPopulation(1, 1e308, 1e10)) == 1.0
    assert days_to_coverage(tel, ScanPopulation(1, 1e308, 1e10), 0.5) == 1
    assert days_to_coverage(tel, ScanPopulation(1, 1e304), 0.5) == 1
    rows = observability_table(rate_pps=1e300, duration_s=1e10)
    assert [row["p_observe"] for row in rows] == [1.0] * len(rows)
    assert rows[-1]["size"] == "/16" and rows[-1]["expected_packets"] == 2.0**-16 * 1e300 * 1e10
