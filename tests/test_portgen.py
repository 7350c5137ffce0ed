from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from darkhunt.portgen import PORT_HI, PORT_LO, DailyPortOracle

# Golden values computed with an independent implementation of the same
# construction (openssl dgst -sha256 -hmac "testvector" over the ISO date,
# digest taken as a big-endian integer, then 49108 + digest % 16428).
GOLDEN = {
    date(2022, 9, 17): 55694,
    date(2022, 9, 18): 50744,
    date(2024, 1, 1): 57850,
    date(1999, 12, 31): 51836,
}


def test_golden_vectors():
    oracle = DailyPortOracle(secret=b"testvector")
    for day, port in GOLDEN.items():
        assert oracle.daily_port(day) == port


def test_deterministic():
    oracle = DailyPortOracle(secret=b"abc")
    d = date(2022, 9, 17)
    assert oracle.daily_port(d) == oracle.daily_port(d)


@settings(max_examples=300)
@given(
    day=st.dates(min_value=date(1970, 1, 1), max_value=date(2100, 12, 31)),
    secret=st.binary(min_size=0, max_size=32),
)
def test_range_containment(day, secret):
    port = DailyPortOracle(secret=secret).daily_port(day)
    assert PORT_LO <= port <= PORT_HI


def test_custom_range_respected():
    oracle = DailyPortOracle(secret=b"abc", port_lo=1000, port_hi=1001)
    seen = {oracle.daily_port(date(2022, 1, 1) + timedelta(days=i)) for i in range(40)}
    assert seen == {1000, 1001}


def test_invalid_range_rejected():
    with pytest.raises(ValueError):
        DailyPortOracle(secret=b"x", port_lo=5, port_hi=4)
    with pytest.raises(ValueError):
        DailyPortOracle(secret=b"x", port_lo=0, port_hi=70000)


def test_year_of_ports_is_roughly_uniform():
    # Coarse chi-square over 8 equal bins; a year of daily ports from a
    # keyed hash should not concentrate anywhere.
    oracle = DailyPortOracle(secret=b"uniformity-check")
    seq = [oracle.daily_port(date(2022, 1, 1) + timedelta(days=i)) for i in range(365)]
    span = PORT_HI - PORT_LO + 1
    bins = [0] * 8
    for port in seq:
        bins[(port - PORT_LO) * 8 // span] += 1
    result = chisquare(bins)
    assert result.pvalue > 0.001


def test_different_secrets_diverge():
    days = [date(2022, 1, 1) + timedelta(days=i) for i in range(64)]
    a = [DailyPortOracle(secret=b"secret-a").daily_port(day) for day in days]
    b = [DailyPortOracle(secret=b"secret-b").daily_port(day) for day in days]
    assert a != b
