import ipaddress

import pytest


def make_record(
    ts_us=0,
    src="1.2.3.4",
    src_port=50000,
    dst="10.0.0.1",
    dst_port=51234,
    proto=17,
    payload_len=100,
):
    """One traffic-table row tuple, with addresses as friendly dotted quads."""
    return (
        ts_us,
        src if isinstance(src, int) else int(ipaddress.IPv4Address(src)),
        src_port,
        dst if isinstance(dst, int) else int(ipaddress.IPv4Address(dst)),
        dst_port,
        proto,
        payload_len,
    )


@pytest.fixture
def rec():
    return make_record
