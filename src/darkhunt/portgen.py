"""Deterministic daily-port oracle.

Coordinated scanners of the Crackonosh family derive a shared UDP port
for each UTC day from a secret known to every bot.  The real construction
is not public; this oracle is an explicit, testable stand-in: an
HMAC-SHA256 over the ISO date, reduced into the observed port range.  It
provides ground truth for the simulator and for labeling datasets, not
interoperability with any actual botnet.
"""

from __future__ import annotations

import hmac
import numbers
from dataclasses import dataclass
from datetime import date

__all__ = ["DailyPortOracle", "PORT_LO", "PORT_HI"]

# Observed daily-port range for this scanning family.
PORT_LO = 49108
PORT_HI = 65535


@dataclass(frozen=True)
class DailyPortOracle:
    """Pure function (secret, UTC date) -> port in [port_lo, port_hi].

    The digest is reduced by modulo; with a range of 16428 ports against a
    256-bit digest the modulo bias is ~1e-73 and is accepted.
    """

    secret: bytes
    port_lo: int = PORT_LO
    port_hi: int = PORT_HI

    def __post_init__(self) -> None:
        if not isinstance(self.secret, bytes):
            raise TypeError("secret must be bytes")
        # Integers only, as sim._require asks (sim imports this module).
        for port in (self.port_lo, self.port_hi):
            if isinstance(port, bool) or not isinstance(port, numbers.Integral):
                raise ValueError(f"port range must be integers, got {port!r}")
        if not 0 <= self.port_lo <= self.port_hi <= 65535:
            raise ValueError(
                f"invalid port range [{self.port_lo}, {self.port_hi}]"
            )

    def daily_port(self, day: date) -> int:
        """Port active on `day` (UTC)."""
        digest = hmac.digest(self.secret, day.isoformat().encode("ascii"), "sha256")
        span = self.port_hi - self.port_lo + 1
        return self.port_lo + int.from_bytes(digest, "big") % span
