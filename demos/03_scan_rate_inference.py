# Inferring per-host scanning speed from always-on sources.
#
# Daily packet counts mix two things: how fast a host scans and how long
# it was powered on.  Restricting to "always-on" sources (seen in every
# one of the day's 144 time bins) isolates full-day hosts; their counts,
# scaled by 2^32 / k, estimate the true per-host rate.  This needs a large
# telescope: small ones never see a host often enough to cover all bins.

from datetime import date

import numpy as np

from darkhunt import (
    CrackonoshConfig,
    DailyPortOracle,
    SimConfig,
    TelescopeSpec,
    always_on,
    density_profile,
    estimate_rate,
    peaks_to_rates,
    simulate,
)

# ~10.5M addresses, the scale where always-on detection starts working.
telescope = TelescopeSpec.from_cidrs(["10.0.0.0/9", "23.0.0.0/11"])
print(f"telescope: {telescope} ({telescope.k / 1e6:.1f}M addresses)")

config = SimConfig(
    seed=99,
    start_day=date(2024, 1, 1),
    telescope=telescope,
    oracle=DailyPortOracle(secret=b"rate-demo"),
    crackonosh=CrackonoshConfig(population=(300,), rate_pps=10.0, always_on_fraction=0.8),
)
dataset = simulate(config)
report = always_on(dataset.records, telescope=telescope)
print(f"{len(report.always_on_ips)} of 300 hosts qualify as always-on")

counts = list(report.per_ip_daily_packets.values())
print(f"daily counts: mean {np.mean(counts):.0f}, sd {np.std(counts):.0f}")

# Kernel density over the daily counts; each mode is a rate population.
# The Silverman default under-smooths tight count distributions a little,
# so widen the bandwidth to iron out sampling ripple.
profile = density_profile(counts, bandwidth=30.0)
rates = peaks_to_rates(profile, telescope.k)
print(f"\nKDE bandwidth {profile.bandwidth:.1f}, {len(profile.peaks)} peak(s)")
for peak, rate in zip(profile.peaks, rates):
    print(f"  {peak:7.1f} packets/day  ->  {rate:.2f} pps per host")

# The same arithmetic, by hand, for one host:
mean_rate = estimate_rate(r=np.mean(counts), t=86400, k_telescope=telescope.k)
print(f"\nmean-count estimate: {mean_rate:.2f} pps (true rate 10.0)")

# Two hosts NATed behind one address double the apparent count; a second
# KDE mode near 2x the primary peak is the tell.
nat_counts = counts + [2 * c for c in counts[:60]]
nat_profile = density_profile(nat_counts, bandwidth=60.0)
nat_rates = peaks_to_rates(nat_profile, telescope.k)
print(f"\nwith 60 NAT-doubled sources: {len(nat_profile.peaks)} peaks ->", end=" ")
print(", ".join(f"{r:.1f} pps" for r in nat_rates))
