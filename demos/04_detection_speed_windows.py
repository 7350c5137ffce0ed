# Detection speed: how long must you collect before the daily port shows?
#
# The ranking pipeline works on any window that divides a day evenly, so
# we can replay the same traffic at 15-minute and 3-hour granularity.  A
# large telescope piles up hundreds of packets in minutes and the entropy
# score is immediately strong; a small one needs hours to accumulate the
# ~128 packets a meaningful 7-bit entropy estimate wants.

from datetime import date, timedelta

from darkhunt import (
    CrackonoshConfig,
    DailyPortOracle,
    SimConfig,
    TelescopeSpec,
    default_background,
    simulate,
)
from darkhunt.ranking import labeled_rows, score_periods

for prefix, label in ((16, "large"), (20, "small")):
    config = SimConfig(
        seed=41,
        start_day=date(2024, 6, 1),
        telescope=TelescopeSpec.from_prefix(prefix),
        oracle=DailyPortOracle(secret=b"window-demo"),
        crackonosh=CrackonoshConfig(population=(900,), always_on_fraction=0.6),
        background=default_background(),
        noise_ports_per_day=100,
    )
    dataset = simulate(config)
    daily_port = dataset.labels[date(2024, 6, 1)]
    n_daily = sum(1 for r in dataset.records if r.dst_port == daily_port)
    print(f"\n/{prefix} ({label}) telescope: {n_daily} daily-port packets in the day")

    for window, name, show in (
        (timedelta(minutes=15), "15m", 4),
        (timedelta(hours=3), "3h", 4),
    ):
        scores = score_periods(dataset.records, ["size_entropy"], window)
        rows = labeled_rows([scores], ["size_entropy"], dataset.labels, window)["size_entropy"]
        print(f"  first {show} {name} windows (entropy score / rank):")
        for row in rows[:show]:
            score = "-" if row.score is None else f"{row.score:.2f}"
            rank = "-" if row.rank is None else row.rank
            print(f"    {row.period:%H:%M}  score {score:>5}  rank {rank}")

# The small telescope's early windows carry only a handful of packets, so
# the entropy score sits well under the full-day 6.8-7.0 band even though
# the rank may already point at the right port.  Waiting for the score to
# firm up is what costs the hunter hours on a /22-class sensor.
