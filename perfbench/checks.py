"""Output checks for one run of the CLI chain.

They test domain invariants, not byte goldens, so a change that alters
the simulator's bytes on purpose still passes.  Each check function
returns a list of failure messages; an empty list means the command's
outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
from datetime import date
from pathlib import Path

from darkhunt.sim import config_from_dict
from darkhunt.telescope import ScanPopulation, expected_packets, p_collision

# The documented traffic CSV interchange header.
CSV_HEADER = "ts_us,src_ip,src_port,dst_ip,dst_port,proto,payload_len"

# The labeled-port record count must lie within this many standard
# deviations of the analytic expectation.
N_SIGMA = 5.0
# The highest KDE peak must map to the configured rate within this share.
RATE_TOLERANCE = 0.05
# Partly-up scanners run for a uniform 8-16 h window (see darkhunt.sim).
_PART_DAY_S = (8 * 3600.0, 16 * 3600.0)
_KDE_GRID_POINTS = 512
_EPOCH = date(1970, 1, 1)
_SECONDS_PER_DAY = 86400.0
_US_PER_DAY = 86_400_000_000


def _load_json(path: Path, failures: list[str]):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        failures.append(f"{path.name}: {exc}")
        return None


def labeled_port_expectation(config: dict) -> tuple[float, float]:
    """Mean and standard deviation of the labeled-port record count.

    Per host-day the hit count is Binomial(rate * duration, k / 2^32),
    where the duration is a whole day for always-on hosts and uniform on
    8-16 h otherwise.  A host's always-on draw is shared by every day it
    is live, so its days are correlated through that draw; hosts are
    independent of each other.
    """
    sim_cfg = config_from_dict(config)
    ck = sim_cfg.crackonosh
    tel = sim_cfg.telescope
    f = ck.always_on_fraction
    pc = p_collision(tel)
    lam_on = expected_packets(tel, ScanPopulation(1, ck.rate_pps, _SECONDS_PER_DAY))
    lo, hi = _PART_DAY_S
    lam_off = expected_packets(tel, ScanPopulation(1, ck.rate_pps, (lo + hi) / 2))
    var_lam_off = (ck.rate_pps * pc * (hi - lo)) ** 2 / 12.0
    per_day_mean = f * lam_on + (1 - f) * lam_off
    per_day_var = f * lam_on * (1 - pc) + (1 - f) * (lam_off * (1 - pc) + var_lam_off)
    always_on_var = f * (1 - f) * (lam_on - lam_off) ** 2
    # Host h is live on day d iff h < population[d], so with the counts
    # sorted, the hosts in [sorted[i-1], sorted[i]) are live on len - i days.
    mean = var = 0.0
    prev = 0
    for i, n in enumerate(sorted(ck.population)):
        hosts, days, prev = n - prev, len(ck.population) - i, n
        mean += hosts * days * per_day_mean
        var += hosts * (days * per_day_var + days * days * always_on_var)
    return mean, math.sqrt(var)


def check_simulate(out: Path, config: dict, days: int) -> list[str]:
    failures: list[str] = []
    manifest = _load_json(out / "manifest.json", failures)
    try:
        with open(out / "labels.csv") as fh:
            rows = list(csv.reader(fh))
        labels = {day: int(port) for day, port in rows[1:]}
    except (OSError, ValueError) as exc:
        return failures + [f"labels.csv: {exc}"]
    if rows[0] != ["day", "port"] or len(labels) != days:
        failures.append("labels.csv: wrong header or day count")
    port_by_day = {(date.fromisoformat(d) - _EPOCH).days: port for d, port in labels.items()}
    n_records = labeled = 0
    try:
        with open(out / "traffic.csv") as fh:
            if fh.readline().rstrip("\n") != CSV_HEADER:
                failures.append("traffic.csv: bad header")
            for line in fh:
                ts, _, _, _, dport, _, _ = line.split(",")
                n_records += 1
                if port_by_day.get(int(ts) // _US_PER_DAY) == int(dport):
                    labeled += 1
    except (OSError, ValueError) as exc:
        return failures + [f"traffic.csv: {exc}"]
    if manifest is not None and manifest.get("records") != n_records:
        failures.append(f"manifest records {manifest.get('records')} != {n_records} rows")
    mean, sd = labeled_port_expectation(config)
    if abs(labeled - mean) > N_SIGMA * sd:
        failures.append(
            f"labeled-port records {labeled} not within {N_SIGMA} sigma of "
            f"{mean:.1f} (sigma {sd:.1f})"
        )
    return failures


def check_analyze(out: Path, metric_ids: list[str], periods: int) -> list[str]:
    failures: list[str] = []
    for metric_id in metric_ids:
        path = out / f"report_{metric_id}.csv"
        try:
            with open(path) as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            failures.append(f"{path.name}: {exc}")
            continue
        if rows[0] != ["day", "metric", "score", "rank"] or len(rows) - 1 != periods:
            failures.append(f"{path.name}: wrong header or {len(rows) - 1} != {periods} periods")
    disc = _load_json(out / "discoverability.json", failures)
    if disc is not None:
        if sorted(disc) != sorted(metric_ids):
            failures.append(f"discoverability.json: metrics {sorted(disc)}")
        elif disc["size_entropy"]["score"] != 1.0:
            failures.append(f"size_entropy D_100 = {disc['size_entropy']['score']}, expected 1.0")
    _load_json(out / "manifest.json", failures)
    return failures


def check_population(out: Path, days: int, rate_pps: float | None) -> list[str]:
    """rate_pps, when given, is the rate the highest KDE peak must recover."""
    failures: list[str] = []
    _load_json(out / "manifest.json", failures)
    report = _load_json(out / "always_on.json", failures)
    if report is None:
        return failures
    if len(report) != days:
        failures.append(f"always_on.json: {len(report)} days, expected {days}")
    host_days = sum(day["always_on_count"] for day in report.values())
    if host_days < 2:
        if rate_pps is not None:
            failures.append(f"only {host_days} always-on host-days; no rate to check")
        return failures
    peaks = _load_json(out / "peaks.json", failures)
    try:
        with open(out / "density.csv") as fh:
            density = {float(g): float(d) for g, d in list(csv.reader(fh))[1:]}
    except (OSError, ValueError) as exc:
        return failures + [f"density.csv: {exc}"]
    if len(density) != _KDE_GRID_POINTS:
        failures.append(f"density.csv: {len(density)} grid points")
    if rate_pps is not None and peaks is not None:
        if not peaks.get("peaks_pps"):
            return failures + ["peaks.json: no peaks"]
        grid = sorted(density)

        def height(peak: float) -> float:
            return density[min(grid, key=lambda g: abs(g - peak))]

        top = max(range(len(peaks["peaks_pps"])), key=lambda i: height(peaks["peaks_packets_per_day"][i]))
        pps = peaks["peaks_pps"][top]
        if abs(pps - rate_pps) > RATE_TOLERANCE * rate_pps:
            failures.append(f"highest KDE peak {pps:.3f} pps, expected {rate_pps} +/- {RATE_TOLERANCE:.0%}")
    return failures
