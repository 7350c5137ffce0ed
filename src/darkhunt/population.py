"""Per-host scan-rate inference from always-on sources.

End-user machines hosting a scanner wink in and out as they are powered
on and off, so naive per-IP daily packet counts mix uptime with send
rate.  Restricting to "always-on" sources, seen in every one of the 144
equal time bins of a UTC day, isolates hosts that ran the full day; their
daily counts, divided through the telescope's coverage of IPv4 space,
estimate the per-host scanning speed:

    s = (r / t) * 2^32 / k

with r packets observed over t seconds by a k-address telescope.  A
kernel density over the per-host daily counts exposes the rate modes of
the population.
"""

from __future__ import annotations

import math
from datetime import date
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .records import PROTO_UDP, SECONDS_PER_DAY, US_PER_DAY, day_of_ts, run_starts, write_csv_rows, write_json
from .telescope import IPV4_SPACE, TelescopeSpec

__all__ = [
    "BINS_PER_DAY",
    "AlwaysOnReport",
    "DensityProfile",
    "NoTrafficError",
    "always_on",
    "estimate_rate",
    "density_profile",
    "peaks_to_rates",
    "write_density_csv",
    "write_peaks_json",
]

# A day is cut into 144 equal bins aligned to 0000Z (600 s each); a source
# qualifies as always-on when every bin holds at least one of its packets.
BINS_PER_DAY = 144
_BIN_US = US_PER_DAY // BINS_PER_DAY


class AlwaysOnReport(NamedTuple):
    """Sources covering all 144 bins of one day, with their daily packet counts."""

    day: date
    per_ip_daily_packets: Mapping[int, int]

    @property
    def always_on_ips(self) -> frozenset[int]:
        """The always-on sources: the keys of per_ip_daily_packets."""
        return frozenset(self.per_ip_daily_packets)


class DensityProfile(NamedTuple):
    """Gaussian-kernel density of daily packet counts, with detected peaks."""

    bandwidth: float
    grid: np.ndarray
    density: np.ndarray
    peaks: tuple[float, ...]


class NoTrafficError(ValueError):
    """always_on was given no UDP packet (inside its telescope)."""


def always_on(
    records: np.ndarray, telescope: Optional[TelescopeSpec] = None
) -> AlwaysOnReport:
    """Find sources observed in every one of a day's 144 bins.

    `records` is a traffic table spanning a single UTC day.  Only UDP
    packets count, as in partitions and metrics.  When a telescope is
    given, only packets destined to it are considered (a no-op for data
    captured at the telescope itself).  Raises NoTrafficError if no
    packet counts.
    """
    keep = records["proto"] == PROTO_UDP
    if telescope is not None:
        keep &= telescope.contains_array(records["dst_ip"])
    # The (source, bin) keys are built in place from the gathered source
    # and time columns: two int64 words a row beside the table.
    keys = records["src_ip"][keep].astype(np.int64)
    ts = records["ts_us"][keep]
    del keep
    if not len(ts):
        raise NoTrafficError("no records for the day")
    start = int(ts[0]) // US_PER_DAY * US_PER_DAY
    ts -= start
    other = ts < 0
    other |= ts >= US_PER_DAY
    if other.any():
        first = int(other.argmax())  # the first row, in row order, of another day
        raise ValueError(
            f"records span multiple days: {day_of_ts(start).isoformat()} "
            f"and {day_of_ts(start + int(ts[first])).isoformat()}"
        )
    del other
    keys *= BINS_PER_DAY
    ts //= _BIN_US
    keys += ts
    del ts
    # One sort of the keys: its runs are the bins each source was seen in,
    # and once divided back to sources, its runs are the sources.  A new
    # source always starts a new bin, so each source's first bin is found
    # among the bins' starts.
    keys.sort()
    bin_starts = run_starts(keys)
    keys //= BINS_PER_DAY
    src_starts = run_starts(keys)
    full = np.diff(np.searchsorted(bin_starts, src_starts), append=len(bin_starts)) == BINS_PER_DAY
    ips = keys[src_starts][full].tolist()
    counts = np.diff(src_starts, append=len(keys))[full].tolist()
    return AlwaysOnReport(day=day_of_ts(start), per_ip_daily_packets=dict(zip(ips, counts)))


def estimate_rate(r: float, t: float, k_telescope: int) -> float:
    """Per-host send rate in pps: r packets over t seconds on a k-address
    telescope scaled up to the whole address space, s = (r/t) * 2^32 / k."""
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if t <= 0:
        raise ValueError(f"t must be > 0, got {t}")
    if k_telescope < 1:
        raise ValueError(f"k_telescope must be >= 1, got {k_telescope}")
    return (r / t) * IPV4_SPACE / k_telescope


def _quartiles(x: np.ndarray) -> tuple[float, float]:
    """np.percentile(x, [75, 25]) of at least 2 values, bit for bit.

    numpy's default linear method, without the import of numpy.ma that
    np.percentile makes on first use (about 20 ms): the value at
    virtual index (n - 1) * q of the sorted sample, interpolated between
    its neighbours a and b as numpy's _lerp does, from the nearer one.
    """
    s = np.sort(x)
    out = []
    for q in (0.75, 0.25):
        v = (len(s) - 1) * q
        i = math.floor(v)
        t = v - i
        a, b = float(s[i]), float(s[i + 1])
        d = b - a
        out.append(b - d * (1 - t) if t >= 0.5 else a + d * t)
    return out[0], out[1]


def _silverman_bandwidth(x: np.ndarray) -> float:
    """Silverman's rule of thumb: 0.9 * min(std, IQR/1.34) * n^(-1/5)."""
    std = float(np.std(x))
    q75, q25 = _quartiles(x)
    iqr = q75 - q25
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale == 0:
        # Degenerate sample (all values equal): any positive width gives a
        # single peak at the common value.
        return max(1.0, abs(float(x[0])) * 1e-3)
    return 0.9 * scale * len(x) ** (-0.2)


_GRID_POINTS = 512
_KDE_BLOCK_VALUES = 1 << 20
# Grid margin in bandwidths.  Six sigmas leave < 1e-8 of each kernel's
# mass outside the grid, so the trapezoid integral stays within 1e-6 of 1.
_GRID_MARGIN_BW = 6.0
# Peaks under 5% of the global maximum are numerical ripple, not modes.
_PEAK_FLOOR = 0.05


def _local_maxima(y: np.ndarray, floor: float) -> np.ndarray:
    """Indices of the local maxima of y at or above floor.

    A maximum is a run of equal values whose neighbouring runs are both
    lower; a run of several points reports its middle index
    (start + end) // 2, and runs touching either end never count.  This is
    the rule of scipy.signal.find_peaks with a `height` floor.
    """
    starts = run_starts(y)
    ends = np.r_[starts[1:], y.size] - 1
    vals = y[starts]
    inner = (vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:]) & (vals[1:-1] >= floor)
    return (starts[1:-1][inner] + ends[1:-1][inner]) // 2


def density_profile(
    samples: Sequence[float], bandwidth: Optional[float] = None
) -> DensityProfile:
    """Gaussian-kernel KDE of daily packet counts on a 512-point grid.

    Bandwidth defaults to Silverman's rule.  Peaks are the local maxima of
    the gridded density (a flat top reports its middle point), discarding
    any below 5% of the global maximum.  A bandwidth too narrow or too
    wide for the grid and the density to be finite floats is refused
    before either is computed.
    """
    x = np.asarray(list(samples), dtype=float)
    if x.size < 2:
        raise ValueError(f"need at least 2 samples, got {x.size}")
    bw = float(bandwidth) if bandwidth is not None else _silverman_bandwidth(x)
    if not 0 < bw < math.inf:
        raise ValueError(f"bandwidth must be finite and > 0, got {bw}")
    lo = x.min() - _GRID_MARGIN_BW * bw
    hi = x.max() + _GRID_MARGIN_BW * bw
    norm = x.size * bw * math.sqrt(2 * math.pi)
    # In Python floats, which overflow to inf without a warning: the grid's
    # span, the density's scale and its largest value (every kernel 1 at one
    # grid point) must be finite.
    if not (math.isfinite(float(hi) - float(lo)) and math.isfinite(norm) and math.isfinite(x.size / norm)):
        raise ValueError(f"the density over samples {x.min():g} to {x.max():g} is not finite at this bandwidth")
    grid = np.linspace(lo, hi, _GRID_POINTS)
    # Blocks of grid rows, about 2^20 kernel values each, bound the memory.
    # Each row's sum is the same contiguous sum as in the whole matrix, so
    # the density is bit-identical.  A kernel far narrower than the grid's
    # step overflows z or z * z to inf, and exp(-inf) = 0 is its value there.
    rows = max(1, _KDE_BLOCK_VALUES // x.size)
    sums = np.empty(_GRID_POINTS)
    with np.errstate(over="ignore"):
        for i in range(0, _GRID_POINTS, rows):
            z = (grid[i : i + rows, None] - x[None, :]) / bw
            sums[i : i + rows] = np.exp(-0.5 * z * z).sum(axis=1)
    density = sums / norm
    idx = _local_maxima(density, _PEAK_FLOOR * float(density.max()))
    return DensityProfile(
        bandwidth=bw,
        grid=grid,
        density=density,
        peaks=tuple(float(grid[i]) for i in idx),
    )


def peaks_to_rates(profile: DensityProfile, k_telescope: int) -> list[float]:
    """Map density peaks (packets/day) to per-host send rates (pps)."""
    if not profile.peaks:
        raise ValueError("density profile has no peaks")
    return [estimate_rate(p, SECONDS_PER_DAY, k_telescope) for p in profile.peaks]


def write_density_csv(profile: DensityProfile, path) -> None:
    """Export the gridded density as `grid,density` CSV."""
    rows = [(f"{g:.6f}", f"{d:.10g}") for g, d in zip(profile.grid, profile.density)]
    write_csv_rows([("grid", "density"), *rows], path)


def write_peaks_json(profile: DensityProfile, path, k_telescope: int) -> None:
    """Export peak locations, and their pps rates on a k-address telescope."""
    payload: dict = {
        "bandwidth": profile.bandwidth,
        "peaks_packets_per_day": list(profile.peaks),
    }
    if profile.peaks:
        payload["k_telescope"] = k_telescope
        payload["peaks_pps"] = peaks_to_rates(profile, k_telescope)
    # Not sorted: peaks.json keeps the key order above, which the goldens pin.
    write_json(payload, path, sort_keys=False)
