"""Operator command line: simulate, analyze, model, population.

Exit codes: 0 success, 1 usage error, 2 data/config error.  Every
artifact-producing command writes a manifest.json next to its outputs so
runs can be reproduced (manifests carry no timestamps and no secrets).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from datetime import timedelta

from . import __version__

# records first: it loads numpy, which a profile would otherwise charge to population.
from .records import (
    CsvFormatError, csv_text, json_digest, read_days, read_labels_csv, write_csv_rows, write_json, write_manifest,
)
from .population import (
    NoTrafficError,
    always_on,
    density_profile,
    peaks_to_rates,
    write_density_csv,
    write_peaks_json,
)
from .ranking import (
    DEFAULT_TOP_N,
    discoverability,
    labeled_rows,
    score_periods,
    write_report_csv,
    write_report_json,
)
from .telescope import (
    DEFAULT_TABLE_PREFIXES,
    ScanPopulation,
    TelescopeSpec,
    _prefix_len,
    days_to_coverage,
    observability_table,
    p_collision,
    time_to_n_packets,
    visible_rate,
)
from .metrics import METRIC_IDS

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

WINDOWS = {
    "15m": timedelta(minutes=15),
    "3h": timedelta(hours=3),
    "1d": timedelta(days=1),
}


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_telescope(spec: str) -> TelescopeSpec:
    """Parse `--telescope`: comma-separated CIDRs, @file, or /N shorthand."""
    spec = spec.strip()
    try:
        if spec.startswith("@"):
            with open(spec[1:]) as fh:
                cidrs = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
            return TelescopeSpec.from_cidrs(cidrs)
        if spec.startswith("/"):
            return TelescopeSpec.from_prefix(_prefix_len(spec[1:]))
        return TelescopeSpec.from_cidrs(spec.split(","))
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad telescope spec {spec!r}: {exc}") from None


def _write_manifest(out_dir, command: str, params: dict, outputs: list[str]) -> None:
    write_manifest(out_dir, command, config_sha256=json_digest(params), params=params, outputs=outputs)


def _read_days(path):
    """read_days with an unreadable or malformed file mapped to a ValueError naming it."""
    try:
        yield from read_days(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except CsvFormatError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_or_show(args, name: str, rows: list[list], command: str, params: dict) -> str:
    """Write rows as CSV plus a manifest under --out and say so, or return them as text."""
    if not args.out:
        return csv_text(rows).removesuffix("\n")  # print() ends the last line
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    write_csv_rows(rows, path)
    _write_manifest(args.out, command, params, [name])
    return f"wrote {path}"


def _cmd_simulate(args) -> str:
    from .sim import load_config, write_dataset  # only simulate loads the simulator

    if not os.path.exists(args.config):
        raise ValueError(f"config file not found: {args.config}")
    try:
        config = load_config(
            args.config,
            secret_override=args.secret,
            seed_override=args.seed,
            scale_override=args.scale,
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"bad config {args.config}: {exc}") from None
    manifest = write_dataset(config, args.out, inputs={"config": os.path.abspath(args.config)})
    return (
        f"wrote {manifest['records']} records over {manifest['days']} days to {args.out} "
        f"(config {manifest['config_sha256'][:12]})"
    )


def _cmd_analyze(args) -> str:
    if args.top_n < 1:
        raise ValueError(f"--top-n must be >= 1, got {args.top_n}")
    metrics = args.metrics.split(",") if args.metrics is not None else list(METRIC_IDS)
    for i, m in enumerate(metrics):
        if m not in METRIC_IDS:
            raise ValueError(f"unknown metric {m!r}; choose from {','.join(METRIC_IDS)}")
        if m in metrics[:i]:
            raise ValueError(f"metric {m!r} given twice in --metrics")
    window = WINDOWS[args.window]
    # The labels first: a bad labels file should not cost a pass over the CSV.
    try:
        labels = read_labels_csv(args.labels)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read labels {args.labels}: {exc}") from None
    parts = {}
    for day, records in _read_days(args.csv):
        parts[day] = score_periods(records, metrics, window)
        del records  # before the next day is read
    # Only UDP packets are ranked; without any there is no period to score.
    if not any(len(part.port) for part in parts.values()):
        raise ValueError(f"{args.csv}: no UDP traffic")
    missing = [day.isoformat() for day in parts if day not in labels]
    if missing:
        raise ValueError("unlabeled days: " + ", ".join(missing))
    rows_by_metric = labeled_rows(list(parts.values()), metrics, labels, window)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    reports = []
    lines = []
    for metric_id in metrics:
        rows = rows_by_metric[metric_id]
        name = f"report_{metric_id}.csv"
        write_report_csv(rows, os.path.join(args.out, name))
        outputs.append(name)
        per_period = {row.period: row.rank for row in rows}
        reports.append(discoverability(per_period, n=args.top_n, metric_id=metric_id))
        lines.append(f"{metric_id}: D_{args.top_n} = {reports[-1].score:.3f} over {len(rows)} periods")
    write_report_json(reports, os.path.join(args.out, "discoverability.json"))
    outputs.append("discoverability.json")
    _write_manifest(
        args.out,
        "analyze",
        {
            "csv": os.path.abspath(args.csv),
            "labels": os.path.abspath(args.labels),
            "metrics": metrics,
            "top_n": args.top_n,
            "window": args.window,
        },
        outputs,
    )
    return "\n".join(lines)


def _cmd_model_table(args) -> str:
    prefixes = [_prefix_len(tok.strip().removeprefix("/")) for tok in args.prefixes.split(",")]
    rows = observability_table(prefixes, rate_pps=args.rate, duration_s=args.duration)
    lines = [["size", "p_collision", "p_observe", "expected_packets"]]
    for r in rows:
        lines.append(
            [r["size"], f"{r['p_collision']:.3g}", f"{r['p_observe']:.3g}", f"{r['expected_packets']:.3g}"]
        )
    return _write_or_show(
        args,
        "table.csv",
        lines,
        "model table",
        {"prefixes": prefixes, "rate": args.rate, "duration": args.duration},
    )


def _cmd_model_coverage(args) -> str:
    tel = _parse_telescope(args.size)
    pop = ScanPopulation(host_count=1, rate_pps=args.rate, duration_s=args.duration)
    return str(days_to_coverage(tel, pop, args.target))


def _cmd_model_tte(args) -> str:
    if args.packets < 1:
        raise ValueError("--packets must be >= 1")
    rows = [["telescope_size", "visible_pps", "seconds", "hours"]]
    for size in args.size:
        tel = _parse_telescope(size)
        pop = ScanPopulation(host_count=args.hosts, rate_pps=args.rate)
        rate = visible_rate(tel, pop)
        if rate <= 0:
            raise ValueError("visible rate is zero; check --hosts/--rate/size")
        seconds = time_to_n_packets(rate, args.packets)
        rows.append([size, f"{rate:.6g}", f"{seconds:.6g}", f"{seconds / 3600:.4g}"])
    return _write_or_show(
        args,
        "time_to_entropy.csv",
        rows,
        "model time-to-entropy",
        {"sizes": args.size, "hosts": args.hosts, "rate": args.rate, "packets": args.packets},
    )


def _cmd_population(args) -> str:
    if args.bandwidth is not None and not 0 < args.bandwidth < math.inf:
        raise ValueError(f"--bandwidth must be finite and > 0, got {args.bandwidth}")
    tel = _parse_telescope(args.telescope)
    reports = []
    for _, table in _read_days(args.csv):
        try:
            reports.append(always_on(table, tel))
        except NoTrafficError:
            pass  # no UDP packet inside the telescope: nothing to report
        del table  # before the next day is read
    if not reports:
        raise ValueError(f"{args.csv}: no UDP traffic inside telescope {tel}")
    os.makedirs(args.out, exist_ok=True)
    day_reports = {}
    samples = []
    for report in reports:
        day_reports[report.day.isoformat()] = {
            "always_on_count": len(report.per_ip_daily_packets),
            "daily_packets": {str(ip): n for ip, n in report.per_ip_daily_packets.items()},
        }
        samples.extend(report.per_ip_daily_packets.values())
    write_json(day_reports, os.path.join(args.out, "always_on.json"))
    outputs = ["always_on.json"]
    if len(samples) >= 2:
        profile = density_profile(samples, bandwidth=args.bandwidth)
        write_density_csv(profile, os.path.join(args.out, "density.csv"))
        write_peaks_json(profile, os.path.join(args.out, "peaks.json"), k_telescope=tel.k)
        outputs += ["density.csv", "peaks.json"]
        rates = peaks_to_rates(profile, tel.k) if profile.peaks else []
        summary = f"{len(samples)} always-on host-days; peaks at " + ", ".join(
            f"{p:.1f} pkts/day ({r:.2f} pps)" for p, r in zip(profile.peaks, rates)
        )
    else:
        summary = f"{len(samples)} always-on host-days; too few for a density profile"
    _write_manifest(
        args.out,
        "population",
        {
            "csv": os.path.abspath(args.csv),
            "telescope": str(tel),
            "bandwidth": args.bandwidth,
        },
        outputs,
    )
    return summary


def build_parser() -> _Parser:
    parser = _Parser(prog="darkhunt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"darkhunt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate labeled telescope traffic")
    p.add_argument("--config", required=True, help="JSON simulator config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--secret", default=None, help="override oracle secret (or set DARKHUNT_SECRET)")
    p.add_argument("--scale", type=float, default=None, help="override population scale")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("analyze", help="rank ports per period and score discoverability")
    p.add_argument("--csv", required=True, help="canonical traffic CSV")
    p.add_argument("--labels", required=True, help="day,port ground-truth CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--metrics", default=None, help=f"comma list from: {','.join(METRIC_IDS)}")
    p.add_argument("--top-n", type=int, default=DEFAULT_TOP_N, help="rank cutoff (default 100)")
    p.add_argument("--window", choices=sorted(WINDOWS), default="1d", help="ranking window")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("model", help="analytic observability model")
    msub = p.add_subparsers(dest="model_command", required=True)

    t = msub.add_parser("table", help="observability vs telescope size")
    t.add_argument("--prefixes", default=",".join(f"/{n}" for n in DEFAULT_TABLE_PREFIXES))
    t.add_argument("--rate", type=float, default=10.0, help="per-host pps")
    t.add_argument("--duration", type=float, default=86400.0, help="seconds on one port")
    t.add_argument("--out", default=None, help="write table.csv + manifest here")
    t.set_defaults(func=_cmd_model_table)

    c = msub.add_parser("coverage", help="days until a host is seen w.p. >= target")
    c.add_argument("--size", required=True, help="telescope: /N, CIDR list, or @file")
    c.add_argument("--target", type=float, required=True)
    c.add_argument("--rate", type=float, default=10.0)
    c.add_argument("--duration", type=float, default=86400.0)
    c.set_defaults(func=_cmd_model_coverage)

    e = msub.add_parser("time-to-entropy", help="collection time until n packets")
    e.add_argument("--size", action="append", required=True,
                   help="telescope: /N, CIDR list, or @file; repeat for a curve")
    e.add_argument("--hosts", type=int, required=True, help="visible scanning hosts")
    e.add_argument("--rate", type=float, default=10.0, help="per-host pps")
    e.add_argument("--packets", type=int, default=128)
    e.add_argument("--out", default=None, help="write time_to_entropy.csv + manifest here")
    e.set_defaults(func=_cmd_model_tte)

    p = sub.add_parser("population", help="always-on hosts and scan-rate density")
    p.add_argument("--csv", required=True, help="canonical traffic CSV")
    p.add_argument("--telescope", required=True, help="telescope: /N, CIDR list, or @file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--bandwidth", type=float, default=None, help="KDE bandwidth override")
    p.set_defaults(func=_cmd_population)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
    # An output that cannot be written is, like bad data, not a usage error.
    except (ValueError, OSError) as exc:
        print(f"darkhunt: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    # A command returns its stdout text once every output is written, so a
    # reader that closes stdout early (`| head`) has lost no file.
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # Point stdout at devnull, or the interpreter's last flush fails again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


def run() -> int:
    """main() on sys.argv, then the garbage collector frozen: the entry of
    the `darkhunt` script and of `python -m darkhunt.cli`.

    Frozen objects sit in the permanent generation, which the full
    collections of interpreter shutdown skip; atexit handlers, stdio
    flushing and module teardown still run.  main() has closed every
    output by the time it returns.  A usage error (SystemExit) or an
    uncaught exception leaves the collector as it is.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
