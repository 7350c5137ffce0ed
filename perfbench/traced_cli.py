"""Run one darkhunt CLI command with a span around each call into a package module.

    python perfbench/traced_cli.py SPANS_JSON <darkhunt cli arguments...>

The wrappers are installed from outside the package, by replacing the
module attributes the CLI and its callees look up at call time, so the
package itself carries no tracing code.  Spans stay in memory and are
written to SPANS_JSON when the command ends.  The exit code is the CLI's.
"""

from __future__ import annotations

import functools
import json
import os
import sys

from spans import Recorder

_PAGE = os.sysconf("SC_PAGE_SIZE")


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _install(rec: Recorder) -> None:
    import darkhunt.cli as cli
    import darkhunt.ranking as ranking
    import darkhunt.sim as sim

    def wrap(module, attr, name, count=None, rss=False):
        # A function a later version no longer calls this way gets no span;
        # its metrics then read 0.
        func = getattr(module, attr, None)
        if func is None:
            return

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with rec.span(name(args) if callable(name) else name) as counts:
                before = _rss_bytes() if rss else 0
                result = func(*args, **kwargs)
                if rss:
                    counts["rss_bytes"] = _rss_bytes() - before
                if count is not None:
                    counts.update(count(args, result))
            return result

        setattr(module, attr, traced)

    # (module, attribute, span name, counts taken at the boundary)
    wrap(cli, "load_config", "sim.load_config")
    wrap(
        cli,
        "simulate",
        "sim.simulate",
        lambda a, r: {
            "records": len(r.records),
            "host_days": sum(a[0].crackonosh.population),
        },
    )
    wrap(cli, "write_dataset", "sim.write_dataset")
    wrap(sim, "write_csv", "records.write_csv", lambda a, r: {"records": len(a[0])})
    wrap(sim, "write_labels_csv", "sim.write_labels_csv")
    wrap(cli, "read_csv", "records.read_csv", lambda a, r: {"records": len(r)}, rss=True)
    wrap(cli, "read_labels_csv", "sim.read_labels_csv")
    wrap(cli, "time_series_report", "ranking.time_series_report", lambda a, r: {"periods": len(r)})
    wrap(ranking, "partition_by_window", "records.partition", lambda a, r: {"partitions": len(r)})
    wrap(ranking, "rank_ports", "ranking.rank_ports")
    wrap(ranking, "compute_metric", lambda a: f"metrics.{a[0]}")
    wrap(cli, "discoverability", "ranking.discoverability")
    wrap(cli, "write_report_csv", "ranking.write_report_csv")
    wrap(cli, "write_report_json", "ranking.write_report_json")
    wrap(
        cli,
        "always_on",
        "population.always_on",
        lambda a, r: {"host_days": len(r.always_on_ips)},
    )
    wrap(cli, "density_profile", "population.density_profile")
    wrap(cli, "peaks_to_rates", "population.peaks_to_rates")
    wrap(cli, "write_density_csv", "population.write_density_csv")
    wrap(cli, "write_peaks_json", "population.write_peaks_json")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    try:
        import darkhunt.cli as cli

        _install(rec)
        with rec.span("cli.main"):
            return cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
