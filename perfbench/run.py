"""Layered benchmark for the darkhunt CLI chain: simulate -> analyze -> population.

Run from the repository root:

    python3 perfbench/run.py --workload desk_daily --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

One closed-loop client issues one CLI command at a time, each in a fresh
single-threaded interpreter pinned to one CPU, and rescales each wall
time by a speed gauge that shares that CPU (perfbench/speed.py).  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it reruns
the chain with spans around every call into a package module
(perfbench/traced_cli.py) and reports per-layer metrics.  Every command's
outputs are checked (perfbench/checks.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import NamedTuple

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SECRET = "darkhunt-bench"
# Interpreter spawns per run for setup_s and the import-time profile.  A
# single unscaled spawn varies by about 20%, a rescaled one by about 8%.
SPAWNS = 3
COMMANDS = ("simulate", "analyze", "population")
METRICS_ALL = "address_count,block_count,src_spread,size_entropy"

# Why each workload exists is in perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    "desk_daily": {
        "telescope": ["10.0.0.0/17"],
        "crackonosh": {
            "population": {"schedule": "three_epoch", "days_per_epoch": 5, "scale": 0.01}
        },
        "background": "default",
        "window": "1d",
        "days": 15,
        "periods": 15,
        "kde_rate_pps": None,
    },
    "wide_15m": {
        "telescope": ["10.0.0.0/9", "23.0.0.0/11"],
        "crackonosh": {"population": [40, 40, 40], "always_on_fraction": 0.9},
        "background": "default",
        "window": "15m",
        "days": 3,
        "periods": 288,
        "kde_rate_pps": 10.0,
    },
    "sensor22_paperpop": {
        "telescope": ["10.0.0.0/22"],
        "crackonosh": {
            "population": {"schedule": "three_epoch", "days_per_epoch": 1, "scale": 1.0}
        },
        "background": "none",
        "window": "1d",
        "days": 3,
        "periods": 3,
        "kde_rate_pps": None,
    },
}


def sim_config(workload: dict, seed: int) -> dict:
    return {
        "seed": seed,
        "start_day": "2022-10-13",
        "telescope": workload["telescope"],
        "secret": SECRET,
        "crackonosh": workload["crackonosh"],
        "background": workload["background"],
        "noise_ports_per_day": 250,
        "mode": "direct",
    }


def child_env() -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    env.pop("DARKHUNT_SECRET", None)  # the config's secret must win
    return env


class Spawn(NamedTuple):
    code: int
    wall: float  # seconds, spawn to exit
    scaled: float  # wall rescaled to the gauge's reference speed
    rss_mb: float


class Clock:
    """Runs children one at a time and rescales each wall time by the
    speed gauge's rate while the child ran.

    The process is pinned to one CPU (see main); children and the gauge
    inherit that, so the gauge shares the CPU its command runs on.
    """

    def __init__(self, gauge: speed.Gauge) -> None:
        self.gauge = gauge

    def spawn(self, argv: list[str], log: Path) -> Spawn:
        """Run one child to completion.

        Peak RSS comes from this child's own rusage via os.wait4, not from
        RUSAGE_CHILDREN, which keeps the maximum over all children so far.
        """
        with open(log, "wb") as fh:
            before = self.gauge.read()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
            after = self.gauge.read()
        proc.returncode = os.waitstatus_to_exitcode(status)
        scaled = self.gauge.rescale(wall, before, after)
        return Spawn(proc.returncode, wall, scaled, usage.ru_maxrss / 1024)


def import_spawns(clock: Clock, work: Path, importtime: bool) -> list[tuple[Spawn, dict[str, float]]]:
    """Time fresh interpreters importing darkhunt.cli.

    Each spawn comes with its cumulative import seconds by module, from
    `python -X importtime` if importtime is set, else an empty dict.
    """
    argv = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", "import darkhunt.cli"]
    log = work / "import.log"
    out = []
    for _ in range(SPAWNS):
        run = clock.spawn(argv, log)
        if run.code != 0:
            raise SystemExit(f"perfbench: `import darkhunt.cli` failed; see {log}")
        out.append((run, parse_importtime(log.read_text()) if importtime else {}))
    return out


def parse_importtime(text: str) -> dict[str, float]:
    """Map module name -> cumulative import seconds from -X importtime output."""
    out = {}
    for line in text.splitlines():
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line[len("import time:"):].split("|")
            if cumulative.strip().isdigit():
                out[name.strip()] = int(cumulative) / 1e6
    return out


class Chain:
    """The three CLI commands of one workload, run in fresh processes."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        self.config = sim_config(self.workload, seed)
        self.work = WORK / name
        self.work.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2) + "\n")
        self.out = {cmd: self.work / cmd for cmd in COMMANDS}

    def cli_args(self, cmd: str) -> list[str]:
        sim = self.out["simulate"]
        if cmd == "simulate":
            return ["simulate", "--config", str(self.config_path), "--out", str(sim)]
        if cmd == "analyze":
            return [
                "analyze", "--csv", str(sim / "traffic.csv"), "--labels", str(sim / "labels.csv"),
                "--out", str(self.out[cmd]), "--metrics", METRICS_ALL, "--window", self.workload["window"],
            ]
        return [
            "population", "--csv", str(sim / "traffic.csv"),
            "--telescope", ",".join(self.workload["telescope"]), "--out", str(self.out[cmd]),
        ]

    def run(self, clock: Clock, traced: bool) -> dict:
        """Run the chain once; returns each command's Spawn and chain_s,
        the rescaled time of the three commands back to back."""
        for path in self.out.values():
            shutil.rmtree(path, ignore_errors=True)
        runs = {}
        for cmd in COMMANDS:
            if traced:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(self.spans_path(cmd))]
            else:
                argv = [sys.executable, "-m", "darkhunt.cli"]
            runs[cmd] = clock.spawn(argv + self.cli_args(cmd), self.work / f"{cmd}.log")
            if runs[cmd].code != 0:
                break
        return {"commands": runs, "chain_s": sum(r.scaled for r in runs.values())}

    def spans_path(self, cmd: str) -> Path:
        return self.work / f"spans-{cmd}.json"

    def check(self, result: dict, src_digest: str) -> dict[str, list[str]]:
        """Failures per command; a command that did not run or exited non-zero fails."""
        import checks

        wl = self.workload
        failures = {}
        for cmd in COMMANDS:
            code = result["commands"].get(cmd, (None,))[0]
            if code != 0:
                failures[cmd] = [f"exit code {code}" if code is not None else "not run"]
                continue
            if cmd == "simulate":
                found = checks.check_simulate(self.out[cmd], self.config, wl["days"])
            elif cmd == "analyze":
                found = checks.check_analyze(self.out[cmd], METRICS_ALL.split(","), wl["periods"])
            else:
                found = checks.check_population(self.out[cmd], wl["days"], wl["kde_rate_pps"])
            found += self.check_manifest_repeats(cmd, src_digest)
            if found:
                failures[cmd] = found
        return failures

    def check_manifest_repeats(self, cmd: str, src_digest: str) -> list[str]:
        """manifest.json must be byte-identical to any earlier run of the same
        source, workload and seed in this checkout."""
        try:
            digest = hashlib.sha256((self.out[cmd] / "manifest.json").read_bytes()).hexdigest()
        except OSError as exc:
            return [f"manifest.json: {exc}"]
        store_path = WORK / "manifests.json"
        store = json.loads(store_path.read_text()) if store_path.exists() else {}
        key = f"{src_digest}/{self.name}/{self.seed}/{cmd}"
        if store.setdefault(key, digest) != digest:
            return ["manifest.json differs from an earlier run with the same seed"]
        store_path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        return []


def end_to_end(clock: Clock, chain: Chain, seconds: float, src_digest: str) -> tuple[dict, dict]:
    """Untraced run: setup spawns, then as many chains as fit in `seconds`.

    Another chain starts only if one more as long as the last one (with its
    checks) still ends within `seconds` of the first setup spawn; there is
    always one.  Times are rescaled (see Clock); the raw medians are
    returned beside the metrics.
    """
    start = time.perf_counter()
    setup = [run for run, _ in import_spawns(clock, chain.work, importtime=False)]
    chains, failures, last = [], {}, 0.0
    while not chains or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        result = chain.run(clock, traced=False)
        chains.append(result)
        for cmd, found in chain.check(result, src_digest).items():
            failures[f"{cmd}#{len(chains)}"] = found
        last = time.perf_counter() - began
    ok = [c for c in chains if len(c["commands"]) == len(COMMANDS)]
    metrics = {"setup_s": median(r.scaled for r in setup)}
    raw = {"setup_s": median(r.wall for r in setup)}
    if ok:
        for cmd in COMMANDS:
            metrics[f"{cmd}_s"] = median(c["commands"][cmd].scaled for c in ok)
            raw[f"{cmd}_s"] = median(c["commands"][cmd].wall for c in ok)
        metrics["chain_s"] = median(c["chain_s"] for c in ok)
        raw["chain_s"] = median(sum(r.wall for r in c["commands"].values()) for c in ok)
        metrics["peak_rss_mb"] = median(max(r.rss_mb for r in c["commands"].values()) for c in ok)
    stats = {"attempted": len(COMMANDS) * len(chains), "failures": failures, "chains": len(chains), "raw": raw}
    return metrics, stats


def per_layer(clock: Clock, chain: Chain, src_digest: str) -> tuple[dict, dict]:
    """Traced run: import profile, one untraced chain, then one traced chain.

    Times inside a child are rescaled by that child's factor (see Clock).
    """
    from spans import duration, self_times

    profiles = import_spawns(clock, chain.work, importtime=True)
    untraced = chain.run(clock, traced=False)
    failures = {f"{c}#untraced": f for c, f in chain.check(untraced, src_digest).items()}
    traced = chain.run(clock, traced=True)
    failures.update({f"{c}#traced": f for c, f in chain.check(traced, src_digest).items()})
    stats = {"attempted": 2 * len(COMMANDS), "failures": failures}
    if failures:
        return {}, stats

    total = defaultdict(float)
    layer_self = defaultdict(float)
    counts = defaultdict(list)
    density_stage = 0.0
    for cmd in COMMANDS:
        run = traced["commands"][cmd]
        factor = run.scaled / run.wall
        spans = json.loads(chain.spans_path(cmd).read_text())
        for span, own in zip(spans, self_times(spans)):
            total[span["name"]] += duration(span) * factor
            layer_self[span["name"].split(".")[0]] += own * factor
            for key, value in span["counts"].items():
                counts[f"{span['name']}.{key}"].append(value)
        if cmd == "population":
            # Everything the command does after always-on detection: the
            # KDE and its files when there are samples, the summary writes
            # either way.
            main_end = next(s["end"] for s in spans if s["name"] == "cli.main")
            ends = [s["end"] for s in spans if s["name"] == "population.always_on"]
            density_stage = (main_end - max(ends, default=main_end)) * factor

    def rate(n, seconds):
        return n / seconds if seconds > 0 else 0.0

    sim_records = sum(counts["sim.simulate.records"])
    host_days = sum(counts["sim.simulate.host_days"])
    read_records = sum(counts["records.read_csv.records"])
    write_records = sum(counts["records.write_csv.records"])
    m = {
        "sim.simulate_s": total["sim.simulate"],
        "sim.host_days": host_days,
        "sim.host_days_per_s": rate(host_days, total["sim.simulate"]),
        "sim.records": sim_records,
        "sim.records_per_s": rate(sim_records, total["sim.simulate"]),
        "records.write_csv_s": total["records.write_csv"],
        "records.write_records_per_s": rate(write_records, total["records.write_csv"]),
        "records.read_csv_s": total["records.read_csv"],
        "records.read_records_per_s": rate(read_records, total["records.read_csv"]),
        "records.bytes_per_record": rate(sum(counts["records.read_csv.rss_bytes"]), read_records),
        "records.partition_s": total["records.partition"],
        "records.partitions": max(counts["records.partition.partitions"], default=0),
        "ranking.time_series_report_s": total["ranking.time_series_report"],
        "ranking.rank_ports_s": total["ranking.rank_ports"],
        "ranking.periods": max(counts["ranking.time_series_report.periods"], default=0),
        "population.always_on_s": total["population.always_on"],
        "population.always_on_host_days": sum(counts["population.always_on.host_days"]),
        "population.density_profile_s": density_stage,
        "cli.import_s": median((p["darkhunt"] + p["darkhunt.cli"]) * r.scaled / r.wall for r, p in profiles),
        "population.import_s": median(p["darkhunt.population"] * r.scaled / r.wall for r, p in profiles),
        "trace.overhead_s": traced["chain_s"] - untraced["chain_s"],
    }
    for metric_id in METRICS_ALL.split(","):
        m[f"metrics.{metric_id}_s"] = total[f"metrics.{metric_id}"]
    for layer in ("cli", "sim", "records", "ranking", "metrics", "population"):
        m[f"{layer}.self_s"] = layer_self[layer]
    return m, stats


def src_digest() -> str:
    """sha256 over the package sources, standing in for the commit when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "darkhunt").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(seed: int, digest: str, cpus: set[int]) -> dict:
    """cpus: the CPUs the benchmark may use; it runs on the highest one."""
    from importlib.metadata import version

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
         if ln.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": len(cpus),
        "pinned_cpu": max(cpus),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": digest,
        "seed": seed,
    }


def run_one(name: str, seed: int, seconds: float, trace: int, spec: dict, cpus: set[int]) -> dict:
    digest = src_digest()
    chain = Chain(name, seed)
    with speed.Gauge(chain.work / "gauge.bin") as gauge:
        clock = Clock(gauge)
        if trace:
            values, stats = per_layer(clock, chain, digest)
        else:
            values, stats = end_to_end(clock, chain, seconds, digest)
    declared = spec["per_layer" if trace else "end_to_end"]
    failed = len(stats["failures"])
    result = {
        "correct": failed == 0,
        "attempted": stats["attempted"],
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in values
        },
    }
    env = environment(seed, digest, cpus)
    record = dict(result, workload=name, trace=trace, env=env, failures=stats["failures"], raw=stats.get("raw"))
    (chain.work / f"result-trace{trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"== {name} seed={seed} trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for key, found in stats["failures"].items():
        for msg in found:
            print(f"FAIL {key}: {msg}")
    print(f"ops_failed = {failed}/{stats['attempted']} commands")
    for metric, v in result["metrics"].items():
        print(f"{metric} = {v['value']} {v['unit']}")
    if not trace:
        print(f"chains = {stats['chains']}; unscaled wall medians: "
              + ", ".join(f"{k} = {v:.4f} s" for k, v in stats["raw"].items()))
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        result["correct"] = False
        print("MISSING " + ", ".join(missing))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0, help="untraced: time for setup spawns and chains; see end_to_end()")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn a termination request into SystemExit, so Clock.spawn() stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "darkhunt" / "cli.py").is_file():
        print(f"perfbench: no darkhunt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Write the bytecode caches now, so no timed spawn pays for compiling.
    compileall.compile_dir(SRC / "darkhunt", quiet=1)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # One CPU for this process, every child and the speed gauge, so the
    # gauge shares the CPU its command runs on.  The highest-numbered one
    # usually takes fewer interrupts than CPU 0.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})

    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds, args.trace, spec, cpus)
    else:
        runs = {
            f"{name}/trace{trace}": run_one(name, args.seed, args.seconds, trace, spec, cpus)
            for name in WORKLOADS
            for trace in (0, 1)
        }
        result = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {k: r["metrics"] for k, r in runs.items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
