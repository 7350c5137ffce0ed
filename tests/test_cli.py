import gc
import hashlib
import importlib.util
import ipaddress
import json
import os
import subprocess
import sys
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest

from darkhunt import cli, ranking
from darkhunt.cli import main
from darkhunt.records import CSV_HEADER, US_PER_DAY, day_start_us, read_days, traffic_table, write_csv_tables
from darkhunt.sim import MAX_RATE_PPS

CONFIG = {
    "seed": 21,
    "start_day": "2024-01-01",
    "telescope": ["10.0.0.0/18"],
    "secret": "cli-tests",
    "crackonosh": {"population": [120, 120], "always_on_fraction": 1.0},
    "background": "default",
    "noise_ports_per_day": 40,
}


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One simulated run shared by the analyze/population tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(CONFIG))
    out = root / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def write_config(tmp_path, **overrides):
    cfg = dict(CONFIG)
    cfg.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


# ------------------------------------------------------------------ simulate

def test_simulate_outputs_and_reproducibility(tmp_path):
    cfg_path = write_config(tmp_path, crackonosh={"population": [8], "always_on_fraction": 1.0},
                            background="none", noise_ports_per_day=5)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    for name in ("traffic.csv", "labels.csv", "manifest.json"):
        assert (out_a / name).exists()
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_simulate_seed_override_changes_output(tmp_path):
    cfg_path = write_config(tmp_path, crackonosh={"population": [8], "always_on_fraction": 1.0},
                            background="none", noise_ports_per_day=0)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_b), "--seed", "99"]) == 0
    assert (out_a / "traffic.csv").read_bytes() != (out_b / "traffic.csv").read_bytes()


def test_simulate_negative_seed_override_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--seed", "-5"]) == 2
    assert capsys.readouterr().err == f"darkhunt: error: bad config {cfg_path}: seed must be >= 0, got -5\n"
    assert not out.exists()


def test_simulate_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    assert str(missing) in capsys.readouterr().err


def test_simulate_secret_never_printed(tmp_path, capsys):
    cfg_path = write_config(tmp_path, crackonosh={"population": [5], "always_on_fraction": 1.0},
                            background="none", noise_ports_per_day=0)
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    captured = capsys.readouterr()
    assert "cli-tests" not in captured.out + captured.err
    manifest = (tmp_path / "o" / "manifest.json").read_text()
    assert "cli-tests" not in manifest


SCANNER = {"service_port": 53, "source_mode": "single", "rate_pps": 0.01, "sizes": [70], "size_probs": [1.0]}


def test_simulate_rejects_out_of_range_background_size(tmp_path, capsys):
    cfg_path = write_config(tmp_path, background=[dict(SCANNER, sizes=[70000])])
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "modal sizes must be within 0-65507" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides",
    [
        {"crackonosh": {"population": [8], "always_on_fracton": 0.5}},  # misspelled key
        {"crackonosh": {"population": [8], "rate_pps": "fast"}},  # wrong-typed value
        # Numbers that once failed mid-run, leaving a partial --out, or
        # were silently truncated or taken.
        {"crackonosh": {"population": [8], "rate_pps": float("nan")}},
        {"crackonosh": {"population": [8], "rate_pps": float("inf")}},
        {"background": [dict(SCANNER, rate_pps=float("nan"))]},
        {"background": [dict(SCANNER, rate_pps=float("inf"))]},
        {"crackonosh": {"population": [8], "payload_base": 64.5}},
        {"crackonosh": {"population": [8], "padding_sizes": 2.5}},
        {"crackonosh": {"population": [8], "per24_cap": True}},
        {"background": [dict(SCANNER, service_port=53.5)]},
        {"background": [dict(SCANNER, sizes=[70.5])]},
        {"seed": 1.9},
        {"noise_ports_per_day": 2.5},
        {"port_range": [49108.5, 65535]},
        {"crackonosh": {"population": [8.7, True]}},
        {"crackonosh": {"population": {"schedule": "three_epoch", "days_per_epoch": 1.5, "scale": 0.001}}},
        # Real numbers that were coerced or taken: a string, or a bool (a
        # scale of true ran the full 90k/40k/26k schedule).
        {"crackonosh": {"population": {"schedule": "three_epoch", "scale": "0.001"}}},
        {"crackonosh": {"population": {"schedule": "three_epoch", "scale": True}}},
        {"crackonosh": {"population": [8], "rate_pps": True}},
        {"crackonosh": {"population": [8], "always_on_fraction": True}},
        {"background": [dict(SCANNER, rate_pps="0.5")]},
        {"background": [dict(SCANNER, size_probs=["1"])]},
        # Misspelled keys, once dropped without a word.
        {"noise_port_per_day": 40},
        {"background": [dict(SCANNER, n_source=1)]},
        {"crackonosh": {"population": {"schedule": "three_epoch", "days_per_epoc": 2, "scale": 0.001}}},
        # A secret that is not a string, once str()'d.
        {"secret": 12345},
        {"secret": True},
        # Days that only Python 3.11+ reads.
        {"start_day": "20240101"},
        {"start_day": "2024-W01-1"},
        # Integers past the largest float or index, once an OverflowError
        # mid-run (leaving a partial --out) or while loading.
        {"crackonosh": {"population": [8], "rate_pps": 10**400}},
        {"background": [dict(SCANNER, rate_pps=10**400)]},
        {"crackonosh": {"population": {"schedule": "three_epoch", "days_per_epoch": 10**30, "scale": 0.001}}},
        # Values the draw refused mid-run, after a header-only traffic.csv:
        # a negative seed, and day sends (rate_pps * 86400) past an int64
        # or Generator.poisson's domain.
        {"seed": -1},
        {"crackonosh": {"population": [8], "rate_pps": 1e15}},
        {"crackonosh": {"population": [8], "rate_pps": float(np.nextafter(MAX_RATE_PPS, np.inf))}},
        {"background": [dict(SCANNER, rate_pps=1e15)]},
        # The simulator has one draw, "direct"; no other mode loads.
        {"mode": "naive"},
        {"mode": "DIRECT"},
        {"mode": None},
    ],
)
def test_simulate_config_type_error_exits_2(tmp_path, capsys, overrides):
    cfg_path = write_config(tmp_path, **overrides)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"darkhunt: error: bad config {cfg_path}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("port_range", [[1], 5, [1, 2, 3]])
def test_simulate_port_range_must_be_a_pair(tmp_path, capsys, port_range):
    cfg_path = write_config(tmp_path, port_range=port_range)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"darkhunt: error: bad config {cfg_path}: port_range must be a [lo, hi] pair\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("cidr", ["10.0.0.0/08", "10.0.0.0/+8", "10.0.0.0/255.0.0.0"])
@pytest.mark.parametrize("command", ["simulate", "population", "model coverage"])
def test_cidr_prefix_lengths_follow_the_slash_n_rule(sim_dir, tmp_path, capsys, command, cidr):
    # A CIDR's /N is ASCII digits without a leading zero, 0-32, as in the
    # /N shorthand: no netmask, sign or leading zero.
    out = tmp_path / "out"
    argv = {
        "simulate": ["--config", str(write_config(tmp_path, telescope=[cidr])), "--out", str(out)],
        "population": ["--csv", str(sim_dir / "traffic.csv"), "--telescope", cidr, "--out", str(out)],
        "model coverage": ["--size", cidr, "--target", "0.5"],
    }[command]
    assert main([*command.split(), *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"bad prefix length '{cidr.partition('/')[2]}'" in captured.err
    assert not out.exists()


def test_simulate_rejects_a_day_public_space_cannot_hold(tmp_path):
    # All of IPv4 is telescope or reserved but 1.2.3.0/24, which holds at
    # most per24_cap = 2 hosts; placing 300 once looped forever.
    public = ipaddress.IPv4Network("1.2.3.0/24")
    telescope = [str(net) for net in ipaddress.IPv4Network("0.0.0.0/0").address_exclude(public)]
    cfg_path = write_config(tmp_path, telescope=telescope, crackonosh={"population": [300]})
    out = tmp_path / "o"
    argv = ["simulate", "--config", str(cfg_path), "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-m", "darkhunt.cli", *argv], capture_output=True, text=True, timeout=30
    )
    assert run.returncode == 2
    assert "300 hosts do not fit" in run.stderr
    assert not out.exists()


def test_simulate_rejects_more_hosts_than_addresses_before_writing(tmp_path, capsys):
    # per24_cap 10**20 gives room for any count: such a day once passed
    # load and failed in numpy after a header-only traffic.csv was written.
    cfg_path = write_config(tmp_path, crackonosh={"population": [10**20], "per24_cap": 10**20})
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"darkhunt: error: bad config {cfg_path}: "
        "population counts must be at most 4294967296, the IPv4 address count\n"
    )
    assert not out.exists()


def test_simulate_rejects_more_noise_ports_than_exist(tmp_path, capsys):
    # Noise probes take distinct ports from 1-49107.
    cfg_path = write_config(tmp_path, noise_ports_per_day=49108)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "noise_ports_per_day must be within 0-49107" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("start_day", ["1969-12-31", "9999-12-31"])
def test_simulate_rejects_days_outside_1970_to_9999_before_writing(tmp_path, capsys, start_day):
    cfg_path = write_config(tmp_path, start_day=start_day)  # two days
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"darkhunt: error: bad config {cfg_path}: "
        f"days must fall in 1970-01-01 to 9999-12-31, got 2 from {start_day}\n"
    )
    assert not out.exists()


def test_a_run_ending_on_9999_12_31_goes_through_every_command(tmp_path):
    cfg_path = write_config(tmp_path, start_day="9999-12-31",
                            crackonosh={"population": [40], "always_on_fraction": 1.0})
    sim = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(sim)]) == 0
    assert (sim / "labels.csv").read_text().splitlines()[1].startswith("9999-12-31,")
    traffic = ["--csv", str(sim / "traffic.csv")]
    labels = ["--labels", str(sim / "labels.csv"), "--window", "15m"]
    assert main(["analyze", *traffic, *labels, "--out", str(tmp_path / "a")]) == 0
    telescope = ["--telescope", CONFIG["telescope"][0]]
    assert main(["population", *traffic, *telescope, "--out", str(tmp_path / "p")]) == 0


@pytest.mark.parametrize("document", [[5], dict(CONFIG, crackonosh=[5])], ids=["config", "crackonosh"])
def test_simulate_scale_on_a_config_that_is_not_an_object_exits_2(tmp_path, capsys, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(document))
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out), "--scale", "0.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"darkhunt: error: bad config {cfg_path}: ")
    assert err.endswith(" must be a JSON object\n") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "analyze", "population", "model table"])
def test_an_unwritable_out_exits_2(sim_dir, tmp_path, capsys, command):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"  # no directory can be made inside a regular file
    inputs = {
        "simulate": ["--config", str(write_config(tmp_path, crackonosh={"population": [5]}))],
        "analyze": ["--csv", str(sim_dir / "traffic.csv"), "--labels", str(sim_dir / "labels.csv")],
        "population": ["--csv", str(sim_dir / "traffic.csv"), "--telescope", CONFIG["telescope"][0]],
        "model table": [],
    }[command]
    assert main([*command.split(), *inputs, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("darkhunt: error: ") and str(out) in err and err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["analyze", "population"])
def test_a_closed_stdout_leaves_out_complete(sim_dir, tmp_path, capsys, command, unbuffered):
    # As with `| head -c 0`: the reader closes stdout before the command
    # prints.  It exits 0 with no error line, and --out holds what a
    # normal run writes, byte for byte.
    inputs = {
        "analyze": ["--labels", str(sim_dir / "labels.csv")],
        "population": ["--telescope", CONFIG["telescope"][0]],
    }[command]

    def argv(out):
        return [command, "--csv", str(sim_dir / "traffic.csv"), *inputs, "--out", str(out)]

    assert main(argv(tmp_path / "whole")) == 0
    assert capsys.readouterr().out
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    child = [sys.executable, "-m", "darkhunt.cli", *argv(tmp_path / "closed")]
    proc = subprocess.Popen(child, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0 and err == b""
    whole = sorted(p.name for p in (tmp_path / "whole").iterdir())
    assert "manifest.json" in whole
    assert sorted(p.name for p in (tmp_path / "closed").iterdir()) == whole
    for name in whole:
        assert (tmp_path / "closed" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()


def test_usage_error_exits_1(monkeypatch):
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--out", "somewhere"])  # missing --config
    assert exc_info.value.code == 1
    # The script's entry too, which then leaves the collector as it is.
    monkeypatch.setattr(sys, "argv", ["darkhunt", "simulate", "--out", "somewhere"])
    with pytest.raises(SystemExit) as exc_info:
        cli.run()
    assert exc_info.value.code == 1 and gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv, code", [(["model", "table"], 0), (["simulate", "--config", "missing.json", "--out", "out"], 2)]
)
def test_run_returns_mains_code_and_then_freezes_the_collector(tmp_path, monkeypatch, capsys, argv, code):
    # The script's entry freezes the collector once main() has returned;
    # main() itself leaves it as it is.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["darkhunt", *argv])
    assert gc.get_freeze_count() == 0
    try:
        assert main(argv) == code and gc.get_freeze_count() == 0
        assert cli.run() == code and gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()


@pytest.mark.parametrize("command", ["analyze", "population"])
def test_the_module_entry_writes_what_main_writes(sim_dir, tmp_path, capsys, command):
    inputs = {
        "analyze": ["--labels", str(sim_dir / "labels.csv")],
        "population": ["--telescope", CONFIG["telescope"][0]],
    }[command]

    def argv(out):
        return [command, "--csv", str(sim_dir / "traffic.csv"), *inputs, "--out", str(out)]

    assert main(argv(tmp_path / "main")) == 0
    out = capsys.readouterr().out
    proc = subprocess.run([sys.executable, "-m", "darkhunt.cli", *argv(tmp_path / "module")],
                          capture_output=True, timeout=300)
    assert (proc.returncode, proc.stderr, proc.stdout.decode()) == (0, b"", out)
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert sorted(p.name for p in (tmp_path / "module").iterdir()) == names
    for name in names:
        assert (tmp_path / "module" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


# ------------------------------------------------------------------- analyze

def test_analyze_reports(sim_dir, tmp_path):
    out = tmp_path / "rep"
    assert main([
        "analyze",
        "--csv", str(sim_dir / "traffic.csv"),
        "--labels", str(sim_dir / "labels.csv"),
        "--out", str(out),
    ]) == 0
    for metric in ("address_count", "block_count", "src_spread", "size_entropy"):
        path = out / f"report_{metric}.csv"
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "day,metric,score,rank"
    disc = json.loads((out / "discoverability.json").read_text())
    assert disc["size_entropy"]["score"] == 1.0
    assert (out / "manifest.json").exists()


def test_analyze_top_n_monotone(sim_dir, tmp_path):
    scores = {}
    for n in (1, 100):
        out = tmp_path / f"rep{n}"
        assert main([
            "analyze",
            "--csv", str(sim_dir / "traffic.csv"),
            "--labels", str(sim_dir / "labels.csv"),
            "--out", str(out),
            "--top-n", str(n),
            "--metrics", "address_count",
        ]) == 0
        scores[n] = json.loads((out / "discoverability.json").read_text())[
            "address_count"
        ]["score"]
    assert scores[1] <= scores[100]


def test_analyze_window_15m(sim_dir, tmp_path):
    out = tmp_path / "repw"
    assert main([
        "analyze",
        "--csv", str(sim_dir / "traffic.csv"),
        "--labels", str(sim_dir / "labels.csv"),
        "--out", str(out),
        "--window", "15m",
        "--metrics", "size_entropy",
    ]) == 0
    rows = (out / "report_size_entropy.csv").read_text().splitlines()
    assert len(rows) > 2 * 24 * 4 * 0.5  # most 15-minute windows have traffic
    assert rows[1].startswith("2024-01-01T00:")


def test_analyze_partitions_once_for_all_metrics(sim_dir, tmp_path, monkeypatch):
    calls = []
    segment = ranking.segment_by_window

    def counting(*args, **kwargs):
        calls.append(args[1:])
        return segment(*args, **kwargs)

    monkeypatch.setattr(ranking, "segment_by_window", counting)
    assert main([
        "analyze",
        "--csv", str(sim_dir / "traffic.csv"),
        "--labels", str(sim_dir / "labels.csv"),
        "--out", str(tmp_path / "rep"),
        "--window", "3h",
    ]) == 0
    # Once per UTC day of the CSV, never once per metric.
    days = [day for day, _ in read_days(sim_dir / "traffic.csv")]
    assert calls == [(timedelta(hours=3),)] * len(days)
    for metric in ("address_count", "block_count", "src_spread", "size_entropy"):
        assert (tmp_path / "rep" / f"report_{metric}.csv").exists()


def test_analyze_empty_csv_no_partial_reports(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text(CSV_HEADER + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("day,port\n2024-01-01,50000\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--csv", str(empty), "--labels", str(labels), "--out", str(out)]) == 2
    assert not out.exists()


def test_analyze_without_udp_no_partial_reports(tmp_path, capsys):
    # Records, but none of them UDP: there is no period to rank.
    traffic = tmp_path / "tcp.csv"
    traffic.write_text(CSV_HEADER + "\n1704067200000000,1.2.3.4,50000,10.0.0.1,50000,6,0\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("day,port\n2024-01-01,50000\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--csv", str(traffic), "--labels", str(labels), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{traffic}: no UDP traffic" in capsys.readouterr().err


UDP_ROW = "1704067200000000,1.2.3.4,50000,10.0.0.1,50000,17,0"


@pytest.mark.parametrize(
    "row",
    ["junk", UDP_ROW.replace(",50000,", ",+50000,", 1), UDP_ROW.replace(",50000,", ",,", 1)],
)
def test_analyze_malformed_csv_prints_one_error_line(tmp_path, row):
    # A fresh interpreter showing every warning: the reader's rejection
    # reaches stderr as the one error line and nothing else.
    traffic = tmp_path / "bad.csv"
    traffic.write_text(CSV_HEADER + "\n" + UDP_ROW + "\n" + row + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("day,port\n2024-01-01,50000\n")
    out = tmp_path / "rep"
    argv = ["analyze", "--csv", str(traffic), "--labels", str(labels), "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-W", "always", "-m", "darkhunt.cli", *argv], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr.startswith(f"darkhunt: error: {traffic}: line 3: ")
    assert run.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "population"])
def test_a_day_that_goes_back_prints_one_error_line(tmp_path, command):
    traffic = tmp_path / "unsorted.csv"
    next_day = UDP_ROW.replace("1704067200", "1704153600", 1)
    traffic.write_text(CSV_HEADER + "\n" + "\n".join([UDP_ROW, next_day, UDP_ROW]) + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("day,port\n2024-01-01,50000\n2024-01-02,50000\n")
    out = tmp_path / "out"
    inputs = {"analyze": ["--labels", str(labels)], "population": ["--telescope", "10.0.0.0/24"]}
    argv = [command, "--csv", str(traffic), *inputs[command], "--out", str(out)]
    run = subprocess.run(
        [sys.executable, "-W", "always", "-m", "darkhunt.cli", *argv], capture_output=True, text=True
    )
    assert run.returncode == 2
    assert run.stderr == (
        f"darkhunt: error: {traffic}: line 4: ts_us: "
        "day 2024-01-01 after day 2024-01-02: days must not go back\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "population"])
def test_a_day_after_9999_12_31_prints_one_error_line(tmp_path, capsys, command):
    traffic = tmp_path / "late.csv"
    last = UDP_ROW.replace("1704067200000000", "253402300799999999", 1)
    late = UDP_ROW.replace("1704067200000000", "253402300800000000", 1)
    traffic.write_text(CSV_HEADER + "\n" + "\n".join([last, late]) + "\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("day,port\n9999-12-31,50000\n")
    out = tmp_path / "out"
    inputs = {"analyze": ["--labels", str(labels)], "population": ["--telescope", "10.0.0.0/24"]}
    assert main([command, "--csv", str(traffic), *inputs[command], "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"darkhunt: error: {traffic}: line 3: ts_us: 253402300800000000 is after 9999-12-31, the last day\n"
    )
    assert not out.exists()


def test_rows_in_any_order_within_a_day_give_the_same_outputs(sim_dir, tmp_path):
    table = np.concatenate([table for _, table in read_days(sim_dir / "traffic.csv")])
    days = table["ts_us"] // US_PER_DAY
    # Days stay in order; rows within each day are shuffled.
    order = np.lexsort((np.random.default_rng(5).permutation(len(table)), days))
    shuffled = tmp_path / "shuffled.csv"
    write_csv_tables([np.take(table, order)], shuffled)
    assert shuffled.read_bytes() != (sim_dir / "traffic.csv").read_bytes()
    outputs = []
    for traffic in (sim_dir / "traffic.csv", shuffled):
        out = tmp_path / traffic.stem
        labels = ["--labels", str(sim_dir / "labels.csv"), "--window", "15m"]
        assert main(["analyze", "--csv", str(traffic), *labels, "--out", str(out / "a")]) == 0
        telescope = ["--telescope", CONFIG["telescope"][0]]
        assert main(["population", "--csv", str(traffic), *telescope, "--out", str(out / "p")]) == 0
        # Manifests name the input file, so only the reports are compared.
        outputs.append({
            f.relative_to(out): f.read_bytes() for f in out.rglob("*.*") if f.name != "manifest.json"
        })
    assert len(outputs[0]) == 8 and outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("simulate", "--scale", "inf"),
        ("simulate", "--scale", "nan"),
        ("simulate", "--scale", "-1"),
        ("analyze", "--top-n", "0"),
        ("population", "--bandwidth", "0"),
        ("population", "--bandwidth", "-1"),
        ("population", "--bandwidth", "nan"),
        ("population", "--bandwidth", "inf"),
        ("model table", "--rate", "nan"),
        ("model table", "--duration", "inf"),
        ("model time-to-entropy", "--rate", "inf"),
        # /N is ASCII digits without a leading zero, as in the CSV grammar.
        ("model time-to-entropy", "--size", "/+22"),
        ("model time-to-entropy", "--size", "/ 22"),
        ("model time-to-entropy", "--size", "/2_2"),
        ("model time-to-entropy", "--size", "/\u0662\u0662"),  # Arabic-Indic 22
        ("model time-to-entropy", "--size", "/022"),
        ("model table", "--prefixes", "\u0662\u0662"),
        ("model table", "--prefixes", "//22"),
        ("model table", "--prefixes", "/022"),
    ],
)
def test_bad_arguments_write_no_output(sim_dir, tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    three_epoch = {"population": {"schedule": "three_epoch", "scale": 0.001}}
    inputs = {
        "simulate": ["--config", str(write_config(tmp_path, crackonosh=three_epoch))],
        "analyze": ["--csv", str(sim_dir / "traffic.csv"), "--labels", str(sim_dir / "labels.csv")],
        "population": ["--csv", str(sim_dir / "traffic.csv"), "--telescope", CONFIG["telescope"][0]],
        "model table": [],
        "model time-to-entropy": ["--size", "/22", "--hosts", "3000"],
    }[command]
    assert main([*command.split(), *inputs, "--out", str(out), flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("darkhunt: error: ") and err.count("\n") == 1
    assert not out.exists()


def test_analyze_unlabeled_days_listed(sim_dir, tmp_path, capsys):
    labels = tmp_path / "short_labels.csv"
    lines = (sim_dir / "labels.csv").read_text().splitlines()
    labels.write_text("\n".join(lines[:-1]) + "\n")  # drop the last day
    out = tmp_path / "rep"
    code = main([
        "analyze",
        "--csv", str(sim_dir / "traffic.csv"),
        "--labels", str(labels),
        "--out", str(out),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "unlabeled days" in err and "2024-01-02" in err


def test_simulate_then_analyze_with_a_row_at_the_last_days_end(tmp_path, monkeypatch):
    # A last-day noise offset of exactly 86400 s floors to the next day's
    # first microsecond; simulate keeps it in its own day, so analyze
    # finds every day of simulate's own CSV labeled.
    from darkhunt import sim

    noise_day = sim._noise_day

    def late_noise(config, day_idx):
        part = noise_day(config, day_idx)
        rows = yield next(part)
        with pytest.raises(StopIteration):
            part.send(rows)
        if day_idx + 1 == config.days:
            sim._store_ts(rows[:1], day_start_us(config.start_day + timedelta(days=day_idx)), np.array([86400.0]))

    monkeypatch.setattr(sim, "_noise_day", late_noise)
    cfg_path = write_config(tmp_path, crackonosh={"population": [8, 8], "always_on_fraction": 1.0},
                            background="none", noise_ports_per_day=5)
    run, rep = tmp_path / "run", tmp_path / "rep"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(run)]) == 0
    argv = ["analyze", "--csv", str(run / "traffic.csv"), "--labels", str(run / "labels.csv"), "--out", str(rep)]
    assert main(argv) == 0
    *_, (last_day, last) = read_days(run / "traffic.csv")
    assert last.ts_us.max() == day_start_us(last_day) + US_PER_DAY - 1


@pytest.mark.parametrize(
    "extra,message",
    [
        ("2024-01-01,70000", "port out of range"),
        ("2024-01-01,5", "listed twice"),
        # Forms that int() or a newer date.fromisoformat accept.
        ("2024-01-03,+5", "port: not an unsigned decimal integer: '+5'"),
        ("2024-01-03, 5", "port: not an unsigned decimal integer: ' 5'"),
        ("2024-01-03,٥", "port: not an unsigned decimal integer: '٥'"),
        ("2024-01-03,5_0", "port: not an unsigned decimal integer: '5_0'"),
        ("2024-01-03,05", "port: not an unsigned decimal integer: '05'"),
        ("20240103,5", "day: not a YYYY-MM-DD date: '20240103'"),
        ("2024-W01-3,5", "day: not a YYYY-MM-DD date: '2024-W01-3'"),
        # Whitespace is not stripped: only the line's LF ends it.
        ("2024-01-03,5\r", "port: not an unsigned decimal integer: '5\\r'"),
        (" 2024-01-03,5", "day: not a YYYY-MM-DD date: ' 2024-01-03'"),
        ("2024-01-03,5\t", "port: not an unsigned decimal integer: '5\\t'"),
        ("  ", "labels line 4: expected 2 fields, got 1"),
        ("2024-01-03,5,6", "labels line 4: expected 2 fields, got 3"),
    ],
)
def test_analyze_rejects_a_bad_labels_line(sim_dir, tmp_path, monkeypatch, capsys, extra, message):
    labels = tmp_path / "bad_labels.csv"
    labels.write_text((sim_dir / "labels.csv").read_text() + extra + "\n")

    def unread(path):
        raise AssertionError("the CSV is read before the labels are checked")

    monkeypatch.setattr(cli, "read_days", unread)
    out = tmp_path / "rep"
    argv = ["analyze", "--csv", str(sim_dir / "traffic.csv"), "--labels", str(labels), "--out", str(out)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"darkhunt: error: cannot read labels {labels}: labels line 4: ")
    assert message in err
    assert not out.exists()


def test_analyze_15m_denominator_counts_only_windows_with_traffic(tmp_path, capsys):
    # A window without traffic writes no row and leaves D_n's denominator;
    # a window with traffic but a silent labeled port counts as a miss.
    quarter = 15 * 60 * 1_000_000
    def packets(window, port):
        return [(window * quarter + i, 0x01020300 + i, 50000, 0x0A000001, port, 17, 100 + i)
                for i in range(3)]
    records = packets(0, 51234) + packets(1, 5060) + packets(40, 51234)
    csv_path = tmp_path / "t.csv"
    write_csv_tables([traffic_table(records)], csv_path)
    labels = tmp_path / "labels.csv"
    labels.write_text("day,port\n1970-01-01,51234\n")
    out = tmp_path / "rep"
    assert main(["analyze", "--csv", str(csv_path), "--labels", str(labels),
                 "--out", str(out), "--window", "15m"]) == 0
    assert "size_entropy: D_100 = 0.667 over 3 periods" in capsys.readouterr().out
    for metric, report in json.loads((out / "discoverability.json").read_text()).items():
        assert report["score"] == 2 / 3, metric
        assert report["per_day_rank"] == {
            "1970-01-01T00:00:00+00:00": 1,
            "1970-01-01T00:15:00+00:00": None,
            "1970-01-01T10:00:00+00:00": 1,
        }
        rows = (out / f"report_{metric}.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 and rows[2].endswith(",,")


# An empty --metrics names one empty metric, as "address_count," does;
# it once ran all four.
@pytest.mark.parametrize("metrics", ["nonsense", ""])
def test_analyze_unknown_metric(sim_dir, tmp_path, capsys, metrics):
    assert main([
        "analyze",
        "--csv", str(sim_dir / "traffic.csv"),
        "--labels", str(sim_dir / "labels.csv"),
        "--out", str(tmp_path / "rep"),
        "--metrics", metrics,
    ]) == 2
    assert f"unknown metric {metrics!r}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_analyze_repeated_metric_exits_2_before_reading_the_csv(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    out = tmp_path / "rep"
    argv = ["analyze", "--csv", str(missing), "--labels", str(missing), "--out", str(out)]
    assert main([*argv, "--metrics", "address_count,size_entropy,address_count"]) == 2
    assert capsys.readouterr().err == "darkhunt: error: metric 'address_count' given twice in --metrics\n"
    assert not out.exists()


# -------------------------------------------------------------------- model

def test_model_table_stdout(capsys):
    assert main(["model", "table"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "size,p_collision,p_observe,expected_packets"
    cells = {row.split(",")[0]: row.split(",")[1:] for row in out[1:]}
    assert cells["/22"] == ["2.38e-07", "0.186", "0.206"]
    assert cells["/16"][2] == "13.2"


def test_model_table_out_dir(tmp_path):
    out = tmp_path / "tbl"
    assert main(["model", "table", "--out", str(out)]) == 0
    assert (out / "table.csv").exists() and (out / "manifest.json").exists()


def test_model_table_bad_prefix(capsys):
    assert main(["model", "table", "--prefixes", "/40"]) == 2


def test_model_coverage(capsys):
    assert main(["model", "coverage", "--size", "/16", "--target", "0.95"]) == 0
    assert capsys.readouterr().out.strip() == "1"
    assert main(["model", "coverage", "--size", "/22", "--target", "0.95"]) == 0
    assert capsys.readouterr().out.strip() == "15"


def test_model_time_to_entropy(capsys):
    assert main([
        "model", "time-to-entropy", "--size", "/22", "--hosts", "3000",
        "--rate", "10", "--packets", "128",
    ]) == 0
    rows = capsys.readouterr().out.splitlines()
    size, rate, seconds, hours = rows[1].split(",")
    assert size == "/22"
    assert float(seconds) == pytest.approx(17895.7, rel=1e-3)
    assert float(hours) == pytest.approx(4.97, abs=0.01)


def test_model_time_to_entropy_curve(capsys):
    assert main([
        "model", "time-to-entropy", "--size", "/24", "--size", "/22", "--size", "/20", "--hosts", "1000",
    ]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4
    seconds = [float(r.split(",")[2]) for r in rows[1:]]
    assert seconds == sorted(seconds, reverse=True)  # bigger telescope, faster


def test_model_time_to_entropy_needs_a_size(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["model", "time-to-entropy", "--hosts", "1000"])
    assert exc_info.value.code == 1
    assert "the following arguments are required: --size" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["model", "table"], "table.csv"),
        (["model", "time-to-entropy", "--hosts", "100", "--size", "/22"], "time_to_entropy.csv"),
        # A CIDR list holds commas, so its field is quoted, on stdout too.
        (["model", "time-to-entropy", "--hosts", "100", "--size", "10.0.0.0/24,10.0.1.0/24"], "time_to_entropy.csv"),
        (["model", "time-to-entropy", "--hosts", "100", "--size", "/24", "--size", "/20"], "time_to_entropy.csv"),
    ],
)
def test_model_stdout_is_the_out_file(tmp_path, capsys, argv, name):
    assert main(argv) == 0
    shown = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    # print() ends the shown table with the file's final LF.
    assert shown == (tmp_path / name).read_text()


def test_model_bad_cidr_exits_2(capsys):
    assert main(["model", "coverage", "--size", "not-a-cidr", "--target", "0.5"]) == 2


@pytest.mark.parametrize(
    "argv, named",
    [
        # Finite inputs whose products overflow a float: no answer is made from inf.
        ("time-to-entropy --size /22 --hosts 3000 --rate 1e308", "host_count 3000, rate_pps 1e+308"),
        ("time-to-entropy --size /22 --hosts 3000 --rate 1e-320", "visible_rate_pps 5e-324"),
        (f"time-to-entropy --size /22 --hosts {10**400}", f"host_count {10**400}"),
        ("coverage --size /22 --target 0.5 --rate 1e-320", "rate_pps 1e-320"),
        ("table --rate 1e308 --duration 1e10", "rate_pps 1e+308, duration_s 10000000000.0"),
    ],
    ids=["tte-huge-rate", "tte-tiny-rate", "tte-huge-hosts", "coverage-tiny-rate", "table-huge-rate"],
)
def test_model_refuses_an_answer_that_is_not_finite(tmp_path, monkeypatch, capsys, argv, named):
    monkeypatch.chdir(tmp_path)
    out = ["--out", "out"] if argv.split()[0] != "coverage" else []  # coverage has no --out
    assert main(["model", *argv.split(), *out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("darkhunt: error: ") and captured.err.count("\n") == 1
    assert named in captured.err and "is not a finite number" in captured.err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, shown",
    [
        # rate * duration overflows, but the answers saturate: seen for certain, in 1 day.
        ("table --rate 1e300 --duration 1e10", "/16,1.53e-05,1,1.53e+305\n"),
        ("coverage --size /22 --target 0.5 --rate 1e304", "1\n"),
    ],
    ids=["table", "coverage"],
)
def test_model_keeps_answers_that_saturate(capsys, argv, shown):
    assert main(["model", *argv.split()]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith(shown) and captured.err == ""


# ---------------------------------------------------------------- population

@pytest.fixture(scope="module")
def always_on_run(tmp_path_factory):
    """60 always-on hosts at 10 pps against an 8.4M-address telescope."""
    root = tmp_path_factory.mktemp("always_on")
    cfg = {
        "seed": 33,
        "start_day": "2024-01-01",
        "telescope": ["10.0.0.0/9"],
        "secret": "pop-test",
        "crackonosh": {"population": [60], "always_on_fraction": 1.0},
    }
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run = root / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(run)]) == 0
    return run


def test_population_round_trip_rate(always_on_run, tmp_path):
    # The density peak must map back to ~10 pps.
    out = tmp_path / "pop"
    assert main([
        "population", "--csv", str(always_on_run / "traffic.csv"),
        "--telescope", "10.0.0.0/9", "--out", str(out),
    ]) == 0
    payload = json.loads((out / "peaks.json").read_text())
    rates = payload["peaks_pps"]
    assert len(rates) >= 1
    assert min(rates, key=lambda r: abs(r - 10)) == pytest.approx(10.0, abs=0.5)
    assert (out / "density.csv").exists()
    always = json.loads((out / "always_on.json").read_text())
    assert always["2024-01-01"]["always_on_count"] == 60


@pytest.mark.parametrize(
    "bandwidth, message",
    [
        ("1e-320", "--bandwidth 1e-320: the density over samples 1586 to 1797 is not finite at this bandwidth"),
        # A kernel far wider than the samples has its flat top's middle below zero.
        ("1e300", "--bandwidth 1e+300: r must be >= 0, got -1.17416829745"),
    ],
    ids=["narrow", "wide"],
)
def test_population_refuses_a_bandwidth_the_density_cannot_take(always_on_run, tmp_path, capsys, bandwidth, message):
    # Under the suite's warnings-as-errors, a numpy warning would fail the
    # test before any exit code.
    out = tmp_path / "pop"
    argv = ["population", "--csv", str(always_on_run / "traffic.csv"), "--telescope", "10.0.0.0/9"]
    assert main([*argv, "--out", str(out), "--bandwidth", bandwidth]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"darkhunt: error: {message}")
    assert captured.err.count("\n") == 1 and not out.exists()


def test_population_says_when_the_density_has_no_peak(always_on_run, tmp_path, capsys):
    # 1e-5 packets/day puts every kernel between grid points: the density
    # is finite but nowhere above its floor.
    out = tmp_path / "pop"
    argv = ["population", "--csv", str(always_on_run / "traffic.csv"), "--telescope", "10.0.0.0/9"]
    assert main([*argv, "--out", str(out), "--bandwidth", "1e-5"]) == 0
    assert capsys.readouterr().out == "60 always-on host-days; no density peak\n"
    assert json.loads((out / "peaks.json").read_text())["peaks_packets_per_day"] == []
    assert sorted(p.name for p in out.iterdir()) == ["always_on.json", "density.csv", "manifest.json", "peaks.json"]


def test_population_does_not_import_numpy_ma(always_on_run, tmp_path):
    # np.percentile imports numpy.ma (about 20 ms) on first use; the
    # bandwidth of a run's always-on sample needs no such import.  (numpy
    # before 2.0 imports numpy.ma with numpy itself.)
    script = (
        "import sys\nfrom darkhunt.cli import main\nbefore = 'numpy.ma' in sys.modules\n"
        "print(main(sys.argv[1:]), before, 'numpy.ma' in sys.modules)"
    )
    out = tmp_path / "pop"
    argv = ["population", "--csv", str(always_on_run / "traffic.csv"), "--telescope", "10.0.0.0/9", "--out", str(out)]
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True)
    code, before, after = run.stdout.splitlines()[-1].split()
    assert (code, after) == ("0", before), run.stderr
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert after == "False"
    assert len(json.loads((out / "peaks.json").read_text())["peaks_packets_per_day"]) >= 1


def test_population_zero_always_on_is_ok(sim_dir, tmp_path, capsys):
    # The /18 run has no always-on crackonosh hosts and only one single-
    # source background scanner; restrict to a telescope slice that the
    # scanner rarely hits to get a truly empty report.
    out = tmp_path / "pop"
    code = main([
        "population", "--csv", str(sim_dir / "traffic.csv"),
        "--telescope", "10.0.63.0/24", "--out", str(out),
    ])
    assert code == 0
    always = json.loads((out / "always_on.json").read_text())
    assert all(day["always_on_count"] == 0 for day in always.values())
    assert not (out / "density.csv").exists()


def test_population_malformed_cidr(sim_dir, tmp_path):
    assert main([
        "population", "--csv", str(sim_dir / "traffic.csv"),
        "--telescope", "999.0.0.0/8", "--out", str(tmp_path / "pop"),
    ]) == 2


def _packet(ts_us, dst_ip, proto=17, src_ip=0x01020304):
    return (ts_us, src_ip, 50000, dst_ip, 51234, proto, 100)


DAY_US = 86_400_000_000
BIN_US = DAY_US // 144
INSIDE = 0x0A000001  # 10.0.0.1
OUTSIDE = 0xC0000201  # 192.0.2.1


def test_population_skips_days_without_telescope_traffic(tmp_path, capsys):
    # Day 0 has traffic only outside the telescope; day 1 only non-UDP
    # rows inside it; day 2 has an always-on source inside it.  Days 0
    # and 1 are skipped, not fatal.
    records = [_packet(i * BIN_US, OUTSIDE) for i in range(144)]
    records += [_packet(DAY_US + i * BIN_US, INSIDE, proto=6) for i in range(144)]
    records += [_packet(2 * DAY_US + i * BIN_US, INSIDE) for i in range(144)]
    csv_path = tmp_path / "t.csv"
    write_csv_tables([traffic_table(records)], csv_path)
    out = tmp_path / "pop"
    assert main(["population", "--csv", str(csv_path), "--telescope", "10.0.0.0/24", "--out", str(out)]) == 0
    always = json.loads((out / "always_on.json").read_text())
    assert list(always) == ["1970-01-03"]
    assert always["1970-01-03"]["always_on_count"] == 1


def test_population_without_udp_inside_telescope_names_it(tmp_path, capsys):
    # Outside-telescope UDP and inside-telescope TCP: nothing to analyze.
    records = [_packet(i * BIN_US, OUTSIDE) for i in range(144)]
    records += [_packet(DAY_US + i * BIN_US, INSIDE, proto=6) for i in range(144)]
    csv_path = tmp_path / "t.csv"
    write_csv_tables([traffic_table(records)], csv_path)
    code = main(["population", "--csv", str(csv_path), "--telescope", "10.0.0.0/24", "--out", str(tmp_path / "pop")])
    assert code == 2
    assert "no UDP traffic inside telescope 10.0.0.0/24" in capsys.readouterr().err


def test_population_ignores_tcp_only_sources(tmp_path, capsys):
    udp = [_packet(i * BIN_US, INSIDE) for i in range(144)]
    tcp = [_packet(i * BIN_US + 1, INSIDE, proto=6, src_ip=0x05060708) for i in range(144)]
    csv_path = tmp_path / "t.csv"
    write_csv_tables([traffic_table(udp + tcp)], csv_path)
    out = tmp_path / "pop"
    assert main(["population", "--csv", str(csv_path), "--telescope", "10.0.0.0/24", "--out", str(out)]) == 0
    day = json.loads((out / "always_on.json").read_text())["1970-01-01"]
    assert day == {"always_on_count": 1, "daily_packets": {str(0x01020304): 144}}


# -------------------------------------------------------------------- memory

@pytest.fixture(scope="module")
def day_runs(tmp_path_factory):
    """Simulated runs of 2 and 8 days with the same population each day."""
    root = tmp_path_factory.mktemp("days")
    runs = {}
    for days in (2, 8):
        cfg = write_config(root, telescope=["10.0.0.0/18"],
                           crackonosh={"population": [3000] * days, "always_on_fraction": 0.5})
        runs[days] = root / f"run{days}"
        assert main(["simulate", "--config", str(cfg), "--out", str(runs[days])]) == 0
    return runs


def test_analyze_and_population_memory_is_flat_in_days(day_runs, tmp_path):
    def argv(command, run):
        inputs = {"analyze": ["--labels", str(run / "labels.csv")], "population": ["--telescope", "10.0.0.0/18"]}
        return [command, "--csv", str(run / "traffic.csv"), *inputs[command], "--out", str(tmp_path / "out")]

    def peak(command, run):
        tracemalloc.start()
        try:
            assert main(argv(command, run)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for command in ("analyze", "population"):
        main(argv(command, day_runs[2]))  # first-use imports and tables are not counted
        two, eight = peak(command, day_runs[2]), peak(command, day_runs[8])
        assert eight <= 1.25 * two, (command, two, eight)


# ------------------------------------------------------------------- imports

# What a process has loaded once its code ran: every module name (not an
# import that a None in sys.modules blocks), and the dataclasses the
# package's loaded modules define.
_LOADED = """
import dataclasses, json, sys
print(json.dumps([
    sorted(name for name, module in sys.modules.items() if module is not None),
    sorted(
        cls.__name__
        for name, module in list(sys.modules.items())
        if name.startswith("darkhunt.")
        for cls in vars(module).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == name
    ),
]))
"""


# hashlib's builtin fallbacks; _sha2 (CPython 3.12+) holds what _sha256 and _sha512 did.
HASH_MODULES = ("_md5", "_sha1", "_sha2", "_sha256", "_sha512", "_blake2", "_sha3")


def run_blocks_openssl() -> bool:
    """Whether cli.run() keeps OpenSSL out here.

    It does when this build has every module hashlib falls back to without
    OpenSSL, and numpy (2.0+) imports numpy.random, which loads hashlib,
    only on first use, after run() has started.  numpy before 2.0 imports
    it with numpy itself, so with darkhunt.cli.
    """
    found = {name for name in HASH_MODULES if importlib.util.find_spec(name)}
    builtins = {"_md5", "_sha1", "_blake2", "_sha3"} <= found and ("_sha2" in found or {"_sha256", "_sha512"} <= found)
    return builtins and np.lib.NumpyVersion(np.__version__) >= "2.0.0"


ENTRIES = {
    "main": "import sys\nfrom darkhunt.cli import main\nassert main(sys.argv[1:]) == 0",
    "run": "from darkhunt import cli\nassert cli.run() == 0",
}


@pytest.mark.parametrize(
    "command, entry",
    [("package", None), ("cli", None)]
    + [(command, entry) for command in ("simulate", "analyze", "population") for entry in ENTRIES],
)
def test_each_command_loads_only_what_it_runs(command, entry, sim_dir, tmp_path):
    if entry is None:
        code, args = f"import {'darkhunt' if command == 'package' else 'darkhunt.cli'}", []
    else:
        code, args = ENTRIES[entry], {
            "simulate": ["--config", str(write_config(tmp_path))],
            "analyze": ["--csv", str(sim_dir / "traffic.csv"), "--labels", str(sim_dir / "labels.csv")],
            "population": ["--csv", str(sim_dir / "traffic.csv"), "--telescope", "10.0.0.0/18"],
        }[command]
        args = [command, *args, "--out", str(tmp_path / "out")]
    run = subprocess.run([sys.executable, "-c", code + _LOADED, *args], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    modules, data_classes = json.loads(run.stdout.splitlines()[-1])
    # scipy is a test dependency only.  (numpy's own submodules vary with its version.)
    assert not [m for m in modules if m.split(".")[0] == "scipy"]
    # Manifests hash with CPython's builtin sha256, so no command loads
    # hashlib's OpenSSL module (several MB resident) for them.  simulate's
    # numpy.random imports hashlib, whose OpenSSL only run() keeps out.
    if command == "simulate":
        builtin = entry == "run" and run_blocks_openssl()
    else:
        builtin = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
    if builtin:
        assert "_hashlib" not in modules
    if command == "package":
        assert not [m for m in modules if m.startswith("darkhunt.")]
        assert data_classes == []
    elif command == "simulate":
        assert {"darkhunt.sim", "darkhunt.portgen"} <= set(modules)
        assert data_classes == [
            "BackgroundScanner", "CrackonoshConfig", "DailyPortOracle", "ScanPopulation", "SimConfig", "TelescopeSpec",
        ]
    else:
        # Only simulate needs the simulator and the oracle.
        assert not [m for m in modules if m in ("darkhunt.sim", "darkhunt.portgen")]
        assert data_classes == ["ScanPopulation", "TelescopeSpec"]


# A fresh process that hides one module from every import, runs the CLI's
# script entry on argv or not at all, and then tries every hash hashlib
# guarantees: it prints whether OpenSSL's _hashlib is loaded and the
# hashes that work.
_HIDDEN = """
import json, sys

hidden, entry = sys.argv.pop(1), sys.argv.pop(1)


class Hiding:
    \"\"\"Finds what the interpreter's finders find, but the hidden module.\"\"\"

    def __init__(self, finders):
        self.finders = finders

    def find_spec(self, name, path=None, target=None):
        if name == hidden:
            return None
        return next(filter(None, (f.find_spec(name, path, target) for f in self.finders)), None)


sys.meta_path = [Hiding(list(sys.meta_path))]
sys.modules.pop(hidden, None)  # random, loaded at start-up, imports _sha512
if entry == "run":
    from darkhunt import cli

    assert cli.run() == 0
import hashlib

working = []
for name in sorted(hashlib.algorithms_guaranteed):
    try:
        hashlib.new(name, b"darkhunt")
    except ValueError:
        continue
    working.append(name)
print(json.dumps([sys.modules.get("_hashlib") is not None, working]))
"""


@pytest.mark.parametrize("hidden", [name for name in HASH_MODULES if importlib.util.find_spec(name)] + [None])
def test_run_keeps_openssl_only_for_a_missing_builtin_hash(hidden, tmp_path):
    # With every builtin there, run() blocks _hashlib and hashlib runs on
    # the builtins alone.  Hide one, and run() must leave _hashlib
    # importable: hashlib keeps every hash it has without the CLI, and
    # logs no "code for hash ... was not found" that it does not log
    # without the CLI (it logs one for blake2 whenever _blake2 is missing).
    def loaded(entry):
        argv = [sys.executable, "-c", _HIDDEN, str(hidden), entry, "model", "table", "--out", str(tmp_path)]
        run = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        return run.stderr, *json.loads(run.stdout.splitlines()[-1])

    alone_err, alone_openssl, alone_working = loaded("none")
    err, openssl, working = loaded("run")
    assert (err, working) == (alone_err, alone_working)
    assert openssl == (alone_openssl and not (hidden is None and run_blocks_openssl()))
    if hidden is None:
        assert err == "" and working == sorted(hashlib.algorithms_guaranteed)


def test_simulate_writes_the_same_bytes_without_openssl(tmp_path):
    # The script entry hashes with the builtins; main() in a process that
    # has imported hashlib first computes the oracle's HMAC with OpenSSL.
    cfg = write_config(tmp_path)
    openssl = importlib.util.find_spec("_hashlib") is not None
    entries = {
        "run": ("import sys\nfrom darkhunt import cli\ncode = cli.run()", openssl and not run_blocks_openssl()),
        "main": ("import hashlib, sys\nfrom darkhunt.cli import main\ncode = main(sys.argv[1:])", openssl),
    }
    for entry, (script, loads_openssl) in entries.items():
        script += "\nprint(code, sys.modules.get('_hashlib') is not None)"
        argv = [sys.executable, "-c", script, "simulate", "--config", str(cfg), "--out", str(tmp_path / entry)]
        run = subprocess.run(argv, capture_output=True, text=True, timeout=300)
        assert (run.stderr, run.stdout.splitlines()[-1]) == ("", f"0 {loads_openssl}")
    for name in ("traffic.csv", "labels.csv", "manifest.json"):
        assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()


# The package's public names, by defining module.
EXPORTS = {
    "metrics": ["METRIC_IDS", "size_entropy"],
    "population": ["AlwaysOnReport", "DensityProfile", "always_on", "density_profile", "estimate_rate",
                   "peaks_to_rates"],
    "portgen": ["DailyPortOracle"],
    "ranking": ["DiscoverabilityReport", "discoverability", "rank_of_labeled_port", "rank_ports"],
    "records": ["TRAFFIC_DTYPE", "CsvFormatError", "LabeledDataset", "PortDayPartition", "partition_by_day_port",
                "read_days", "traffic_table"],
    "sim": ["BackgroundScanner", "CrackonoshConfig", "SimConfig", "default_background", "simulate",
            "simulate_days", "three_epoch_schedule"],
    "telescope": ["ScanPopulation", "TelescopeSpec", "days_to_coverage", "expected_observed_hosts",
                  "expected_packets", "observability_table", "p_collision", "p_observe", "time_to_n_packets",
                  "visible_rate"],
}


def test_package_resolves_each_public_name_from_its_module():
    import darkhunt

    assert sorted(darkhunt.__all__) == sorted(name for names in EXPORTS.values() for name in names)
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"darkhunt.{module}")
        for name in names:
            assert getattr(darkhunt, name) is getattr(defining, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        darkhunt.no_such_name
    # A submodule is still importable from the package, though no name loads it first.
    code = (
        "import sys, darkhunt\nloaded = 'darkhunt.sim' in sys.modules\n"
        "from darkhunt import sim\nprint(loaded, sim.__name__)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.stdout.split() == ["False", "darkhunt.sim"], run.stderr
