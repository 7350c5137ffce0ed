import ipaddress
import json
import os
import subprocess
import sys
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest

from darkhunt import cli, ranking, records
from darkhunt.cli import main
from darkhunt.records import CSV_HEADER, US_PER_DAY, read_csv, traffic_table, write_csv_tables

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


def test_simulate_rejects_out_of_range_background_size(tmp_path, capsys):
    scanner = {"service_port": 53, "source_mode": "single", "rate_pps": 0.01,
               "sizes": [70000], "size_probs": [1.0]}
    cfg_path = write_config(tmp_path, background=[scanner])
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "modal sizes must be within 0-65507" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "crackonosh",
    [
        {"population": [8], "always_on_fracton": 0.5},  # misspelled key
        {"population": [8], "rate_pps": "fast"},  # wrong-typed value
    ],
)
def test_simulate_config_type_error_exits_2(tmp_path, capsys, crackonosh):
    cfg_path = write_config(tmp_path, crackonosh=crackonosh)
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"darkhunt: error: bad config {cfg_path}: ")
    assert err.count("\n") == 1
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


def test_usage_error_exits_1():
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--out", "somewhere"])  # missing --config
    assert exc_info.value.code == 1


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
    days = np.unique(read_csv(sim_dir / "traffic.csv")["ts_us"] // US_PER_DAY)
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
    table = read_csv(sim_dir / "traffic.csv")
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
        ("analyze", "--top-n", "0"),
        ("population", "--bandwidth", "0"),
        ("population", "--bandwidth", "-1"),
        ("population", "--bandwidth", "nan"),
        ("population", "--bandwidth", "inf"),
    ],
)
def test_bad_arguments_write_no_output(sim_dir, tmp_path, command, flag, value):
    out = tmp_path / "out"
    inputs = {
        "analyze": ["--labels", str(sim_dir / "labels.csv")],
        "population": ["--telescope", CONFIG["telescope"][0]],
    }[command]
    argv = [command, "--csv", str(sim_dir / "traffic.csv"), *inputs, "--out", str(out), flag, value]
    assert main(argv) == 2
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


@pytest.mark.parametrize(
    "extra,message", [("2024-01-01,70000", "port out of range"), ("2024-01-01,5", "listed twice")]
)
def test_analyze_rejects_a_bad_labels_line(sim_dir, tmp_path, capsys, extra, message):
    labels = tmp_path / "bad_labels.csv"
    labels.write_text((sim_dir / "labels.csv").read_text() + extra + "\n")
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


def test_analyze_unknown_metric(sim_dir, tmp_path):
    assert main([
        "analyze",
        "--csv", str(sim_dir / "traffic.csv"),
        "--labels", str(sim_dir / "labels.csv"),
        "--out", str(tmp_path / "rep"),
        "--metrics", "nonsense",
    ]) == 2


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
        "model", "time-to-entropy", "--sizes", "/24,/22,/20", "--hosts", "1000",
    ]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4
    seconds = [float(r.split(",")[2]) for r in rows[1:]]
    assert seconds == sorted(seconds, reverse=True)  # bigger telescope, faster


def test_model_bad_cidr_exits_2(capsys):
    assert main(["model", "coverage", "--size", "not-a-cidr", "--target", "0.5"]) == 2


# ---------------------------------------------------------------- population

def test_population_round_trip_rate(tmp_path):
    # 60 always-on hosts at 10 pps against an 8.4M-address telescope: the
    # density peak must map back to ~10 pps.
    cfg = {
        "seed": 33,
        "start_day": "2024-01-01",
        "telescope": ["10.0.0.0/9"],
        "secret": "pop-test",
        "crackonosh": {"population": [60], "always_on_fraction": 1.0},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(run)]) == 0
    out = tmp_path / "pop"
    assert main([
        "population", "--csv", str(run / "traffic.csv"),
        "--telescope", "10.0.0.0/9", "--out", str(out),
    ]) == 0
    payload = json.loads((out / "peaks.json").read_text())
    rates = payload["peaks_pps"]
    assert len(rates) >= 1
    assert min(rates, key=lambda r: abs(r - 10)) == pytest.approx(10.0, abs=0.5)
    assert (out / "density.csv").exists()
    always = json.loads((out / "always_on.json").read_text())
    assert always["2024-01-01"]["always_on_count"] == 60


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
    # Day 0 has traffic only outside the telescope; day 1 has an always-on
    # source inside it.  Day 0 is skipped, not fatal.
    records = [_packet(i * BIN_US, OUTSIDE) for i in range(144)]
    records += [_packet(DAY_US + i * BIN_US, INSIDE) for i in range(144)]
    csv_path = tmp_path / "t.csv"
    write_csv_tables([traffic_table(records)], csv_path)
    out = tmp_path / "pop"
    assert main(["population", "--csv", str(csv_path), "--telescope", "10.0.0.0/24", "--out", str(out)]) == 0
    always = json.loads((out / "always_on.json").read_text())
    assert list(always) == ["1970-01-02"]
    assert always["1970-01-02"]["always_on_count"] == 1


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


def test_analyze_and_population_memory_is_flat_in_days(day_runs, tmp_path, monkeypatch):
    def whole_file_read(path):
        raise AssertionError("read_csv reads the whole file")

    monkeypatch.setattr(records, "read_csv", whole_file_read)
    monkeypatch.setattr(cli, "read_csv", whole_file_read, raising=False)

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

def test_cli_import_loads_no_scipy():
    code = "import sys, darkhunt.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
