"""Byte goldens for every CLI output on two small fixed configs.

Each command runs in-process; every file it writes and everything it
prints is hashed with sha256 after the run's temporary directory is
replaced by `<tmp>` (manifests and messages carry absolute paths).  A
refactor that changes any output byte changes a hash here.

The hashes pin this numpy's float formatting and RNG streams; an
intended output change must update them in the same commit and say why.
"""

import hashlib
import json

import pytest

from darkhunt.cli import main

# Desk-like: a /20 with a little background and noise, ranked per day.
# Hosts are seen about once a day, so population finds no always-on host.
DESK = {
    "seed": 11,
    "start_day": "2024-03-01",
    "telescope": ["10.0.0.0/20"],
    "secret": "golden-desk",
    "crackonosh": {"population": [300, 200], "always_on_fraction": 0.6},
    "background": [
        {"service_port": 5060, "source_mode": "block", "rate_pps": 0.004,
         "sizes": [412, 418], "size_probs": [0.7, 0.3], "n_sources": 40},
        {"service_port": 1900, "source_mode": "single", "rate_pps": 0.003,
         "sizes": [94], "size_probs": [1.0]},
    ],
    "noise_ports_per_day": 30,
}

# Wide: 2^23 addresses see each always-on host ~1700 times a day, so the
# always-on set is real and the KDE has peaks; ranked per 15 minutes.
WIDE = {
    "seed": 12,
    "start_day": "2024-03-01",
    "telescope": ["10.0.0.0/9"],
    "secret": "golden-wide",
    "crackonosh": {"population": [12], "always_on_fraction": 0.9},
    "background": "none",
    "noise_ports_per_day": 10,
}

GOLDEN = {
    "desk": {
        "analyze/discoverability.json": "2fbe8a6c3238123b5941609da0441f587d463c80e7182b1e9edb0273c9215d35",
        "analyze/manifest.json": "77e7892250926ced29e8e24e56820a953cb42edb98e5220e7d9993ab319dd940",
        "analyze/report_address_count.csv": "4cb2b3a30f99f6c54d2c40c1970c2979cbf6be8a16e682206d994df177a02d80",
        "analyze/report_block_count.csv": "9bd9e57f4ef5950f712bc1b78daf8424fec92bbb6b6ddb19717bed7c6ef60404",
        "analyze/report_size_entropy.csv": "7efcbb2756ddceb8275fa26c0d2676888c77d5a44e0dfbb25156f7f344c26646",
        "analyze/report_src_spread.csv": "0ba029b5cd446f27710a9cf556b56823f27201ca35cc36ca3faaec00706ec4f6",
        "analyze:stdout": "20a369c483bf86a03440e3b986982cdceacc8d72c1f92ade7eb18239f1cbbe32",
        "model-table/manifest.json": "f87a4988771217bf365565b811ce331b0c344a5262b6547da13d6afa3ffa1ee2",
        "model-table/table.csv": "d4e29b83cc091ffda7292158cc922b277dd34827a3623d48fce53c4a66bd9709",
        "model-table:stdout": "5d4573cd5c13f25646698844cc3fa9c6f7f6e69726a9ebee22c99b16c8db9524",
        "population/always_on.json": "8a36dd27267a855d802c58a0e241d97047793b74c99e03e9d60dc7d249eb9b81",
        "population/manifest.json": "4fb263d054f898e60c487403d8f9d860d0423ebfd7f743b5fc6cc0e112740618",
        "population:stdout": "01ad04305c20737b88fee71f99dc2655f4499296f7987f1971a02168c17d6da2",
        "simulate/labels.csv": "0c16f5d68d174778395e43c7d4eeee3c610dbba5919774870d68eca2c421ed82",
        "simulate/manifest.json": "d52c021d2eb2d9227ab64287783513370a008611f8fd6e8e2b8e53a50ae9c018",
        "simulate/traffic.csv": "d007810fcd78eb97408c68f71615214237e9b649042a12a897541c08b5d61d9e",
        "simulate:stdout": "08582acfd27b53d40b6b0fc8fc626dadabdb6883cc7c34d872686002726fa4c3",
    },
    "wide": {
        "analyze/discoverability.json": "d2483e34e471e59c0a0a984fb09f24de526c2ae9a7dc8778d35526b6f9fd48c8",
        "analyze/manifest.json": "3ffd3bc7ef53e97ec6e0c05b0a2933313292a2fefc810ece121441bbb0ec6cb7",
        "analyze/report_address_count.csv": "c5793949a4d3f716c3362cad45d1426f0d651e7ccb806dba0a776e0a6e70169b",
        "analyze/report_block_count.csv": "a16a4c05bd4ee4d6f04110fc915157a745fea906a11f0bff30281b14ccab778f",
        "analyze/report_size_entropy.csv": "9a9e96ab66980f21b0c42c7c3146875609d0ca36be81cd86bf86ca2ce3003ef3",
        "analyze/report_src_spread.csv": "4549e02a646f612497c9b97d4a38ec7a492177178c3b2178c15e5c43c45149f8",
        "analyze:stdout": "3552ec5cd084dc74d508146cb8b323de94c4364742a4a1020a7e527be0cfbdd1",
        "population/always_on.json": "8bc6f02e58e06712deaa2ba73db53801d550e06e2dddf51787c88c2e7c9508ba",
        "population/density.csv": "a7e75add1e8dad2112995370a71b88348b4dda4e3b723b81d697a62f4832b0eb",
        "population/manifest.json": "0a5862adeb3194e95d0991096bd1e72fbbf032669f2bf4b24481d09e1b68fb7d",
        "population/peaks.json": "cd9d3bf4ea3010e61654d0daef4847104084fe0fa58f23a63485c221e77be445",
        "population:stdout": "d3adfc7e1094ada8c27ff9851fa85646aec965814d8957cca8977667c1bba5b0",
        "simulate/labels.csv": "4b5d4220000a6ca18b7c0ab83392717beb2760df2faa87794e802215b32d4491",
        "simulate/manifest.json": "0c7bc98be8b7a4d85b70ff4ca4cc67364dd37bb8c5c6b70ce6c8960bd29d3d29",
        "simulate/traffic.csv": "7f4625a8b57d54466920c3bbf7f58a60713280651b75eb9242e83b238775b484",
        "simulate:stdout": "6c7166883c4ce4f14c62c4ded302e2fe0efe4e3f5d420af76dc5db2fd43fae10",
    },
}


def _run(tmp_path, capsys, name, argv):
    assert main(argv) == 0, argv
    out = capsys.readouterr().out
    return {f"{name}:stdout": out.replace(str(tmp_path), "<tmp>").encode()}


def _normalize_manifest(data, tmp_path):
    """Replace the temporary directory, and the params digest that covers it.

    Manifests with `params` carry sha256 over their canonical JSON, which
    holds absolute paths; it is checked here and then masked.
    """
    manifest = json.loads(data)
    if "params" in manifest:
        blob = json.dumps(manifest["params"], sort_keys=True, separators=(",", ":")).encode()
        digest = hashlib.sha256(blob).hexdigest()
        assert manifest["config_sha256"] == digest
        data = data.replace(digest.encode(), b"<params-sha256>")
    return data.replace(str(tmp_path).encode(), b"<tmp>")


def _files(tmp_path, name, out_dir):
    got = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _normalize_manifest(data, tmp_path)
        got[f"{name}/{path.name}"] = data
    return got


def _outputs(tmp_path, capsys, config, window, telescope):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    sim, rep, pop = tmp_path / "sim", tmp_path / "analyze", tmp_path / "population"
    traffic, labels = str(sim / "traffic.csv"), str(sim / "labels.csv")
    got = {}
    got |= _run(tmp_path, capsys, "simulate", ["simulate", "--config", str(cfg), "--out", str(sim)])
    got |= _files(tmp_path, "simulate", sim)
    got |= _run(tmp_path, capsys, "analyze", [
        "analyze", "--csv", traffic, "--labels", labels, "--out", str(rep), "--window", window,
    ])
    got |= _files(tmp_path, "analyze", rep)
    got |= _run(tmp_path, capsys, "population", [
        "population", "--csv", traffic, "--telescope", telescope, "--out", str(pop),
    ])
    got |= _files(tmp_path, "population", pop)
    return got


@pytest.mark.parametrize(
    "name, config, window, telescope",
    [
        ("desk", DESK, "1d", "10.0.0.0/20"),
        ("wide", WIDE, "15m", "10.0.0.0/9"),
    ],
)
def test_cli_outputs_match_golden(tmp_path, capsys, name, config, window, telescope):
    got = _outputs(tmp_path, capsys, config, window, telescope)
    if name == "desk":
        table = tmp_path / "table"
        got |= _run(tmp_path, capsys, "model-table", [
            "model", "table", "--prefixes", "/16,/20,/24", "--out", str(table),
        ])
        got |= _files(tmp_path, "model-table", table)
    digests = {key: hashlib.sha256(data).hexdigest() for key, data in got.items()}
    assert digests == GOLDEN[name]
