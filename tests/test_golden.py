"""Byte goldens for every CLI output on three fixed configs.

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

# Paper population: the three-epoch schedule at scale 1.0 (90k, 40k and
# 26k hosts, one day each) on a /22 with the default background, as in
# CI's smoke run. The only config that places the largest host batches.
PAPERPOP = {
    "seed": 1,
    "start_day": "2022-10-13",
    "telescope": ["10.0.0.0/22"],
    "secret": "ci-smoke",
    "crackonosh": {"population": {"schedule": "three_epoch", "days_per_epoch": 1, "scale": 1.0}},
    "background": "default",
    "noise_ports_per_day": 250,
}

GOLDEN = {
    "desk": {
        "analyze/discoverability.json": "a0dee737c37bfccf81cf058a39d0c98665aea5d79c8be3d76bfa7a15c5706c40",
        "analyze/manifest.json": "77e7892250926ced29e8e24e56820a953cb42edb98e5220e7d9993ab319dd940",
        "analyze/report_address_count.csv": "412ef59f3d3eaa60cc31adf045623ac07f1d5d9ae0d5b6e4e0738bad9c079319",
        "analyze/report_block_count.csv": "086aaf591577a9f692fb68642dba3d14d278aa0afc538c071d05a87d54b7c644",
        "analyze/report_size_entropy.csv": "6dbca46cd0e336fe955f5e3e7cf8b1bd184bbc6745a1ee095bcdb036e5b38cf8",
        "analyze/report_src_spread.csv": "92f24e5c0494c1243d0ef2444b86db5441c939d7c8e60156a467ccc05706d27d",
        "analyze:stdout": "20a369c483bf86a03440e3b986982cdceacc8d72c1f92ade7eb18239f1cbbe32",
        "model-table/manifest.json": "f87a4988771217bf365565b811ce331b0c344a5262b6547da13d6afa3ffa1ee2",
        "model-table/table.csv": "d4e29b83cc091ffda7292158cc922b277dd34827a3623d48fce53c4a66bd9709",
        "model-table:stdout": "5d4573cd5c13f25646698844cc3fa9c6f7f6e69726a9ebee22c99b16c8db9524",
        "population/always_on.json": "8a36dd27267a855d802c58a0e241d97047793b74c99e03e9d60dc7d249eb9b81",
        "population/manifest.json": "4fb263d054f898e60c487403d8f9d860d0423ebfd7f743b5fc6cc0e112740618",
        "population:stdout": "01ad04305c20737b88fee71f99dc2655f4499296f7987f1971a02168c17d6da2",
        "simulate/labels.csv": "0c16f5d68d174778395e43c7d4eeee3c610dbba5919774870d68eca2c421ed82",
        "simulate/manifest.json": "1129851e1fa8850ecdcade9d61858122e5720bb31be50db054911ee7ef63ad63",
        "simulate/traffic.csv": "74c1e74668801e8202a649e9f76472430920618eb1271770368761c2d6c437cc",
        "simulate:stdout": "ab46ee8adab2371ddbbba77a13febb6e7741628f53cb5088aad45fc0a9a2e0c3",
    },
    "wide": {
        "analyze/discoverability.json": "eb9157b21639ec086ea18df45c03cfc3a4e808fe4aa7d81ba045a0f5218226ac",
        "analyze/manifest.json": "3ffd3bc7ef53e97ec6e0c05b0a2933313292a2fefc810ece121441bbb0ec6cb7",
        "analyze/report_address_count.csv": "ca641efecdb205933c23f35d3335f948b05d78c80616bed2626ccb4897ee4196",
        "analyze/report_block_count.csv": "7c4a154e4a3ee47fce6fbd0091c3127935698a9133c227953438730b6abcdc77",
        "analyze/report_size_entropy.csv": "201072866b4968b2301042ffbc85770db564568e597d9ad9617b8217eac9457b",
        "analyze/report_src_spread.csv": "01a8b3c0f268d9c124c84c828b765c1fd056dfe4350a86d2ca971fc429ae58d9",
        "analyze:stdout": "3552ec5cd084dc74d508146cb8b323de94c4364742a4a1020a7e527be0cfbdd1",
        "population/always_on.json": "c436c63851fe96012090344e876b6c48a79a9009265e1de7f0f4184f22e581ca",
        "population/density.csv": "9f15010ddb2230759d55c35c846bd137c86690da2913637a780bafecf215a1fa",
        "population/manifest.json": "0a5862adeb3194e95d0991096bd1e72fbbf032669f2bf4b24481d09e1b68fb7d",
        "population/peaks.json": "1e83e599b2101822d6eb7052ba6a653bce8f73080044bac980921eb3e6f423d6",
        "population:stdout": "3dec4dfa9a0b61fa66ecc1eaf62ede630f95953ef29c602b91a3cdeb756c6ca2",
        "simulate/labels.csv": "4b5d4220000a6ca18b7c0ab83392717beb2760df2faa87794e802215b32d4491",
        "simulate/manifest.json": "28571bf855938c923278f716a49198c24609ca4007d214c51db6e1ead0dfc108",
        "simulate/traffic.csv": "5cee34baca50d6816eb3753c5b045d07340ff19d68e7022befc01de642b26dc0",
        "simulate:stdout": "9f6a10257da3fab7ec1155e1a616e03c8bf4c7af833fb02e5e342b596a6b89b0",
    },
    "paperpop": {
        "analyze/discoverability.json": "43ece2dc6735f721febc9a3670365b3ecfbfa3410154b370f9c56c9db7b24403",
        "analyze/manifest.json": "77e7892250926ced29e8e24e56820a953cb42edb98e5220e7d9993ab319dd940",
        "analyze/report_address_count.csv": "df2ac60e562d0c78a39651d94465d609cc63b09163799c4d74829d3274e3f9f1",
        "analyze/report_block_count.csv": "ea3014e55499b06531635e7c384fb02190ad4b8563e5633a2f2a73c168c87a0a",
        "analyze/report_size_entropy.csv": "ab05fcfdc77cc56f361347ccc8b6570ebe94f39e363b2fcf50eb47a2c0284b6c",
        "analyze/report_src_spread.csv": "a895e4afe4b751473ad5883a600191c29b5d4d47dc8750ac82204eb4cced47d4",
        "analyze:stdout": "10eb92593caa4c5284c6b7a09dec4beae653bc5fa0575a38764c00417eb93b6f",
        "population/always_on.json": "86eb5d14bf407a6da8fb1115910a6cf448e3215f8ebca9451568e424b59495b3",
        "population/density.csv": "429200bde98f3a7a219f74079be2c7298a8d6901f6dd2efbf618a6c22168fb1c",
        "population/manifest.json": "482e4a58e373e5847b08f2598c2ef07ca0629abb4123edd54c4a6ede24c01257",
        "population/peaks.json": "e2025971235fdd59f8e04e5f18da464e3f64065c409976ec5fddcb68785b38fe",
        "population:stdout": "484c15d3f20d7373cd424976283bec5fd236f8a106374ccafc2c54626c9bdd3b",
        "simulate/labels.csv": "ac37ed632be0b6eeba4866ca908b1eb85c98a4f81f37bac4bc7e452269da72e0",
        "simulate/manifest.json": "84c879fca35b4507df594ad9674bfca0170e34333e166565e8ee43d5ffc4d491",
        "simulate/traffic.csv": "713a75c53e2b12ad52d9465f8d7680d5bd874a95dbcb1c6900cd08ec372780d3",
        "simulate:stdout": "242511627ea97b00d39ae01b4cda09b0cd53bb81405a2bbebd44e37d14acf944",
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
        ("paperpop", PAPERPOP, "1d", "10.0.0.0/22"),
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
