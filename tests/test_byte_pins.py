"""SHA-256 pins of the bytes `lglab run` and `lglab analyze` write.

The bundled config's digests are the two in perfbench/pins.json. The
per-world runs of 70,000 trials cross the 2^16-trial chunk boundary, so a
change that permuted pair codes, reordered draws or split chunks
differently changes a digest here. Their logs carry every lambda_id kind
(none, integer, float), and `lglab analyze` reads each back through the
column-wise block reader, so its stdout pins that reader too.
"""
import hashlib
import json
from pathlib import Path

import pytest

from lglab.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_CONFIG = ROOT / "configs" / "quantum_violation.json"
PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))

# world: (config fields, SHA-256 of the CSV, of the report, of analyze's stdout)
WORLD_SHA256 = {
    "table": (
        {"world": {"kind": "table", "rows": [[0.2, 1, 1, -1], [0.3, 1, -1, 1], [0.5, -1, 1, 1]]}},
        "fd6ec2c8e8f98da56019468be4636014175e7ea78ea3c8c4b9c6fd82f8c8f202",
        "e782dce2f49f49f9ce624823b0d4ae672c288561a74cf9a75e994a4cd689ae7b",
        "aa6c3d32fa3d4633a11fd264f8ff8c41e424a4b4caa1c983cfbad2469a6cd62a",
    ),
    "rotor": (
        {"world": {"kind": "rotor"}},
        "b17c5749ad80abe6b774650e83cf5302555ec22b312a7aacfe2160b30ae73a5d",
        "4ae8e78e41ff08962a549de1dee33b44604c05ed7ab8f60c7f5b55dad14fa074",
        "16edacd5939fc7b37e6c530705d86e05bdd2d88c7dac62f44b87afc7aea9cdd7",
    ),
    "conspiracy": (
        {"world": {"kind": "conspiracy", "strength": 0.75}},
        "2329908edb34c19a88116cbf9e9f1fab38ca53f10c395a7d60f6e00602347d98",
        "eb77eabc8419b224e6031264effb333996e5c8441686b5f785600c72ea9165ad",
        "41655f93fe58bf76aaefd3fcdb3a0f2164f341200d5ae4668f351572c3798deb",
    ),
    "quantum_fresh_uniform": (
        {"world": {"kind": "quantum"}, "initial_state": {"policy": "fresh_uniform"}},
        "f8eb542e7bec512755c0c9393bbab2ddf355531f6ba0b52384691bd401297b03",
        "e00005bfa67d7816002b354becfffaab88c545d01413b68bedb393a59d4f1cff",
        "75b084294956d60db3937c7aba8acb36d86e6ec8c08b1e415af58ced1c675abb",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(tmp_path, config_path):
    report, trials = tmp_path / "report.json", tmp_path / "trials.csv"
    code = main(["run", "--config", str(config_path), "--report", str(report), "--trials", str(trials)])
    assert code == EXIT_OK
    return report, trials


def test_bundled_config_bytes_match_the_benchmark_pins(tmp_path):
    report, trials = run(tmp_path, BUNDLED_CONFIG)
    assert sha256(trials.read_bytes()) == PINS["trials_csv_sha256"]
    assert sha256(report.read_bytes()) == PINS["report_json_sha256"]


@pytest.mark.parametrize("world", sorted(WORLD_SHA256))
def test_world_logs_across_the_chunk_boundary_are_pinned(tmp_path, capsys, world):
    fields, csv_digest, report_digest, analyze_digest = WORLD_SHA256[world]
    config = {
        "schema": 1,
        "angles": {"theta_ab": 0.5235987755982988, "theta_bc": 0.5235987755982988},
        **fields,
        "n_trials": 70_000,
        "master_seed": 2013,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    report, trials = run(tmp_path, path)
    assert sha256(trials.read_bytes()) == csv_digest
    assert sha256(report.read_bytes()) == report_digest
    capsys.readouterr()  # drop the run command's summary lines
    assert main(["analyze", "--trials", str(trials)]) == EXIT_OK
    assert sha256(capsys.readouterr().out.encode()) == analyze_digest
