"""SHA-256 pins of the bytes `lglab run` writes.

The bundled config's digests are the two in perfbench/pins.json. The
per-world runs of 70,000 trials cross the 2^16-trial chunk boundary, so a
change that permuted pair codes, reordered draws or split chunks
differently changes a digest here.
"""
import hashlib
import json
from pathlib import Path

import pytest

from lglab.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_CONFIG = ROOT / "configs" / "quantum_violation.json"
PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text(encoding="utf-8"))

WORLD_CSV_SHA256 = {
    "table": (
        {"kind": "table", "rows": [[0.2, 1, 1, -1], [0.3, 1, -1, 1], [0.5, -1, 1, 1]]},
        "fd6ec2c8e8f98da56019468be4636014175e7ea78ea3c8c4b9c6fd82f8c8f202",
    ),
    "rotor": ({"kind": "rotor"}, "b17c5749ad80abe6b774650e83cf5302555ec22b312a7aacfe2160b30ae73a5d"),
    "conspiracy": (
        {"kind": "conspiracy", "strength": 0.75},
        "2329908edb34c19a88116cbf9e9f1fab38ca53f10c395a7d60f6e00602347d98",
    ),
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(tmp_path, config_path):
    report, trials = tmp_path / "report.json", tmp_path / "trials.csv"
    code = main(["run", "--config", str(config_path), "--report", str(report), "--trials", str(trials)])
    assert code == EXIT_OK
    return report, trials


def test_bundled_config_bytes_match_the_benchmark_pins(tmp_path):
    report, trials = run(tmp_path, BUNDLED_CONFIG)
    assert sha256(trials) == PINS["trials_csv_sha256"]
    assert sha256(report) == PINS["report_json_sha256"]


@pytest.mark.parametrize("world", sorted(WORLD_CSV_SHA256))
def test_world_logs_across_the_chunk_boundary_are_pinned(tmp_path, world):
    spec, digest = WORLD_CSV_SHA256[world]
    config = {
        "schema": 1,
        "angles": {"theta_ab": 0.5235987755982988, "theta_bc": 0.5235987755982988},
        "world": spec,
        "n_trials": 70_000,
        "master_seed": 2013,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    _, trials = run(tmp_path, path)
    assert sha256(trials) == digest
