"""The seed-42 reference gate and the set-up probe of the benchmark, applied by the test suite.

``bench/check.py`` holds the comparison rules, ``bench/reference/`` the
outputs they compare against and ``bench/child.py`` the probe; all are only
read or run here.
"""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from qspr.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_check", BENCH / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

# the README sweep at the benchmark's p=5 (the readme-sweep workload)
README_CONFIG = {
    "case": "kausaite2007",
    "scenario": "standard",
    "eta_a": 1.0,
    "states": ["tmc", "tmf", "tmsv", "tmsd"],
    "n_values": [10, 100, 1000],
    "nu_values": [100, 1000],
    "m_values": [10],
    "p": 5,
}


def test_readme_sweep_matches_reference(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(README_CONFIG))
    out = tmp_path / "out"
    seed = str(check.REFERENCE_SEED)
    argv = ["run", "--config", str(config_path), "--out", str(out), "--seed", seed]
    assert main([*argv, "--threads", "1"]) == 0
    _, rows = check.read_results(out / "results.csv")
    _, reference = check.read_results(BENCH / "reference" / "readme-sweep.csv")
    fits_per_ensemble = README_CONFIG["m_values"][0] * README_CONFIG["p"]
    assert check.compare_results(
        rows, reference, check.REFERENCE_SEED, fits_per_ensemble, seeded=True
    ) == []


def test_oracle_verify_matches_reference(capsys):
    seed = str(check.REFERENCE_SEED)
    assert main(["verify", "--tuples", "200", "--cutoff", "40", "--seed", seed]) == 0
    lines = check.read_oracle_lines(capsys.readouterr().out)
    reference = check.read_oracle_lines((BENCH / "reference" / "oracle-verify.txt").read_text())
    assert [line["status"] for line in lines] == ["ok"] * 4
    assert check.compare_oracle(lines, reference, seeded=True) == []


def test_bench_setup_probe_runs(tmp_path):
    # the probe reads ExperimentConfig.from_dict and build_case through qspr.cli
    src = Path(__file__).resolve().parents[1] / "src"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(README_CONFIG))
    done = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "setup", str(config_path)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    versions = json.loads(done.stdout.splitlines()[-1])
    assert Path(versions["qspr_file"]).resolve().is_relative_to(src)
