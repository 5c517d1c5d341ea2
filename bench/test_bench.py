"""Smoke test of the benchmark itself, at toy sizes.

    python3 -m pytest bench/test_bench.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit, that
traced spans nest, that the output check rejects a perturbed reference row,
and that the benchmark refuses to run without the qspr sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
from layers import LAYER_METRICS, layer_metrics  # noqa: E402
from tracer import self_times  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
TOY_SEED = 7  # off the reference seed: seed-free columns against the stored reference
TOY = {
    "readme-sweep": replace(
        run.WORKLOADS["readme-sweep"], config={**run.README_CONFIG, "p": 2},
        items=30 * 10 * 2, fits_per_ensemble=10 * 2,
    ),
    "fidelity-2w": replace(
        run.WORKLOADS["fidelity-2w"], args=("--threads", "2"),
        config={"states": ["tmc"], "m_values": [2], "p": 4},
        items=2 * 4, fits_per_ensemble=2 * 4,
    ),
    "oracle-verify": replace(
        run.WORKLOADS["oracle-verify"], args=("--tuples", "40", "--cutoff", "40"), items=4 * 40
    ),
}


def test_benchmark_json_lists_what_the_code_emits():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == LAYER_METRICS
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.fixture
def toy_references(tmp_path, monkeypatch):
    """The stored references, with the oracle report at the toy tuple count."""
    ref_dir = tmp_path / "reference"
    shutil.copytree(check.REFERENCE_DIR, ref_dir)
    stored = (check.REFERENCE_DIR / "oracle-verify.txt").read_text()
    (ref_dir / "oracle-verify.txt").write_text(stored.replace("tuples=200", "tuples=40"))
    monkeypatch.setattr(check, "REFERENCE_DIR", ref_dir)


@pytest.mark.parametrize("name", list(TOY))
def test_toy_run_emits_every_metric_and_spans_nest(name, toy_references, tmp_path):
    workload = TOY[name]
    record = run.run_passes(workload, TOY_SEED, 0.01, tmp_path / "warm")
    assert record.problems == [] and record.failed == 0
    assert record.attempted == run.MIN_PASSES and len(record.passes) == run.MIN_PASSES - 1
    assert len(record.setup) == run.SETUP_PROBES

    values, samples = run.end_to_end(workload, record)
    assert set(values) == set(run.END_TO_END_UNITS) == set(samples)
    assert all(v > 0 for v in values.values())

    record = run.run_traced(workload, TOY_SEED, 0.01, tmp_path / "traced")
    assert record.problems == [] and record.failed == 0
    assert len(record.plain) == 1 and len(record.traced) == 1 and len(record.traces) == 1

    values, samples, _ = layer_metrics(workload, record)
    assert list(values) == [m for m, _, _ in LAYER_METRICS]
    assert set(samples) == set(values)

    spans = record.traces[0]["spans"]
    assert spans and all(span is not None for span in spans)
    for own, (_, start, end, parent, _) in zip(self_times(spans), spans):
        assert own >= -1e-9
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            assert p_start <= start <= end <= p_end
    if name == "readme-sweep":
        assert values["fit.fit_sensorgram.calls"] == values["simulate.run_ensemble.calls"] * 20
        assert values["cli.ensembles_requested"] == 42 and values["cli.ensembles_run"] == 30
    if name == "oracle-verify":
        assert values["oracle.build_state.calls"] == 160 and values["fit.lm_solve.calls"] == 0


def test_perturbed_reference_row_is_rejected():
    _, rows = check.read_results(check.REFERENCE_DIR / "readme-sweep.csv")
    fits = run.WORKLOADS["readme-sweep"].fits_per_ensemble
    assert check.compare_results(rows, rows, check.REFERENCE_SEED, fits, seeded=True) == []

    perturbed = [dict(row) for row in rows]
    perturbed[5]["estimate"] = repr(float(rows[5]["estimate"]) * (1 + 10 * check.RTOL))
    problems = check.compare_results(rows, perturbed, check.REFERENCE_SEED, fits, seeded=True)
    assert len(problems) == 1 and problems[0].startswith("row 6 ")
    # off the reference seed only the seed-free columns are held to the stored rows
    assert check.compare_results(rows, perturbed, check.REFERENCE_SEED, fits, seeded=False) == []
    perturbed[5]["R_M_midpoint"] = repr(float(rows[5]["R_M_midpoint"]) * 1.01)
    assert len(check.compare_results(rows, perturbed, check.REFERENCE_SEED, fits, seeded=False)) == 1

    lines = check.read_oracle_lines((check.REFERENCE_DIR / "oracle-verify.txt").read_text())
    assert len(lines) == 4 and check.compare_oracle(lines, lines, seeded=True) == []
    bad = [dict(line) for line in lines]
    bad[3]["dm"] = repr(float(bad[3]["dm"]) + 1e-6)
    assert len(check.compare_oracle(lines, bad, seeded=True)) == 1


def test_failed_process_and_missing_manifest_are_counted(tmp_path):
    checker = check.OutputCheck(run.WORKLOADS["readme-sweep"], check.REFERENCE_SEED)
    assert checker.check(1, tmp_path, "") == ["exit code 1"]
    assert checker.check(0, tmp_path, "") == ["no manifest.json"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
