"""Output check of one workload process against the stored reference.

The references in bench/reference/ were captured at REFERENCE_SEED from the
code the benchmark was defined on (``python3 bench/capture_reference.py``).

At REFERENCE_SEED every results.csv row must match the reference: text and
integer columns exactly, float columns to a relative tolerance of RTOL. The
oracle report lines must match in kind, tuple count, cutoff and status, with
each maximum deviation within ORACLE_ATOL of the reference.

At any other seed there is no stored reference for the seed-dependent columns,
so the run re-references itself: the first process of a run is the reference
for the seed-dependent columns of every later process of that run (same seed,
so the outputs must agree), while the seed-independent columns (the sweep
keys and R_M_midpoint, or the oracle kinds, tuple count, cutoff and status)
are still compared against the stored reference.
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEED = 42
RTOL = 1e-6  # the agreement ROADMAP item 2 asks of a replacement solver
ORACLE_ATOL = 1e-9  # oracle deviations are round-off; the program's own limit is 1e-6

KEY_COLUMNS = ("case", "state", "scenario", "N", "nu", "m", "parameter")
SEED_FREE_FLOATS = ("R_M_midpoint",)
SEEDED_FLOATS = ("estimate", "precision", "R_k")
ORACLE_LINE = re.compile(
    r"^(?P<kind>\w+)\s+tuples=(?P<tuples>\d+) cutoff=(?P<cutoff>\d+) "
    r"max_dev_delta_M=(?P<dm>\S+) max_dev_mean_M=(?P<mm>\S+) \[(?P<status>\w+)\]$"
)


def read_results(path: Path) -> tuple[list[str], list[dict]]:
    with Path(path).open(newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames or []), list(reader)


def read_oracle_lines(text: str) -> list[dict]:
    return [m.groupdict() for m in map(ORACLE_LINE.match, text.splitlines()) if m]


def _float_problem(label: str, value: str, expected: str | None) -> str | None:
    try:
        x = float(value)
    except ValueError:
        return f"{label}: {value!r} is not a number"
    if not math.isfinite(x):
        return f"{label}: {value} is not finite"
    if expected is not None and not math.isclose(x, float(expected), rel_tol=RTOL, abs_tol=0.0):
        return f"{label}: {value} != reference {expected} (rtol {RTOL:g})"
    return None


def compare_results(
    rows: list[dict], reference: list[dict], seed: int, fits_per_ensemble: int, seeded: bool
) -> list[str]:
    """Mismatches of results.csv rows; ``seeded`` compares the seed-dependent columns too."""
    if len(rows) != len(reference):
        return [f"{len(rows)} result rows, reference has {len(reference)}"]
    problems = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        where = f"row {i + 1} ({'/'.join(ref[k] for k in KEY_COLUMNS)})"
        for key in KEY_COLUMNS:
            if row[key] != ref[key]:
                problems.append(f"{where} {key}: {row[key]!r} != reference {ref[key]!r}")
        if row["seed"] != str(seed):
            problems.append(f"{where} seed: {row['seed']} != {seed}")
        for col in SEED_FREE_FLOATS:
            problems.append(_float_problem(f"{where} {col}", row[col], ref[col]))
        for col in SEEDED_FLOATS:
            problems.append(_float_problem(f"{where} {col}", row[col], ref[col] if seeded else None))
        failed = row["failed_fits"]
        if not failed.isdigit() or int(failed) > fits_per_ensemble:
            problems.append(f"{where} failed_fits: {failed!r} outside [0, {fits_per_ensemble}]")
        elif seeded and failed != ref["failed_fits"]:
            problems.append(f"{where} failed_fits: {failed} != reference {ref['failed_fits']}")
    return [p for p in problems if p]


def compare_oracle(lines: list[dict], reference: list[dict], seeded: bool) -> list[str]:
    """Mismatches of the oracle report; ``seeded`` compares the deviations too."""
    if len(lines) != len(reference):
        return [f"{len(lines)} oracle report lines, reference has {len(reference)}"]
    problems = []
    for line, ref in zip(lines, reference):
        for key in ("kind", "tuples", "cutoff", "status"):
            if line[key] != ref[key]:
                problems.append(f"{ref['kind']} {key}: {line[key]!r} != reference {ref[key]!r}")
        if seeded:
            for key in ("dm", "mm"):
                if abs(float(line[key]) - float(ref[key])) > ORACLE_ATOL:
                    problems.append(
                        f"{ref['kind']} {key}: {line[key]} != reference {ref[key]} (atol {ORACLE_ATOL:g})"
                    )
    return problems


class OutputCheck:
    """Checks every process of one run of one workload."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        path = REFERENCE_DIR / workload.reference
        if workload.kind == "run":
            self.stored = read_results(path)[1]
        else:
            self.stored = read_oracle_lines(path.read_text())
        self.first = None  # outputs of the run's first clean process, off the reference seed

    def check(self, returncode: int, out_dir: Path, stdout: str) -> list[str]:
        """Problems with one finished process; empty when its outputs pass."""
        if returncode != 0:
            return [f"exit code {returncode}"]
        if self.workload.kind == "run":
            outputs, problems = self._run_outputs(out_dir)
            if outputs is None:
                return problems
        else:
            outputs, problems = read_oracle_lines(stdout), []
        seeded = self.seed == REFERENCE_SEED
        problems += self._compare(outputs, self.stored, seeded)
        if not seeded:
            if self.first is not None:
                problems += self._compare(outputs, self.first, seeded=True)
            elif not problems:
                self.first = outputs
        return problems

    def _compare(self, outputs, reference, seeded: bool) -> list[str]:
        if self.workload.kind == "run":
            return compare_results(
                outputs, reference, self.seed, self.workload.fits_per_ensemble, seeded
            )
        return compare_oracle(outputs, reference, seeded)

    def _run_outputs(self, out_dir: Path):
        manifest_path = out_dir / "manifest.json"
        if not manifest_path.is_file():
            return None, ["no manifest.json"]
        manifest = json.loads(manifest_path.read_text())
        problems = []
        if manifest["config"]["seed"] != self.seed:
            problems.append(f"manifest seed {manifest['config']['seed']} != {self.seed}")
        header, rows = read_results(out_dir / "results.csv")
        if header != list(self.stored[0].keys()):
            return None, problems + [f"results.csv header {header} differs from the reference"]
        return rows, problems
