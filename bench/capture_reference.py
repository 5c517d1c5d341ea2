"""Write bench/reference/ from the current qspr sources at the reference seed.

    python3 bench/capture_reference.py

Run it only on the code the benchmark is defined on: the references are what
every later run is checked against. Pooled workloads are captured with
``--threads 1``, so the check also holds the pool path to the serial results.
"""
from __future__ import annotations

import json
import shutil
import sys

from run import OUT_ROOT, WORKLOADS, spawn
from check import REFERENCE_DIR, REFERENCE_SEED


def serial(args: tuple[str, ...]) -> list[str]:
    out = list(args)
    if "--threads" in out:
        out[out.index("--threads") + 1] = "1"
    return out


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    work_root = OUT_ROOT / "capture"
    for workload in WORKLOADS.values():
        work_dir = work_root / workload.name
        work_dir.mkdir(parents=True)
        config_path = work_dir / "config.json"
        if workload.config is not None:
            config_path.write_text(json.dumps(workload.config))
        qspr_args = workload.command(REFERENCE_SEED, config_path, work_dir / "out")
        qspr_args = qspr_args[: len(qspr_args) - len(workload.args)] + serial(workload.args)
        proc = spawn([sys.executable, "-m", "qspr.cli", *qspr_args], work_dir, 3600.0)
        if proc.returncode != 0:
            print(f"{workload.name}: exit code {proc.returncode}; see {work_dir}", file=sys.stderr)
            return 1
        target = REFERENCE_DIR / workload.reference
        if workload.kind == "run":
            shutil.copyfile(work_dir / "out" / "results.csv", target)
        else:
            target.write_text(proc.stdout)
        print(f"{workload.name}: wrote {target} ({proc.wall_s:.1f} s)")
    shutil.rmtree(work_root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
