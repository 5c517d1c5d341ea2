"""Minor page faults of warm ``verify_closed_forms`` passes in processes that never import scipy.

    PYTHONPATH=src python tests/verify_faults.py

Each case runs in a fresh interpreter, because glibc's mmap and trim
thresholds last for the life of a process and rise for good once a large
block is freed. Importing scipy frees such a block, so a case refuses to count
once any scipy module is loaded. The cases are cutoff 40 with 200 tuples and
cutoff 200 with 5, each as is and after one 4 MB numpy array is made and freed
first. A case runs WARMUP_PASSES passes to fill the oracle's caches and settle
the heap, then counts ``ru_minflt`` around each of PASSES passes. A pass that
faults more than MAX_FAULTS_PER_PASS pages makes the exit status 1: the slice
loop is then returning memory to the OS and faulting it back in.
"""
from __future__ import annotations

import json
import resource
import subprocess
import sys

MAX_FAULTS_PER_PASS = 32
WARMUP_PASSES = 2
PASSES = 3
# (cutoff, tuples per family, free a 4 MB array first)
CASES = [(40, 200, False), (40, 200, True), (200, 5, False), (200, 5, True)]


def count_faults(cutoff: int, tuples: int, free_first: bool) -> list[int]:
    """Minor faults of each counted pass, in this process."""
    import numpy as np

    from qspr.oracle import verify_closed_forms

    if free_first:
        block = np.ones(1 << 19)  # 4 MB, above glibc's initial 128 KB mmap threshold
        del block
    for _ in range(WARMUP_PASSES):
        verify_closed_forms(tuples, cutoff, seed=42)
    faults = []
    for _ in range(PASSES):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        verify_closed_forms(tuples, cutoff, seed=42)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    if loaded:
        raise SystemExit(f"scipy modules loaded: {loaded}")
    return faults


def main() -> int:
    worst = 0
    for cutoff, tuples, free_first in CASES:
        done = subprocess.run(
            [sys.executable, __file__, str(cutoff), str(tuples), str(int(free_first))],
            capture_output=True,
            text=True,
        )
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            return 2
        faults = json.loads(done.stdout)
        worst = max(worst, *faults)
        freed = "4 MB freed first" if free_first else "as is"
        print(f"cutoff={cutoff} tuples={tuples} {freed}: minor faults per pass {faults}")
    print(f"worst {worst}, bound {MAX_FAULTS_PER_PASS}")
    return 0 if worst <= MAX_FAULTS_PER_PASS else 1


if __name__ == "__main__":
    if len(sys.argv) == 4:
        cutoff, tuples, free_first = map(int, sys.argv[1:])
        print(json.dumps(count_faults(cutoff, tuples, bool(free_first))))
    else:
        sys.exit(main())
