"""Processes the benchmark starts besides the plain ``python3 -m qspr.cli``.

    python3 bench/child.py setup [CONFIG_JSON]
        Import qspr.cli and, given a config document, make the public
        case-preparation calls a run starts with. Prints the library versions
        as one JSON line. The parent times this process from spawn to exit.

    python3 bench/child.py traced TRACE_JSON RUN_ID QSPR_ARGS...
        Run the qspr CLI with every public function of every layer wrapped
        (see tracer.py) and write the spans to TRACE_JSON on exit.

    python3 bench/child.py passes SPEC_JSON
        Import qspr.cli once, then call its main() pass after pass with the
        spec's arguments until the spec's time is used up. Each pass is timed
        and bracketed by the reference loop; the pass records go to the spec's
        record file.
"""
from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback

START = time.perf_counter()
REFERENCE_REPEATS = 3


def reference_loop() -> float:
    """Median seconds of a fixed mix of interpreter and numpy vector work.

    The benchmark divides each pass's times by this loop's time around the pass,
    so a slower or faster host moves both alike and the quotient stays put. The
    loop is fixed benchmark code: no change to qspr can move it.
    """
    import numpy as np

    x = np.linspace(0.0, 1.0, 2000)
    times = []
    for _ in range(REFERENCE_REPEATS):
        started = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        for i in range(150):
            y = np.exp(-x * (1 + i % 7))
            acc += float(np.cumsum(y) @ x)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _cpu_s() -> float:
    """User plus system CPU of this process and of its reaped children (pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup(config_path: str | None) -> int:
    import qspr.cli

    if config_path:
        from qspr.kinetics import linearize_sensorgram, reconstruct_transmittance_sensorgram

        with open(config_path) as fh:
            config = qspr.cli.ExperimentConfig.from_dict(json.load(fh))
        case = qspr.cli.build_case(config)
        trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
        linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    import numpy
    import scipy

    versions = {
        "qspr_file": qspr.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(versions))
    return 0


def traced(trace_path: str, run_id: str, argv: list[str]) -> int:
    started = time.perf_counter()
    import qspr.cli

    import_s = time.perf_counter() - started
    from tracer import Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = qspr.cli.main(argv)
    except SystemExit as exc:  # argparse errors leave through SystemExit
        code = exc.code if isinstance(exc.code, int) else 1
    tracer.dump(trace_path, import_s=import_s)
    return code


def passes(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    import qspr.cli

    records = []
    ref_s = reference_loop()
    while True:
        timed = [r["wall_s"] for r in records[1:]] or [r["wall_s"] for r in records]
        # stop when another pass would end more than half a pass past the budget
        if (len(records) >= spec["min_passes"]
                and time.perf_counter() - START + statistics.median(timed) / 2 > spec["seconds"]):
            break
        out_dir = f"{spec['out_root']}/p{len(records)}/out"
        argv = [out_dir if arg == "{out}" else arg for arg in spec["argv"]]
        stdout = io.StringIO()
        cpu_before = _cpu_s()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = qspr.cli.main(argv)
        except SystemExit as exc:  # argparse errors leave through SystemExit
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
        wall_s = time.perf_counter() - started
        cpu_s = _cpu_s() - cpu_before
        ref_after_s = reference_loop()
        records.append({
            "returncode": code, "out_dir": out_dir, "stdout": stdout.getvalue(),
            "wall_s": wall_s, "cpu_s": cpu_s, "ref_before_s": ref_s, "ref_after_s": ref_after_s,
        })
        ref_s = ref_after_s
    peak_kb = max(resource.getrusage(who).ru_maxrss
                  for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    with open(spec["record"], "w") as fh:
        json.dump({"passes": records, "peak_rss_mb": peak_kb * 1024 / 1e6}, fh)
    return 0


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    if mode == "setup":
        sys.exit(setup(rest[0] if rest else None))
    if mode == "traced":
        sys.exit(traced(rest[0], rest[1], rest[2:]))
    if mode == "passes":
        sys.exit(passes(rest[0]))
    sys.exit(f"unknown mode {mode!r}")
