"""qspr benchmark: named workloads, checked outputs, metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                  # every workload, default settings

Run it from anywhere; it uses the qspr sources under src/ next to bench/ and
writes only into .bench_out/ beside them, which it removes after a clean run.

``--trace 0`` (end-to-end metrics) runs, within ``--seconds``:

1. set-up probes, half before the passes and half after: fresh processes that
   import qspr.cli and make the public case-preparation calls of the workload
   (build_case, reconstruct_transmittance_sensorgram, linearize_sensorgram;
   oracle-verify makes none). ``setup_s`` is their median spawn-to-exit time,
   scaled by the reference loop like the passes (see below).
2. one warm process (child.py passes) that imports qspr.cli once and calls
   its main() with the workload's arguments pass after pass, one client in a
   closed loop. The first pass warms lazy imports and is not timed. Every pass
   is checked against the stored reference (check.py); one that fails or
   mismatches counts as failed.

Pass times are reported in units of a fixed reference loop (child.py) timed
right before and after each pass, medians over the run's timed passes. The
shared host this benchmark was defined on changes speed by up to 40% for
seconds to minutes at a time; the loop slows with it, so the quotient holds
still where raw seconds do not. Set-up probes are bracketed the same way and
reported in seconds at NOMINAL_REFERENCE_S per loop. Raw seconds are printed
on the comment lines.

``--trace 1`` (per-layer metrics) alternates fresh processes of the plain
command and of the same command under the span tracer (tracer.py), each after
a set-up probe; the result line carries the per-layer metrics from the traced
processes and ``trace.overhead_s``, the difference of the two median wall
times.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Everything before it is for people.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

from check import REFERENCE_SEED, OutputCheck, read_results  # noqa: E402
from child import reference_loop  # noqa: E402
from layers import LAYER_METRICS, layer_metrics  # noqa: E402

RUN_BUDGET_S = 165.0  # a run must end within 180 s; processes still running then are killed
SETUP_PROBES = 4  # fresh set-up processes per end-to-end run
MIN_PASSES = 3  # the untimed warm-up pass and at least two timed ones
# the reference loop's median time on the host the benchmark was defined on;
# setup_s is scaled to that host speed (see end_to_end)
NOMINAL_REFERENCE_S = 0.007

README_CONFIG = {  # the config document of the README, p lowered to fit many passes in a run
    "case": "kausaite2007",
    "scenario": "standard",
    "eta_a": 1.0,
    "states": ["tmc", "tmf", "tmsv", "tmsd"],
    "n_values": [10, 100, 1000],
    "nu_values": [100, 1000],
    "m_values": [10],
    "p": 5,
}


@dataclass(frozen=True)
class Workload:
    """One named qspr command.

    ``items`` is the work one process does: fits for ``run`` (m*p times the
    ensembles the sweep needs, its twins included), oracle states for ``verify``.
    """

    name: str
    kind: str  # "run" or "verify"
    args: tuple[str, ...]
    items: int
    config: dict | None = None
    fits_per_ensemble: int = 0

    @property
    def reference(self) -> str:
        return f"{self.name}.{'csv' if self.kind == 'run' else 'txt'}"

    def command(self, seed: int, config_path: Path, out_dir: Path) -> list[str]:
        """qspr arguments; ``config_path`` holds ``config`` as JSON."""
        if self.kind == "verify":
            return ["verify", "--seed", str(seed), *self.args]
        return ["run", "--config", str(config_path), "--out", str(out_dir), "--seed", str(seed),
                *self.args]


WORKLOADS = {
    w.name: w
    for w in (
        # 24 requested ensembles plus 6 TMSD twins (the TMF and TMSV twins hit
        # the plan cache), serial; TMSV at nu=100 is the low-SNR regime
        Workload(
            "readme-sweep", "run", ("--threads", "1"), items=30 * 10 * 5,
            config=README_CONFIG, fits_per_ensemble=10 * 5,
        ),
        # the default case's TMC ensemble at the paper's p=1500 sets on the
        # process pool; m=2 keeps the pool's task count and chunking while a
        # run holds many passes
        Workload(
            "fidelity-2w", "run", ("--paper-fidelity", "--threads", "2"), items=2 * 1500,
            config={"states": ["tmc"], "m_values": [2]}, fits_per_ensemble=2 * 1500,
        ),
        # Fock-basis oracle only: no fit or simulate code
        Workload("oracle-verify", "verify", ("--tuples", "200", "--cutoff", "40"), items=4 * 200),
    )
}

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "setup_s": "s",
    "items_per_ref": "1/ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
}


@dataclass
class Process:
    """One finished process and its spawn-to-exit wall time."""

    returncode: int
    wall_s: float
    stdout: str


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log_dir: Path, deadline_s: float) -> Process:
    """Run argv to completion in its own process group."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout.txt", "w+") as out, open(log_dir / "stderr.txt", "w") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stdout=out, stderr=err, start_new_session=True
        )
        # the group holds the process and its pool workers, so one kill stops all
        killer = threading.Timer(max(deadline_s, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status = os.waitpid(proc.pid, 0)
            wall = time.perf_counter() - started
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
    return Process(returncode=proc.returncode, wall_s=wall, stdout=stdout)


@dataclass
class RunRecord:
    setup: list[Process] = field(default_factory=list)
    setup_reference_s: list[float] = field(default_factory=list)  # reference loop around each probe
    passes: list[dict] = field(default_factory=list)  # timed warm passes, warm-up excluded
    peak_rss_mb: float = 0.0  # of the warm process or any one of its pool workers
    plain: list[Process] = field(default_factory=list)
    traced: list[Process] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    results: list[list[dict]] = field(default_factory=list)  # results.csv rows per traced process
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def _prepare(workload: Workload, work_dir: Path) -> tuple[Path, list[str]]:
    """Write the workload's config document; return its path and the set-up probe's argv."""
    work_dir.mkdir(parents=True)
    config_path = work_dir / "config.json"
    setup_argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup"]
    if workload.config is not None:
        config_path.write_text(json.dumps(workload.config))
        setup_argv.append(str(config_path))
    return config_path, setup_argv


def run_passes(workload: Workload, seed: int, seconds: float, work_dir: Path) -> RunRecord:
    """Set-up probes around one warm process that repeats the workload until ``seconds`` is used up."""
    record = RunRecord()
    run_started = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - run_started

    config_path, setup_argv = _prepare(workload, work_dir)

    def probe() -> bool:
        i = len(record.setup)
        before_s = reference_loop()
        proc = spawn(setup_argv, work_dir / f"setup{i}", RUN_BUDGET_S - elapsed())
        record.setup_reference_s.append((before_s + reference_loop()) / 2)
        record.setup.append(proc)
        if proc.returncode != 0:
            record.problems.append(f"set-up process {i}: exit code {proc.returncode}")
        return proc.returncode == 0

    for _ in range(SETUP_PROBES // 2):
        if not probe():
            return record
    trailing_s = (SETUP_PROBES - len(record.setup)) * statistics.median(p.wall_s for p in record.setup)
    record_path = work_dir / "passes.json"
    spec_path = work_dir / "spec.json"
    spec_path.write_text(json.dumps({
        "argv": workload.command(seed, config_path, Path("{out}")),
        "out_root": str(work_dir),
        "seconds": seconds - elapsed() - trailing_s,
        "min_passes": MIN_PASSES,
        "record": str(record_path),
    }))
    worker = spawn([sys.executable, str(BENCH_DIR / "child.py"), "passes", str(spec_path)],
                   work_dir / "passes", RUN_BUDGET_S - elapsed())
    if worker.returncode != 0 or not record_path.is_file():
        record.attempted = record.failed = 1
        record.problems.append(f"warm process: exit code {worker.returncode}")
        return record
    data = json.loads(record_path.read_text())
    checker = OutputCheck(workload, seed)
    for i, done in enumerate(data["passes"]):
        record.attempted += 1
        problems = checker.check(done["returncode"], Path(done["out_dir"]), done["stdout"])
        if problems:
            record.failed += 1
            record.problems += [f"pass {i}: {p}" for p in problems]
    record.passes = data["passes"][1:]
    record.peak_rss_mb = data["peak_rss_mb"]
    while len(record.setup) < SETUP_PROBES and probe():
        pass
    return record


def run_traced(workload: Workload, seed: int, seconds: float, work_dir: Path) -> RunRecord:
    """Alternate set-up probes and plain or traced processes until ``seconds`` is used up."""
    record = RunRecord()
    run_started = time.perf_counter()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - run_started)

    config_path, setup_argv = _prepare(workload, work_dir)
    checker = OutputCheck(workload, seed)
    cycles: list[float] = []
    while True:
        i = record.attempted
        cycle_started = time.perf_counter()
        if i >= 2 and cycle_started - run_started + statistics.median(cycles) > seconds:
            break
        # a set-up probe per cycle samples the same stretch of time as the workload
        probe = spawn(setup_argv, work_dir / f"setup{i}", remaining())
        record.setup.append(probe)
        if probe.returncode != 0:
            record.problems.append(f"set-up process {i}: exit code {probe.returncode}")
            break
        proc_dir = work_dir / f"p{i}"
        qspr_args = workload.command(seed, config_path, proc_dir / "out")
        traced = i % 2 == 1
        if traced:
            trace_path = proc_dir / "trace.json"
            argv = [sys.executable, str(BENCH_DIR / "child.py"), "traced", str(trace_path),
                    f"{workload.name}-s{seed}-p{i}", *qspr_args]
        else:
            argv = [sys.executable, "-m", "qspr.cli", *qspr_args]
        proc = spawn(argv, proc_dir, remaining())
        record.attempted += 1
        problems = checker.check(proc.returncode, proc_dir / "out", proc.stdout)
        if traced and not problems:
            if not trace_path.is_file():
                problems.append("traced process wrote no trace")
            else:
                record.traces.append(json.loads(trace_path.read_text()))
                if workload.kind == "run":
                    record.results.append(read_results(proc_dir / "out" / "results.csv")[1])
        if problems:
            record.failed += 1
            record.problems += [f"process {i}: {p}" for p in problems]
        (record.traced if traced else record.plain).append(proc)
        cycles.append(time.perf_counter() - cycle_started)
    return record


def reference_s(done: dict) -> float:
    """The reference loop's time around one pass."""
    return (done["ref_before_s"] + done["ref_after_s"]) / 2


def end_to_end(workload: Workload, record: RunRecord) -> tuple[dict, dict]:
    """Metric values and the sample count behind each median.

    setup_s must be in seconds, so each probe's time in reference-loop units is
    turned back into seconds at NOMINAL_REFERENCE_S per loop.
    """
    wall_ref = [done["wall_s"] / reference_s(done) for done in record.passes]
    setup_s = [p.wall_s * NOMINAL_REFERENCE_S / ref
               for p, ref in zip(record.setup, record.setup_reference_s)]
    values = {
        "wall_ref": statistics.median(wall_ref),
        "setup_s": statistics.median(setup_s),
        "items_per_ref": statistics.median(workload.items / w for w in wall_ref),
        "cpu_ref": statistics.median(done["cpu_s"] / reference_s(done) for done in record.passes),
        "peak_rss_mb": record.peak_rss_mb,
    }
    samples = {name: len(record.passes) for name in values}
    samples["setup_s"] = len(record.setup)
    samples["peak_rss_mb"] = 1
    return values, samples


def provenance(record: RunRecord, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    versions = json.loads(record.setup[0].stdout.strip().splitlines()[-1]) if record.setup else {}
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "workload": workload.name,
        "command": ["qspr", *workload.command(seed, Path("<config.json>"), Path("<out>"))],
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "scipy": versions.get("scipy"),
        "git_sha": sha,
        "reference": "stored" if seed == REFERENCE_SEED else "seed-free columns stored; "
        "seeded columns against the run's first process",
    }


def report(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work_dir = OUT_ROOT / f"{workload.name}-s{seed}-{os.getpid()}"
    if trace:
        record = run_traced(workload, seed, seconds, work_dir)
        measured = bool(record.setup and record.plain and record.traces)
    else:
        record = run_passes(workload, seed, seconds, work_dir)
        measured = bool(record.setup and record.passes)
    units = END_TO_END_UNITS
    if not measured:
        values, samples = {}, {}
    elif trace:
        values, samples, notes = layer_metrics(workload, record)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
    else:
        values, samples = end_to_end(workload, record)
    correct = measured and not record.problems and len(values) == len(units)

    print(f"# workload {workload.name}: {record.attempted} processes, {record.failed} failed")
    for problem in record.problems[:20]:
        print(f"#   {problem}")
    for name, value in values.items():
        print(f"#   {name:55s} {value:14.6g} {units[name]:10s} n={samples[name]}")
    if trace and measured:
        for note in notes:
            print(f"#   note: {note}")
    elif measured:
        print(f"#   raw times: pass {statistics.median(d['wall_s'] for d in record.passes):.4g} s,"
              f" set-up {statistics.median(p.wall_s for p in record.setup):.4g} s,"
              f" reference loop {1e3 * statistics.median(map(reference_s, record.passes)):.4g} ms"
              " (medians)")
    timings = {
        "setup_wall_s": [p.wall_s for p in record.setup],
        "setup_reference_s": record.setup_reference_s,
        "plain_wall_s": [p.wall_s for p in record.plain],
        "traced_wall_s": [p.wall_s for p in record.traced],
        "pass_wall_s": [done["wall_s"] for done in record.passes],
        "pass_reference_s": [reference_s(done) for done in record.passes],
    }
    print("# processes " + json.dumps({name: times for name, times in timings.items() if times}))
    print("# provenance " + json.dumps(provenance(record, workload, seed, seconds, trace)))
    if correct:
        shutil.rmtree(work_dir)
        if OUT_ROOT.is_dir() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()
    else:
        print(f"# outputs kept in {work_dir}")
    return {
        "correct": correct,
        "attempted": max(record.attempted, 1),
        "failed": record.failed if record.attempted else 1,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a terminate request into an exception so running processes are killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qspr" / "__init__.py").is_file():
        print(f"error: no qspr sources at {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must lie in [0, 2**63)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        result = report(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
        ok &= result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
