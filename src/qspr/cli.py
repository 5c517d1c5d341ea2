"""Command line: the qspr subcommands, the CSV and manifest writer, and the exit codes.

Subcommands:
    run         execute a sweep plan and write plot-ready CSVs plus a manifest
    case        print the resolved constants of a built-in case study
    verify      check the closed-form moments against the Fock-basis oracle
    sensorgram  write the ideal and one seeded noisy sensorgram for a case

All outputs are deterministic functions of the resolved configuration,
including the seed. Rerunning a manifest reproduces the CSVs byte for byte on
the same numpy build and SIMD dispatch; elsewhere the results.csv floats agree
within a relative 1e-6 and failed_fits exactly (README, "CLI").
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import replace
from pathlib import Path

from . import experiment
from .cases import available_cases, resolve_case
from .experiment import ExperimentConfig, build_case  # bench/child.py reads cli.build_case
from .simulate import LowSignalError

PAPER_FIDELITY_SETS = 1500
VERIFY_TOLERANCE = 1e-6  # largest deviation from the oracle that ``qspr verify`` passes


def _write_tables(out_dir: Path, tables: list[tuple[str, tuple[str, ...], list]]) -> list[Path]:
    """Create ``out_dir`` and write each (file name, header, rows) table into it as a CSV.

    A cell (``str``, ``int``, ``float`` or numpy ``float64``/``int64``) is
    written as ``str(cell)``: an integer's digits, a float's shortest decimal
    that reads back as the same double (numpy's ``str`` of a float64 is the
    ``repr`` of the equal Python float). Cells are joined without quoting,
    which gives the bytes of ``csv.writer`` only because no cell holds a
    comma, a quote or a line break: numbers never do, and config load admits
    text cells (case, state and scenario names) from fixed vocabularies only.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
        (out_dir / name).write_text("\n".join(lines) + "\n", newline="")
    return [out_dir / name for name, _, _ in tables]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> dict:
    """Write the run's CSVs, then manifest.json, into ``config.output_dir``; returns the manifest.

    ``experiment.run`` computes every table first: a run that fails writes nothing.
    """
    started = time.perf_counter()
    tables, manifest = experiment.run(config, threads)
    out_dir = Path(config.output_dir)
    written = _write_tables(out_dir, tables)
    manifest["outputs"] = [path.name for path in written]
    manifest["runtime_seconds"] = time.perf_counter() - started
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _cmd_run(args: argparse.Namespace) -> int:
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    config = _load_config(args)
    if args.paper_fidelity:
        config = replace(config, p=max(config.p, PAPER_FIDELITY_SETS))
    manifest = run_experiment(config, threads=args.threads)
    for name in (*manifest["outputs"], "manifest.json"):
        print(f"wrote {Path(config.output_dir) / name}")
    print(f"done in {manifest['runtime_seconds']:.1f}s")
    if manifest["unreliable_ensembles"] and not args.allow_unreliable:
        for line in manifest["unreliable_ensembles"]:
            print(f"UNRELIABLE: {line}", file=sys.stderr)
        print(
            "one or more ensembles exceeded the fit-failure threshold; "
            "rerun with --allow-unreliable to accept them",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_case(args: argparse.Namespace) -> int:
    print(json.dumps(resolve_case(args.name).to_dict(), indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0 <= args.seed < 2**63:
        raise ValueError(f"--seed must lie in [0, 2**63), got {args.seed}")
    # imported here: no other command needs the oracle
    from .oracle import TruncationError, verify_closed_forms

    try:
        reports = verify_closed_forms(tuples=args.tuples, cutoff=args.cutoff, seed=args.seed)
    except TruncationError as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return 1
    failed = False
    for report in reports:
        status = "ok" if report.max_dev <= VERIFY_TOLERANCE else "FAIL"  # NaN fails too
        failed |= status == "FAIL"
        print(
            f"{report.kind.value:5s} tuples={args.tuples} cutoff={args.cutoff} "
            f"max_dev_delta_M={report.max_dev_delta_M:.3e} "
            f"max_dev_mean_M={report.max_dev_mean_M:.3e} [{status}]"
        )
    return 1 if failed else 0


def _cmd_sensorgram(args: argparse.Namespace) -> int:
    """Ideal + one seeded noisy sensorgram per state, no ensembles (fast)."""
    config = _load_config(args)
    _, trace, T_L, scenario, nu_values = experiment.prepare(config)
    tables = experiment.sensorgram_tables(config, trace, T_L, scenario, nu_values[0])
    for path in _write_tables(Path(config.output_dir), tables):
        print(f"wrote {path}")
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
    else:
        config = ExperimentConfig()
    updates = {}
    if args.case:
        updates["case"] = args.case
    if args.out:
        updates["output_dir"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    return replace(config, **updates) if updates else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspr",
        description="Quantum-enhanced SPR binding-kinetics simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the config-loading options of ``run`` and ``sensorgram``, read by _load_config
    config_opts = argparse.ArgumentParser(add_help=False)
    config_opts.add_argument("--config", help="JSON config (a manifest.json also works)")
    config_opts.add_argument("--case", choices=[*available_cases(), "custom"])
    config_opts.add_argument("--out", help="output directory")
    config_opts.add_argument("--seed", type=int)

    run_p = sub.add_parser("run", parents=[config_opts], help="run a sweep and write CSV artifacts")
    run_p.add_argument("--threads", type=int, default=1)
    run_p.add_argument(
        "--paper-fidelity", action="store_true",
        help=f"raise the number of sets to at least {PAPER_FIDELITY_SETS}",
    )
    run_p.add_argument("--allow-unreliable", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    case_p = sub.add_parser("case", help="print a built-in case study")
    case_p.add_argument("name")
    case_p.set_defaults(func=_cmd_case)

    verify_p = sub.add_parser("verify", help="oracle check of the closed forms")
    verify_p.add_argument("--cutoff", type=int, default=40)
    verify_p.add_argument("--tuples", type=int, default=50)
    verify_p.add_argument("--seed", type=int, default=2024)
    verify_p.set_defaults(func=_cmd_verify)

    sens_p = sub.add_parser(
        "sensorgram", parents=[config_opts], help="write ideal and sample sensorgrams"
    )
    sens_p.set_defaults(func=_cmd_sensorgram)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, LowSignalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a time grid too fine to allocate
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    except BrokenExecutor:
        print(
            "error: a worker process ended abruptly (for example, out of memory)", file=sys.stderr
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
