"""Experiment runner: sweeps over probe states and sampling budgets, CSV artifacts.

Subcommands:
    run         execute a sweep plan and write plot-ready CSVs plus a manifest
    case        print the resolved constants of a built-in case study
    verify      check the closed-form moments against the Fock-basis oracle
    sensorgram  write the ideal and one seeded noisy sensorgram for a case

All outputs are deterministic functions of the resolved configuration,
including the seed; rerunning a manifest reproduces the CSVs byte for byte.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cases import CaseStudy, available_cases, dataclass_from_json, resolve_case
from .kinetics import linearize_sensorgram, reconstruct_transmittance_sensorgram
from .probes import (
    DEFAULT_TMSD_GAIN,
    ProbeKind,
    ProbeState,
    ScenarioMode,
    SensingScenario,
    enhancement_RM,
    matched_classical_reference,
    mean_M,
    midpoint_enhancement_map,
)
from .simulate import (
    PARAMETER_NAMES,
    LowSignalError,
    SimulationPlan,
    enhancement_Rk,
    run_ensembles,
    synthesize_noisy_sensorgrams,
)

PAPER_FIDELITY_SETS = 1500
MAP_N_MAX = 1e4  # midpoint maps span N in [10, MAP_N_MAX]; a TMSD map keeps N >= G - 1
RESULT_COLUMNS = (
    "case",
    "state",
    "scenario",
    "N",
    "nu",
    "m",
    "parameter",
    "estimate",
    "precision",
    "R_k",
    "R_M_midpoint",
    "failed_fits",
    "seed",
)


@dataclass
class ExperimentConfig:
    """Resolved sweep plan; serializable to/from the JSON config document."""

    case: str = "kausaite2007"
    scenario: str = "standard"
    eta_a: float = 1.0
    states: tuple[str, ...] = ("tmc", "tmf")
    tmsd_gain: float = DEFAULT_TMSD_GAIN
    n_values: tuple[float, ...] = (10.0,)
    nu_values: tuple[int, ...] | None = None
    m_values: tuple[int, ...] = (10,)
    p: int = 200
    seed: int = 42
    output_dir: str = "qspr-out"
    overrides: dict | None = None

    def __post_init__(self) -> None:
        if not self.states:
            raise ValueError("config needs at least one probe state")
        unknown = [s for s in self.states if s not in {k.value for k in ProbeKind}]
        if unknown:
            raise ValueError(f"unknown probe state(s): {unknown}")
        if not (self.n_values and self.m_values):
            raise ValueError("config needs at least one sweep point")
        if self.nu_values is not None and not self.nu_values:
            raise ValueError("nu_values, when given, must be non-empty")
        for name in ("states", "n_values", "nu_values", "m_values"):
            values = getattr(self, name) or ()
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {name} in config")
        for name in ("m_values", "nu_values"):
            if not all(v >= 1 for v in getattr(self, name) or ()):
                raise ValueError(f"every entry of {name} must be >= 1")
        for state in self.states:  # ProbeState checks N > 0, and N >= G - 1 for TMSD
            for n_mean in self.n_values:
                _make_state(state, n_mean, self.tmsd_gain)
        if ProbeKind.TMSD.value in self.states and self.tmsd_gain - 1.0 > MAP_N_MAX:
            raise ValueError(f"tmsd_gain - 1 > {MAP_N_MAX:g} leaves the TMSD midpoint map empty")
        if self.p < 2:  # precision is a standard deviation over sets
            raise ValueError("p must be >= 2")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must lie in [0, 2**63)")
        if self.scenario not in {m.value for m in ScenarioMode}:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.case == "custom" and not self.overrides:
            raise ValueError("custom case requires explicit overrides")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from a JSON document; checks each value's JSON type first."""
        if isinstance(doc, dict) and "config" in doc and "schema_version" in doc:
            doc = doc["config"]  # manifest round-trip
        return dataclass_from_json(cls, doc, "config")

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for key in ("states", "n_values", "nu_values", "m_values"):
            if doc[key] is not None:
                doc[key] = list(doc[key])
        return doc


def build_case(config: ExperimentConfig) -> CaseStudy:
    """Materialize the case study; each override key replaces the base case's.

    ``qspr case NAME`` prints a complete override document. A ``custom`` case
    has no base, so its overrides must give every required key.
    """
    base = {} if config.case == "custom" else resolve_case(config.case).to_dict()
    return CaseStudy.from_dict({**base, **(config.overrides or {}), "name": config.case})


def _make_state(name: str, n_mean: float, tmsd_gain: float) -> ProbeState:
    kind = ProbeKind(name)
    if kind is ProbeKind.TMSD:
        return ProbeState(kind=kind, n_mean=n_mean, g=tmsd_gain)
    return ProbeState(kind=kind, n_mean=n_mean)


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_tables(out_dir: Path, tables: list[tuple[str, tuple[str, ...], list]]) -> list[Path]:
    """Create ``out_dir`` and write each (file name, header, rows) table into it as a CSV."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, header, rows in tables:
        with (out_dir / name).open("w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([_fmt(v) for v in row] for row in rows)
    return [out_dir / name for name, _, _ in tables]


def _prepare(config: ExperimentConfig):
    """Case, grids, ideal traces, scenario and swept nu values shared by every subcommand."""
    case = build_case(config)
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    i_tau = trace.index_at(case.kinetics.tau_s)
    t_mid = 0.5 * (T_L[0] + T_L[i_tau])
    scenario = SensingScenario(
        mode=ScenarioMode(config.scenario), eta_a=config.eta_a, t_mid=t_mid
    )
    nu_values = config.nu_values if config.nu_values is not None else (case.nu_default,)
    return case, trace, T_L, t_mid, scenario, nu_values


def _sensorgram_tables(config: ExperimentConfig, case, trace, T_L, scenario, nu: int) -> list:
    """sensorgram_ideal.csv and one seeded noisy realization per state, as tables to write."""
    states = [_make_state(s, config.n_values[0], config.tmsd_gain) for s in config.states]
    mean_traces = [mean_M(s, T_L, scenario.eta_a, scenario.eta_b) for s in states]
    plans = [
        SimulationPlan(
            nu=nu, m=1, p=1, seed=config.seed, state=s, scenario=scenario,
            tau_s=case.kinetics.tau_s, L0=case.kinetics.L0,
        )
        for s in states
    ]
    sample_traces = [synthesize_noisy_sensorgrams(T_L, plan, sets=[0])[0] for plan in plans]
    names = [s.kind.value for s in states]
    ideal = (
        "sensorgram_ideal.csv",
        ("t", "theta_deg", "n_a", "T", "T_L", *(f"M_mean_{name}" for name in names)),
        [
            (trace.t[i], trace.theta_deg[i], trace.n_a[i], trace.transmittance[i], T_L[i],
             *(mean[i] for mean in mean_traces))
            for i in range(trace.t.size)
        ],
    )
    sample = (
        "sensorgram_sample.csv",
        ("t", *(f"M_sample_{name}" for name in names)),
        [(trace.t[i], *(draw[i] for draw in sample_traces)) for i in range(trace.t.size)],
    )
    return [ideal, sample]


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
    paper_fidelity: bool = False,
) -> dict:
    """Execute the sweep, write all artifacts into ``config.output_dir`` and return the manifest.

    Every ensemble, midpoint map and sensorgram is computed before the first
    file is written, so a run that fails (for example with LowSignalError)
    leaves no partial output behind.
    """
    started = time.perf_counter()
    case, trace, T_L, t_mid, scenario, nu_values = _prepare(config)
    p = max(config.p, PAPER_FIDELITY_SETS) if paper_fidelity else config.p
    points = []  # (state name, N, plan, its classical twin or None)
    for state_name in config.states:
        for n_mean in config.n_values:
            state = _make_state(state_name, n_mean, config.tmsd_gain)
            for nu in nu_values:
                for m in config.m_values:
                    plan = SimulationPlan(
                        nu=int(nu), m=int(m), p=int(p), seed=config.seed, state=state,
                        scenario=scenario, tau_s=case.kinetics.tau_s, L0=case.kinetics.L0,
                    )
                    twin = None
                    if state.kind is not ProbeKind.TMC:
                        twin = replace(plan, state=matched_classical_reference(state))
                    points.append((state_name, n_mean, plan, twin))
    # every distinct plan once, in first-request order, in one set-major run
    plans = list(dict.fromkeys(
        each for *_, plan, twin in points for each in (plan, twin) if each is not None
    ))
    ensembles = dict(zip(plans, run_ensembles(plans, trace.t, T_L, workers=threads)))

    result_rows, unreliable = [], []
    for state_name, n_mean, plan, twin in points:
        res = ensembles[plan]
        if res.unreliable:
            unreliable.append(
                f"{state_name} N={n_mean} nu={plan.nu} m={plan.m}: "
                f"{res.failed_fit_count}/{res.total_fits} fits failed"
            )
        if twin is None:
            r_k = {name: 1.0 for name in PARAMETER_NAMES}
            r_m = 1.0
        else:
            r_k = enhancement_Rk(ensembles[twin], res)
            r_m = float(enhancement_RM(plan.state, t_mid, scenario))
        for parameter, estimate, precision in zip(PARAMETER_NAMES, res.estimate, res.precision):
            result_rows.append(
                (
                    case.name,
                    state_name,
                    config.scenario,
                    n_mean,
                    plan.nu,
                    plan.m,
                    parameter,
                    estimate,
                    precision,
                    r_k[parameter],
                    r_m,
                    res.failed_fit_count,
                    config.seed,
                )
            )

    tables = _sensorgram_tables(config, case, trace, T_L, scenario, int(nu_values[0]))
    tables.append(("results.csv", RESULT_COLUMNS, result_rows))
    map_T = np.linspace(float(T_L.min()), float(T_L.max()), 41)
    for state_name in config.states:
        if state_name == ProbeKind.TMC.value:
            continue
        map_N = np.geomspace(10.0, MAP_N_MAX, 25)
        if state_name == ProbeKind.TMSD.value:
            map_N = map_N[map_N >= config.tmsd_gain - 1.0]
        grid = midpoint_enhancement_map(
            ProbeKind(state_name), scenario, map_T, map_N, g=config.tmsd_gain
        )
        rows = [(n, T, r) for n, row in zip(map_N, grid) for T, r in zip(map_T, row)]
        tables.append((f"midpoint_map_{state_name}.csv", ("N", "T", "R_M"), rows))

    out_dir = Path(config.output_dir)
    written = _write_tables(out_dir, tables)
    manifest = {
        "schema_version": 1,
        "config": {**config.to_dict(), "p": p},
        "versions": {
            "qspr": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "midpoint_transmittance": float(t_mid),
        "unreliable_ensembles": unreliable,
        "outputs": [path.name for path in written],
        "runtime_seconds": time.perf_counter() - started,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    manifest = run_experiment(config, threads=args.threads, paper_fidelity=args.paper_fidelity)
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
    if not (np.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be finite and > 0, got {args.tol}")
    # imported here: no other command needs the oracle or scipy.linalg
    from .oracle import TruncationError, verify_closed_forms

    try:
        reports = verify_closed_forms(tuples=args.tuples, cutoff=args.cutoff, seed=args.seed)
    except TruncationError as exc:
        print(f"verification aborted: {exc}", file=sys.stderr)
        return 1
    failed = False
    for report in reports:
        status = "ok" if report.max_dev <= args.tol else "FAIL"
        failed |= status == "FAIL"
        print(
            f"{report.kind.value:5s} tuples={report.tuples} cutoff={report.cutoff} "
            f"max_dev_delta_M={report.max_dev_delta_M:.3e} "
            f"max_dev_mean_M={report.max_dev_mean_M:.3e} [{status}]"
        )
    return 1 if failed else 0


def _cmd_sensorgram(args: argparse.Namespace) -> int:
    """Ideal + one seeded noisy sensorgram per state, no ensembles (fast)."""
    config = _load_config(args)
    case, trace, T_L, _, scenario, nu_values = _prepare(config)
    tables = _sensorgram_tables(config, case, trace, T_L, scenario, int(nu_values[0]))
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
    verify_p.add_argument("--tol", type=float, default=1e-6)
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


if __name__ == "__main__":
    sys.exit(main())
