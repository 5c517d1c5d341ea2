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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cases import CaseStudy, available_cases, resolve_case
from .kinetics import (
    KineticParameters,
    TimeGrid,
    linearize_sensorgram,
    reconstruct_transmittance_sensorgram,
)
from .oracle import TruncationError, verify_closed_forms
from .probes import (
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
    LowSignalError,
    SimulationPlan,
    TrialEnsembleResult,
    enhancement_Rk,
    run_ensemble,
    synthesize_noisy_sensorgrams,
)
from .spr_optics import OpticalStack

PAPER_FIDELITY_SETS = 1500
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
    tmsd_gain: float = 4.5
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
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate probe states in config")
        if not (self.n_values and self.m_values):
            raise ValueError("config needs at least one sweep point")
        if self.nu_values is not None and not self.nu_values:
            raise ValueError("nu_values, when given, must be non-empty")
        if self.p < 1:
            raise ValueError("p must be >= 1")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must lie in [0, 2**63)")
        if self.scenario not in {m.value for m in ScenarioMode}:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.case == "custom" and not self.overrides:
            raise ValueError("custom case requires explicit overrides")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if "config" in doc and "schema_version" in doc:  # manifest round-trip
            doc = doc["config"]
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("states", "n_values", "nu_values", "m_values"):
            if doc.get(key) is not None:
                doc[key] = tuple(doc[key])
        return cls(**doc)

    def to_dict(self) -> dict:
        doc = dataclasses.asdict(self)
        for key in ("states", "n_values", "nu_values", "m_values"):
            if doc[key] is not None:
                doc[key] = list(doc[key])
        return doc


def _stack_from_dict(doc: dict) -> OpticalStack:
    eps = doc["eps_metal"]
    eps = complex(eps[0], eps[1]) if isinstance(eps, (list, tuple)) else complex(eps)
    return OpticalStack(
        wavelength_nm=doc["wavelength_nm"],
        n_prism=doc["n_prism"],
        eps_metal=eps,
        metal_thickness_nm=doc["metal_thickness_nm"],
        theta_in_deg=doc["theta_in_deg"],
    )


def build_case(config: ExperimentConfig) -> CaseStudy:
    """Materialize the case study, applying any overrides."""
    overrides = config.overrides or {}
    if config.case == "custom":
        required = {"stack", "kinetics", "angular_amplitude_deg", "buffer_index", "grid"}
        missing = required - set(overrides)
        if missing:
            raise ValueError(f"custom case missing overrides: {sorted(missing)}")
        base = None
    else:
        base = resolve_case(config.case)

    def pick(key, fallback):
        return overrides[key] if key in overrides else fallback

    stack = _stack_from_dict(overrides["stack"]) if "stack" in overrides else base.stack
    kin = (
        KineticParameters(**overrides["kinetics"]) if "kinetics" in overrides else base.kinetics
    )
    grid = TimeGrid(**overrides["grid"]) if "grid" in overrides else base.grid
    return CaseStudy(
        name=config.case,
        stack=stack,
        kinetics=kin,
        angular_amplitude_deg=pick(
            "angular_amplitude_deg", base.angular_amplitude_deg if base else None
        ),
        buffer_index=pick("buffer_index", base.buffer_index if base else None),
        grid=grid,
        nu_default=pick("nu_default", base.nu_default if base else 1000),
        reported_theta0_deg=pick(
            "reported_theta0_deg", base.reported_theta0_deg if base else float("nan")
        ),
    )


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


def _write_csv(path: Path, header: tuple[str, ...], rows: list[tuple]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


@dataclass
class ExperimentSummary:
    output_dir: Path
    written: list[Path] = field(default_factory=list)
    unreliable: list[str] = field(default_factory=list)
    runtime_seconds: float = 0.0


def _prepare(config: ExperimentConfig):
    """Case, grids, ideal traces and scenario shared by every subcommand."""
    case = build_case(config)
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    i_tau = trace.index_at(case.kinetics.tau_s)
    t_mid = 0.5 * (T_L[0] + T_L[i_tau])
    scenario = SensingScenario(
        mode=ScenarioMode(config.scenario), eta_a=config.eta_a, t_mid=t_mid
    )
    return case, trace, T_L, t_mid, scenario


def _write_sensorgram_csvs(
    config: ExperimentConfig, case, trace, T_L, scenario, nu: int, out_dir: Path
) -> list[Path]:
    """sensorgram_ideal.csv and one seeded noisy realization per state."""
    states = [_make_state(s, config.n_values[0], config.tmsd_gain) for s in config.states]
    mean_traces = {s.kind.value: mean_M(s, T_L, scenario) for s in states}
    ideal_path = out_dir / "sensorgram_ideal.csv"
    _write_csv(
        ideal_path,
        ("t", "theta_deg", "n_a", "T", "T_L", *(f"M_mean_{s.kind.value}" for s in states)),
        [
            (
                trace.t[i],
                trace.theta_deg[i],
                trace.n_a[i],
                trace.transmittance[i],
                T_L[i],
                *(mean_traces[s.kind.value][i] for s in states),
            )
            for i in range(trace.t.size)
        ],
    )

    sample_traces = {}
    for s in states:
        plan = SimulationPlan(
            nu=nu, m=1, p=1, seed=config.seed, state=s, scenario=scenario,
            grid=case.grid, tau_s=case.kinetics.tau_s, L0=case.kinetics.L0,
        )
        sample_traces[s.kind.value] = synthesize_noisy_sensorgrams(T_L, plan, sets=[0])[0]
    sample_path = out_dir / "sensorgram_sample.csv"
    _write_csv(
        sample_path,
        ("t", *(f"M_sample_{s.kind.value}" for s in states)),
        [
            (trace.t[i], *(sample_traces[s.kind.value][i] for s in states))
            for i in range(trace.t.size)
        ],
    )
    return [ideal_path, sample_path]


def run_experiment(
    config: ExperimentConfig,
    threads: int = 1,
    paper_fidelity: bool = False,
) -> ExperimentSummary:
    """Execute the sweep and write all artifacts into ``config.output_dir``.

    Every ensemble runs before the first file is written, so a run that fails
    (for example with LowSignalError) leaves no partial output behind.
    """
    started = time.perf_counter()
    case, trace, T_L, t_mid, scenario = _prepare(config)
    p = max(config.p, PAPER_FIDELITY_SETS) if paper_fidelity else config.p
    nu_values = config.nu_values if config.nu_values is not None else (case.nu_default,)
    summary = ExperimentSummary(output_dir=Path(config.output_dir))

    cache: dict[SimulationPlan, TrialEnsembleResult] = {}

    def ensemble(plan: SimulationPlan) -> TrialEnsembleResult:
        if plan not in cache:
            cache[plan] = run_ensemble(plan, trace.t, T_L, workers=threads)
        return cache[plan]

    result_rows = []
    for state_name in config.states:
        for n_mean in config.n_values:
            state = _make_state(state_name, n_mean, config.tmsd_gain)
            for nu in nu_values:
                for m in config.m_values:
                    plan = SimulationPlan(
                        nu=int(nu), m=int(m), p=int(p), seed=config.seed, state=state,
                        scenario=scenario, grid=case.grid,
                        tau_s=case.kinetics.tau_s, L0=case.kinetics.L0,
                    )
                    res = ensemble(plan)
                    if res.unreliable:
                        summary.unreliable.append(
                            f"{state_name} N={n_mean} nu={nu} m={m}: "
                            f"{res.failed_fit_count}/{res.total_fits} fits failed"
                        )
                    if state.kind is ProbeKind.TMC:
                        r_k = {name: 1.0 for name in ("k_a", "k_s", "k_d")}
                        r_m = 1.0
                    else:
                        twin = ensemble(replace(plan, state=matched_classical_reference(state)))
                        r_k = enhancement_Rk(twin, res)
                        r_m = float(enhancement_RM(state, t_mid, scenario))
                    for parameter in ("k_a", "k_s", "k_d"):
                        ps = res.summary(parameter)
                        result_rows.append(
                            (
                                case.name,
                                state_name,
                                config.scenario,
                                n_mean,
                                int(nu),
                                int(m),
                                parameter,
                                ps.estimate,
                                ps.precision,
                                r_k[parameter],
                                r_m,
                                res.failed_fit_count,
                                config.seed,
                            )
                        )

    out_dir = summary.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    summary.written.extend(
        _write_sensorgram_csvs(config, case, trace, T_L, scenario, int(nu_values[0]), out_dir)
    )
    results_path = out_dir / "results.csv"
    _write_csv(results_path, RESULT_COLUMNS, result_rows)
    summary.written.append(results_path)

    map_T = np.linspace(float(T_L.min()), float(T_L.max()), 41)
    map_N = np.geomspace(10.0, 1e4, 25)
    for state_name in config.states:
        if state_name == ProbeKind.TMC.value:
            continue
        grid = midpoint_enhancement_map(
            ProbeKind(state_name), scenario, map_T, map_N, g=config.tmsd_gain
        )
        rows = [
            (map_N[i], map_T[j], grid[i, j])
            for i in range(map_N.size)
            for j in range(map_T.size)
        ]
        map_path = out_dir / f"midpoint_map_{state_name}.csv"
        _write_csv(map_path, ("N", "T", "R_M"), rows)
        summary.written.append(map_path)

    summary.runtime_seconds = time.perf_counter() - started
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
        "unreliable_ensembles": summary.unreliable,
        "outputs": [path.name for path in summary.written],
        "runtime_seconds": summary.runtime_seconds,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    summary.written.append(manifest_path)
    return summary


def write_sensorgram_artifacts(config: ExperimentConfig) -> ExperimentSummary:
    """Ideal + one seeded noisy sensorgram per state, no ensembles (fast)."""
    case, trace, T_L, _, scenario = _prepare(config)
    nu = int(config.nu_values[0]) if config.nu_values is not None else case.nu_default
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = ExperimentSummary(output_dir=out_dir)
    summary.written.extend(
        _write_sensorgram_csvs(config, case, trace, T_L, scenario, nu, out_dir)
    )
    return summary


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_config(args)
    summary = run_experiment(config, threads=args.threads, paper_fidelity=args.paper_fidelity)
    for path in summary.written:
        print(f"wrote {path}")
    print(f"done in {summary.runtime_seconds:.1f}s")
    if summary.unreliable and not args.allow_unreliable:
        for line in summary.unreliable:
            print(f"UNRELIABLE: {line}", file=sys.stderr)
        print(
            "one or more ensembles exceeded the fit-failure threshold; "
            "rerun with --allow-unreliable to accept them",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_case(args: argparse.Namespace) -> int:
    case = resolve_case(args.name)
    doc = {
        "name": case.name,
        "stack": {
            "wavelength_nm": case.stack.wavelength_nm,
            "n_prism": case.stack.n_prism,
            "eps_metal": [case.stack.eps_metal.real, case.stack.eps_metal.imag],
            "metal_thickness_nm": case.stack.metal_thickness_nm,
            "theta_in_deg": case.stack.theta_in_deg,
        },
        "kinetics": {
            "k_a": case.kinetics.k_a,
            "k_d": case.kinetics.k_d,
            "L0": case.kinetics.L0,
            "tau_s": case.kinetics.tau_s,
            "k_s": case.kinetics.k_s,
        },
        "angular_amplitude_deg": case.angular_amplitude_deg,
        "buffer_index": case.buffer_index,
        "theta0_deg": case.theta0_deg,
        "reported_theta0_deg": case.reported_theta0_deg,
        "grid": {"t_start": case.grid.t_start, "t_end": case.grid.t_end, "step": case.grid.step},
        "nu_default": case.nu_default,
    }
    print(json.dumps(doc, indent=2))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.tuples < 1:
        print("--tuples must be >= 1", file=sys.stderr)
        return 2
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
    config = _load_config(args)
    summary = write_sensorgram_artifacts(config)
    for path in summary.written:
        print(f"wrote {path}")
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if getattr(args, "config", None):
        doc = json.loads(Path(args.config).read_text())
        config = ExperimentConfig.from_dict(doc)
    else:
        config = ExperimentConfig()
    updates = {}
    if getattr(args, "case", None):
        updates["case"] = args.case
    if getattr(args, "out", None):
        updates["output_dir"] = args.out
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    return replace(config, **updates) if updates else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspr",
        description="Quantum-enhanced SPR binding-kinetics simulation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep and write CSV artifacts")
    run_p.add_argument("--config", help="JSON config (a manifest.json also works)")
    run_p.add_argument("--case", choices=[*available_cases(), "custom"])
    run_p.add_argument("--out", help="output directory")
    run_p.add_argument("--seed", type=int)
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

    sens_p = sub.add_parser("sensorgram", help="write ideal and sample sensorgrams")
    sens_p.add_argument("--config")
    sens_p.add_argument("--case", choices=[*available_cases(), "custom"])
    sens_p.add_argument("--out")
    sens_p.add_argument("--seed", type=int)
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
