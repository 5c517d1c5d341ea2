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
import dataclasses
import json
import os
import sys
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .cases import CaseStudy, available_cases, dataclass_from_json, resolve_case
from .fit import NOISE_FLOOR
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
    MAX_COUNT,
    PARAMETER_NAMES,
    LowSignalError,
    SimulationPlan,
    enhancement_Rk,
    run_ensembles,
    synthesize_noisy_sensorgrams,
)

PAPER_FIDELITY_SETS = 1500
VERIFY_TOLERANCE = 1e-6  # largest deviation from the oracle that ``qspr verify`` passes
MAP_N_MAX = 1e4  # midpoint maps span N in [10, MAP_N_MAX]; a TMSD map keeps N >= G - 1
# largest N * nu: a point's relative shot noise, about 1/sqrt(N * nu), must stay
# above the fit's noise floor, which gives N * nu <= 2.0e19
MAX_N_NU = 1.0 / NOISE_FLOOR**2
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
        if not all(m <= MAX_COUNT for m in self.m_values):
            raise ValueError("every entry of m_values must be <= 2**32")
        for state in self.states:  # ProbeState checks N > 0, and N >= G - 1 for TMSD
            for n_mean in self.n_values:
                _make_state(state, n_mean, self.tmsd_gain)
        if ProbeKind.TMSD.value in self.states and self.tmsd_gain - 1.0 > MAP_N_MAX:
            raise ValueError(f"tmsd_gain - 1 > {MAP_N_MAX:g} leaves the TMSD midpoint map empty")
        if self.p < 2:  # precision is a standard deviation over sets
            raise ValueError("p must be >= 2")
        if self.p > MAX_COUNT:
            raise ValueError("p must be <= 2**32")
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


def _columns_as_rows(*columns: np.ndarray) -> list[tuple]:
    # Python floats: str formats them without a numpy scalar round trip
    return list(zip(*(column.tolist() for column in columns)))


def _prepare(config: ExperimentConfig):
    """Case, grids, ideal traces, scenario (with t_mid) and swept nu values of every subcommand."""
    case = build_case(config)
    nu_values = config.nu_values if config.nu_values is not None else (case.nu_default,)
    n_mean, nu = max(config.n_values), max(nu_values)
    if n_mean * nu > MAX_N_NU:
        raise ValueError(
            f"N * nu must be <= {MAX_N_NU:.1e}, where the shot noise falls below "
            f"the fit's resolution; got {n_mean:g} * {nu}"
        )
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    i_tau = trace.index_at(case.kinetics.tau_s)
    scenario = SensingScenario(
        mode=ScenarioMode(config.scenario), eta_a=config.eta_a, t_mid=0.5 * (T_L[0] + T_L[i_tau])
    )
    return case, trace, T_L, scenario, nu_values


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
    # sensorgram 0 of set 0 of every state, from one draw of its substream
    sample_traces = synthesize_noisy_sensorgrams(T_L, plans, sets=[0])
    names = [s.kind.value for s in states]
    ideal = (
        "sensorgram_ideal.csv",
        ("t", "theta_deg", "n_a", "T", "T_L", *(f"M_mean_{name}" for name in names)),
        _columns_as_rows(
            trace.t, trace.theta_deg, trace.n_a, trace.transmittance, T_L, *mean_traces
        ),
    )
    sample = (
        "sensorgram_sample.csv",
        ("t", *(f"M_sample_{name}" for name in names)),
        _columns_as_rows(trace.t, *sample_traces),
    )
    return [ideal, sample]


def run_experiment(config: ExperimentConfig, threads: int = 1) -> dict:
    """Execute the sweep, write all artifacts into ``config.output_dir`` and return the manifest.

    The run is exactly ``config`` (p sets per ensemble) and the manifest
    records ``config.to_dict()``, so the manifest as a config reproduces every
    CSV; ``threads`` changes no output. Every ensemble, midpoint map and
    sensorgram is computed before the first file is written, so a run that
    fails (for example with LowSignalError) leaves no partial output behind.
    """
    started = time.perf_counter()
    case, trace, T_L, scenario, nu_values = _prepare(config)
    points, twins = [], {}  # one plan per sweep point; its classical twin (a TMC plan's is itself)
    for state_name in config.states:
        for n_mean in config.n_values:
            state = _make_state(state_name, n_mean, config.tmsd_gain)
            for nu in nu_values:
                for m in config.m_values:
                    plan = SimulationPlan(
                        nu=int(nu), m=int(m), p=int(config.p), seed=config.seed, state=state,
                        scenario=scenario, tau_s=case.kinetics.tau_s, L0=case.kinetics.L0,
                    )
                    points.append(plan)
                    twins[plan] = replace(plan, state=matched_classical_reference(state))
    # every distinct plan once, in first-request order, in one set-major run;
    # outputs do not depend on the worker count, so more workers than CPUs buy nothing
    plans = list(dict.fromkeys(each for plan in points for each in (plan, twins[plan])))
    workers = min(threads, os.cpu_count() or 1)
    ensembles = dict(zip(plans, run_ensembles(plans, trace.t, T_L, workers=workers)))

    result_rows, unreliable = [], []
    for plan in points:
        res = ensembles[plan]
        state_name, n_mean = plan.state.kind.value, plan.state.n_mean
        if res.unreliable:
            unreliable.append(
                f"{state_name} N={n_mean} nu={plan.nu} m={plan.m}: "
                f"{res.failed_fit_count}/{res.total_fits} fits failed"
            )
        r_k = enhancement_Rk(ensembles[twins[plan]], res)
        r_m = float(enhancement_RM(plan.state, scenario.t_mid, scenario))
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
    # each axis value formatted once, by position, for every row that repeats
    # it (a cache keyed by value would merge 0.0 with -0.0)
    T_cells = [str(T) for T in map_T.tolist()]
    for state_name in config.states:
        if state_name == ProbeKind.TMC.value:
            continue
        map_N = np.geomspace(10.0, MAP_N_MAX, 25)
        if state_name == ProbeKind.TMSD.value:
            map_N = map_N[map_N >= config.tmsd_gain - 1.0]
        grid = midpoint_enhancement_map(
            ProbeKind(state_name), scenario, map_T, map_N, g=config.tmsd_gain
        )
        rows = [
            (n, T, r) for n, row in zip(map(str, map_N.tolist()), grid.tolist())
            for T, r in zip(T_cells, row)
        ]
        tables.append((f"midpoint_map_{state_name}.csv", ("N", "T", "R_M"), rows))

    out_dir = Path(config.output_dir)
    written = _write_tables(out_dir, tables)
    manifest = {
        "schema_version": 1,
        "config": config.to_dict(),
        "versions": {
            "qspr": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "midpoint_transmittance": float(scenario.t_mid),
        "unreliable_ensembles": unreliable,
        "outputs": [path.name for path in written],
        "runtime_seconds": time.perf_counter() - started,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


def _cmd_run(args: argparse.Namespace) -> int:
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
        status = "ok" if report.max_dev <= VERIFY_TOLERANCE else "FAIL"
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
    case, trace, T_L, scenario, nu_values = _prepare(config)
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
