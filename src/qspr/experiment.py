"""The experiment behind ``qspr run``: its tables and manifest fields, with no file I/O."""
from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .cases import CaseStudy, dataclass_from_json, field_types, require_json_type, resolve_case
from .fit import NOISE_FLOOR, split_at_tau
from .kinetics import linearize_sensorgram, reconstruct_transmittance_sensorgram
from .probes import (
    DEFAULT_TMSD_GAIN,
    ProbeKind,
    ProbeState,
    ScenarioMode,
    SensingScenario,
    enhancement_RM,
    mean_M,
)
from .simulate import (
    MAX_COUNT,
    PARAMETER_NAMES,
    SimulationPlan,
    run_ensembles,
    synthesize_noisy_sensorgrams,
)

# the midpoint maps' N axis, 8 values a decade from 10 to 1e4; a TMSD map keeps
# N >= G - 1. Python's float pow is libm's, so unlike np.geomspace the axis does
# not follow numpy's SIMD dispatch
MAP_N = tuple(10.0 ** (1 + i / 8) for i in range(25))
MAP_N_MAX = MAP_N[-1]
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
        for name, hint in field_types(ExperimentConfig).items():  # typed as JSON loads them
            value = getattr(self, name)
            require_json_type("config", name, list(value) if isinstance(value, tuple) else value, hint)
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
        if not 0 < self.eta_a <= 1:
            raise ValueError("eta_a must lie in (0, 1]")
        if self.scenario not in {m.value for m in ScenarioMode}:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if self.case == "custom" and not self.overrides:
            raise ValueError("custom case requires explicit overrides")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config from a JSON document; __post_init__ checks each value's JSON type first."""
        if isinstance(doc, dict) and "config" in doc and "schema_version" in doc:
            doc = doc["config"]  # manifest round-trip
        return dataclass_from_json(cls, doc, "config", check_types=False)

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


def _make_state(name: str, n_mean: float | np.ndarray, tmsd_gain: float) -> ProbeState:
    kind = ProbeKind(name)
    if kind is ProbeKind.TMSD:
        return ProbeState(kind=kind, n_mean=n_mean, g=tmsd_gain)
    return ProbeState(kind=kind, n_mean=n_mean)


def _columns_as_rows(*columns: np.ndarray) -> list[tuple]:
    # Python floats: str formats them without a numpy scalar round trip
    return list(zip(*(column.tolist() for column in columns)))


def prepare(config: ExperimentConfig):
    """Case, grids, ideal traces, scenario (with t_mid) and swept nu values of every subcommand."""
    case = build_case(config)
    nu_values = config.nu_values if config.nu_values is not None else (case.nu_default,)
    n_mean, nu = max(config.n_values), max(nu_values)
    if n_mean * nu > MAX_N_NU:
        raise ValueError(
            f"N * nu must be <= {MAX_N_NU:.1e}, where the shot noise falls below "
            f"the fit's resolution; got {n_mean:g} * {nu}"
        )
    split_at_tau(case.grid.times(), case.kinetics.tau_s)  # the fit's phases, checked before any work
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    i_tau = trace.index_at(case.kinetics.tau_s)
    scenario = SensingScenario(
        mode=ScenarioMode(config.scenario), eta_a=config.eta_a, t_mid=0.5 * (T_L[0] + T_L[i_tau])
    )
    return case, trace, T_L, scenario, nu_values


def sensorgram_tables(config: ExperimentConfig, trace, T_L, scenario, nu: int) -> list:
    """sensorgram_ideal.csv and one seeded noisy realization per state, as tables to write."""
    states = [_make_state(s, config.n_values[0], config.tmsd_gain) for s in config.states]
    mean_traces = [mean_M(s, T_L, scenario.eta_a, scenario.eta_b) for s in states]
    plans = [SimulationPlan(nu=nu, m=1, state=s, scenario=scenario) for s in states]
    # sensorgram 0 of set 0 of every state, from one draw of its substream
    sample_traces = synthesize_noisy_sensorgrams(T_L, plans, config.seed, sets=[0])
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


def run(config: ExperimentConfig, threads: int = 1) -> tuple[list, dict]:
    """The sweep's (file name, header, rows) tables and manifest fields; ``threads`` moves no cell.

    The run is exactly ``config``, which the manifest records: as a config, it gives every table.
    """
    case, trace, T_L, scenario, nu_values = prepare(config)
    points = [  # one plan per sweep point; the run adds each point's classical twin
        SimulationPlan(
            nu=nu, m=m, state=_make_state(state_name, n_mean, config.tmsd_gain), scenario=scenario
        )
        for state_name in config.states
        for n_mean in config.n_values
        for nu in nu_values
        for m in config.m_values
    ]
    results = run_ensembles(
        points, trace.t, T_L, case.kinetics, config.seed, config.p, workers=threads
    )

    result_rows, unreliable = [], []
    for res in results:
        plan, state = res.plan, res.plan.state
        for ensemble in (res, res.twin or res):  # a twin's failed fits make R_k unreliable too
            if ensemble.unreliable:
                each = ensemble.plan.state  # a twin shares its point's N, nu and m
                n_ref = "" if each.n_ref is None else f" n_ref={each.n_ref}"
                unreliable.append(
                    f"{each.kind.value} N={each.n_mean}{n_ref} nu={plan.nu} m={plan.m}: "
                    f"{ensemble.failed_fit_count}/{ensemble.total_fits} fits failed"
                )
        point = (case.name, state.kind.value, config.scenario, state.n_mean, plan.nu, plan.m)
        r_m = float(enhancement_RM(state, scenario.t_mid, scenario))
        for row in zip(PARAMETER_NAMES, res.estimate, res.precision, res.R_k):
            result_rows.append((*point, *row, r_m, res.failed_fit_count, config.seed))

    tables = sensorgram_tables(config, trace, T_L, scenario, nu_values[0])
    tables.append(("results.csv", RESULT_COLUMNS, result_rows))
    map_T = np.linspace(float(T_L.min()), float(T_L.max()), 41)
    # each axis value formatted once, by position, for every row that repeats
    # it (a cache keyed by value would merge 0.0 with -0.0)
    T_cells = [str(T) for T in map_T.tolist()]
    for state_name in config.states:
        if state_name == ProbeKind.TMC.value:
            continue
        map_N = MAP_N
        if state_name == ProbeKind.TMSD.value:
            map_N = [n for n in MAP_N if n >= config.tmsd_gain - 1.0]
        grid = enhancement_RM(
            _make_state(state_name, np.array(map_N)[:, None], config.tmsd_gain), map_T, scenario
        )
        rows = [
            (n, T, r) for n, row in zip(map(str, map_N), grid.tolist())
            for T, r in zip(T_cells, row)
        ]
        tables.append((f"midpoint_map_{state_name}.csv", ("N", "T", "R_M"), rows))

    manifest = {
        "schema_version": 1,
        "config": config.to_dict(),
        "versions": {
            "qspr": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "midpoint_transmittance": float(scenario.t_mid),
        "unreliable_ensembles": list(dict.fromkeys(unreliable)),  # a shared twin once
    }
    return tables, manifest
