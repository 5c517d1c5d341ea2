"""Monte Carlo ensemble engine for noisy sensorgram fitting.

Protocol: at every time instance the detector averages nu shots, so the
recorded measurement-space value is Gaussian, M ~ Normal(<M>(t), dM(t)/sqrt(nu))
by the central limit theorem whatever the per-shot statistics. A set consists
of m such noisy sensorgrams, each fitted independently; the set average kbar of
the fitted rate constants is one sample. Repeating over p sets gives the
estimate (mean of kbar) and the estimation precision (standard deviation of
kbar). The fits of a chunk of SETS_PER_CHUNK sets run as one block solve
(``qspr.fit.fit_sensorgrams``), whose rows do not depend on each other.

Randomness is counter-based: every (seed, set, sensorgram) triple owns a Philox
substream, and normals are drawn by inverse transform (ndtri of the stream's
uniforms). Results are therefore bit-identical for any execution order or
worker count, and runs that share a seed reuse the same underlying standard
normals across states/scenarios (common random numbers).
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.special import ndtri

from .fit import fit_sensorgrams
from .probes import ProbeState, SensingScenario, delta_M, mean_M

UNRELIABLE_FAILURE_FRACTION = 0.2
# sets per block solve: the unit of work of serial and pooled runs alike, keyed
# by set index and never by worker count; bounds the block's memory for large p
SETS_PER_CHUNK = 64


class LowSignalError(RuntimeError):
    """An entire set produced no converged fits; the plan's SNR is too low."""


@dataclass(frozen=True)
class SimulationPlan:
    """Everything needed to reproduce one ensemble bit-for-bit.

    nu: measurements per time instance; m: sensorgrams per set; p: sets.
    tau_s and L0 parameterize the fit (switch time and ligand concentration).
    """

    nu: int
    m: int
    p: int
    seed: int
    state: ProbeState
    scenario: SensingScenario
    tau_s: float
    L0: float

    def __post_init__(self) -> None:
        for name in ("nu", "m", "p"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must lie in [0, 2**63)")
        if not (self.tau_s > 0 and self.L0 > 0):
            raise ValueError("tau_s and L0 must be positive")


@dataclass(frozen=True)
class ParameterSummary:
    estimate: float
    precision: float


@dataclass(frozen=True)
class TrialEnsembleResult:
    """Distribution summary of the set-averaged rate constants over p sets."""

    k_a: ParameterSummary
    k_s: ParameterSummary
    k_d: ParameterSummary
    failed_fit_count: int
    total_fits: int
    unreliable: bool
    plan: SimulationPlan

    def summary(self, parameter: str) -> ParameterSummary:
        if parameter not in ("k_a", "k_s", "k_d"):
            raise KeyError(parameter)
        return getattr(self, parameter)


def sensorgram_substream(seed: int, set_index: int, sensorgram_index: int) -> np.random.Generator:
    """Philox generator owned by one (seed, set, sensorgram) triple."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(set_index, sensorgram_index))
    return np.random.Generator(np.random.Philox(ss))


def standard_normals(rng: np.random.Generator, n: int) -> np.ndarray:
    """n standard normals by inverse transform (stable, documented algorithm)."""
    u = np.maximum(rng.random(n), 2.0**-53)  # keep ndtri off the -inf endpoint
    return ndtri(u)


def synthesize_noisy_sensorgrams(transmittance, plan: SimulationPlan, sets) -> np.ndarray:
    """Noisy measurement-space sensorgrams Mbar(t) of the given sets, one per row.

    Row i*m + j is sensorgram j of set ``sets[i]``, drawn from its own
    (seed, set, sensorgram) substream; the sample-mean noise is dM/sqrt(nu).
    """
    T = np.asarray(transmittance, dtype=float)
    if np.any(T < 0) or np.any(T > 1):
        raise ValueError("ideal transmittance must lie in [0, 1]")
    eta_a, eta_b = plan.scenario.eta_a, plan.scenario.eta_b
    mean = mean_M(plan.state, T, eta_a, eta_b)
    sigma = delta_M(plan.state, T, eta_a, eta_b) / np.sqrt(plan.nu)
    normals = [
        standard_normals(sensorgram_substream(plan.seed, s, j), T.size)
        for s in sets
        for j in range(plan.m)
    ]
    return mean + sigma * np.reshape(normals, (-1, T.size))


def _fit_sets(
    first_set: int,
    *,
    plan: SimulationPlan,
    t: np.ndarray,
    transmittance: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Fitted (k_a, k_s, k_d) (sets, m, 3) and their converged flags (sets, m) of a chunk."""
    sets = range(first_set, min(first_set + SETS_PER_CHUNK, plan.p))
    Y = synthesize_noisy_sensorgrams(transmittance, plan, sets)
    fits = fit_sensorgrams(t, Y, plan.tau_s, plan.L0)
    rates = np.column_stack([fits.k_a, fits.k_s, fits.k_d])
    return rates.reshape(len(sets), plan.m, 3), fits.converged.reshape(len(sets), plan.m)


def run_ensemble(plan: SimulationPlan, t, transmittance, workers: int = 1) -> TrialEnsembleResult:
    """Simulate p sets of m noisy sensorgrams and summarize the kbar distribution.

    Sets are fitted in chunks of SETS_PER_CHUNK, one block solve per chunk,
    serially or spread over ``workers`` processes. Non-converged fits are
    excluded from their set's average and counted; a set with no converged
    fits at all aborts with LowSignalError. The result is flagged unreliable
    when more than 20% of all fits failed. Output is independent of ``workers``.
    """
    t = np.asarray(t, dtype=float)
    T = np.asarray(transmittance, dtype=float)
    if t.shape != T.shape:
        raise ValueError("t and transmittance must share one grid")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    worker = partial(_fit_sets, plan=plan, t=t, transmittance=T)
    chunks = range(0, plan.p, SETS_PER_CHUNK)
    workers = min(workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(worker, chunks))
    else:
        per_chunk = map(worker, chunks)
    rates, converged = (np.concatenate(parts) for parts in zip(*per_chunk))

    good = converged.sum(axis=1)
    if not good.all():
        raise LowSignalError(
            f"set {np.argmin(good)}: all {plan.m} fits failed; "
            "signal-to-noise too low for this plan (raise nu, m or N)"
        )
    # each set's mean over its converged fits
    kbars = np.where(converged[:, :, None], rates, 0.0).sum(axis=1) / good[:, None]
    estimates = kbars.mean(axis=0)
    precisions = kbars.std(axis=0, ddof=1) if plan.p > 1 else np.zeros(3)
    total = plan.m * plan.p
    failed = total - int(good.sum())
    return TrialEnsembleResult(
        k_a=ParameterSummary(float(estimates[0]), float(precisions[0])),
        k_s=ParameterSummary(float(estimates[1]), float(precisions[1])),
        k_d=ParameterSummary(float(estimates[2]), float(precisions[2])),
        failed_fit_count=failed,
        total_fits=total,
        unreliable=failed > UNRELIABLE_FAILURE_FRACTION * total,
        plan=plan,
    )


PARAMETER_NAMES = ("k_a", "k_s", "k_d")


def _require_matching(a: SimulationPlan, b: SimulationPlan, ignore: tuple[str, ...]) -> None:
    normalized_a = replace(a, **{f: getattr(b, f) for f in ignore})
    if normalized_a != b:
        raise ValueError(f"plans differ beyond {ignore}; enhancement ratios are not comparable")


def enhancement_Rk(classical: TrialEnsembleResult, quantum: TrialEnsembleResult) -> dict[str, float]:
    """Kinetic enhancement R_k = precision(classical)/precision(quantum) per parameter.

    The two plans must agree in everything except the probe state, and the
    states must carry the same signal-mode photon number.
    """
    _require_matching(classical.plan, quantum.plan, ignore=("state",))
    if classical.plan.state.n_mean != quantum.plan.state.n_mean:
        raise ValueError("states must carry matching signal-mode photon numbers")
    return {
        name: classical.summary(name).precision / quantum.summary(name).precision
        for name in PARAMETER_NAMES
    }


def m_enhancement(
    larger_m: TrialEnsembleResult, smaller_m: TrialEnsembleResult
) -> dict[str, float]:
    """Precision gain from a larger set size: precision(m')/precision(m) per parameter.

    Plans must be identical apart from m. By the 1/sqrt(m) law the expected
    value is sqrt(m/m') for every probe state, classical included.
    """
    _require_matching(larger_m.plan, smaller_m.plan, ignore=("m",))
    return {
        name: smaller_m.summary(name).precision / larger_m.summary(name).precision
        for name in PARAMETER_NAMES
    }
