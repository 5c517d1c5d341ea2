"""Monte Carlo ensemble engine for noisy sensorgram fitting.

Protocol: at every time instance the detector averages nu shots, so the
recorded measurement-space value is Gaussian, M ~ Normal(<M>(t), dM(t)/sqrt(nu))
by the central limit theorem whatever the per-shot statistics. A set consists
of m such noisy sensorgrams, each fitted independently; the set average kbar of
the fitted rate constants is one sample. Repeating over p sets gives the
estimate (mean of kbar) and the estimation precision (standard deviation of
kbar).

Randomness is counter-based: every (seed, set, sensorgram) triple owns a Philox
substream, and normals are drawn by inverse transform (ndtri of the stream's
uniforms). Results are therefore bit-identical for any execution order or
worker count, and plans that share a seed share the same underlying standard
normals across states, nu and m (common random numbers).

The engine is set-major: ``run_ensembles`` takes every plan of a sweep at
once. Each chunk of SETS_PER_CHUNK sets draws its substreams once, for the
largest m; each plan reads the first m sensorgrams of every set. Consecutive
plans, in the order given, share one block solve (``qspr.fit.fit_sensorgrams``)
of up to ROWS_PER_BLOCK rows, and a larger plan gets a block of its own. A row
of that solve is bitwise independent of the other rows, so a plan's result is
the same whatever other plans share its run or its block.
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
# sets per chunk: the unit of work of serial and pooled runs alike, keyed by
# set index and never by worker count; bounds a chunk's memory for large p
SETS_PER_CHUNK = 64
# rows per block solve that a chunk's plans share: fewer, larger solves cost
# fewer LM loops, and the bound keeps the solve's temporaries (about 5 KB per
# row) small next to the process
ROWS_PER_BLOCK = 256


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


def _substream_normals(seed: int, sets, m: int, n: int) -> np.ndarray:
    """(sets, m, n) standard normals; [i, j] comes from the substream of set ``sets[i]``, sensorgram j."""
    Z = np.empty((len(sets), m, n))
    for i, s in enumerate(sets):
        for j in range(m):
            Z[i, j] = standard_normals(sensorgram_substream(seed, s, j), n)
    return Z


def _noise_law(plan: SimulationPlan, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation dM/sqrt(nu) of the plan's measured sensorgram on T."""
    if np.any(T < 0) or np.any(T > 1):
        raise ValueError("ideal transmittance must lie in [0, 1]")
    eta_a, eta_b = plan.scenario.eta_a, plan.scenario.eta_b
    mean = mean_M(plan.state, T, eta_a, eta_b)
    return mean, delta_M(plan.state, T, eta_a, eta_b) / np.sqrt(plan.nu)


def synthesize_noisy_sensorgrams(transmittance, plan: SimulationPlan, sets) -> np.ndarray:
    """Noisy measurement-space sensorgrams Mbar(t) of the given sets, one per row.

    Row i*m + j is sensorgram j of set ``sets[i]``, drawn from its own
    (seed, set, sensorgram) substream; the sample-mean noise is dM/sqrt(nu).
    """
    T = np.asarray(transmittance, dtype=float)
    mean, sigma = _noise_law(plan, T)
    Z = _substream_normals(plan.seed, sets, plan.m, T.size)
    return mean + sigma * Z.reshape(-1, T.size)


def _blocks(sizes: list[int]) -> list[list[tuple[int, slice]]]:
    """Consecutive runs of whole plans as (plan index, block rows) pairs.

    A block holds at most ROWS_PER_BLOCK rows, unless one plan alone has more.
    """
    blocks, end = [], 0
    for i, size in enumerate(sizes):
        if not blocks or end + size > ROWS_PER_BLOCK:
            blocks.append([])
            end = 0
        blocks[-1].append((i, slice(end, end + size)))
        end += size
    return blocks


def _fit_chunk(
    first_set: int,
    *,
    plans: list[SimulationPlan],
    laws: list[tuple[np.ndarray, np.ndarray]],
    t: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per plan, fitted (k_a, k_s, k_d) (sets, m, 3) and converged flags (sets, m) of a chunk.

    The chunk's normals are drawn once, for the largest m; a plan with m
    sensorgrams per set reads the first m of each set, which is exactly its own
    draw. Consecutive plans share one block solve of up to ROWS_PER_BLOCK rows.
    """
    head = plans[0]
    sets = range(first_set, min(first_set + SETS_PER_CHUNK, head.p))
    Z = _substream_normals(head.seed, sets, max(plan.m for plan in plans), t.size)
    blocks = _blocks([len(sets) * plan.m for plan in plans])
    buffer = np.empty((max(block[-1][1].stop for block in blocks), t.size))
    out = []
    for block in blocks:
        for i, rows in block:
            Y = buffer[rows].reshape(len(sets), plans[i].m, t.size)
            mean, sigma = laws[i]
            np.multiply(sigma, Z[:, : plans[i].m], out=Y)
            Y += mean
        fits = fit_sensorgrams(t, buffer[: block[-1][1].stop], head.tau_s, head.L0)
        rates = np.column_stack([fits.k_a, fits.k_s, fits.k_d])
        for i, rows in block:
            shape = (len(sets), plans[i].m)
            out.append((rates[rows].reshape(*shape, 3), fits.converged[rows].reshape(shape)))
    return out


def _summarize(plan: SimulationPlan, rates: np.ndarray, converged: np.ndarray) -> TrialEnsembleResult:
    """The kbar distribution over the plan's sets; LowSignalError for a set without a usable fit."""
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


def run_ensembles(plans, t, transmittance, workers: int = 1) -> list[TrialEnsembleResult]:
    """Simulate p sets of m noisy sensorgrams per plan and summarize each kbar distribution.

    The plans must share seed, p, tau_s and L0. Sets are processed in chunks
    of SETS_PER_CHUNK, serially or spread over ``workers`` processes (one pool
    for all plans); each chunk draws every (seed, set, sensorgram) substream
    once for all plans and runs one block solve per plan. Non-converged fits
    are excluded from their set's average and counted; a set with no converged
    fits at all aborts with LowSignalError, raised for the first such plan in
    the order given. A result is flagged unreliable when more than 20% of its
    fits failed. Output is independent of ``workers`` and of the other plans.
    """
    plans = list(plans)
    if len({(plan.seed, plan.p, plan.tau_s, plan.L0) for plan in plans}) != 1:
        raise ValueError("run_ensembles needs one or more plans sharing seed, p, tau_s and L0")
    t = np.asarray(t, dtype=float)
    T = np.asarray(transmittance, dtype=float)
    if t.shape != T.shape:
        raise ValueError("t and transmittance must share one grid")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    laws = [_noise_law(plan, T) for plan in plans]
    worker = partial(_fit_chunk, plans=plans, laws=laws, t=t)
    chunks = range(0, plans[0].p, SETS_PER_CHUNK)
    workers = min(workers, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(worker, chunks))
    else:
        per_chunk = map(worker, chunks)
    results = []
    for plan, parts in zip(plans, zip(*per_chunk)):
        rates, converged = (np.concatenate(column) for column in zip(*parts))
        results.append(_summarize(plan, rates, converged))
    return results


def run_ensemble(plan: SimulationPlan, t, transmittance, workers: int = 1) -> TrialEnsembleResult:
    """One plan's ensemble: ``run_ensembles([plan], ...)[0]``."""
    return run_ensembles([plan], t, transmittance, workers=workers)[0]


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
