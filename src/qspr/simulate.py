"""Monte Carlo ensemble engine for noisy sensorgram fitting.

Protocol: at every time instance the detector averages nu shots, so the
recorded measurement-space value is Gaussian, M ~ Normal(<M>(t), dM(t)/sqrt(nu))
by the central limit theorem whatever the per-shot statistics. A set consists
of m such noisy sensorgrams, each fitted independently; the set average kbar of
the fitted rate constants is one sample. Repeating over p sets gives the
estimate (mean of kbar) and the estimation precision (standard deviation of
kbar). A result keeps exactly that sample: ``kbars``, the p set averages of
(k_a, k_s, k_d), and ``usable``, each set's count of usable fits; every
summary is derived from those two arrays.

Randomness is counter-based: every (seed, set, sensorgram) triple owns a Philox
substream, keyed as Philox(SeedSequence(entropy=seed, spawn_key=(set, j)))
would be, and normals are drawn by inverse transform (ndtri of the stream's
uniforms). The keys of a whole chunk come from one vectorised pass of
SeedSequence's hash, and one re-keyed generator fills every row with its
uniforms. Results are therefore bit-identical for any execution order or
worker count, and plans that share a seed share the same underlying standard
normals across states, nu and m (common random numbers).

The engine is set-major: ``run_ensembles`` takes every plan of a sweep at
once and cuts the p sets into the fewest chunks of whole sets that hold at
most ROWS_PER_CHUNK rows of all plans together (at least one set), with sizes
that differ by at most one set. A chunk is one block fit
(``qspr.fit.fit_sensorgrams``, one LM loop per segment): it draws its
substreams once, for the largest m, and each plan reads the first m
sensorgrams of every set. The block is handed over as the chunk's normals and
each plan's noise law, and the fit builds one segment's columns of its rows at
a time. A row of that fit is bitwise independent of the other rows, so a
plan's result is the same whatever other plans share its run or its chunk.
"""
from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.special import ndtri

from .fit import fit_sensorgrams
from .probes import ProbeState, SensingScenario, delta_M, mean_M

PARAMETER_NAMES = ("k_a", "k_s", "k_d")
UNRELIABLE_FAILURE_FRACTION = 0.2
# rows per chunk, whose plans share one block fit and one LM loop per segment:
# fewer, larger chunks cost fewer loops; the fit's temporaries are bounded by
# its slices (qspr.fit.ROWS_PER_SLICE), and each row adds about 1.3 KB of segment
# data and LM state (1,272 B in the fit-memory test). The README sweep at p=5
# (1,500 rows) is one chunk. Chunk sizes depend on the plans only, never on the
# worker count.
ROWS_PER_CHUNK = 2048
# most sets per plan and sensorgrams per set: the substream keys hash each set
# and sensorgram index as one uint32 word
MAX_COUNT = 2**32
# a result holds 32 B per set (kbars' three float64s and usable's one int64);
# this budget bounds p times the plans of one run_ensembles call
RESULT_BUDGET_BYTES = 2**30
BYTES_PER_SET = 32
# numpy.random.SeedSequence's hash constants (pool of 4 uint32 words)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


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
        for name in ("m", "p"):
            if getattr(self, name) > MAX_COUNT:
                raise ValueError(f"{name} must be <= 2**32")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must lie in [0, 2**63)")
        if not (self.tau_s > 0 and self.L0 > 0):
            raise ValueError("tau_s and L0 must be positive")


@dataclass(frozen=True, eq=False)
class TrialEnsembleResult:
    """The set averages of one plan's fitted rate constants over its p sets.

    kbars: (p, 3), row i the mean (k_a, k_s, k_d) of set i's usable fits, in
    PARAMETER_NAMES order; usable: (p,), the number of those fits per set.
    Compare two results with ``np.array_equal`` on both arrays.
    """

    kbars: np.ndarray
    usable: np.ndarray
    plan: SimulationPlan

    @property
    def estimate(self) -> np.ndarray:
        return self.kbars.mean(axis=0)

    @property
    def precision(self) -> np.ndarray:
        return self.kbars.std(axis=0, ddof=1)

    @property
    def total_fits(self) -> int:
        return self.plan.m * self.plan.p

    @property
    def failed_fit_count(self) -> int:
        return self.total_fits - int(self.usable.sum())

    @property
    def unreliable(self) -> bool:
        return self.failed_fit_count > UNRELIABLE_FAILURE_FRACTION * self.total_fits


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix: each call folds one word with the next constant of the sequence."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _mix(x, y):
    """SeedSequence's mix of a pool word x with a hashed word y."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> 16


def _philox_keys(seed: int, sets, m: int) -> np.ndarray:
    """(len(sets), m, 2) uint64 Philox keys of the (seed, set, sensorgram) substreams.

    One vectorised pass of SeedSequence's hash over the entropy words
    [seed_lo, seed_hi, 0, 0, set, j]: [i, j] equals the key of
    Philox(SeedSequence(entropy=seed, spawn_key=(sets[i], j))) bit for bit.
    """
    hashmix = _hashmix(_INIT_A, _MULT_A)
    # the seed fills the pool (padded with zeros), the same for every substream
    pool = [hashmix(word) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    # then the spawn key, one word per index, is mixed into every pool word
    pool = [np.full((len(sets), m), word, dtype=np.uint32) for word in pool]
    for word in (np.asarray(sets, dtype=np.uint32)[:, None], np.arange(m, dtype=np.uint32)):
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    # generate_state(2, uint64): four output words, paired little-endian
    output = _hashmix(_INIT_B, _MULT_B)
    words = np.stack([output(word) for word in pool], axis=-1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def _substream_normals(seed: int, sets, m: int, n: int) -> np.ndarray:
    """(sets, m, n) standard normals; [i, j] comes from the substream of set ``sets[i]``, sensorgram j.

    One Philox generator is re-keyed for every substream and restarted at
    counter 0 with an empty buffer, as a new Philox with that key starts; the
    normals are ndtri of its uniforms.
    """
    Z = np.empty((len(sets), m, n))
    bit_generator = np.random.Philox(0)
    uniforms = np.random.Generator(bit_generator)
    fresh = bit_generator.state  # a copy: counter 0, empty buffer
    for rows, keys in zip(Z, _philox_keys(seed, sets, m).tolist()):
        for row, key in zip(rows, keys):
            fresh["state"]["key"] = key
            bit_generator.state = fresh
            uniforms.random(out=row)
    np.maximum(Z, 2.0**-53, out=Z)  # keep ndtri off the -inf endpoint
    return ndtri(Z, out=Z)


def _noise_law(plan: SimulationPlan, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation dM/sqrt(nu) of the plan's measured sensorgram on T."""
    if np.any(T < 0) or np.any(T > 1):
        raise ValueError("ideal transmittance must lie in [0, 1]")
    eta_a, eta_b = plan.scenario.eta_a, plan.scenario.eta_b
    mean = mean_M(plan.state, T, eta_a, eta_b)
    return mean, delta_M(plan.state, T, eta_a, eta_b) / np.sqrt(plan.nu)


@dataclass(frozen=True, eq=False)
class _NoisyRows:
    """Rows mean + sigma*Z of plans sharing a chunk's normals, built a column range at a time.

    Z: (sets, m_max, n) standard normals; laws: one (m, mean, sigma) per plan,
    whose rows are its first m sensorgrams of every set, set-major, after the
    rows of the plans before it. ``columns`` is the block interface of
    ``qspr.fit.fit_sensorgrams``.
    """

    Z: np.ndarray
    laws: list[tuple[int, np.ndarray, np.ndarray]]

    def __len__(self) -> int:
        return len(self.Z) * sum(m for m, _, _ in self.laws)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self), self.Z.shape[2]

    def columns(self, start: int, stop: int) -> np.ndarray:
        sets, cols = len(self.Z), slice(start, stop)
        out = np.empty((len(self), stop - start))
        end = 0
        for m, mean, sigma in self.laws:
            rows = out[end : end + sets * m].reshape(sets, m, stop - start)
            np.multiply(sigma[cols], self.Z[:, :m, cols], out=rows)
            rows += mean[cols]
            end += sets * m
        return out


def synthesize_noisy_sensorgrams(transmittance, plans, sets) -> np.ndarray:
    """Noisy measurement-space sensorgrams Mbar(t) of the given sets, one per row.

    ``plans`` is one plan or several sharing a seed, whose rows follow plan
    after plan; the sets' substreams are drawn once for all of them. Row
    i*m + j of a plan is sensorgram j of set ``sets[i]``, drawn from its own
    (seed, set, sensorgram) substream; the sample-mean noise is dM/sqrt(nu).
    These are the rows that ``run_ensembles`` fits, bit for bit. Every set
    index must be an integer in [0, MAX_COUNT), one word of the substream key.
    """
    plans = [plans] if isinstance(plans, SimulationPlan) else list(plans)
    if len({plan.seed for plan in plans}) != 1:
        raise ValueError("synthesize_noisy_sensorgrams needs one or more plans sharing a seed")
    if not all(isinstance(s, (int, np.integer)) and 0 <= s < MAX_COUNT for s in sets):
        raise ValueError("sets must be integer set indices in [0, 2**32)")
    T = np.asarray(transmittance, dtype=float)
    Z = _substream_normals(plans[0].seed, sets, max(plan.m for plan in plans), T.size)
    return _NoisyRows(Z, [(plan.m, *_noise_law(plan, T)) for plan in plans]).columns(0, T.size)


def _fit_chunk(
    sets: range,
    *,
    plans: list[SimulationPlan],
    laws: list[tuple[np.ndarray, np.ndarray]],
    t: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per plan, the set averages kbar (sets, 3) and usable-fit counts (sets,) of a chunk.

    The chunk's normals are drawn once, for the largest m; a plan with m
    sensorgrams per set reads the first m of each set, which is exactly its own
    draw. All plans share one block fit, which builds its rows from the normals
    one segment at a time. A set without a usable fit gets kbar 0 and count 0.
    """
    head = plans[0]
    Z = _substream_normals(head.seed, sets, max(plan.m for plan in plans), t.size)
    noisy = _NoisyRows(Z, [(plan.m, *law) for plan, law in zip(plans, laws)])
    fits = fit_sensorgrams(t, noisy, head.tau_s, head.L0)
    rates = np.column_stack([fits.k_a, fits.k_s, fits.k_d])
    out, end = [], 0
    for plan in plans:
        shape = (len(sets), plan.m)
        rows = slice(end, end + len(sets) * plan.m)
        end = rows.stop
        converged = fits.converged[rows].reshape(shape)
        usable = converged.sum(axis=1)
        # each set's mean over its usable fits
        total = np.where(converged[:, :, None], rates[rows].reshape(*shape, 3), 0.0).sum(axis=1)
        out.append((total / np.maximum(usable, 1)[:, None], usable))
    return out


def _summarize(plan: SimulationPlan, kbars: np.ndarray, usable: np.ndarray) -> TrialEnsembleResult:
    """The plan's result; LowSignalError for a set without a usable fit."""
    if not usable.all():
        raise LowSignalError(
            f"set {np.argmin(usable)}: all {plan.m} fits failed; "
            "signal-to-noise too low for this plan (raise nu, m or N)"
        )
    return TrialEnsembleResult(kbars=kbars, usable=usable, plan=plan)


def _chunk_count(p: int, rows_per_set: int) -> int:
    """How many runs of whole sets of at most ROWS_PER_CHUNK rows (at least one set) cover p sets."""
    return -(-p // max(1, ROWS_PER_CHUNK // rows_per_set))


def _chunks(p: int, count: int) -> Iterator[range]:
    """[0, p) as ``count`` runs of whole sets, one at a time; sizes differ by at most one set."""
    return (range(p * k // count, p * (k + 1) // count) for k in range(count))


def run_ensembles(plans, t, transmittance, workers: int = 1) -> list[TrialEnsembleResult]:
    """Simulate p sets of m noisy sensorgrams per plan and summarize each kbar distribution.

    The plans must share seed, p >= 2, tau_s and L0, and p times the plans
    must fit RESULT_BUDGET_BYTES at BYTES_PER_SET. Sets are processed in the
    fewest chunks of whole sets that hold at most ROWS_PER_CHUNK rows of all
    plans together (at least one set), with sizes that differ by at most one
    set, serially or spread over ``workers`` processes (one pool for all
    plans, at most two chunks per worker in flight, results collected in set
    order). Each chunk derives the keys of all its (seed, set, sensorgram)
    substreams in one batched hash, draws each substream once for all plans
    and is one block fit. Chunk sizes depend on the plans only.
    Non-converged fits are excluded from their set's average and counted; a
    set with no converged fits at all aborts with LowSignalError, raised for
    the first such plan in the order given. A result is flagged unreliable
    when more than 20% of its fits failed. Output is independent of
    ``workers`` and of the other plans.
    """
    plans = list(plans)
    if len({(plan.seed, plan.p, plan.tau_s, plan.L0) for plan in plans}) != 1:
        raise ValueError("run_ensembles needs one or more plans sharing seed, p, tau_s and L0")
    p = plans[0].p
    if p < 2:  # precision is a standard deviation over sets
        raise ValueError("p must be >= 2")
    if p * len(plans) > RESULT_BUDGET_BYTES // BYTES_PER_SET:
        raise ValueError(
            f"p times the plans a run fits must be <= {RESULT_BUDGET_BYTES // BYTES_PER_SET} "
            f"({BYTES_PER_SET} B per set within {RESULT_BUDGET_BYTES} B); got {p} * {len(plans)}"
        )
    t = np.asarray(t, dtype=float)
    T = np.asarray(transmittance, dtype=float)
    if t.shape != T.shape:
        raise ValueError("t and transmittance must share one grid")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    laws = [_noise_law(plan, T) for plan in plans]
    worker = partial(_fit_chunk, plans=plans, laws=laws, t=t)
    count = _chunk_count(p, sum(plan.m for plan in plans))
    chunks = _chunks(p, count)
    workers = min(workers, count)
    if workers > 1:
        per_chunk, pending = [], deque()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in chunks:  # submitted as results are collected, in set order
                pending.append(pool.submit(worker, chunk))
                if len(pending) == 2 * workers:
                    per_chunk.append(pending.popleft().result())
            per_chunk += [future.result() for future in pending]
    else:
        per_chunk = map(worker, chunks)
    return [
        _summarize(plan, *(np.concatenate(column) for column in zip(*parts)))
        for plan, parts in zip(plans, zip(*per_chunk))
    ]


def enhancement_Rk(classical: TrialEnsembleResult, quantum: TrialEnsembleResult) -> dict[str, float]:
    """Kinetic enhancement R_k = precision(classical)/precision(quantum) per parameter.

    The two plans must agree in everything except the probe state, and the
    states must carry the same signal-mode photon number.
    """
    if replace(classical.plan, state=quantum.plan.state) != quantum.plan:
        raise ValueError("plans differ beyond the probe state; enhancement ratios are not comparable")
    if classical.plan.state.n_mean != quantum.plan.state.n_mean:
        raise ValueError("states must carry matching signal-mode photon numbers")
    return dict(zip(PARAMETER_NAMES, (classical.precision / quantum.precision).tolist()))
