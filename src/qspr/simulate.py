"""Monte Carlo ensemble engine for noisy sensorgram fitting.

Protocol: at every time instance the detector averages nu shots, so the
recorded measurement-space value is Gaussian, M ~ Normal(<M>(t), dM(t)/sqrt(nu))
by the central limit theorem whatever the per-shot statistics. A set consists
of m such noisy sensorgrams, each fitted independently; the set average kbar of
the fitted rate constants is one sample. Repeating over p sets gives the
estimate (mean of kbar) and the estimation precision (standard deviation of
kbar). A result keeps exactly that sample: ``kbars``, the p set averages of
(k_a, k_s, k_d), and ``usable``, each set's count of usable fits; every
summary is derived from those two arrays, and the kinetic enhancement R_k
from the result of the plan's classical twin on the same sets.

Randomness is counter-based: every (seed, set, sensorgram) triple owns a Philox
substream, keyed as Philox(SeedSequence(entropy=seed, spawn_key=(set, j)))
would be, and normals are drawn by inverse transform of the stream's uniforms:
Cephes ndtri (Moshier 1989), the function scipy's ndtri evaluates, in numpy.
Its central branch equals scipy's bit for bit; its tails take numpy's
float64 log, so their bits follow numpy's log dispatch, not scipy or the
platform libm, and lie within 8 ulp of scipy's. The keys of a whole chunk
come from one vectorised pass of SeedSequence's hash, and one re-keyed
generator fills every row with its uniforms. Results are therefore
bit-identical for any execution order or worker count, and the plans of a
run share the same underlying standard normals across states, nu and m
(common random numbers).

The engine is set-major: ``run_ensembles`` takes every plan of a sweep at
once, with the run's seed, set count and kinetics given once, adds each
plan's classical twin, and cuts the p sets into the fewest chunks of whole
sets that hold at most ROWS_PER_CHUNK rows of all plans together (at least
one set), with sizes that differ by at most one set. A chunk is one block
fit (``qspr.fit.fit_sensorgrams``, one LM loop per segment): it draws its
substreams once, for the largest m, and each plan reads the first m
sensorgrams of every set. The block is handed over as the chunk's normals and
each plan's noise law, and the fit builds one segment's columns of its rows
at a time. A row of that fit is bitwise independent of the other rows, so a
plan's result is the same whatever other plans share its run or its chunk.
"""
from __future__ import annotations

import os
from collections import deque
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .fit import fit_sensorgrams
from .kinetics import KineticParameters
from .probes import ProbeState, SensingScenario, matched_classical_reference, thinning_law

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
# Cephes ndtri (Moshier, Methods and Programs for Mathematical Functions, 1989):
# P0/Q0 on the central branch e**-2 < u <= 1 - e**-2, and in the tails, with
# y = min(u, 1 - u) and x = sqrt(-2 ln y), P1/Q1 for x < 8 and P2/Q2 beyond
_EXP_M2 = 0.13533528323661269189
_SQRT_2PI = 2.50662827463100050242
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.0, 1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.0, 1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    1.0, 6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)
# entries per block of _ndtri: its five-row workspace (640 KB) stays in cache
NDTRI_BLOCK = 16384


class LowSignalError(RuntimeError):
    """An entire set produced no converged fits; the plan's SNR is too low."""


@dataclass(frozen=True)
class SimulationPlan:
    """One ensemble of a run: the facts in which the ensembles of one run differ.

    nu: measurements per time instance; m: sensorgrams per set; the probe
    state and the loss scenario. The run (``run_ensembles``) gives the seed,
    the set count p and the kinetics whose tau_s and L0 parameterize the fit.
    """

    nu: int
    m: int
    state: ProbeState
    scenario: SensingScenario

    def __post_init__(self) -> None:
        for name in ("nu", "m"):
            if not getattr(self, name) >= 1:
                raise ValueError(f"{name} must be >= 1")
        if self.m > MAX_COUNT:
            raise ValueError("m must be <= 2**32")


@dataclass(frozen=True, eq=False)
class TrialEnsembleResult:
    """The set averages of one plan's fitted rate constants over the p sets of its run.

    kbars: (p, 3), row i the mean (k_a, k_s, k_d) of set i's usable fits, in
    PARAMETER_NAMES order; usable: (p,), the number of those fits per set;
    twin: the result of the plan's classical twin on the same sets, or None
    when the plan is its own twin. Compare two results with
    ``np.array_equal`` on both arrays, and their twins the same way.
    """

    kbars: np.ndarray
    usable: np.ndarray
    plan: SimulationPlan
    twin: TrialEnsembleResult | None

    @property
    def estimate(self) -> np.ndarray:
        return self.kbars.mean(axis=0)

    @property
    def precision(self) -> np.ndarray:
        return self.kbars.std(axis=0, ddof=1)

    @property
    def R_k(self) -> np.ndarray:
        """Kinetic enhancement: the classical twin's precision over this plan's, per parameter."""
        return (self if self.twin is None else self.twin).precision / self.precision

    @property
    def total_fits(self) -> int:
        return self.plan.m * len(self.kbars)

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
    if not 0 <= seed < 2**63:
        raise ValueError("seed must lie in [0, 2**63)")
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


def _polevl(x: np.ndarray, coefs, out: np.ndarray | None = None) -> np.ndarray:
    """Cephes polevl: Horner's rule over ``coefs``, the highest coefficient first."""
    out = np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _ndtri_tails(u: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Cephes ndtri of tail uniforms, u <= e**-2 or u > 1 - e**-2, in work[4]; work is (5, len(u)).

    With y = min(u, 1 - u), x = sqrt(-2 ln y) and z = 1/x, the normal is
    x - ln(x)/x - z*P(z)/Q(z), negative for u < 1/2.
    """
    x, z, ratio, q, out = work
    np.subtract(1.0, u, out=x)
    np.minimum(u, x, out=x)
    np.log(x, out=x)
    x *= -2.0
    np.sqrt(x, out=x)
    np.divide(1.0, x, out=z)
    _polevl(z, _P1, ratio)
    ratio *= z
    ratio /= _polevl(z, _Q1, q)
    far = np.flatnonzero(x >= 8.0)  # y < e**-32
    if far.size:
        ratio[far] = z[far] * _polevl(z[far], _P2) / _polevl(z[far], _Q2)
    np.log(x, out=out)
    out /= x
    np.subtract(x, out, out=out)
    out -= ratio
    np.subtract(u, 0.5, out=q)
    return np.copysign(out, q, out=out)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """Normals from C-ordered uniforms u in [2**-53, 1) by Cephes ndtri, in place; returns u.

    Cephes's rational approximations in Cephes's operation order, as scipy
    evaluates them, a block of NDTRI_BLOCK entries at a time: the central
    branch on every entry, then the tails over theirs. Every step writes
    into one workspace allocated per call: temporaries allocated per block
    cost a forked pool worker page faults on every block. Each entry depends
    on its own value only.
    """
    flat = u.reshape(-1)
    work = np.empty((5, min(NDTRI_BLOCK, flat.size)))
    for start in range(0, flat.size, NDTRI_BLOCK):
        v = flat[start : start + NDTRI_BLOCK]
        y, y2, ratio, q = work[:4, : v.size]
        tails = np.flatnonzero((v <= _EXP_M2) | (v > 1.0 - _EXP_M2))
        t = v[tails]
        np.subtract(v, 0.5, out=y)
        np.multiply(y, y, out=y2)
        _polevl(y2, _P0, ratio)
        ratio *= y2
        ratio /= _polevl(y2, _Q0, q)
        ratio *= y
        np.add(y, ratio, out=v)
        v *= _SQRT_2PI
        v[tails] = _ndtri_tails(t, work[:, : t.size])
    return u


def _substream_normals(seed: int, sets, m: int, n: int) -> np.ndarray:
    """(sets, m, n) standard normals; [i, j] comes from the substream of set ``sets[i]``, sensorgram j.

    One Philox generator is re-keyed for every substream and restarted at
    counter 0 with an empty buffer, as a new Philox with that key starts; the
    normals are ``_ndtri`` of its uniforms, clamped to 2**-53: bit for bit
    scipy's ndtri on the central branch e**-2 < u <= 1 - e**-2, within
    8 ulp of it in the tails, whose bits follow numpy's float64 log.
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
    return _ndtri(Z)


def _noise_law(plan: SimulationPlan, T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation dM/sqrt(nu) of the plan's measured sensorgram on T."""
    if np.any(T < 0) or np.any(T > 1):
        raise ValueError("ideal transmittance must lie in [0, 1]")
    mean, sd = thinning_law(plan.state.input_moments, T, plan.scenario.eta_a, plan.scenario.eta_b)
    return mean, sd / np.sqrt(plan.nu)


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


def synthesize_noisy_sensorgrams(transmittance, plans, seed: int, sets) -> np.ndarray:
    """Noisy measurement-space sensorgrams Mbar(t) of the given sets, one per row.

    The rows of ``plans`` follow plan after plan; the sets' substreams are
    drawn once for all of them. Row i*m + j of a plan is sensorgram j of set
    ``sets[i]``, drawn from its own (seed, set, sensorgram) substream; the
    sample-mean noise is dM/sqrt(nu). These are the rows that
    ``run_ensembles`` fits with the same seed, bit for bit. Every set index
    must be an integer in [0, MAX_COUNT), one word of the substream key.
    """
    plans = list(plans)
    if not all(isinstance(s, (int, np.integer)) and 0 <= s < MAX_COUNT for s in sets):
        raise ValueError("sets must be integer set indices in [0, 2**32)")
    T = np.asarray(transmittance, dtype=float)
    Z = _substream_normals(seed, sets, max(plan.m for plan in plans), T.size)
    return _NoisyRows(Z, [(plan.m, *_noise_law(plan, T)) for plan in plans]).columns(0, T.size)


def _fit_chunk(
    sets: range,
    *,
    plans: list[SimulationPlan],
    laws: list[tuple[np.ndarray, np.ndarray]],
    t: np.ndarray,
    kinetics: KineticParameters,
    seed: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per plan, the set averages kbar (sets, 3) and usable-fit counts (sets,) of a chunk.

    The chunk's normals are drawn once, for the largest m; a plan with m
    sensorgrams per set reads the first m of each set, which is exactly its own
    draw. All plans share one block fit, which builds its rows from the normals
    one segment at a time. A set without a usable fit gets kbar 0 and count 0.
    """
    Z = _substream_normals(seed, sets, max(plan.m for plan in plans), t.size)
    noisy = _NoisyRows(Z, [(plan.m, *law) for plan, law in zip(plans, laws)])
    fits = fit_sensorgrams(t, noisy, kinetics.tau_s, kinetics.L0)
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


def _chunk_count(p: int, rows_per_set: int) -> int:
    """How many runs of whole sets of at most ROWS_PER_CHUNK rows (at least one set) cover p sets."""
    return -(-p // max(1, ROWS_PER_CHUNK // rows_per_set))


def _chunks(p: int, count: int) -> Iterator[range]:
    """[0, p) as ``count`` runs of whole sets, one at a time; sizes differ by at most one set."""
    return (range(p * k // count, p * (k + 1) // count) for k in range(count))


def run_ensembles(
    plans, t, transmittance, kinetics: KineticParameters, seed: int, p: int, workers: int = 1
) -> list[TrialEnsembleResult]:
    """Simulate p sets of m noisy sensorgrams per plan and its classical twin; one result per plan.

    A plan's twin is the plan with ``matched_classical_reference`` of its
    state; a TMC plan is its own twin. Every distinct plan and twin is
    fitted once, in the order plan, twin, next plan, ..., all drawn from
    ``seed`` on the same p sets, p in [2, MAX_COUNT], and fitted with the
    switch time and ligand concentration of ``kinetics``; p times the
    fitted plans must fit RESULT_BUDGET_BYTES at BYTES_PER_SET. Sets are
    processed in the fewest chunks of whole sets that hold at most
    ROWS_PER_CHUNK rows of all fitted plans together (at least one set), with
    sizes that differ by at most one set, serially or spread over ``workers``
    processes, but no more than there are chunks or CPUs (one pool for all
    plans, at most two chunks per worker in flight, results collected in set
    order). Each chunk derives the keys of all its (seed, set, sensorgram)
    substreams in one batched hash, draws each substream once for all plans
    and is one block fit. Chunk sizes depend on the plans only.
    Non-converged fits are excluded from their set's average and counted; a
    set with no converged fits at all aborts with LowSignalError, raised for
    the first such plan in the fitted order. A result is flagged unreliable
    when more than 20% of its fits failed. Output is independent of
    ``workers`` and of the other plans.
    """
    plans = list(plans)
    if not plans:
        raise ValueError("run_ensembles needs one or more plans")
    twins = [replace(plan, state=matched_classical_reference(plan.state)) for plan in plans]
    fitted = list(dict.fromkeys(each for pair in zip(plans, twins) for each in pair))
    if p < 2:  # precision is a standard deviation over sets
        raise ValueError("p must be >= 2")
    if p > MAX_COUNT:
        raise ValueError("p must be <= 2**32")
    if p * len(fitted) > RESULT_BUDGET_BYTES // BYTES_PER_SET:
        raise ValueError(
            f"p times the plans a run fits must be <= {RESULT_BUDGET_BYTES // BYTES_PER_SET} "
            f"({BYTES_PER_SET} B per set within {RESULT_BUDGET_BYTES} B); got {p} * {len(fitted)}"
        )
    t = np.asarray(t, dtype=float)
    T = np.asarray(transmittance, dtype=float)
    if t.shape != T.shape:
        raise ValueError("t and transmittance must share one grid")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    laws = [_noise_law(plan, T) for plan in fitted]
    worker = partial(_fit_chunk, plans=fitted, laws=laws, t=t, kinetics=kinetics, seed=seed)
    count = _chunk_count(p, sum(plan.m for plan in fitted))
    chunks = _chunks(p, count)
    # outputs do not depend on the worker count, so more workers than CPUs buy nothing
    workers = min(workers, count, os.cpu_count() or 1)
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
    arrays = {}
    for plan, parts in zip(fitted, zip(*per_chunk)):
        kbars, usable = (np.concatenate(column) for column in zip(*parts))
        if not usable.all():
            raise LowSignalError(
                f"set {np.argmin(usable)}: all {plan.m} fits failed; "
                "signal-to-noise too low for this plan (raise nu, m or N)"
            )
        arrays[plan] = kbars, usable
    # each twin is its own twin, so every twin's result exists before the plans that read it
    results = {twin: TrialEnsembleResult(*arrays[twin], twin, None) for twin in twins}
    for plan, twin in zip(plans, twins):
        if plan not in results:
            results[plan] = TrialEnsembleResult(*arrays[plan], plan, results[twin])
    return [results[plan] for plan in plans]
