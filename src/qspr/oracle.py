"""Brute-force verification of the measurement moments in a truncated Fock basis.

:mod:`qspr.probes` applies one thinning law to a hand-derived table of input
photon-number moments. Here states are explicit amplitude arrays, the channels
thin the joint photon-number distribution numerically (exact, as M is
photon-number diagonal) and moments are direct sums, so the amplitudes and the
numerical thinning check both the table and the law. TMSD comes from the
squeezing generator G = a b - a^dag b^dag alone, with no moment algebra. G keeps
D = n_a - n_b fixed and |alpha>|0> puts coh[D] on the first site |D, 0> of
sector D, where the SU(1,1) disentangling identity (Perelomov, Generalized
Coherent States and Their Applications, 1986) gives the sector exactly:
exp(rG)|D, 0> = sech(r)^(D+1) sum_j (-tanh r)^j sqrt(C(D+j, j)) |D+j, j>.
So amps[D+j, j] = coh[D] sech(r)^(D+1) (-tanh r)^j sqrt(C(D+j, j)), one product
over the box's sites. Every state here is exact on its box: truncation shows
only as the probability mass outside it, which build_state bounds.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .probes import ProbeKind, ProbeState, delta_M, mean_M


# largest probability mass a truncated state may leave outside its cutoff
TAIL_TOLERANCE = 1e-10
# largest cutoff a verify pass accepts, over five times the 36 that the largest
# small state needs (TMSD, |alpha|^2 = 4, r = 0.5). Cost sets it, not range: each
# tuple thins its (d, d) box with two d^3 products, and 50 tuples per family
# take about 1.2 s on a 2-core host against 0.04 s at cutoff 40. The TMSD factor
# sqrt(C(D + j, j)) is at most 3e29 here; C overflows a float only past 1,029.
MAX_CUTOFF = 200


class TruncationError(RuntimeError):
    """Fock-space cutoff too small for the requested state."""


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    mag = np.abs(alpha)
    # xlogy keeps alpha = 0 exact: 0 * log(0) = 0 gives the vacuum
    log_mag = -0.5 * mag**2 + xlogy(n, mag) - 0.5 * gammaln(n + 1.0)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


@lru_cache(maxsize=2)
def _sector_sites(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sites (D, j) of the box, D + j <= cutoff, and sqrt(C(D + j, j)) on each, read-only."""
    d = cutoff + 1
    D, j = np.nonzero(np.add.outer(np.arange(d), np.arange(d)) < d)
    # C(200, 100) ~ 9e58: each exact integer rounds once to float, then once in sqrt
    root_binom = np.sqrt([float(comb(n, k)) for n, k in zip((D + j).tolist(), j.tolist())])
    for a in (D, j, root_binom):
        a.flags.writeable = False
    return D, j, root_binom


def _tmsd_amplitudes(alpha: complex, r: float, cutoff: int) -> np.ndarray:
    """exp(r (a b - a^dag b^dag)) |alpha>|0> on the (cutoff+1)^2 box, exactly."""
    d = cutoff + 1
    D, j, root_binom = _sector_sites(cutoff)
    n = np.arange(d)
    head = _coherent_amplitudes(alpha, cutoff) * (1.0 / np.cosh(r)) ** (n + 1)  # coh[D] sech^(D+1)
    amps = np.zeros((d, d), dtype=complex)
    amps[D + j, j] = head[D] * ((-np.tanh(r)) ** n)[j] * root_binom  # (-tanh r)^j
    return amps


def build_state(state: ProbeState, cutoff: int) -> np.ndarray:
    """Explicit truncated amplitudes of a probe state, a (cutoff+1, cutoff+1) array [n_a, n_b].

    Every amplitude on the box is exact, so the one truncation guard is the
    probability mass outside it: TruncationError if that exceeds TAIL_TOLERANCE.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    d = cutoff + 1
    if state.kind is ProbeKind.TMC:
        amps = np.outer(
            _coherent_amplitudes(np.sqrt(state.n_mean), cutoff),
            _coherent_amplitudes(np.sqrt(state.n_reference), cutoff),
        )
    elif state.kind is ProbeKind.TMF:
        n = int(state.n_mean)
        if n != state.n_mean:
            raise ValueError("TMF oracle state needs an integer photon number")
        if n > cutoff:
            raise TruncationError(f"cutoff {cutoff} below Fock number {n}")
        amps = np.zeros((d, d), dtype=complex)
        amps[n, n] = 1.0
    elif state.kind is ProbeKind.TMSV:
        lam = np.tanh(state.squeeze_r)
        n = np.arange(d)
        amps = np.zeros((d, d), dtype=complex)
        # S(r)|00> has Schmidt form sqrt(1-lam^2) * (-lam)^n |n,n>
        amps[n, n] = np.sqrt(1.0 - lam**2) * complex(-lam) ** n
    else:  # TMSD from its exact sector expansion
        amps = _tmsd_amplitudes(complex(np.sqrt(state.alpha_sq)), state.squeeze_r, cutoff)
    tail = float(max(1.0 - np.sum(np.abs(amps) ** 2), 0.0))
    if tail > TAIL_TOLERANCE:
        raise TruncationError(f"truncated tail mass {tail:.2e} exceeds {TAIL_TOLERANCE:.1e}")
    return amps


@lru_cache(maxsize=2)
def _thinning_logs(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """(lost photons N - k, log C(N, k)) on [N, k], read-only; log C is -inf where k > N."""
    N, k = np.ogrid[: cutoff + 1, : cutoff + 1]
    lost = np.maximum(N - k, 0)
    log_binom = gammaln(N + 1.0) - gammaln(k + 1.0) - gammaln(lost + 1.0)
    log_binom[k > N] = -np.inf
    lost.flags.writeable = log_binom.flags.writeable = False
    return lost, log_binom


def _thinning_matrix(cutoff: int, transmissivity: float) -> np.ndarray:
    """Binomial probabilities C(n, k) p^k (1-p)^(n-k) of keeping k of n photons, [n, k].

    Summed in logs so that no binomial coefficient overflows at large cutoffs;
    xlogy/xlog1py give 0*log(0) = 0, which keeps p = 0 and p = 1 exact.
    """
    lost, log_binom = _thinning_logs(cutoff)
    k = np.arange(cutoff + 1)
    # lost takes only the values of k: evaluate xlog1py on k and gather it
    return np.exp(log_binom + (xlogy(k, transmissivity) + xlog1py(k, -transmissivity)[lost]))


def apply_channels(amplitudes: np.ndarray, T: float, eta_a: float, eta_b: float) -> np.ndarray:
    """Joint photon-number probabilities [n_a, n_b] after the sensor (T) and both losses.

    ``amplitudes`` is a state from build_state, whose cutoff is its length
    less one. The sensor and the signal-mode loss compose into one binomial
    channel of transmissivity eta_a*T; the reference mode is thinned by eta_b.
    Exact on the truncated basis since the observable is photon-number diagonal.
    """
    for name, val in (("T", T), ("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0 <= val <= 1:
            raise ValueError(f"{name} must lie in [0, 1]")
    cutoff = len(amplitudes) - 1
    P = np.abs(amplitudes) ** 2
    return _thinning_matrix(cutoff, eta_a * T).T @ P @ _thinning_matrix(cutoff, eta_b)


def oracle_moments(P: np.ndarray) -> tuple[float, float]:
    """(mean_M, delta_M) of the intensity difference of joint probabilities P by direct summation."""
    n = np.arange(P.shape[0], dtype=float)
    pa, pb = P.sum(axis=1), P.sum(axis=0)
    mean_a, mean_b = pa @ n, pb @ n
    var_a = pa @ n**2 - mean_a**2
    var_b = pb @ n**2 - mean_b**2
    cov = n @ P @ n - mean_a * mean_b
    return float(mean_a - mean_b), float(np.sqrt(var_a + var_b - 2.0 * cov))


@dataclass(frozen=True)
class OracleReport:
    """Worst-case deviation between oracle and closed forms for one probe family."""

    kind: ProbeKind
    max_dev_delta_M: float
    max_dev_mean_M: float

    @property
    def max_dev(self) -> float:
        return max(self.max_dev_delta_M, self.max_dev_mean_M)


def _random_small_state(kind: ProbeKind, rng: np.random.Generator) -> ProbeState:
    """Small-parameter state (N <= 4, r <= 0.5, |alpha|^2 <= 4) for oracle checks."""
    if kind is ProbeKind.TMC:
        return ProbeState(kind=kind, n_mean=float(rng.uniform(0.5, 4.0)))
    if kind is ProbeKind.TMF:
        return ProbeState(kind=kind, n_mean=float(rng.integers(1, 5)))
    if kind is ProbeKind.TMSV:
        r = rng.uniform(0.1, 0.5)
        return ProbeState(kind=kind, n_mean=float(np.sinh(r) ** 2))
    g = float(np.cosh(rng.uniform(0.1, 0.5)) ** 2)
    alpha_sq = float(rng.uniform(0.1, 4.0))
    return ProbeState(kind=kind, n_mean=g * alpha_sq + (g - 1.0), g=g)


def verify_closed_forms(tuples: int, cutoff: int, seed: int) -> list[OracleReport]:
    """Compare oracle moments against the closed forms on random channel tuples.

    Deviations are relative to the closed form; the mean is scaled by the
    measurement noise when it crosses zero.
    """
    if tuples < 1:
        raise ValueError("tuples must be >= 1")
    if not 1 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [1, {MAX_CUTOFF}], got {cutoff}")
    rng = np.random.default_rng(seed)
    reports = []
    for kind in ProbeKind:
        worst_dm, worst_mm = 0.0, 0.0
        for _ in range(tuples):
            T, eta_a, eta_b = rng.uniform(0.05, 0.95, size=3)
            state = _random_small_state(kind, rng)
            P = apply_channels(build_state(state, cutoff), T, eta_a, eta_b)
            mm_oracle, dm_oracle = oracle_moments(P)
            dm_closed = delta_M(state, T, eta_a, eta_b)
            mm_closed = mean_M(state, T, eta_a, eta_b)
            worst_dm = max(worst_dm, abs(dm_oracle - dm_closed) / dm_closed)
            scale = max(abs(mm_closed), dm_closed)
            worst_mm = max(worst_mm, abs(mm_oracle - mm_closed) / scale)
        reports.append(OracleReport(kind, max_dev_delta_M=worst_dm, max_dev_mean_M=worst_mm))
    return reports
