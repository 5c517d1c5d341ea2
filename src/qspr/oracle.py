"""Brute-force verification of the measurement moments in a truncated Fock basis.

Independent of the closed forms in :mod:`qspr.probes`: states are built as
explicit amplitude arrays, the sensor and losses are applied as exact binomial
thinning of the joint photon-number distribution (valid because the measured
observable is photon-number diagonal), and moments come from direct summation.
TMSD is built by exponentiating the squeezing generator G = a b - a^dag b^dag
numerically, with no Heisenberg-picture algebra, so the two routes share no
derivation. G keeps D = n_a - n_b fixed and |alpha>|0> puts coh[D] on the
first site of sector D, so each sector is exponentiated on its own, exactly:
on |D+j, j>, G = S (i A_D) S^-1 with S = diag(i^j) and A_D real symmetric
tridiagonal (zero diagonal, off-diagonal sqrt((D+j+1)(j+1))). With
A_D = V_D diag(w_D) V_D^T, amps[D+j, j] = coh[D] i^j (V_D (e^(i r w_D) * V_D[0]))_j.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.special import gammaln, xlog1py, xlogy

from .probes import ProbeKind, ProbeState, delta_M, mean_M


# largest probability mass a truncated state may leave outside its cutoff
TAIL_TOLERANCE = 1e-10


class TruncationError(RuntimeError):
    """Fock-space cutoff too small for the requested state."""


@dataclass(frozen=True)
class TruncatedTwoModeState:
    """Pure two-mode state as a dense amplitude array indexed (n_a, n_b)."""

    cutoff: int
    amplitudes: np.ndarray
    tail_mass: float


def _coherent_amplitudes(alpha: complex, cutoff: int) -> np.ndarray:
    n = np.arange(cutoff + 1)
    mag = np.abs(alpha)
    # xlogy keeps alpha = 0 exact: 0 * log(0) = 0 gives the vacuum
    log_mag = -0.5 * mag**2 + xlogy(n, mag) - 0.5 * gammaln(n + 1.0)
    return np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))


@lru_cache(maxsize=2)  # one verify pass builds at cutoff and cutoff + 8
def _squeeze_sectors(cutoff: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs (w_D, V_D) of A_D for each sector D = 0..cutoff, read-only."""
    sectors = []
    for D in range(cutoff + 1):
        j = np.arange(cutoff - D, dtype=float)
        w, V = eigh_tridiagonal(np.zeros(cutoff + 1 - D), np.sqrt((D + j + 1.0) * (j + 1.0)))
        w.flags.writeable = V.flags.writeable = False
        sectors.append((w, V))
    return tuple(sectors)


def _tmsd_amplitudes(alpha: complex, r: float, cutoff: int) -> np.ndarray:
    """exp(r (a b - a^dag b^dag)) |alpha>|0> on the (cutoff+1)^2 box, sector by sector."""
    d = cutoff + 1
    coh = _coherent_amplitudes(alpha, cutoff)
    amps = np.zeros((d, d), dtype=complex)
    for D, (w, V) in enumerate(_squeeze_sectors(cutoff)):  # sector D is amps[D + j, j]
        np.fill_diagonal(amps[D:], V @ (np.exp(1j * r * w) * (coh[D] * V[0])))
    return amps * 1j ** np.arange(d)  # S = diag(i^j), j = n_b


def build_state(state: ProbeState, cutoff: int) -> TruncatedTwoModeState:
    """Explicit truncated amplitudes of a probe state.

    Raises TruncationError if the probability mass outside the cutoff exceeds
    TAIL_TOLERANCE (for TMSD, also if the generator exponentiation has not
    converged against a larger cutoff).
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
    else:  # TMSD by truncated generator exponentiation
        alpha = complex(np.sqrt(state.alpha_sq))
        amps = _tmsd_amplitudes(alpha, state.squeeze_r, cutoff)
        check = _tmsd_amplitudes(alpha, state.squeeze_r, cutoff + 8)[:d, :d]
        # convergence is judged on photon-number probabilities, the only
        # quantity the moments consume
        drift = float(np.max(np.abs(np.abs(check) ** 2 - np.abs(amps) ** 2)))
        if drift > max(100.0 * TAIL_TOLERANCE, 1e-9):
            raise TruncationError(
                f"TMSD exponentiation not converged at cutoff {cutoff}: drift {drift:.2e}"
            )
    # the TMSD exponential is unitary on the box: its leak shows only in `check`
    inside = check if state.kind is ProbeKind.TMSD else amps
    tail = float(max(1.0 - np.sum(np.abs(inside) ** 2), 0.0))
    if tail > TAIL_TOLERANCE:
        raise TruncationError(f"truncated tail mass {tail:.2e} exceeds {TAIL_TOLERANCE:.1e}")
    return TruncatedTwoModeState(cutoff=cutoff, amplitudes=amps, tail_mass=tail)


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
    return np.exp(log_binom + (xlogy(k, transmissivity) + xlog1py(lost, -transmissivity)))


def apply_channels(
    state: TruncatedTwoModeState, T: float, eta_a: float, eta_b: float
) -> np.ndarray:
    """Joint photon-number probabilities [n_a, n_b] after the sensor (T) and both losses.

    The sensor and the signal-mode loss compose into one binomial channel of
    transmissivity eta_a*T; the reference mode is thinned by eta_b. Exact on
    the truncated basis since the observable is photon-number diagonal.
    """
    for name, val in (("T", T), ("eta_a", eta_a), ("eta_b", eta_b)):
        if not 0 <= val <= 1:
            raise ValueError(f"{name} must lie in [0, 1]")
    P = np.abs(state.amplitudes) ** 2
    Ba = _thinning_matrix(state.cutoff, eta_a * T)
    Bb = _thinning_matrix(state.cutoff, eta_b)
    return Ba.T @ P @ Bb


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
    tuples: int
    cutoff: int
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


def verify_closed_forms(tuples: int = 50, cutoff: int = 40, seed: int = 2024) -> list[OracleReport]:
    """Compare oracle moments against the closed forms on random channel tuples.

    Deviations are relative to the closed form; the mean is scaled by the
    measurement noise when it crosses zero.
    """
    if tuples < 1:
        raise ValueError("tuples must be >= 1")
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
        reports.append(OracleReport(
            kind, tuples, cutoff, max_dev_delta_M=worst_dm, max_dev_mean_M=worst_mm
        ))
    return reports
