"""The whole thinned distribution the contracted ``qspr.oracle.apply_channels`` replaced, kept as its reference.

Each thinning matrix S[n, k] = C(n, k) p^k (1-p)^(n-k) is formed in full from
the production factors, ``_power_tables`` and the ``_binomials`` table, and
each state's joint photon-number probabilities after the channels are
P' = S_a^T P S_b, two (d, d) matrix products on the production ``build_state``
amplitudes; its moments are direct sums over P'. The contraction takes the
same sums in another order, so both must agree to round-off on every state.
"""
from __future__ import annotations

import numpy as np

from qspr.oracle import _binomials, _power_tables


def thinning_matrix(cutoff: int, transmissivity) -> np.ndarray:
    """Binomial probabilities S[..., n, k] of keeping k of n photons, one (d, d) matrix per transmissivity.

    Each site is the product (1-p)^(n-k) p^k C(n, k); sites k > n are exact zeros.
    """
    lost, binom = _binomials(cutoff)
    q_pow, p_pow = _power_tables(cutoff, transmissivity)
    return np.take(q_pow, lost, axis=-1) * p_pow[..., None, :] * binom


def thinned_distribution(amplitudes: np.ndarray, T, eta_a, eta_b) -> np.ndarray:
    """Joint probabilities P'[..., n_a, n_b] of a state or stack after the sensor (T) and both losses."""
    cutoff = amplitudes.shape[-1] - 1
    P = np.square(amplitudes)  # as verify_closed_forms forms it
    signal = thinning_matrix(cutoff, np.multiply(eta_a, T))
    reference = thinning_matrix(cutoff, eta_b)
    return np.swapaxes(signal, -1, -2) @ P @ reference


def distribution_moments(P: np.ndarray):
    """(mean_M, delta_M) of the intensity difference of joint probabilities P by direct summation."""
    n = np.arange(P.shape[-1], dtype=float)
    pa, pb = P.sum(axis=-1), P.sum(axis=-2)
    mean_a, mean_b = np.vecdot(pa, n), np.vecdot(pb, n)
    var_a = np.vecdot(pa, n**2) - mean_a**2
    var_b = np.vecdot(pb, n**2) - mean_b**2
    cov = np.vecdot(n @ P, n) - mean_a * mean_b
    return mean_a - mean_b, np.sqrt(var_a + var_b - 2.0 * cov)


def joint_moments(P: np.ndarray) -> np.ndarray:
    """G[..., i, j] = sum over P of n_a^i n_b^j, i, j <= 2, by direct summation."""
    n = np.arange(P.shape[-1], dtype=float)
    powers = [np.ones_like(n), n, n**2]
    return np.stack(
        [np.stack([np.vecdot(f @ P, g) for g in powers], axis=-1) for f in powers], axis=-2
    )
