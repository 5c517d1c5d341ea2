"""Brute-force verification of the measurement moments in a truncated Fock basis.

:mod:`qspr.probes` applies one thinning law to a hand-derived table of input
photon-number moments. Here states are explicit amplitude arrays and each
channel is binomial thinning S[n, k] = C(n, k) p^k (1-p)^(n-k), exact as M is
photon-number diagonal. Every moment of S_a^T P S_b is a form f^T S_a^T P S_b g
with f, g in V = [1, k, k^2], so apply_channels sums P against each channel's
S V = (C o Q) (diag(p^k) V), Q[n, k] = (1-p)^(n-k), and never forms S: every
amplitude and every binomial site takes part, no row sum of S is taken to be 1
and no binomial moment is written in closed form. So the amplitudes and the
numerical thinning check both the table and the law. The oracle needs numpy
and the standard library only, and one cached table: C(n, k), each an exact
math.comb rounded once, serves the thinning and the TMSD sectors. Each state
is built from the floats its closed form reads, N, the gain G and |alpha|^2,
never through a squeezing parameter r. A coherent column is the
running product <0|alpha> = exp(-alpha^2/2), <n|alpha> = <n-1|alpha> alpha/sqrt(n).
TMSD comes from the squeezing generator K = a b - a^dag b^dag alone. K keeps
D = n_a - n_b fixed and |alpha>|0> puts coh[D] on the first site |D, 0> of
sector D, where the SU(1,1) disentangling identity (Perelomov, Generalized
Coherent States and Their Applications, 1986) gives the sector exactly; in
G = cosh^2 r, sech r = G^(-1/2) and tanh r = ((G-1)/G)^(1/2), so
amps[D+j, j] = coh[D] G^(-(D+1)/2) (-1)^j ((G-1)/G)^(j/2) sqrt(C(D+j, j)), one
product over the box's sites. TMSV's Schmidt weights are the alpha = 0 case at
G = N + 1, taken from N itself. Every state here is exact on its box:
truncation shows only as the probability mass outside it, which build_state bounds.

Every function acts on a stack of states, (..., d, d) on the last two axes;
build_state makes it from a column ProbeState, one family's states, and one
state is a (d, d) array. verify_closed_forms draws and evaluates
FOCK_ENTRIES_PER_SLICE Fock entries of tuples at a time, so its memory does
not grow with the tuple count: one draw of five doubles a tuple, one column
state through the oracle and one thinning_law call per slice. A pass
allocates one workspace of two slice-sized stacks, written through ``out``:
build_state's amplitudes, which verify then squares in place into P, in the
first, and each channel's sites C(n, k) (1-p)^(n-k) in the second. Each state's
moments are per-state matrix products of one shape, never one product over
the stack, so they do not depend on the slice a state is evaluated in.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, cosh, sinh

import numpy as np

from .probes import ProbeKind, ProbeState, thinning_law


# largest probability mass a truncated state may leave outside its cutoff
TAIL_TOLERANCE = 1e-10
# largest cutoff a verify pass accepts, over five times the 36 that the largest
# small state needs (TMSD, |alpha|^2 = 4, r = 0.5). Cost sets it, not range: each
# tuple builds its (d, d) box and contracts it with each channel's (d, d) sites,
# O(d^2) work, and 50 tuples per family take about 0.11 s in a warm process on
# a 2-core host against 0.01 s at cutoff 40. C(200, 100) ~ 9e58 is the largest
# binomial here; C overflows a float only past 1,029.
MAX_CUTOFF = 200
# Fock entries, (cutoff+1)^2 per tuple, that verify_closed_forms evaluates in
# one slice, at least one tuple: 19 tuples at cutoff 40, one at MAX_CUTOFF. It
# bounds a pass's memory: two slice-sized stacks, 0.51 MB at cutoff 40. At
# 2**16 a warm cutoff-40 pass was 13% faster, and a verify process took 0.7 MB
# more peak RSS.
FOCK_ENTRIES_PER_SLICE = 2**15


class TruncationError(RuntimeError):
    """Fock-space cutoff too small for the requested state."""


@lru_cache(maxsize=2)
def _binomials(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """n - k and C(n, k), a float, on the [n, k] box, read-only; both are 0 above the diagonal.

    Thinning n photons to k loses n - k; the TMSD site [D + j, j] is n = D + j, k = j.
    """
    n, k = np.ogrid[: cutoff + 1, : cutoff + 1]
    lost = np.maximum(n - k, 0)
    # C(200, 100) ~ 9e58: each exact integer rounds once to float
    binom = np.array([[float(comb(a, b)) for b in range(cutoff + 1)] for a in range(cutoff + 1)])
    lost.flags.writeable = binom.flags.writeable = False
    return lost, binom


def _coherent_amplitudes(alpha, cutoff: int) -> np.ndarray:
    """<n|alpha> for real alpha >= 0 and n <= cutoff, on a last axis appended to alpha's shape.

    One running product of <0|alpha> = exp(-alpha^2/2) and the steps alpha/sqrt(n):
    <n|alpha> = <n-1|alpha> alpha/sqrt(n). At alpha = 0 it is the exact vacuum.
    """
    alpha = np.asarray(alpha, dtype=float)[..., None]
    steps = np.empty(alpha.shape[:-1] + (cutoff + 1,))
    steps[..., :1] = np.exp(-0.5 * alpha**2)
    steps[..., 1:] = alpha / np.sqrt(np.arange(1, cutoff + 1))
    return np.cumprod(steps, axis=-1, out=steps)


def _tmsd_amplitudes(alpha, g, cutoff: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """exp(r K) |alpha>|0>, K = a b - a^dag b^dag, on the (cutoff+1)^2 box, exactly, (k, d, d) for k pairs.

    A pair is alpha and the gain g = cosh^2 r; written into ``out``, a (k, d, d) array, when given.
    """
    D, binom = _binomials(cutoff)
    g = np.asarray(g, dtype=float)[:, None]
    n = np.arange(cutoff + 1)
    head = _coherent_amplitudes(alpha, cutoff) * g ** (-0.5 * (n + 1))  # coh[D] sech^(D+1)
    # every index is on the box: mode="clip" writes into out without numpy's
    # error-safe copy of it
    amps = np.take(head, D, axis=-1, out=out, mode="clip")
    # (-tanh r)^j, each power of the once-rounded (g - 1)/g
    amps *= ((-1.0) ** n * ((g - 1.0) / g) ** (0.5 * n))[:, None, :]
    amps *= np.sqrt(binom)  # 0 off the sector sites
    return amps


def build_state(state: ProbeState, cutoff: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Explicit truncated amplitudes [..., n_a, n_b] of one probe state or of a column state's k.

    A float ``n_mean`` gives a (cutoff+1, cutoff+1) array, a 1-D column of k
    states a (k, cutoff+1, cutoff+1) stack, written into ``out`` when that is
    given, a C-contiguous (k, cutoff+1, cutoff+1) array. The amplitudes are real:
    every probe state has a real alpha and a fixed squeezing phase. Every
    amplitude on the box is exact, so the one truncation guard is the
    probability mass outside it: TruncationError, naming the first state that
    fails, if that exceeds TAIL_TOLERANCE.
    """
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    N = np.reshape(state.n_mean, -1)
    d = cutoff + 1
    amps = np.empty((N.size, d, d)) if out is None else out
    if state.kind is ProbeKind.TMC:
        pairs = np.column_stack(np.broadcast_arrays(N, np.reshape(state.n_reference, -1)))
        coh = _coherent_amplitudes(np.sqrt(pairs), cutoff)
        np.multiply(coh[:, 0, :, None], coh[:, 1, None, :], out=amps)
    elif state.kind is ProbeKind.TMF:
        if np.any(N != np.floor(N)):
            raise ValueError("TMF oracle state needs an integer photon number")
        if np.any(N > cutoff):  # before the int cast, which 1e19 or inf would overflow
            raise TruncationError(f"cutoff {cutoff} below Fock number {N[np.argmax(N > cutoff)]:g}")
        n = N.astype(int)
        amps.fill(0.0)
        amps[np.arange(N.size), n, n] = 1.0
    elif state.kind is ProbeKind.TMSV:
        n, N_col = np.arange(d), N[:, None]
        amps.fill(0.0)
        # S(r)|00> has Schmidt form sqrt(1-lam^2) * (-lam)^n |n,n>, 1 - lam^2 = 1/(N+1), lam^2 = N/(N+1)
        amps[:, n, n] = (N_col + 1.0) ** -0.5 * ((-1.0) ** n * (N_col / (N_col + 1.0)) ** (0.5 * n))
    else:  # TMSD from its exact sector expansion
        alpha = np.sqrt(np.reshape(state.alpha_sq, -1))
        _tmsd_amplitudes(alpha, np.broadcast_to(state.g, N.shape), cutoff, out=amps)
    flat = amps.reshape(N.size, d * d)
    tail = np.maximum(1.0 - np.vecdot(flat, flat), 0.0)
    if np.any(tail > TAIL_TOLERANCE):
        first = tail[np.argmax(tail > TAIL_TOLERANCE)]
        raise TruncationError(f"truncated tail mass {first:.2e} exceeds {TAIL_TOLERANCE:.1e}")
    return amps if np.ndim(state.n_mean) else amps[0]


def _power_tables(cutoff: int, transmissivity) -> tuple[np.ndarray, np.ndarray]:
    """(1-p)^j and p^k, j, k <= cutoff, on a last axis appended to the transmissivities' shape.

    0**0 = 1 keeps p = 0 and 1 exact; C(n, k) p^k (1-p)^(n-k) is a few ulp off wherever p^k is normal.
    """
    p = np.asarray(transmissivity, dtype=float)[..., None]
    k = np.arange(cutoff + 1)
    # 1 - p rounds to q, and k ((1 - q) - p) q^(k-1) restores its exact rest to first order
    q = 1.0 - p
    q_pow = q**k
    q_pow[..., 1:] += ((1.0 - q) - p) * k[1:] * q_pow[..., :-1]
    return q_pow, p**k


def _channel_moments(cutoff: int, transmissivity, *, out: np.ndarray | None = None):
    """Yield S V, [..., n, j], V = [1, k, k^2], for each channel on the transmissivities' first axis.

    S V = (C o Q) (diag(p^k) V), Q[n, k] = (1-p)^(n-k): p^k scales the moment
    vectors, one (..., 3, d) table, never the (d, d) sites, which ``out`` takes
    in turn when given. Sites k > n are exact zeros.
    """
    lost, binom = _binomials(cutoff)
    q_pow, p_pow = _power_tables(cutoff, transmissivity)
    moments = p_pow[..., None, :] * np.arange(cutoff + 1.0) ** np.arange(3)[:, None]
    for lost_pow, kept_moments in zip(q_pow, moments):
        # every index is on the table: mode="clip" writes into out without numpy's error-safe copy
        sites = np.take(lost_pow, lost, axis=-1, out=out, mode="clip")
        sites *= binom
        yield sites @ np.swapaxes(kept_moments, -1, -2)


def apply_channels(P: np.ndarray, T, eta_a, eta_b, *, out: np.ndarray | None = None) -> np.ndarray:
    """Joint moments G[..., i, j] = E[n_a^i n_b^j], i, j <= 2, after the sensor (T) and both losses.

    ``P`` is the joint photon-number distribution, |amplitudes|^2 of a state
    or a stack of states from build_state; T, eta_a and eta_b are scalars or
    arrays over the stack's leading axes. The sensor and the signal-mode loss
    compose into one binomial channel of transmissivity eta_a*T; the reference
    mode is thinned by eta_b. G = (S_a V)^T P (S_b V): per state, three (d, d)
    by (d, 3) products and one (3, d) by (d, 3), whatever the stack holds.
    ``out``, one C-contiguous array of P's stack shape, takes each channel's sites in turn.
    """
    for name, val in zip(("T", "eta_a", "eta_b"), map(np.asarray, (T, eta_a, eta_b))):
        # a NaN fails both comparisons; the initial values pass an empty stack
        if not (val.min(initial=0.0) >= 0.0 and val.max(initial=1.0) <= 1.0):
            raise ValueError(f"{name} must lie in [0, 1]")
    stack = np.broadcast_shapes(P.shape[:-2], np.shape(T), np.shape(eta_a), np.shape(eta_b))
    p = np.empty((2, *stack))  # both channels' power tables in one pass
    p[0], p[1] = np.multiply(eta_a, T), eta_b
    signal, reference = _channel_moments(P.shape[-1] - 1, p, out=out)
    return np.swapaxes(signal, -1, -2) @ (P @ reference)


def oracle_moments(G: np.ndarray):
    """(mean_M, delta_M) of the intensity difference from joint moments G of apply_channels.

    Floats for one (3, 3) matrix, arrays over the leading axes of a stack.
    """
    mean_a, mean_b = G[..., 1, 0], G[..., 0, 1]
    var_a = G[..., 2, 0] - mean_a**2
    var_b = G[..., 0, 2] - mean_b**2
    cov = G[..., 1, 1] - mean_a * mean_b
    mean, sd = mean_a - mean_b, np.sqrt(var_a + var_b - 2.0 * cov)
    return (float(mean), float(sd)) if G.ndim == 2 else (mean, sd)


@dataclass(frozen=True)
class OracleReport:
    """Worst-case deviation between oracle and closed forms over the tuples of one ProbeKind.

    A deviation is NaN when any tuple's is, so a non-finite result never passes.
    """

    kind: ProbeKind
    max_dev_delta_M: float
    max_dev_mean_M: float

    @property
    def max_dev(self) -> float:
        return float(np.maximum(self.max_dev_delta_M, self.max_dev_mean_M))


def _draw_slice(kind: ProbeKind, rng: np.random.Generator, count: int) -> tuple[ProbeState, np.ndarray]:
    """A column state of ``count`` small states and their (T, eta_a, eta_b) rows, each in [0.05, 0.95].

    One (count, 5) draw: the i-th tuple of a family takes its doubles 5i to
    5i + 4 whatever the slice, the channels from the first three and the
    state from the last two, u and v: TMC N = 0.5 + 3.5u, TMF N = 1 + floor(4u),
    and r = 0.1 + 0.4u, TMSV N = sinh^2 r, TMSD G = cosh^2 r and
    |alpha|^2 = 0.1 + 3.9v (N <= 4, r <= 0.5, |alpha|^2 <= 4). sinh and cosh
    act on Python floats, and the rest is +, * and floor, so a state does not
    follow numpy's SIMD dispatch.
    """
    draws = rng.random((count, 5))
    channels, (u, v) = 0.05 + 0.9 * draws[:, :3], draws[:, 3:].T
    if kind is ProbeKind.TMC:
        return ProbeState(kind, 0.5 + 3.5 * u), channels
    if kind is ProbeKind.TMF:
        return ProbeState(kind, 1.0 + np.floor(4.0 * u)), channels
    r = (0.1 + 0.4 * u).tolist()
    if kind is ProbeKind.TMSV:
        return ProbeState(kind, np.array([sinh(x) ** 2 for x in r])), channels
    g = np.array([cosh(x) ** 2 for x in r])
    return ProbeState(kind, g * (0.1 + 3.9 * v) + (g - 1.0), g=g), channels


def verify_closed_forms(tuples: int, cutoff: int, seed: int) -> list[OracleReport]:
    """Compare oracle moments against the closed forms on random channel tuples.

    Deviations are relative to the closed form; the mean is scaled by the
    measurement noise when it crosses zero. Each family's tuples are drawn and
    evaluated FOCK_ENTRIES_PER_SLICE Fock entries of tuples at a time, a
    slice's closed forms in one thinning_law call; a NaN deviation makes the
    family's report NaN.
    """
    if tuples < 1:
        raise ValueError("tuples must be >= 1")
    if not 1 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [1, {MAX_CUTOFF}], got {cutoff}")
    per_slice = min(tuples, max(1, FOCK_ENTRIES_PER_SLICE // (cutoff + 1) ** 2))
    # one workspace for the pass: amplitudes, then P, in the first array, channel sites in the
    # second. Fresh arrays per slice let malloc return the heap top to the OS and fault it back
    # in wherever glibc keeps its 128 KB trim threshold; tests/verify_faults.py counts those faults
    workspace = np.empty((2, per_slice, cutoff + 1, cutoff + 1))
    rng = np.random.default_rng(seed)
    reports = []
    for kind in ProbeKind:
        worst_dm = worst_mm = 0.0
        for start in range(0, tuples, per_slice):
            count = min(per_slice, tuples - start)
            states, channels = _draw_slice(kind, rng, count)
            T, eta_a, eta_b = channels.T
            amps, sites = workspace[:, :count]
            P = np.square(build_state(states, cutoff, out=amps), out=amps)
            G = apply_channels(P, T, eta_a, eta_b, out=sites)
            mm_oracle, dm_oracle = oracle_moments(G)
            mm_closed, dm_closed = thinning_law(states.input_moments, T, eta_a, eta_b)
            # np.max and np.maximum carry a NaN through, where Python's max may drop it
            worst_dm = np.maximum(worst_dm, np.max(np.abs(dm_oracle - dm_closed) / dm_closed))
            scale = np.maximum(np.abs(mm_closed), dm_closed)
            worst_mm = np.maximum(worst_mm, np.max(np.abs(mm_oracle - mm_closed) / scale))
        reports.append(OracleReport(kind, max_dev_delta_M=float(worst_dm), max_dev_mean_M=float(worst_mm)))
    return reports
