"""Probe states and the intensity-difference measurement model.

Four probe families share one energy convention: the signal mode always
carries N mean photons.

* TMC  -- two-mode coherent light, the classical benchmark (shot-noise limit).
* TMF  -- twin Fock state |N>|N>.
* TMSV -- two-mode squeezed vacuum, N = sinh^2(r).
* TMSD -- two-mode squeezed displaced state, N = G|alpha|^2 + (G - 1) with
          G = cosh^2(r); the reference mode then carries N - |alpha|^2.

The sensor acts as a beamsplitter of transmittance T on the signal mode;
independent losses eta_a, eta_b act on the two modes. The measured observable
is the photon-number difference M = n_a - n_b. On photon numbers the channels
are binomial thinning, keeping each photon with probability t = eta_a*T
(signal) or eta_b (reference). So <M> = t N - eta_b N_ref, and every probe has
Var M = C (t-eta_b)^2 + D_a t^2 + D_b eta_b^2 + t(1-t) N + eta_b(1-eta_b) N_ref
with input moments C = Cov(n_a, n_b), D_a = Var n_a - C, D_b = Var n_b - C:

    TMC (0, N, N_ref)   TMF (0, 0, 0)   TMSV (N(N+1), 0, 0)
    TMSD (G(G-1)(1+2|alpha|^2), G|alpha|^2, -(G-1)|alpha|^2)

Every term is >= 0 for TMC, TMF and TMSV, so the sum has no cancellation.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class ProbeKind(enum.Enum):
    TMC = "tmc"
    TMF = "tmf"
    TMSV = "tmsv"
    TMSD = "tmsd"


DEFAULT_TMSD_GAIN = 4.5  # G = cosh^2 r, practical squeezing level


@dataclass(frozen=True)
class ProbeState:
    """A probe state with N mean photons in the signal mode.

    Attributes:
        kind: probe family.
        n_mean: mean photon number N of the signal mode.
        g: squeezing gain G = cosh^2(r), TMSD only.
        n_ref: reference-mode mean photon number, TMC only; defaults to
            ``n_mean`` (balanced classical benchmark).
    """

    kind: ProbeKind
    n_mean: float
    g: float = DEFAULT_TMSD_GAIN
    n_ref: float | None = None

    def __post_init__(self) -> None:
        if not self.n_mean > 0:
            raise ValueError("n_mean must be positive")
        if self.kind is ProbeKind.TMSD:
            if not self.g > 1:
                raise ValueError("TMSD gain G must exceed 1")
            if self.alpha_sq < 0:
                raise ValueError("TMSD requires n_mean >= G - 1 so that |alpha|^2 >= 0")
        if self.n_ref is not None:
            if self.kind is not ProbeKind.TMC:
                raise ValueError("n_ref applies to TMC states only")
            if not self.n_ref >= 0:
                raise ValueError("n_ref must be non-negative")

    @property
    def alpha_sq(self) -> float:
        """TMSD displacement |alpha|^2 = (N - (G - 1))/G implied by the energy convention."""
        if self.kind is ProbeKind.TMSD:
            return (self.n_mean - (self.g - 1.0)) / self.g
        raise ValueError(f"{self.kind.value} state carries no displacement")

    @property
    def squeeze_r(self) -> float:
        """Squeezing parameter r (TMSV: sinh^2 r = N; TMSD: cosh^2 r = G)."""
        if self.kind is ProbeKind.TMSV:
            return float(np.arcsinh(np.sqrt(self.n_mean)))
        if self.kind is ProbeKind.TMSD:
            return float(np.arccosh(np.sqrt(self.g)))
        raise ValueError(f"{self.kind.value} state carries no squeezing")

    @property
    def n_reference(self) -> float:
        """Mean photon number in the reference mode."""
        if self.kind is ProbeKind.TMC:
            return self.n_mean if self.n_ref is None else self.n_ref
        if self.kind is ProbeKind.TMSD:
            return self.n_mean - self.alpha_sq
        return self.n_mean


class ScenarioMode(enum.Enum):
    STANDARD = "standard"
    OPTIMIZED = "optimized"
    SINGLE_MODE = "single_mode"


@dataclass(frozen=True)
class SensingScenario:
    """Loss configuration of the two-mode sensor.

    standard:    eta_b = eta_a (common loss in both arms).
    optimized:   eta_b = eta_a * t_mid, with the reference arm attenuated to the
                 sensorgram mid-point transmittance (fixed, never tracking T).
    single_mode: eta_b = 0, reference arm removed.
    """

    mode: ScenarioMode
    eta_a: float = 1.0
    t_mid: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.eta_a <= 1:
            raise ValueError("eta_a must lie in (0, 1]")
        if self.mode is ScenarioMode.OPTIMIZED and not 0 < self.t_mid <= 1:
            raise ValueError("optimized scenario needs t_mid in (0, 1]")

    @property
    def eta_b(self) -> float:
        if self.mode is ScenarioMode.STANDARD:
            return self.eta_a
        if self.mode is ScenarioMode.OPTIMIZED:
            return self.eta_a * self.t_mid
        return 0.0


def mean_M(state: ProbeState, T, eta_a: float, eta_b: float):
    """Expected intensity difference <M> = <n_a> - <n_b> after sensor and losses.

    ``eta_a``/``eta_b`` are the channel transmissivities of the signal and
    reference modes; for a scenario pass ``sc.eta_a, sc.eta_b``.
    """
    T = np.asarray(T, dtype=float)
    out = eta_a * T * state.n_mean - eta_b * state.n_reference
    return float(out) if out.ndim == 0 else out


def _thinned_sd(moments: tuple[float, ...], T, eta_a: float, eta_b: float):
    """sqrt(Var M) by the thinning law for input moments (C, D_a, D_b, N, N_ref)."""
    C, D_a, D_b, N, N_ref = moments
    t = eta_a * np.asarray(T, dtype=float)
    var = C * (t - eta_b) ** 2 + D_a * t**2 + D_b * eta_b**2 + t * (1.0 - t) * N
    out = np.sqrt(var + eta_b * (1.0 - eta_b) * N_ref)
    return float(out) if out.ndim == 0 else out


def delta_M(state: ProbeState, T, eta_a: float, eta_b: float):
    """Single-shot uncertainty of the intensity difference M for the probe state."""
    N = state.n_mean
    if state.kind is ProbeKind.TMC:
        C, D_a, D_b = 0.0, N, state.n_reference
    elif state.kind is ProbeKind.TMF:
        C, D_a, D_b = 0.0, 0.0, 0.0
    elif state.kind is ProbeKind.TMSV:
        C, D_a, D_b = N * (N + 1.0), 0.0, 0.0
    else:  # TMSD
        G, a2 = state.g, state.alpha_sq
        C, D_a, D_b = G * (G - 1.0) * (1.0 + 2.0 * a2), G * a2, -(G - 1.0) * a2
    return _thinned_sd((C, D_a, D_b, N, state.n_reference), T, eta_a, eta_b)


def tmsd_delta_M_large_alpha(state: ProbeState, T, eta_a: float, eta_b: float):
    """TMSD uncertainty of the |alpha|^2 part of its moments (bright displaced beam).

    TMSD moments are TMSV's at N = G - 1 plus |alpha|^2 (2G(G-1), G, -(G-1), G, G-1),
    so delta_M(TMSD)^2 = delta_M(TMSV, N=G-1)^2 + tmsd_delta_M_large_alpha^2 exactly.
    """
    if state.kind is not ProbeKind.TMSD:
        raise ValueError("the bright-beam form applies to TMSD states only")
    G = state.g
    per_alpha_sq = (2.0 * G * (G - 1.0), G, -(G - 1.0), G, G - 1.0)
    return _thinned_sd(tuple(state.alpha_sq * m for m in per_alpha_sq), T, eta_a, eta_b)


def sensitivity(state: ProbeState, sc: SensingScenario) -> float:
    """|d<M>/dT| = eta_a * N; <M> is affine in T for every probe family."""
    return sc.eta_a * state.n_mean


def delta_T(state: ProbeState, T, sc: SensingScenario, nu: int):
    """Estimation precision of the sample-mean transmittance from nu shots."""
    if not nu >= 1:
        raise ValueError("nu must be >= 1")
    out = delta_M(state, T, sc.eta_a, sc.eta_b) / sensitivity(state, sc) / np.sqrt(nu)
    return out


def matched_classical_reference(state: ProbeState) -> ProbeState:
    """TMC benchmark with the per-mode mean photon numbers of ``state``.

    Balanced references are canonicalized to ``n_ref=None`` so that equal
    physical configurations compare (and hash) equal.
    """
    n_ref = None if state.n_reference == state.n_mean else state.n_reference
    return ProbeState(kind=ProbeKind.TMC, n_mean=state.n_mean, n_ref=n_ref)


def enhancement_RM(state: ProbeState, T, sc: SensingScenario):
    """Measurement-noise enhancement R_M = delta_M(classical)/delta_M(state).

    The classical reference is a TMC state with the same per-mode mean photon
    numbers, so R_M = 1 for any TMC state. R_M > 1 means the probe beats the
    shot-noise limit at this T.
    """
    reference = matched_classical_reference(state)
    return delta_M(reference, T, sc.eta_a, sc.eta_b) / delta_M(state, T, sc.eta_a, sc.eta_b)


def midpoint_enhancement_map(
    kind: ProbeKind,
    sc: SensingScenario,
    T_values,
    N_values,
    g: float = DEFAULT_TMSD_GAIN,
) -> np.ndarray:
    """R_M tabulated on a (N, T) grid; rows follow N_values, columns T_values."""
    T_values = np.asarray(T_values, dtype=float)
    N_values = np.asarray(N_values, dtype=float)
    if T_values.size == 0 or N_values.size == 0:
        raise ValueError("T and N ranges must be non-empty")
    grid = np.empty((N_values.size, T_values.size))
    for i, n in enumerate(N_values):
        state = ProbeState(kind=kind, n_mean=float(n), g=g)
        grid[i] = enhancement_RM(state, T_values, sc)
    return grid
