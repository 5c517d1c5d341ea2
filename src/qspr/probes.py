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
thinning_law evaluates <M> and Var M for one state's row of this table or
for a column state's whole table (ProbeState.input_moments) in one call.
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
    """A probe state with N mean photons in the signal mode, or a column of them.

    Attributes:
        kind: probe family.
        n_mean: mean photon number N of the signal mode.
        g: squeezing gain G = cosh^2(r), TMSD only.
        n_ref: reference-mode mean photon number, TMC only; defaults to
            ``n_mean`` (balanced classical benchmark).

    Floats for one state; for a column state, one family's table, arrays that
    broadcast together, one entry per state, which thinning_law and the oracle
    take whole. A column state is neither hashable nor comparable, so a
    SimulationPlan holds a single state.
    """

    kind: ProbeKind
    n_mean: float | np.ndarray
    g: float | np.ndarray = DEFAULT_TMSD_GAIN
    n_ref: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        if not np.all(self.n_mean > 0):
            raise ValueError("n_mean must be positive")
        if self.kind is ProbeKind.TMSD:
            if not np.all(self.g > 1):
                raise ValueError("TMSD gain G must exceed 1")
            if np.any(self.alpha_sq < 0):
                raise ValueError("TMSD requires n_mean >= G - 1 so that |alpha|^2 >= 0")
        if self.n_ref is not None:
            if self.kind is not ProbeKind.TMC:
                raise ValueError("n_ref applies to TMC states only")
            if not np.all(self.n_ref >= 0):
                raise ValueError("n_ref must be non-negative")

    @property
    def alpha_sq(self) -> float:
        """TMSD displacement |alpha|^2 = (N - (G - 1))/G implied by the energy convention."""
        if self.kind is ProbeKind.TMSD:
            return (self.n_mean - (self.g - 1.0)) / self.g
        raise ValueError(f"{self.kind.value} state carries no displacement")

    @property
    def n_reference(self) -> float:
        """Mean photon number in the reference mode."""
        if self.kind is ProbeKind.TMC:
            return self.n_mean if self.n_ref is None else self.n_ref
        if self.kind is ProbeKind.TMSD:
            return self.n_mean - self.alpha_sq
        return self.n_mean

    @property
    def input_moments(self) -> tuple[float, float, float, float, float]:
        """(C, D_a, D_b, N, N_ref), the input photon-number moments that thinning_law takes."""
        N, N_ref = self.n_mean, self.n_reference
        if self.kind is ProbeKind.TMC:
            return 0.0, N, N_ref, N, N_ref
        if self.kind is ProbeKind.TMF:
            return 0.0, 0.0, 0.0, N, N_ref
        if self.kind is ProbeKind.TMSV:
            return N * (N + 1.0), 0.0, 0.0, N, N_ref
        G, a2 = self.g, self.alpha_sq
        return G * (G - 1.0) * (1.0 + 2.0 * a2), G * a2, -(G - 1.0) * a2, N, N_ref


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


def thinning_law(moments, T, eta_a, eta_b):
    """(<M>, sqrt(Var M)) of input moments (C, D_a, D_b, N, N_ref) after sensor and losses.

    ``moments`` holds the five on its first axis: one state's floats, or the
    columns of a table of states, arrays that broadcast against T, eta_a and
    eta_b. Every operation is elementwise, so an entry of a table equals the
    same state evaluated alone, bit for bit. Floats where the result is one
    value.
    """
    C, D_a, D_b, N, N_ref = moments
    t = eta_a * np.asarray(T, dtype=float)
    mean = t * N - eta_b * N_ref
    # squares as products: ** on a float or numpy scalar is pow, off x * x by an ulp at times
    d = t - eta_b
    var = C * (d * d) + D_a * (t * t) + D_b * (eta_b * eta_b) + t * (1.0 - t) * N
    sd = np.sqrt(var + eta_b * (1.0 - eta_b) * N_ref)
    return (float(mean), float(sd)) if np.ndim(mean) == 0 else (mean, sd)


def mean_M(state: ProbeState, T, eta_a: float, eta_b: float):
    """Expected intensity difference <M> = <n_a> - <n_b> after sensor and losses.

    ``eta_a``/``eta_b`` are the channel transmissivities of the signal and
    reference modes; for a scenario pass ``sc.eta_a, sc.eta_b``.
    """
    return thinning_law(state.input_moments, T, eta_a, eta_b)[0]


def delta_M(state: ProbeState, T, eta_a: float, eta_b: float):
    """Single-shot uncertainty of the intensity difference M for the probe state."""
    return thinning_law(state.input_moments, T, eta_a, eta_b)[1]


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

    A TMC state is its own benchmark. Other balanced references, a column's
    when every entry is, are canonicalized to ``n_ref=None`` so that equal
    physical configurations compare (and hash) equal.
    """
    if state.kind is ProbeKind.TMC:
        return state
    n_ref = None if np.array_equal(state.n_reference, state.n_mean) else state.n_reference
    return ProbeState(kind=ProbeKind.TMC, n_mean=state.n_mean, n_ref=n_ref)


def enhancement_RM(state: ProbeState, T, sc: SensingScenario):
    """Measurement-noise enhancement R_M = delta_M(classical)/delta_M(state).

    The classical reference is a TMC state with the same per-mode mean photon
    numbers, so R_M = 1 for any TMC state. R_M > 1 means the probe beats the
    shot-noise limit at this T. A column state of k N values, shape (k, 1),
    against a T axis gives the (k, len(T)) grid of R_M.
    """
    reference = matched_classical_reference(state)
    return delta_M(reference, T, sc.eta_a, sc.eta_b) / delta_M(state, T, sc.eta_a, sc.eta_b)

