"""Receptor-ligand binding kinetics and sensorgram models.

Pseudo-first-order Langmuir kinetics: ligand supplied in large excess, so the
complex concentration relaxes exponentially with observed rate
k_s = k_a*L0 + k_d during association (t < tau) and decays with k_d during
dissociation (t >= tau). The same piecewise-exponential shape describes the
angular sensorgram (degrees) and the transmittance sensorgram.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spr_optics import OpticalStack, index_from_angle, transmittance_from_index


@dataclass(frozen=True)
class KineticParameters:
    """Rate constants of a binding interaction.

    Attributes:
        k_a: association constant (1/(M s)).
        k_d: dissociation constant (1/s).
        L0: initial ligand concentration (M).
        tau_s: injection switch time tau (s), start of the dissociation phase.
    """

    k_a: float
    k_d: float
    L0: float
    tau_s: float

    def __post_init__(self) -> None:
        for name in ("k_a", "k_d", "L0", "tau_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.k_s == self.k_d:
            raise ValueError("k_a*L0 vanishes against k_d in k_s = k_a*L0 + k_d; k_a is not recoverable")

    @property
    def k_s(self) -> float:
        """Observed association-phase rate k_a*L0 + k_d (1/s)."""
        return self.k_a * self.L0 + self.k_d

    @property
    def K_D(self) -> float:
        """Dissociation equilibrium constant k_d/k_a (M)."""
        return self.k_d / self.k_a


@dataclass(frozen=True)
class SensorgramShape:
    """Piecewise-exponential sensorgram: baseline plus bounded-growth/decay.

    ``amplitude_inf`` is the asymptotic deviation from baseline (degrees for an
    angular sensorgram, dimensionless for transmittance). The value is
    continuous at tau by construction.
    """

    baseline: float
    amplitude_inf: float
    k_s: float
    k_d: float
    tau_s: float

    def __post_init__(self) -> None:
        if not self.amplitude_inf > 0:
            raise ValueError("amplitude_inf must be positive")
        for name in ("k_s", "k_d", "tau_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    @property
    def amplitude_tau(self) -> float:
        """Deviation reached at the switch time, amplitude_inf*(1 - exp(-k_s*tau))."""
        return self.amplitude_inf * -np.expm1(-self.k_s * self.tau_s)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid for a sensorgram."""

    t_start: float
    t_end: float
    step: float

    def __post_init__(self) -> None:
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not self.t_end > self.t_start:
            raise ValueError("t_end must exceed t_start")

    def times(self) -> np.ndarray:
        return np.arange(self.t_start, self.t_end + 0.5 * self.step, self.step)


def complex_concentration(t, kp: KineticParameters, R0: float):
    """Receptor-ligand complex concentration [C](t) (M).

    The sensorgram law with zero baseline and amplitude C_ss = L0*R0/(L0 + K_D),
    the association steady state. Valid under L0 >> R0 (pseudo-first-order);
    the caller owns that assumption.
    """
    if not R0 > 0:
        raise ValueError("R0 must be positive")
    c_ss = kp.L0 * R0 / (kp.L0 + kp.K_D)
    return ideal_sensorgram(t, SensorgramShape(0.0, c_ss, kp.k_s, kp.k_d, kp.tau_s))


def ideal_sensorgram(t, shape: SensorgramShape):
    """Noise-free sensorgram value(s) at time(s) t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    rise = shape.amplitude_inf * -np.expm1(-shape.k_s * t)
    fall = shape.amplitude_tau * np.exp(-shape.k_d * np.clip(t - shape.tau_s, 0.0, None))
    out = shape.baseline + np.where(t < shape.tau_s, rise, fall)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TransmittanceTrace:
    """Reconstructed intensity-interrogation sensorgram.

    Carries the analyte-index trace alongside the transmittance so downstream
    calibration never has to re-invert the optics. It has no rule for tau:
    ``linearize_sensorgram`` and ``qspr.fit.split_at_tau`` each place it.
    """

    t: np.ndarray
    theta_deg: np.ndarray
    n_a: np.ndarray
    transmittance: np.ndarray


def reconstruct_transmittance_sensorgram(
    angular: SensorgramShape, stack: OpticalStack, grid: TimeGrid
) -> TransmittanceTrace:
    """Convert an angular sensorgram into the equivalent transmittance sensorgram.

    For each grid time: theta(t) = baseline + dtheta(t), then n_a(t) from the
    resonance condition (real metal permittivity only), then T(t) from the full
    lossy Fresnel model at the fixed interrogation angle of ``stack``. The
    angular baseline must be the resonance angle of the buffer index so that
    n_a(0) reproduces the buffer.
    """
    t = grid.times()
    theta = ideal_sensorgram(t, angular)
    n_a = index_from_angle(theta, stack.eps_metal.real, stack.n_prism)
    T = transmittance_from_index(stack, n_a)
    return TransmittanceTrace(t=t, theta_deg=theta, n_a=n_a, transmittance=T)


def linearize_sensorgram(t, T, n_a, tau_s: float) -> np.ndarray:
    """Calibrated sensorgram T_L: affine in n_a^2, pinned at t=0 and t=tau.

    T_L(t) = T(0) + (T(tau)-T(0))/(n_a^2(tau)-n_a^2(0)) * (n_a^2(t)-n_a^2(0)).
    Fitting T_L removes the residual nonlinearity of the optical response.
    """
    t = np.asarray(t, dtype=float)
    T = np.asarray(T, dtype=float)
    n_a = np.asarray(n_a, dtype=float)
    if not t.shape == T.shape == n_a.shape:
        raise ValueError("t, T and n_a must share one grid")
    i_tau = int(np.argmin(np.abs(t - tau_s)))
    na2 = n_a ** 2
    span = na2[i_tau] - na2[0]
    if span == 0:
        raise ValueError("zero index deviation: n_a^2(tau) equals n_a^2(0)")
    slope = (T[i_tau] - T[0]) / span
    return T[0] + slope * (na2 - na2[0])


def close_ka(k_s: float | np.ndarray, k_d: float | np.ndarray, L0: float) -> float | np.ndarray:
    """Association constant from the fitted rates: k_a = (k_s - k_d)/L0.

    Works elementwise on arrays of rates. A negative result (k_s < k_d,
    possible under noise) is returned as-is.
    """
    if not L0 > 0:
        raise ValueError("L0 must be positive")
    return (k_s - k_d) / L0
