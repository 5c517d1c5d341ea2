"""Three-layer Kretschmann sensor optics.

The sensor is modelled as prism / metal film / analyte. Transmittance of the
signal mode is the p-polarized power reflection coefficient of the stack,
``T = |r|^2``, evaluated at a fixed interrogation angle. Conversion between
resonance angle and analyte refractive index uses the lossless surface-plasmon
phase-matching condition (real part of the metal permittivity only); the full
lossy Fresnel model is reserved for the transmittance itself.

Angles are degrees at every public interface, radians internally.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OpticalStack:
    """Physical configuration of the sensor.

    Attributes:
        wavelength_nm: vacuum wavelength of the probe light (nm).
        n_prism: prism refractive index (real, > 1).
        eps_metal: complex relative permittivity of the metal film.
        metal_thickness_nm: film thickness d (nm).
        theta_in_deg: fixed interrogation angle inside the prism (degrees).
    """

    wavelength_nm: float
    n_prism: float
    eps_metal: complex
    metal_thickness_nm: float
    theta_in_deg: float

    def __post_init__(self) -> None:
        if not self.wavelength_nm > 0:
            raise ValueError("wavelength_nm must be positive")
        if not self.metal_thickness_nm > 0:
            raise ValueError("metal_thickness_nm must be positive")
        if not self.n_prism > 1:
            raise ValueError("n_prism must exceed 1")
        eps = complex(self.eps_metal)
        if not eps.real < 0:
            raise ValueError("Re(eps_metal) must be negative (metal below plasma frequency)")
        if eps.imag < 0:
            raise ValueError("Im(eps_metal) must be non-negative")
        if not 0 < self.theta_in_deg < 90:
            raise ValueError("theta_in_deg must lie in (0, 90)")

    @property
    def eps_prism(self) -> float:
        return self.n_prism ** 2


def _kz(eps, eps1_sin2, k0):
    """Normal wavevector component k_i = k0 * sqrt(eps_i - eps_1 sin^2(theta)).

    Branch fixed to Im(k) >= 0 so fields decay into lossy/evanescent layers.
    """
    w = np.sqrt(np.asarray(eps, dtype=complex) - eps1_sin2)
    return k0 * np.where(w.imag < 0, -w, w)


def reflection_from_permittivities(
    eps_prism,
    eps_metal,
    eps_analyte,
    theta_in_deg: float,
    wavelength_nm: float,
    thickness_nm: float,
):
    """p-polarized reflection coefficient of the prism/metal/analyte stack.

    Broadcasts over ``eps_analyte``; returns a complex scalar for scalar input.
    """
    theta = np.radians(theta_in_deg)
    k0 = 2.0 * np.pi / wavelength_nm
    eps1_sin2 = eps_prism * np.sin(theta) ** 2

    k1 = _kz(eps_prism, eps1_sin2, k0)
    k2 = _kz(eps_metal, eps1_sin2, k0)
    k3 = _kz(eps_analyte, eps1_sin2, k0)

    q1, q2, q3 = k1 / eps_prism, k2 / eps_metal, k3 / np.asarray(eps_analyte, dtype=complex)
    r12 = (q1 - q2) / (q1 + q2)
    r23 = (q2 - q3) / (q2 + q3)
    phase = np.exp(2j * k2 * thickness_nm)

    r = (phase * r23 + r12) / (phase * r23 * r12 + 1.0)
    return complex(r) if np.ndim(r) == 0 else r


def transmittance_from_index(stack: OpticalStack, n_a) -> np.ndarray:
    """Sensor transmittance T = |r|^2 at analyte index ``n_a`` (scalar or array)."""
    r = reflection_from_permittivities(
        stack.eps_prism,
        stack.eps_metal,
        np.asarray(n_a, dtype=float) ** 2,
        stack.theta_in_deg,
        stack.wavelength_nm,
        stack.metal_thickness_nm,
    )
    return np.abs(r) ** 2


def resonance_angle(n_a, n_metal_sq, n_prism):
    """Surface-plasmon resonance angle (degrees) from the phase-matching condition.

    ``n_metal_sq`` is the real part of the metal permittivity and must be
    negative with magnitude exceeding n_a^2 for a bound plasmon mode.
    """
    n_a = np.asarray(n_a, dtype=float)
    na2 = n_a ** 2
    q = na2 * n_metal_sq / (na2 + n_metal_sq)
    if np.any(q <= 0):
        raise ValueError("no bound plasmon: need n_metal_sq < 0 and |n_metal_sq| > n_a^2")
    s = np.sqrt(q) / n_prism
    if np.any(s >= 1) or np.any(s <= 0):
        raise ValueError("arcsin argument outside (0, 1): prism cannot phase-match")
    theta = np.degrees(np.arcsin(s))
    return float(theta) if theta.ndim == 0 else theta


def index_from_angle(theta_deg, n_metal_sq, n_prism):
    """Analyte refractive index from a resonance angle (inverse of resonance_angle)."""
    theta = np.radians(np.asarray(theta_deg, dtype=float))
    s2 = (n_prism * np.sin(theta)) ** 2
    den = n_metal_sq - s2
    if np.any(den == 0):
        raise ValueError("vanishing denominator n_metal_sq - n_prism^2 sin^2(theta)")
    q = n_metal_sq * s2 / den
    if np.any(q <= 0):
        raise ValueError("negative index^2: angle outside the plasmon-resonance domain")
    n_a = np.sqrt(q)
    return float(n_a) if n_a.ndim == 0 else n_a
