"""Kretschmann-stack optics: Fresnel transmittance and resonance-angle maps."""
import cmath
import math

import numpy as np
import pytest

from qspr.cases import KAUSAITE2007, LAHIRI1999
from qspr.spr_optics import (
    OpticalStack,
    index_from_angle,
    reflection_from_permittivities,
    resonance_angle,
    transmittance_from_index,
)

BUFFER_INDEX = 1.3385

# frozen output of an independent scalar transcription of the 3-layer model
# (see _rspp_reference below), evaluated once for the two case-study stacks
KAUSAITE_T0 = 0.30432971419312926
LAHIRI_T0 = 0.47638848270131023


def _rspp_reference(eps1, eps2, eps3, theta_deg, lam_nm, d_nm):
    """Straight cmath transcription of the stack reflection, kept independent
    of the numpy implementation under test."""
    theta = math.radians(theta_deg)
    k0 = 2.0 * math.pi / lam_nm
    s2 = eps1 * math.sin(theta) ** 2

    def kz(eps):
        w = cmath.sqrt(eps - s2)
        if w.imag < 0:
            w = -w
        return k0 * w

    k1, k2, k3 = kz(eps1), kz(eps2), kz(eps3)
    q1, q2, q3 = k1 / eps1, k2 / eps2, k3 / eps3
    r12 = (q1 - q2) / (q1 + q2)
    r23 = (q2 - q3) / (q2 + q3)
    ph = cmath.exp(2j * k2 * d_nm)
    return (ph * r23 + r12) / (ph * r23 * r12 + 1.0)


class TestStackValidation:
    def test_rejects_positive_metal_permittivity(self):
        with pytest.raises(ValueError, match="eps_metal"):
            OpticalStack(670.0, 1.5107, complex(2.0, 0.1), 50.0, 70.0)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("wavelength_nm", -1.0),
            ("metal_thickness_nm", 0.0),
            ("n_prism", 0.9),
            ("theta_in_deg", 95.0),
        ],
    )
    def test_rejects_bad_fields(self, field, value):
        kwargs = dict(
            wavelength_nm=670.0,
            n_prism=1.5107,
            eps_metal=complex(-14.358, 1.044),
            metal_thickness_nm=50.0,
            theta_in_deg=70.12,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            OpticalStack(**kwargs)


class TestReflection:
    def test_identity_layers_give_zero(self):
        # all interface coefficients vanish when the three permittivities match
        for theta in (15.0, 45.0, 70.0, 85.0):
            r = reflection_from_permittivities(2.25, 2.25, 2.25, theta, 670.0, 50.0)
            assert r == 0

    def test_vanishing_film_reduces_to_direct_interface(self):
        eps1, eps3 = 1.5107**2, 1.3385**2
        r_thin = reflection_from_permittivities(
            eps1, complex(-14.358, 1.044), eps3, 70.12, 670.0, 1e-9
        )
        r_direct = _rspp_reference(eps1, eps3, eps3, 70.12, 670.0, 0.0)
        assert abs(r_thin - r_direct) < 1e-8

    def test_kausaite_baseline_regression(self):
        got = transmittance_from_index(KAUSAITE2007.stack, BUFFER_INDEX)
        assert got == pytest.approx(KAUSAITE_T0, abs=1e-12)

    def test_lahiri_baseline_regression(self):
        got = transmittance_from_index(LAHIRI1999.stack, BUFFER_INDEX)
        assert got == pytest.approx(LAHIRI_T0, abs=1e-12)

    def test_matches_independent_transcription_on_random_stacks(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            eps1 = rng.uniform(1.2, 1.8) ** 2
            eps2 = complex(-rng.uniform(5, 30), rng.uniform(0.1, 3))
            eps3 = rng.uniform(1.0, 1.5) ** 2
            theta = rng.uniform(40, 85)
            lam = rng.uniform(500, 900)
            d = rng.uniform(20, 70)
            got = reflection_from_permittivities(eps1, eps2, eps3, theta, lam, d)
            want = _rspp_reference(eps1, eps2, eps3, theta, lam, d)
            assert got == pytest.approx(want, rel=1e-12)

    def test_passivity_on_grid(self):
        for theta in np.linspace(40.0, 89.0, 12):
            stack = OpticalStack(670.0, 1.5107, complex(-14.358, 1.044), 50.0, float(theta))
            T = transmittance_from_index(stack, np.linspace(1.0, 1.6, 25))
            assert np.all(T >= 0.0) and np.all(T <= 1.0)

    def test_monotone_in_index_at_operating_point(self):
        # over the reconstructed index range of the large-deviation case
        n_hi = index_from_angle(
            KAUSAITE2007.theta0_deg + 0.8, KAUSAITE2007.stack.eps_metal.real, 1.5107
        )
        T = transmittance_from_index(KAUSAITE2007.stack, np.linspace(1.3385, n_hi, 200))
        assert np.all(np.diff(T) > 0)


class TestResonanceAngle:
    def test_lahiri_angle_reproduced(self):
        assert resonance_angle(1.3385, -20.913, 1.523) == pytest.approx(66.796, abs=5e-3)

    def test_kausaite_angle_from_phase_matching(self):
        # frozen value of the closed-form condition for these inputs; the
        # experiment's reported 71.0966 deg instead matches the lossy Fresnel
        # minimum (see test_reported_angle_is_lossy_minimum)
        assert resonance_angle(1.3385, -14.358, 1.5107) == pytest.approx(
            71.2746729700282, abs=1e-9
        )

    def test_reported_angle_is_lossy_minimum(self):
        stack = KAUSAITE2007.stack
        thetas = np.linspace(69.0, 74.0, 50001)
        dips = np.array(
            [
                abs(
                    reflection_from_permittivities(
                        stack.eps_prism, stack.eps_metal, BUFFER_INDEX**2, float(th),
                        stack.wavelength_nm, stack.metal_thickness_nm,
                    )
                )
                ** 2
                for th in thetas
            ]
        )
        theta_min = float(thetas[np.argmin(dips)])
        assert theta_min == pytest.approx(KAUSAITE2007.reported_theta0_deg, abs=1e-3)

    @pytest.mark.parametrize(
        "nm2,n_p,max_gap",
        [(-14.358, 1.5107, 0.2), (-20.913, 1.523, 0.29)],
        ids=["kausaite", "lahiri"],
    )
    def test_phase_matching_near_lossy_minimum(self, nm2, n_p, max_gap):
        case = KAUSAITE2007 if nm2 == -14.358 else LAHIRI1999
        stack = case.stack
        thetas = np.linspace(60.0, 80.0, 20001)
        dips = np.array(
            [
                abs(
                    reflection_from_permittivities(
                        stack.eps_prism, stack.eps_metal, BUFFER_INDEX**2, float(th),
                        stack.wavelength_nm, stack.metal_thickness_nm,
                    )
                )
                ** 2
                for th in thetas
            ]
        )
        theta_min = float(thetas[np.argmin(dips)])
        assert abs(theta_min - resonance_angle(1.3385, nm2, n_p)) < max_gap

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            resonance_angle(1.3385, -1.0, 1.5107)  # |eps_m'| < n_a^2
        with pytest.raises(ValueError):
            resonance_angle(1.52, -14.358, 1.523)  # arcsin argument >= 1


class TestIndexFromAngle:
    def test_lahiri_inversion(self):
        assert index_from_angle(66.796, -20.913, 1.523) == pytest.approx(1.3385, abs=5e-4)

    @pytest.mark.parametrize(
        "nm2,n_p", [(-14.358, 1.5107), (-20.913, 1.523)], ids=["kausaite", "lahiri"]
    )
    def test_round_trip_identity(self, nm2, n_p):
        n_grid = np.linspace(1.33, 1.36, 61)
        back = index_from_angle(resonance_angle(n_grid, nm2, n_p), nm2, n_p)
        assert np.max(np.abs(back / n_grid - 1.0)) < 1e-10
        theta_grid = resonance_angle(n_grid, nm2, n_p)
        again = resonance_angle(index_from_angle(theta_grid, nm2, n_p), nm2, n_p)
        assert np.max(np.abs(again / theta_grid - 1.0)) < 1e-10

    def test_sign_flipped_denominator_rejected(self):
        # n_p^2 sin^2(theta) < eps_m' never happens for negative eps_m', so
        # force the failure with a positive metal constant
        with pytest.raises(ValueError):
            index_from_angle(70.0, 1.0, 1.5107)
