"""Closed-form measurement moments and enhancement ratios of the probe states."""
from fractions import Fraction

import numpy as np
import pytest

from qspr.probes import (
    ProbeKind,
    ProbeState,
    ScenarioMode,
    SensingScenario,
    delta_M,
    delta_T,
    enhancement_RM,
    matched_classical_reference,
    mean_M,
    midpoint_enhancement_map,
    sensitivity,
    tmsd_delta_M_large_alpha,
)

NO_LOSS = SensingScenario(mode=ScenarioMode.STANDARD, eta_a=1.0)


def tmsd_from_alpha(alpha_sq: float, g: float) -> ProbeState:
    return ProbeState(kind=ProbeKind.TMSD, n_mean=g * alpha_sq + (g - 1.0), g=g)


class TestProbeState:
    def test_tmsd_partition(self):
        state = ProbeState(kind=ProbeKind.TMSD, n_mean=10.0, g=4.5)
        assert state.alpha_sq == pytest.approx((10.0 - 3.5) / 4.5)
        assert state.n_reference == pytest.approx(10.0 - state.alpha_sq)
        assert np.cosh(state.squeeze_r) ** 2 == pytest.approx(4.5, rel=1e-12)

    def test_tmsv_squeezing_fixed_by_energy(self):
        state = ProbeState(kind=ProbeKind.TMSV, n_mean=3.0)
        assert np.sinh(state.squeeze_r) ** 2 == pytest.approx(3.0, rel=1e-12)

    def test_tmsd_needs_enough_photons(self):
        with pytest.raises(ValueError, match="alpha"):
            ProbeState(kind=ProbeKind.TMSD, n_mean=2.0, g=4.5)

    def test_n_ref_only_for_classical(self):
        with pytest.raises(ValueError):
            ProbeState(kind=ProbeKind.TMF, n_mean=4.0, n_ref=2.0)

    def test_matched_reference_photon_numbers(self):
        tmsd = ProbeState(kind=ProbeKind.TMSD, n_mean=10.0, g=4.5)
        ref = matched_classical_reference(tmsd)
        assert ref.kind is ProbeKind.TMC
        assert ref.n_mean == 10.0
        assert ref.n_reference == pytest.approx(10.0 - tmsd.alpha_sq)
        balanced = matched_classical_reference(ProbeState(kind=ProbeKind.TMF, n_mean=7.0))
        assert balanced == ProbeState(kind=ProbeKind.TMC, n_mean=7.0)


class TestScenario:
    def test_resolution_rules(self):
        assert SensingScenario(ScenarioMode.STANDARD, eta_a=0.8).eta_b == 0.8
        assert SensingScenario(ScenarioMode.OPTIMIZED, eta_a=0.8, t_mid=0.45).eta_b == pytest.approx(0.36)
        assert SensingScenario(ScenarioMode.SINGLE_MODE, eta_a=0.8).eta_b == 0.0

    def test_optimized_requires_midpoint(self):
        with pytest.raises(ValueError):
            SensingScenario(ScenarioMode.OPTIMIZED, eta_a=1.0)

    def test_eta_bounds(self):
        with pytest.raises(ValueError):
            SensingScenario(ScenarioMode.STANDARD, eta_a=0.0)


class TestMeanM:
    def test_balanced_lossless_transparent(self):
        assert mean_M(ProbeState(ProbeKind.TMF, 10.0), 1.0, 1.0, 1.0) == 0.0

    def test_classical_midpoint_value(self):
        assert mean_M(ProbeState(ProbeKind.TMC, 10.0), 0.4507, 1.0, 1.0) == pytest.approx(-5.493)

    def test_tmsd_alpha_zero_reduces_to_balanced(self):
        # alpha = 0 leaves N = G - 1 photons and a balanced state
        g = 2.5
        state = tmsd_from_alpha(0.0, g)
        for T in (0.1, 0.45, 0.9):
            expected = mean_M(ProbeState(ProbeKind.TMF, g - 1.0), T, 1.0, 1.0)
            assert mean_M(state, T, 1.0, 1.0) == pytest.approx(expected, abs=1e-12)


class TestDeltaM:
    def test_tmf_midpoint_value(self):
        got = delta_M(ProbeState(ProbeKind.TMF, 10.0), 0.4507, 1.0, 1.0)
        assert got == pytest.approx(np.sqrt(10 * 0.4507 * 0.5493), rel=1e-12)
        assert got == pytest.approx(1.5734, abs=1e-4)

    def test_tmc_transparent_lossless(self):
        for n in (1.0, 10.0, 1e4):
            got = delta_M(ProbeState(ProbeKind.TMC, n), 1.0, 1.0, 1.0)
            assert got == pytest.approx(np.sqrt(2 * n), rel=1e-12)

    def test_tmsd_alpha_zero_equals_tmsv(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            g = float(rng.uniform(1.05, 6.0))
            T, ea, eb = rng.uniform(0.05, 1.0, size=3)
            tmsd = tmsd_from_alpha(0.0, g)
            tmsv = ProbeState(ProbeKind.TMSV, g - 1.0)
            assert delta_M(tmsd, T, ea, eb) == pytest.approx(
                delta_M(tmsv, T, ea, eb), rel=1e-12
            )

    def test_large_alpha_asymptotics(self):
        state = tmsd_from_alpha(1e4, 4.5)
        rng = np.random.default_rng(6)
        for _ in range(20):
            T, ea, eb = rng.uniform(0.1, 1.0, size=3)
            exact = delta_M(state, T, ea, eb)
            approx = tmsd_delta_M_large_alpha(state, T, ea, eb)
            assert abs(approx / exact - 1.0) < 0.01

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(7)
        states = [
            ProbeState(ProbeKind.TMC, 3.0),
            ProbeState(ProbeKind.TMF, 3.0),
            ProbeState(ProbeKind.TMSV, 3.0),
            ProbeState(ProbeKind.TMSD, 10.0, g=4.5),
        ]
        for _ in range(200):
            T, ea, eb = rng.uniform(0.0, 1.0, size=3)
            for state in states:
                assert delta_M(state, T, ea, eb) >= 0.0
        assert delta_M(ProbeState(ProbeKind.TMC, 5.0), 0.5, 1.0, 1.0) > 0.0


class TestSensitivityAndDeltaT:
    def test_affine_slope(self):
        assert sensitivity(ProbeState(ProbeKind.TMC, 10.0), NO_LOSS) == 10.0
        lossy = SensingScenario(ScenarioMode.STANDARD, eta_a=0.8)
        assert sensitivity(ProbeState(ProbeKind.TMF, 10000.0), lossy) == pytest.approx(8000.0)

    def test_tmsd_slope_independent_of_gain(self):
        for g in (1.5, 2.5, 4.5, 8.0):
            state = ProbeState(ProbeKind.TMSD, 20.0, g=g)
            assert sensitivity(state, NO_LOSS) == 20.0
            # finite-difference cross-check of d<M>/dT
            h = 1e-7
            slope = (mean_M(state, 0.5 + h, 1.0, 1.0) - mean_M(state, 0.5 - h, 1.0, 1.0)) / (2 * h)
            assert slope == pytest.approx(20.0, rel=1e-6)

    def test_classical_sample_mean_precision(self):
        got = delta_T(ProbeState(ProbeKind.TMC, 10.0), 0.4507, NO_LOSS, nu=1000)
        assert got == pytest.approx(np.sqrt(10 * 1.4507) / 10 / np.sqrt(1000), rel=1e-12)
        assert got == pytest.approx(0.012045, abs=1e-5)

    def test_quadrupling_nu_halves_precision(self):
        state = ProbeState(ProbeKind.TMF, 10.0)
        assert delta_T(state, 0.3, NO_LOSS, nu=100) == pytest.approx(
            2.0 * delta_T(state, 0.3, NO_LOSS, nu=400), rel=1e-12
        )

    def test_shot_scaling_in_n_nu(self):
        # delta_T * sqrt(N nu) is independent of N and nu for TMC and TMF
        for kind in (ProbeKind.TMC, ProbeKind.TMF):
            values = [
                delta_T(ProbeState(kind, n), 0.37, NO_LOSS, nu) * np.sqrt(n * nu)
                for n in (1.0, 10.0, 1e3)
                for nu in (1, 100, 10**5)
            ]
            assert np.ptp(values) < 1e-12 * values[0]


class TestEnhancement:
    def test_tmf_standard_no_loss_formula(self):
        state = ProbeState(ProbeKind.TMF, 10.0)
        for T in np.linspace(0.05, 0.95, 19):
            got = enhancement_RM(state, float(T), NO_LOSS)
            assert got == pytest.approx(np.sqrt((1 + T) / (T * (1 - T))), rel=1e-12)
            assert got > 1.0  # quantum advantage across the whole range

    def test_midpoint_value(self):
        got = enhancement_RM(ProbeState(ProbeKind.TMF, 10.0), 0.4507, NO_LOSS)
        assert got == pytest.approx(2.4207, abs=2e-4)

    def test_optimized_tmf_tmsv_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = float(rng.uniform(0.5, 1e4))
            T = float(rng.uniform(0.01, 0.99))
            ea = float(rng.uniform(0.05, 1.0))
            eb = ea * T  # reference arm matched to the signal transmittance
            dm_f = delta_M(ProbeState(ProbeKind.TMF, n), T, ea, eb)
            dm_v = delta_M(ProbeState(ProbeKind.TMSV, n), T, ea, eb)
            expected = np.sqrt(2 * n * ea * T * (1 - ea * T))
            assert dm_f == pytest.approx(expected, rel=1e-12)
            assert dm_v == pytest.approx(expected, rel=1e-12)

    def test_tmsv_standard_degrades_with_photon_number(self):
        low = enhancement_RM(ProbeState(ProbeKind.TMSV, 10.0), 0.4507, NO_LOSS)
        high = enhancement_RM(ProbeState(ProbeKind.TMSV, 1e4), 0.4507, NO_LOSS)
        assert high < 1.0
        assert high < low

    def test_classical_state_is_its_own_benchmark(self):
        # R_M of a TMC state is x/x with x its own delta_M: exactly 1, balanced or not
        lossy = SensingScenario(mode=ScenarioMode.OPTIMIZED, eta_a=0.8, t_mid=0.45)
        T = np.linspace(0.05, 0.95, 19)
        for state in (ProbeState(ProbeKind.TMC, 10.0), ProbeState(ProbeKind.TMC, 10.0, n_ref=4.0)):
            for sc in (NO_LOSS, lossy):
                assert enhancement_RM(state, 0.5, sc) == 1.0
                assert np.all(enhancement_RM(state, T, sc) == 1.0)


class TestMidpointMap:
    T_GRID = np.linspace(0.3, 0.6, 7)
    N_GRID = np.array([10.0, 100.0, 1e3, 1e4])

    def test_tmf_standard_rows_identical(self):
        grid = midpoint_enhancement_map(ProbeKind.TMF, NO_LOSS, self.T_GRID, self.N_GRID)
        assert grid.shape == (4, 7)
        assert np.max(np.abs(grid - grid[0])) < 1e-12

    def test_tmsv_standard_decreasing_in_n(self):
        grid = midpoint_enhancement_map(ProbeKind.TMSV, NO_LOSS, self.T_GRID, self.N_GRID)
        assert np.all(np.diff(grid, axis=0) < 0)

    def test_optimized_midpoint_tmf_equals_tmsv(self):
        sc = SensingScenario(ScenarioMode.OPTIMIZED, eta_a=1.0, t_mid=0.4507)
        t_col = np.array([0.4507])
        tmf = midpoint_enhancement_map(ProbeKind.TMF, sc, t_col, self.N_GRID)
        tmsv = midpoint_enhancement_map(ProbeKind.TMSV, sc, t_col, self.N_GRID)
        assert tmf == pytest.approx(tmsv, rel=1e-12)

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError):
            midpoint_enhancement_map(ProbeKind.TMF, NO_LOSS, [], self.N_GRID)


class TestChannelForms:
    def test_vectorized_over_transmittance(self):
        state = ProbeState(ProbeKind.TMSD, 10.0, g=4.5)
        T = np.linspace(0.1, 0.9, 33)
        vec = delta_M(state, T, 1.0, 1.0)
        scalar = np.array([delta_M(state, float(x), 1.0, 1.0) for x in T])
        assert vec == pytest.approx(scalar, rel=1e-15)


def exact_variance(state: ProbeState, T: float, ea: float, eb: float) -> Fraction:
    """Var M in exact rational arithmetic from the per-probe Heisenberg-picture forms."""
    t, eb = Fraction(ea) * Fraction(T), Fraction(eb)
    N, N_ref = Fraction(state.n_mean), Fraction(state.n_reference)
    if state.kind is ProbeKind.TMC:
        return t * N + eb * N_ref
    if state.kind is ProbeKind.TMF:
        return N * (t * (1 - t) + eb * (1 - eb))
    if state.kind is ProbeKind.TMSV:
        return N * ((t - eb) ** 2 * N + eb + t * (1 - 2 * eb))
    G, a2 = Fraction(state.g), Fraction(state.alpha_sq)
    var_na = t**2 * (G - 1) * ((G - 1) + 2 * G * a2) + t * ((G - 1) + G * a2)
    var_nb = (G - 1) ** 2 * eb**2 * (2 * a2 + 1) + (G - 1) * eb * (a2 + 1)
    corr_nanb = t * eb * (
        G * (G - 1) * (a2**2 + 2 * a2) + G * (G - 1) * (a2 + 1) + (G - 1) ** 2 * (a2 + 1)
    )
    n_a, n_b = t * (G * a2 + (G - 1)), eb * (G - 1) * (a2 + 1)
    return var_na + var_nb - 2 * (corr_nanb - n_a * n_b)


class TestThinningLaw:
    EDGES = (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)

    def _draw(self, rng) -> float:
        return float(rng.choice(self.EDGES)) if rng.random() < 0.5 else float(rng.random())

    def test_matches_exact_rational_arithmetic(self):
        rng = np.random.default_rng(11)
        zeros = 0
        for i in range(10_000):
            kind = list(ProbeKind)[i % 4]
            g = float(rng.uniform(1.01, 10.0))
            n = float(10.0 ** rng.uniform(-1.0, 4.0))
            if kind is ProbeKind.TMSD:
                n = max(n, g - 1.0)
            state = ProbeState(kind, n, g=g) if kind is ProbeKind.TMSD else ProbeState(kind, n)
            T, ea, eb = self._draw(rng), self._draw(rng), self._draw(rng)
            exact = exact_variance(state, T, ea, eb)
            with np.errstate(all="raise"):
                got = delta_M(state, T, ea, eb) ** 2
            if exact == 0:
                zeros += 1
                assert got == 0.0, (state, T, ea, eb)
            else:
                assert abs(Fraction(got) - exact) / exact <= 1e-12, (state, T, ea, eb)
        assert zeros > 100  # the edge draws reach the exact zeros

    def test_tmsd_is_tmsv_plus_bright_beam(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            g = float(rng.uniform(1.01, 10.0))
            tmsd = ProbeState(ProbeKind.TMSD, float(rng.uniform(g - 1.0, 1e4)), g=g)
            tmsv = ProbeState(ProbeKind.TMSV, g - 1.0)
            T, ea, eb = rng.uniform(0.0, 1.0, size=3)
            expected = delta_M(tmsv, T, ea, eb) ** 2 + tmsd_delta_M_large_alpha(tmsd, T, ea, eb) ** 2
            assert delta_M(tmsd, T, ea, eb) ** 2 == pytest.approx(expected, rel=1e-12)

    def test_bright_beam_form_needs_tmsd(self):
        with pytest.raises(ValueError, match="TMSD"):
            tmsd_delta_M_large_alpha(ProbeState(ProbeKind.TMSV, 3.0), 0.5, 1.0, 1.0)
