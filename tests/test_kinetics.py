"""Binding kinetics, sensorgram reconstruction and linearization."""
import numpy as np
import pytest

from qspr.cases import KAUSAITE2007, LAHIRI1999
from qspr.kinetics import (
    KineticParameters,
    SensorgramShape,
    TimeGrid,
    close_ka,
    complex_concentration,
    ideal_sensorgram,
    linearize_sensorgram,
    reconstruct_transmittance_sensorgram,
)


def _rk4_concentration(kp: KineticParameters, R0: float, t_end: float, dt: float) -> float:
    """Fourth-order explicit integration of dC/dt = k_a (R0 - C) L0 - k_d C."""

    def f(c):
        return kp.k_a * (R0 - c) * kp.L0 - kp.k_d * c

    c, t = 0.0, 0.0
    steps = int(round(t_end / dt))
    for _ in range(steps):
        k1 = f(c)
        k2 = f(c + 0.5 * dt * k1)
        k3 = f(c + 0.5 * dt * k2)
        k4 = f(c + dt * k3)
        c += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        t += dt
    return c


class TestComplexConcentration:
    def test_starts_empty(self):
        assert complex_concentration(0.0, KAUSAITE2007.kinetics, R0=1e-9) == 0.0

    def test_steady_state(self):
        kp = KineticParameters(k_a=9.36e3, k_d=7.85e-3, L0=274e-9, tau_s=1e9)
        R0 = 1e-9
        expected = kp.L0 * R0 / (kp.L0 + kp.K_D)
        assert complex_concentration(5e6, kp, R0) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("case", [KAUSAITE2007, LAHIRI1999], ids=lambda c: c.name)
    def test_matches_ode_integration(self, case):
        R0 = 1e-9 if case is KAUSAITE2007 else 1e-3
        t_probe = 100.0
        closed = complex_concentration(t_probe, case.kinetics, R0)
        # pseudo-first-order oracle: integrate with L0 held constant
        brute = _rk4_concentration(case.kinetics, R0, t_probe, dt=0.001)
        assert closed == pytest.approx(brute, rel=1e-8)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            complex_concentration(-1.0, KAUSAITE2007.kinetics, 1e-9)


class TestKineticParameters:
    def test_derived_rates(self):
        kp = KAUSAITE2007.kinetics
        assert kp.k_s == pytest.approx(9.36e3 * 274e-9 + 7.85e-3, rel=1e-14)
        assert kp.K_D == pytest.approx(7.85e-3 / 9.36e3, rel=1e-14)
        assert kp.k_s > kp.k_d

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            KineticParameters(k_a=0.0, k_d=1e-3, L0=1e-6, tau_s=100.0)


class TestIdealSensorgram:
    SHAPE = SensorgramShape(baseline=0.3, amplitude_inf=0.25, k_s=0.0105, k_d=7.8e-3, tau_s=1100.0)

    def test_baseline_at_zero(self):
        assert ideal_sensorgram(0.0, self.SHAPE) == self.SHAPE.baseline

    def test_continuous_at_switch(self):
        eps = 1e-9
        before = ideal_sensorgram(self.SHAPE.tau_s - eps, self.SHAPE)
        after = ideal_sensorgram(self.SHAPE.tau_s + eps, self.SHAPE)
        assert before == pytest.approx(after, abs=1e-10)

    def test_kausaite_angular_plateau(self):
        shape = KAUSAITE2007.angular_shape()
        dtheta = ideal_sensorgram(1100.0, shape) - shape.baseline
        # k_s * tau ~ 11.5, so the association phase has saturated
        assert dtheta == pytest.approx(0.800 * -np.expm1(-shape.k_s * 1100.0), rel=1e-12)
        assert abs(dtheta - 0.800) < 1e-4

    def test_monotone_phases(self):
        t = np.linspace(0.0, 2200.0, 2000)
        y = ideal_sensorgram(t, self.SHAPE)
        rising = t < self.SHAPE.tau_s
        assert np.all(np.diff(y[rising]) >= 0)
        assert np.all(np.diff(y[~rising]) <= 0)


class TestTimeGrid:
    def test_case_grids_match_published_sampling(self):
        assert KAUSAITE2007.grid.times()[[0, -1]].tolist() == [0.0, 2200.0]
        assert np.all(np.diff(KAUSAITE2007.grid.times()) == 10.0)
        assert LAHIRI1999.grid.times()[[0, -1]].tolist() == [0.0, 1000.0]
        assert np.all(np.diff(LAHIRI1999.grid.times()) == 5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 100.0, -1.0)
        with pytest.raises(ValueError):
            TimeGrid(100.0, 100.0, 1.0)


@pytest.fixture(scope="module")
def kausaite_trace():
    return reconstruct_transmittance_sensorgram(
        KAUSAITE2007.angular_shape(), KAUSAITE2007.stack, KAUSAITE2007.grid
    )


@pytest.fixture(scope="module")
def lahiri_trace():
    return reconstruct_transmittance_sensorgram(
        LAHIRI1999.angular_shape(), LAHIRI1999.stack, LAHIRI1999.grid
    )


class TestReconstruction:
    def test_static_analyte_gives_flat_trace(self):
        quiet = SensorgramShape(
            baseline=KAUSAITE2007.theta0_deg, amplitude_inf=1e-15,
            k_s=0.0105, k_d=7.8e-3, tau_s=1100.0,
        )
        trace = reconstruct_transmittance_sensorgram(quiet, KAUSAITE2007.stack, KAUSAITE2007.grid)
        assert np.max(np.abs(trace.transmittance - trace.transmittance[0])) < 1e-12
        assert trace.n_a[0] == pytest.approx(KAUSAITE2007.buffer_index, abs=1e-12)

    def test_kausaite_midpoint(self, kausaite_trace):
        trace = kausaite_trace
        i_tau = trace.index_at(1100.0)
        assert np.argmax(trace.transmittance) == i_tau
        t_mid = 0.5 * (trace.transmittance[0] + trace.transmittance[i_tau])
        assert t_mid == pytest.approx(0.4507, abs=2e-3)
        # the op-level claim is tighter than the pipeline-level one
        assert t_mid == pytest.approx(0.4507, abs=1e-3)

    def test_lahiri_midpoint(self, lahiri_trace):
        trace = lahiri_trace
        i_tau = trace.index_at(300.0)
        t_mid = 0.5 * (trace.transmittance[0] + trace.transmittance[i_tau])
        assert t_mid == pytest.approx(0.4824, abs=2e-3)
        assert t_mid == pytest.approx(0.4824, abs=1e-3)

    def test_index_trace_anchored_at_buffer(self, kausaite_trace):
        assert kausaite_trace.n_a[0] == pytest.approx(1.3385, abs=1e-12)


class TestLinearization:
    def test_constant_index_rejected(self, kausaite_trace):
        t = kausaite_trace.t
        flat = np.full_like(t, 1.3385)
        with pytest.raises(ValueError, match="zero index deviation"):
            linearize_sensorgram(t, kausaite_trace.transmittance, flat, 1100.0)

    def test_endpoints_pinned(self, kausaite_trace):
        trace = kausaite_trace
        T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, 1100.0)
        i_tau = trace.index_at(1100.0)
        assert T_L[0] == trace.transmittance[0]
        assert T_L[i_tau] == pytest.approx(trace.transmittance[i_tau], rel=1e-14)

    def test_affine_in_index_squared(self, kausaite_trace):
        trace = kausaite_trace
        T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, 1100.0)
        x = trace.n_a**2
        # collinearity of every triple against the first two points
        slope = (T_L[1] - T_L[0]) / (x[1] - x[0])
        assert np.max(np.abs(T_L - (T_L[0] + slope * (x - x[0])))) < 1e-12

    def test_lahiri_needs_no_calibration(self, lahiri_trace):
        trace = lahiri_trace
        T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, 300.0)
        i_tau = trace.index_at(300.0)
        deviation = np.max(np.abs(trace.transmittance - T_L))
        full_range = abs(trace.transmittance[i_tau] - trace.transmittance[0])
        assert deviation / full_range < 0.01


class TestCloseKa:
    def test_equal_rates_close_to_zero(self):
        assert close_ka(1e-3, 1e-3, 274e-9) == 0.0

    def test_kausaite_value(self):
        # closing the published *rounded* rates gives 9959.9 exactly; the
        # published 10.029e3 arises from the unrounded fit outputs, which the
        # full-pipeline acceptance test reproduces at 2%
        got = close_ka(0.0105, 7.771e-3, 274e-9)
        assert got == pytest.approx((0.0105 - 7.771e-3) / 274e-9, rel=1e-14)
        assert got == pytest.approx(10.029e3, rel=1e-2)

    def test_lahiri_value(self):
        assert close_ka(22.98e-3, 15e-3, 2.1) == pytest.approx(3.8e-3, rel=1e-3)

    def test_negative_flagged(self):
        assert close_ka(1e-3, 2e-3, 1e-6) < 0
