"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The Monte Carlo criteria (6, 7, 8, 10) use p=200 sets; the 10-15%
tolerances absorb the reduction from the full-fidelity p=1500.
"""
import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qspr.cases import KAUSAITE2007, LAHIRI1999
from qspr.fit import fit_sensorgrams
from qspr.kinetics import linearize_sensorgram, reconstruct_transmittance_sensorgram
from qspr.oracle import verify_closed_forms
from qspr.probes import (
    ProbeKind,
    ProbeState,
    ScenarioMode,
    SensingScenario,
    delta_M,
    enhancement_RM,
)
from qspr.simulate import SimulationPlan, enhancement_Rk, m_enhancement, run_ensembles
from qspr.spr_optics import reflection_from_permittivities

NO_LOSS = SensingScenario(mode=ScenarioMode.STANDARD, eta_a=1.0)
LOSS_08 = SensingScenario(mode=ScenarioMode.STANDARD, eta_a=0.8)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def kausaite_pipeline():
    case = KAUSAITE2007
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    t_mid = 0.5 * (T_L[0] + T_L[trace.index_at(case.kinetics.tau_s)])
    return trace, T_L, t_mid


@pytest.fixture(scope="module")
def lahiri_pipeline():
    case = LAHIRI1999
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    return trace


class EnsembleBank:
    """Caches the Monte Carlo runs shared between criteria 6, 7, 8 and 10."""

    def __init__(self, t, T_L):
        self.t = t
        self.T_L = T_L
        self._cache = {}

    def get(self, kind: ProbeKind, nu: int = 100, m: int = 10, scenario=NO_LOSS):
        plan = SimulationPlan(
            nu=nu, m=m, p=200, seed=42,
            state=ProbeState(kind=kind, n_mean=10.0),
            scenario=scenario,
            tau_s=KAUSAITE2007.kinetics.tau_s,
            L0=KAUSAITE2007.kinetics.L0,
        )
        if plan not in self._cache:
            self._cache[plan] = run_ensembles([plan], self.t, self.T_L)[0]
        return self._cache[plan]


@pytest.fixture(scope="module")
def bank(kausaite_pipeline):
    trace, T_L, _ = kausaite_pipeline
    return EnsembleBank(trace.t, T_L)


def _lossy_dip_deg(case) -> float:
    """Angle of the minimum of the lossy Fresnel curve |r|^2 with the buffer on
    the film: a 0.01 deg scan, then a bounded refinement to 1e-7 deg."""
    stack = case.stack

    def dip(theta_deg: float) -> float:
        r = reflection_from_permittivities(
            stack.eps_prism, stack.eps_metal, case.buffer_index ** 2, theta_deg,
            stack.wavelength_nm, stack.metal_thickness_nm,
        )
        return abs(r) ** 2

    thetas = np.arange(60.0, 85.0, 0.01)
    coarse = float(thetas[np.argmin([dip(float(th)) for th in thetas])])
    res = minimize_scalar(
        dip, bounds=(coarse - 0.01, coarse + 0.01), method="bounded", options={"xatol": 1e-7}
    )
    return float(res.x)


def test_criterion_01_resonance_angles():
    # Each published buffer angle is checked against the definition that
    # reproduces it: lahiri1999 reports the closed-form phase-matching angle
    # (Re eps_metal only), kausaite2007 the minimum of the lossy Fresnel curve,
    # which also carries the metal's absorption and the film thickness.
    lahiri = LAHIRI1999.theta0_deg
    kausaite = _lossy_dip_deg(KAUSAITE2007)
    kausaite_closed = KAUSAITE2007.theta0_deg
    ok_lahiri = abs(lahiri - 66.796) <= 0.005
    ok_kausaite = abs(kausaite - 71.0966) <= 0.001
    detail = (
        f"lahiri closed form {lahiri:.4f} vs 66.796+/-0.005 ({'ok' if ok_lahiri else 'off'}); "
        f"kausaite lossy dip {kausaite:.4f} vs 71.0966+/-0.001 "
        f"({'ok' if ok_kausaite else 'off'}; closed form {kausaite_closed:.4f}, "
        f"{kausaite_closed - kausaite:.3f} deg above the dip)"
    )
    report(1, ok_lahiri and ok_kausaite, detail)


def test_criterion_02_kausaite_noise_free_pipeline(kausaite_pipeline):
    trace, T_L, _ = kausaite_pipeline
    res = fit_sensorgrams(
        trace.t, T_L[None], KAUSAITE2007.kinetics.tau_s, KAUSAITE2007.kinetics.L0
    )
    targets = {"k_s": 0.0105, "k_d": 7.771e-3, "k_a": 10.029e3}
    devs = {name: abs(getattr(res, name)[0] / value - 1.0) for name, value in targets.items()}
    ok = res.converged[0] and all(d < 0.02 for d in devs.values())
    report(
        2,
        ok,
        "kausaite fit k_s={:.5g} k_d={:.5g} k_a={:.5g} (max dev {:.2%} vs 2%)".format(
            res.k_s[0], res.k_d[0], res.k_a[0], max(devs.values())
        ),
    )


def test_criterion_03_lahiri_noise_free_pipeline(lahiri_pipeline):
    trace = lahiri_pipeline
    res = fit_sensorgrams(
        trace.t, trace.transmittance[None], LAHIRI1999.kinetics.tau_s, LAHIRI1999.kinetics.L0
    )
    targets = {"k_s": 22.98e-3, "k_d": 15e-3, "k_a": 3.8e-3}
    devs = {name: abs(getattr(res, name)[0] / value - 1.0) for name, value in targets.items()}
    ok = res.converged[0] and all(d < 0.005 for d in devs.values())
    report(
        3,
        ok,
        "lahiri fit k_s={:.5g} k_d={:.5g} k_a={:.5g} (max dev {:.3%} vs 0.5%)".format(
            res.k_s[0], res.k_d[0], res.k_a[0], max(devs.values())
        ),
    )


def test_criterion_04_oracle_equivalence():
    reports = verify_closed_forms(tuples=50, cutoff=40, seed=2024)
    worst = max(r.max_dev for r in reports)
    ok = worst <= 1e-6
    report(4, ok, f"closed forms vs Fock oracle, 50 tuples/state, worst dev {worst:.2e} vs 1e-6")


def test_criterion_05_optimized_identity():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        n = float(rng.uniform(0.5, 5e3))
        T = float(rng.uniform(0.02, 0.98))
        eta_a = float(rng.uniform(0.05, 1.0))
        dm_f = delta_M(ProbeState(ProbeKind.TMF, n), T, eta_a, eta_a * T)
        dm_v = delta_M(ProbeState(ProbeKind.TMSV, n), T, eta_a, eta_a * T)
        worst = max(worst, abs(dm_f / dm_v - 1.0))
    ok = worst < 1e-12
    report(5, ok, f"TMF/TMSV noise identity at eta_b=eta_a*T, worst rel dev {worst:.2e} vs 1e-12")


def test_criterion_06_midpoint_predicts_kinetic_enhancement(kausaite_pipeline, bank):
    _, _, t_mid = kausaite_pipeline
    r_m = float(enhancement_RM(ProbeState(ProbeKind.TMF, 10.0), t_mid, NO_LOSS))
    ratios = enhancement_Rk(bank.get(ProbeKind.TMC), bank.get(ProbeKind.TMF))
    devs = {name: abs(v / r_m - 1.0) for name, v in ratios.items()}
    ok = abs(r_m - 2.42) < 0.01 and all(d < 0.15 for d in devs.values())
    report(
        6,
        ok,
        "R_k(TMF)={} vs R_M(T_mid)={:.3f}, max dev {:.1%} vs 15%".format(
            {k: round(v, 3) for k, v in ratios.items()}, r_m, max(devs.values())
        ),
    )


def test_criterion_07_m_enhancement(bank):
    expected = np.sqrt(50.0 / 10.0)
    devs = {}
    for kind in (ProbeKind.TMF, ProbeKind.TMC):
        gain = m_enhancement(bank.get(kind, m=50), bank.get(kind, m=10))
        for name, value in gain.items():
            devs[f"{kind.value}.{name}"] = abs(value / expected - 1.0)
    ok = all(d < 0.10 for d in devs.values())
    report(
        7,
        ok,
        f"precision gain m=10 -> m=50 within {max(devs.values()):.1%} of sqrt(5)=2.236 (vs 10%)",
    )


def test_criterion_08_nu_scaling(bank):
    res_100 = bank.get(ProbeKind.TMC, nu=100)
    res_400 = bank.get(ProbeKind.TMC, nu=400)
    ratios = dict(zip(("k_a", "k_s", "k_d"), (res_100.precision / res_400.precision).tolist()))
    devs = {name: abs(v / 2.0 - 1.0) for name, v in ratios.items()}
    ok = all(d < 0.15 for d in devs.values())
    report(
        8,
        ok,
        "precision(nu=100)/precision(nu=400) = {} vs 2, max dev {:.1%} (vs 15%)".format(
            {k: round(v, 3) for k, v in ratios.items()}, max(devs.values())
        ),
    )


def test_criterion_09_tmsv_degrades_with_photon_number(kausaite_pipeline):
    trace, T_L, t_mid = kausaite_pipeline
    low = float(enhancement_RM(ProbeState(ProbeKind.TMSV, 10.0), t_mid, NO_LOSS))
    high = float(enhancement_RM(ProbeState(ProbeKind.TMSV, 1e4), t_mid, NO_LOSS))

    def bright_plan(kind):
        return SimulationPlan(
            nu=100, m=10, p=100, seed=42,
            state=ProbeState(kind=kind, n_mean=1e4), scenario=NO_LOSS,
            tau_s=KAUSAITE2007.kinetics.tau_s, L0=KAUSAITE2007.kinetics.L0,
        )

    ratios = enhancement_Rk(
        *run_ensembles([bright_plan(ProbeKind.TMC), bright_plan(ProbeKind.TMSV)], trace.t, T_L)
    )
    ok = high < 1.0 and high < low and all(v < 1.0 for v in ratios.values())
    report(
        9,
        ok,
        f"R_M(TMSV): N=10 -> {low:.3f}, N=1e4 -> {high:.4f} (must be <1 and smaller); "
        "ensemble confirmation at p=100: R_k(TMSV, N=1e4) = {} (all < 1)".format(
            {k: float(f"{v:.3g}") for k, v in ratios.items()}
        ),
    )


def test_criterion_10_loss_robustness(bank):
    ratios = enhancement_Rk(
        bank.get(ProbeKind.TMC, scenario=LOSS_08), bank.get(ProbeKind.TMF, scenario=LOSS_08)
    )
    ok = all(v > 1.0 for v in ratios.values())
    report(
        10,
        ok,
        "R_k(TMF) at eta_a=eta_b=0.8: {} (all must exceed 1)".format(
            {k: round(v, 3) for k, v in ratios.items()}
        ),
    )
