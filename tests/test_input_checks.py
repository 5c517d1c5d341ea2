"""Input checks that no other test reaches: each raises its own message."""
import re
from dataclasses import replace

import numpy as np
import pytest

from qspr import fit, kinetics, oracle, probes, simulate, spr_optics
from qspr.cases import KAUSAITE2007
from qspr.experiment import ExperimentConfig
from qspr.probes import ProbeKind, ProbeState, ScenarioMode, SensingScenario

STANDARD = SensingScenario(ScenarioMode.STANDARD)
TMC = ProbeState(ProbeKind.TMC, 10.0)
PLAN = simulate.SimulationPlan(nu=10, m=2, state=TMC, scenario=STANDARD)


def ensembles(t, transmittance, workers=1):
    return simulate.run_ensembles([PLAN], t, transmittance, KAUSAITE2007.kinetics, 1, 2, workers)


CHECKS = {
    "config-not-an-object": (
        lambda: ExperimentConfig.from_dict([1]), "config must be a JSON object, got [1]"),
    "config-empty-nu": (
        lambda: ExperimentConfig(nu_values=()), "nu_values, when given, must be non-empty"),
    "lm-non-finite-x0": (
        lambda: fit.lm_solve(None, [[np.nan, 1.0]]), "initial parameters must be finite"),
    "fit-width": (
        lambda: fit.fit_sensorgrams(np.arange(10.0), np.ones((1, 9)), 5.0, 1.0),
        "t and each sensorgram must have equal length"),
    "shape-amplitude": (
        lambda: replace(KAUSAITE2007.angular_shape(), amplitude_inf=0.0), "amplitude_inf must be positive"),
    "shape-k_s": (lambda: replace(KAUSAITE2007.angular_shape(), k_s=-1.0), "k_s must be positive"),
    "linearize-grid": (
        lambda: kinetics.linearize_sensorgram(np.arange(5.0), np.ones(5), np.ones(4), 2.0),
        "t, T and n_a must share one grid"),
    "close_ka-L0": (lambda: kinetics.close_ka(0.02, 0.01, 0.0), "L0 must be positive"),
    "oracle-cutoff": (lambda: oracle.build_state(TMC, 0), "cutoff must be >= 1"),
    "oracle-tmf-fraction": (
        lambda: oracle.build_state(ProbeState(ProbeKind.TMF, 2.5), 10),
        "TMF oracle state needs an integer photon number"),
    "tmsd-gain": (
        lambda: ProbeState(ProbeKind.TMSD, 10.0, g=1.0), "TMSD gain G must exceed 1"),
    "tmc-n_ref": (
        lambda: ProbeState(ProbeKind.TMC, 10.0, n_ref=-1.0), "n_ref must be non-negative"),
    "tmc-alpha_sq": (lambda: TMC.alpha_sq, "tmc state carries no displacement"),
    # a column state: one bad entry in an otherwise valid column raises the scalar's message
    "column-n_mean": (
        lambda: ProbeState(ProbeKind.TMC, np.array([10.0, 0.0, 5.0])), "n_mean must be positive"),
    "column-tmsd-gain": (
        lambda: ProbeState(ProbeKind.TMSD, np.array([10.0, 10.0]), g=np.array([4.5, 1.0])),
        "TMSD gain G must exceed 1"),
    "column-tmsd-alpha_sq": (
        lambda: ProbeState(ProbeKind.TMSD, np.array([10.0, 2.0, 10.0])),
        "TMSD requires n_mean >= G - 1 so that |alpha|^2 >= 0"),
    "column-tmc-n_ref": (
        lambda: ProbeState(ProbeKind.TMC, np.array([10.0, 10.0]), n_ref=np.array([5.0, -1.0])),
        "n_ref must be non-negative"),
    "delta_T-nu": (lambda: probes.delta_T(TMC, 0.5, STANDARD, 0), "nu must be >= 1"),
    "ensembles-grid": (
        lambda: ensembles(np.arange(5.0), np.full(4, 0.5)),
        "t and transmittance must share one grid"),
    "ensembles-workers": (
        lambda: ensembles(np.arange(5.0), np.full(5, 0.5), workers=0), "workers must be >= 1"),
    "stack-absorption": (
        lambda: replace(KAUSAITE2007.stack, eps_metal=complex(-20.0, -1.0)),
        "Im(eps_metal) must be non-negative"),
    "index-denominator": (
        lambda: spr_optics.index_from_angle(0.0, 0.0, 1.5),
        "vanishing denominator n_metal_sq - n_prism^2 sin^2(theta)"),
}


@pytest.mark.parametrize("call,message", CHECKS.values(), ids=CHECKS.keys())
def test_invalid_input_raises_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
