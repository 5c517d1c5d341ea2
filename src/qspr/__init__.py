"""Quantum-enhanced SPR binding-kinetics simulation and estimation toolkit."""

from .cases import CaseStudy, resolve_case
from .kinetics import KineticParameters, SensorgramShape, TimeGrid
from .probes import ProbeKind, ProbeState, ScenarioMode, SensingScenario
from .simulate import SimulationPlan, TrialEnsembleResult
from .spr_optics import OpticalStack

__version__ = "0.1.0"

__all__ = [
    "CaseStudy",
    "KineticParameters",
    "OpticalStack",
    "ProbeKind",
    "ProbeState",
    "ScenarioMode",
    "SensingScenario",
    "SensorgramShape",
    "SimulationPlan",
    "TimeGrid",
    "TrialEnsembleResult",
    "resolve_case",
    "__version__",
]
