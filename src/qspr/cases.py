"""Built-in case studies: sensor constants and published kinetic parameters.

kausaite2007 -- BSA antigen binding anti-BSA IgG1 on an Autolab ESPRIT sensor;
a large sensorgram deviation (0.8 degrees of resonance-angle shift).

lahiri1999 -- carbonic anhydrase binding benzenesulfonamide on a BIAcore 1000;
a small deviation (0.0291 degrees), which is why its default shot budget per
time instance is nu = 1e5.

The angular baseline theta(0) is always derived from the buffer index through
the resonance condition so that the reconstructed index trace starts exactly at
the buffer; the angle printed in the source experiments is kept as reference
metadata only. The two sources print different definitions of that angle:
lahiri1999's 66.796 deg is the closed-form phase-matching angle (``theta0_deg``,
Re eps_metal only), while kausaite2007's 71.0966 deg is the minimum of the lossy
Fresnel curve |r|^2 over theta, which also depends on Im eps_metal and the film
thickness; its closed form is 71.2747 deg.
"""
from __future__ import annotations

import dataclasses
import sys
import types
import typing
from dataclasses import dataclass

from .kinetics import KineticParameters, SensorgramShape, TimeGrid
from .spr_optics import OpticalStack, resonance_angle

PBS_BUFFER_INDEX = 1.3385  # phosphate-buffered saline at the probe wavelengths


def _fits(value, hint) -> bool:
    """Whether a JSON value has the type that a field annotation names.

    Numbers must be finite, and integers must fit an int64 (numpy's integer).
    """
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_fits(value, option) for option in typing.get_args(hint))
    if typing.get_origin(hint) is tuple:
        inner = typing.get_args(hint)[0]
        return isinstance(value, list) and all(_fits(v, inner) for v in value)
    if hint is type(None):
        return value is None
    if isinstance(value, bool):  # JSON true/false is not a number
        return False
    if hint is complex and isinstance(value, list):  # [re, im]
        return len(value) == 2 and all(_fits(v, float) for v in value)
    if hint in (float, complex):
        # false for NaN, for +/-inf (json.loads reads Infinity and 1e999 so) and
        # for integers beyond the float range
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if hint is int:
        return isinstance(value, int) and -(2**63) <= value < 2**63
    return isinstance(value, hint)


def dataclass_from_json(cls, doc, where: str):
    """Build dataclass ``cls`` from a JSON object, nested dataclasses included.

    Unknown keys, missing keys without a default, values whose JSON type does
    not match the field annotation and non-finite numbers raise ValueError
    naming ``where``.
    JSON lists become tuples; a ``complex`` field reads ``[re, im]`` or a number.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object, got {doc!r}")
    fields = dataclasses.fields(cls)
    unknown = sorted(set(doc) - {f.name for f in fields})
    if unknown:
        raise ValueError(f"unknown {where} keys: {unknown}")
    missing = [
        f.name for f in fields
        if f.name not in doc
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if missing:
        raise ValueError(f"missing {where} keys: {missing}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in doc.items():
        if dataclasses.is_dataclass(hints[key]):
            value = dataclass_from_json(hints[key], value, key)
        elif not _fits(value, hints[key]):
            hint = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise ValueError(f"{where} key {key!r} must be {hint}, got {value!r}")
        elif hints[key] is complex:
            value = complex(*value) if isinstance(value, list) else complex(value)
        elif isinstance(value, list):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


@dataclass(frozen=True)
class CaseStudy:
    name: str
    stack: OpticalStack
    kinetics: KineticParameters
    angular_amplitude_deg: float
    buffer_index: float
    grid: TimeGrid
    nu_default: int = 1000
    reported_theta0_deg: float | None = None  # None: the source prints no angle

    def __post_init__(self) -> None:
        if not self.nu_default >= 1:
            raise ValueError("nu_default must be >= 1")

    @property
    def theta0_deg(self) -> float:
        """Resonance angle of the buffer, the angular-sensorgram baseline."""
        return resonance_angle(self.buffer_index, self.stack.eps_metal.real, self.stack.n_prism)

    def to_dict(self) -> dict:
        """JSON document of the case; ``from_dict`` reads it back unchanged."""
        doc = dataclasses.asdict(self)
        eps = complex(self.stack.eps_metal)
        doc["stack"]["eps_metal"] = [eps.real, eps.imag]
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "CaseStudy":
        """Case from a ``to_dict`` document; a bare ``eps_metal`` number is real."""
        return dataclass_from_json(cls, doc, "case")

    def angular_shape(self) -> SensorgramShape:
        return SensorgramShape(
            baseline=self.theta0_deg,
            amplitude_inf=self.angular_amplitude_deg,
            k_s=self.kinetics.k_s,
            k_d=self.kinetics.k_d,
            tau_s=self.kinetics.tau_s,
        )


KAUSAITE2007 = CaseStudy(
    name="kausaite2007",
    stack=OpticalStack(
        wavelength_nm=670.0,
        n_prism=1.5107,
        eps_metal=complex(-14.358, 1.0440),
        metal_thickness_nm=50.0,
        theta_in_deg=70.1200,
    ),
    kinetics=KineticParameters(k_a=9.36e3, k_d=7.85e-3, L0=274e-9, tau_s=1100.0),
    angular_amplitude_deg=0.800,
    buffer_index=PBS_BUFFER_INDEX,
    grid=TimeGrid(t_start=0.0, t_end=2200.0, step=10.0),
    nu_default=1000,
    reported_theta0_deg=71.0966,  # minimum of the lossy |r|^2(theta) curve
)

LAHIRI1999 = CaseStudy(
    name="lahiri1999",
    stack=OpticalStack(
        wavelength_nm=760.0,
        n_prism=1.523,
        eps_metal=complex(-20.913, 1.2923),
        metal_thickness_nm=38.0,
        theta_in_deg=66.21,
    ),
    kinetics=KineticParameters(k_a=3.8e-3, k_d=15e-3, L0=2.1, tau_s=300.0),
    angular_amplitude_deg=0.0291,
    buffer_index=PBS_BUFFER_INDEX,
    grid=TimeGrid(t_start=0.0, t_end=1000.0, step=5.0),
    nu_default=100_000,
    reported_theta0_deg=66.796,  # closed-form phase-matching angle
)

_CASES = {case.name: case for case in (KAUSAITE2007, LAHIRI1999)}


def available_cases() -> tuple[str, ...]:
    return tuple(_CASES)


def resolve_case(name: str) -> CaseStudy:
    """Look up a built-in case study by name."""
    try:
        return _CASES[name]
    except KeyError:
        raise ValueError(
            f"unknown case {name!r}; available: {', '.join(available_cases())}"
        ) from None
