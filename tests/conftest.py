"""Shared fixtures: each built-in case's reconstructed sensorgram, built once per session.

A fixture is named after its case and holds ``(trace, T_L)``: the
transmittance trace of the case's angular sensorgram and its linearization at
the case's switch time. Every array is read-only, so a test that writes into
a shared array fails instead of changing what the other tests read.
"""
import dataclasses

import pytest

from qspr.cases import KAUSAITE2007, LAHIRI1999
from qspr.kinetics import linearize_sensorgram, reconstruct_transmittance_sensorgram


def _read_only_pipeline(case):
    trace = reconstruct_transmittance_sensorgram(case.angular_shape(), case.stack, case.grid)
    T_L = linearize_sensorgram(trace.t, trace.transmittance, trace.n_a, case.kinetics.tau_s)
    for array in (*(getattr(trace, f.name) for f in dataclasses.fields(trace)), T_L):
        array.flags.writeable = False
    return trace, T_L


@pytest.fixture(scope="session")
def kausaite2007():
    return _read_only_pipeline(KAUSAITE2007)


@pytest.fixture(scope="session")
def lahiri1999():
    return _read_only_pipeline(LAHIRI1999)
