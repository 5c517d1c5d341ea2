"""Quantum-enhanced SPR binding-kinetics simulation and estimation toolkit."""

__version__ = "0.1.0"
