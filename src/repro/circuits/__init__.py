"""Analog device and circuit behavioural models.

This subpackage is the SPICE-free stand-in for the paper's 45 nm / 16 nm
circuit simulations: an EKV-style MOSFET, floating-gate threshold
programming, the six-transistor likelihood inverter whose switching current
is Gaussian-like in each gate voltage, inverter arrays with Kirchhoff
current summation, data converters, noise and process-variability models,
and an energy ledger with per-op energy tables.
"""

from repro.circuits.technology import (
    NODE_16NM,
    NODE_45NM,
    TechnologyNode,
)
from repro.circuits.mosfet import MOSFET, ekv_current
from repro.circuits.floating_gate import FloatingGate
from repro.circuits.inverter import (
    LikelihoodInverter,
    SwitchingCurrentCell,
    gaussian_equivalent_sigma,
)
from repro.circuits.inverter_array import (
    InverterColumn,
    InverterArray,
    VoltageEncoder,
)
from repro.circuits.adc import LogarithmicADC
from repro.circuits.dac import DAC
from repro.circuits.noise import NoiseModel
from repro.circuits.variability import MismatchSampler
from repro.circuits.energy import EnergyLedger

__all__ = [
    "TechnologyNode",
    "NODE_45NM",
    "NODE_16NM",
    "MOSFET",
    "ekv_current",
    "FloatingGate",
    "SwitchingCurrentCell",
    "LikelihoodInverter",
    "gaussian_equivalent_sigma",
    "InverterColumn",
    "InverterArray",
    "VoltageEncoder",
    "LogarithmicADC",
    "DAC",
    "NoiseModel",
    "MismatchSampler",
    "EnergyLedger",
]
