"""Analytic energy models of the digital baseline.

The CIM substrates meter their own energy at runtime (every backend
carries an :class:`~repro.circuits.energy.EnergyLedger`); the digital
baseline has no hardware model, so its energy comes from the
closed-form datapath counts here.
"""

from repro.energy.models import (
    digital_mc_dropout_energy,
    digital_nn_energy,
)

__all__ = [
    "digital_nn_energy",
    "digital_mc_dropout_energy",
]
