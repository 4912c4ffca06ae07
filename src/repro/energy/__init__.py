"""Analytic energy/efficiency models.

The substrates meter their own energy at runtime (every backend carries an
:class:`~repro.circuits.energy.EnergyLedger`); this package provides the
closed-form counterparts used for design-space exploration -- predicting
energy *before* building a backend.  The analytic models are validated
against the metered ledgers in the test suite.
"""

from repro.energy.models import (
    cim_mc_dropout_energy,
    digital_mc_dropout_energy,
    digital_nn_energy,
)

__all__ = [
    "digital_nn_energy",
    "cim_mc_dropout_energy",
    "digital_mc_dropout_energy",
]
