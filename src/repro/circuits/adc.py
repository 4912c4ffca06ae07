"""Analog-to-digital converters.

The likelihood array reads out its summed column current through a
*logarithmic* ADC (the particle filter accumulates log-likelihoods, so the
log conversion is free).  The model quantises, clips and reports
conversion energy from the technology table; analog read noise enters
before the ADC, through the array's noise model.  The SRAM
macro's linear column ADC lives in :mod:`repro.sram.macro`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.technology import TechnologyNode


class LogarithmicADC:
    """Logarithmic current-input ADC.

    Codes are uniform in ``log(i / i_min)`` between ``i_min`` and ``i_max``.

    Args:
        node: technology node (energy table).
        bits: resolution.
        i_min: current mapped to code 0 (A).
        i_max: current mapped to full scale (A).
    """

    def __init__(
        self,
        node: TechnologyNode,
        bits: int = 4,
        i_min: float = 1.0e-10,
        i_max: float = 1.0e-4,
    ):
        if i_min <= 0 or i_max <= i_min:
            raise ValueError("require 0 < i_min < i_max")
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.node = node
        self.bits = int(bits)
        self.i_min = float(i_min)
        self.i_max = float(i_max)
        self._log_span = np.log(self.i_max / self.i_min)

    @property
    def levels(self) -> int:
        return 2**self.bits

    def convert(self, current: np.ndarray) -> np.ndarray:
        """Quantise current(s) to integer codes."""
        current = np.asarray(current, dtype=float)
        clipped = np.clip(current, self.i_min, self.i_max)
        fraction = np.log(clipped / self.i_min) / self._log_span
        codes = fraction * (self.levels - 1)
        return np.clip(np.rint(codes), 0, self.levels - 1).astype(np.int64)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Map codes back to representative currents (A)."""
        codes = np.asarray(codes, dtype=float)
        fraction = codes / (self.levels - 1)
        return self.i_min * np.exp(fraction * self._log_span)

    def log_likelihood(self, codes: np.ndarray) -> np.ndarray:
        """Codes as (unnormalised) log-likelihood values.

        The code *is* the log of the current up to an affine map, which is
        all a particle filter needs (normalisation cancels in the weight
        update).
        """
        codes = np.asarray(codes, dtype=float)
        return codes / (self.levels - 1) * self._log_span + np.log(self.i_min)

    def conversion_energy(self) -> float:
        """Energy per conversion (J)."""
        return self.node.adc_energy(self.bits)
