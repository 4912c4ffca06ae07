"""Digital-to-analog converter for the likelihood array inputs.

Projected measurement coordinates arrive as digital words; the DAC turns
them into the analog gate voltages V_X / V_Y / V_Z.  The model captures
the effect that matters: finite resolution.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.technology import TechnologyNode


class DAC:
    """A voltage-output DAC spanning [0, v_max].

    Args:
        node: technology node (energy table).
        bits: resolution.
        v_max: full-scale output voltage (defaults to the node's VDD).
    """

    def __init__(
        self,
        node: TechnologyNode,
        bits: int = 6,
        v_max: float | None = None,
    ):
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.node = node
        self.bits = int(bits)
        self.v_max = float(v_max if v_max is not None else node.vdd)

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def lsb(self) -> float:
        return self.v_max / (self.levels - 1)

    def quantize(self, voltage: np.ndarray) -> np.ndarray:
        """Digital codes nearest to the requested voltage(s)."""
        voltage = np.asarray(voltage, dtype=float)
        codes = np.clip(voltage, 0.0, self.v_max) / self.lsb
        return np.clip(np.rint(codes), 0, self.levels - 1).astype(np.int64)

    def output(self, codes: np.ndarray) -> np.ndarray:
        """Analog output voltage(s) for integer code(s)."""
        return np.asarray(codes).astype(float) * self.lsb

    def convert(self, voltage: np.ndarray) -> np.ndarray:
        """Requested voltage(s) -> achieved analog voltage(s)."""
        return self.output(self.quantize(voltage))

    def conversion_energy(self) -> float:
        """Energy per conversion (J)."""
        return self.node.dac_energy_j
