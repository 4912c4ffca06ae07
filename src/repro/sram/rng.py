"""The SRAM-immersed cross-coupled-inverter RNG (paper Fig. 3b).

Equal groups of SRAM columns hang on the two ends of a cross-coupled
inverter (CCI).  Both ends are precharged, then discharged by the columns'
write-port leakage for half a clock cycle; at the clock transition the CCI
regenerates the differential into a digital bit.  The decision input is::

    dV = (Q_left - Q_right) / C  +  comparator offset

where each side's drained charge carries a *static* part (summed leakage
with frozen V_T mismatch -- filtered as 1/sqrt(M)) and a *temporal* part
(integrated shot noise of every port -- grows with sqrt(M)).  More columns
therefore push the bit decision from mismatch-dominated (a stuck, biased
bit) to noise-dominated (a usable random bit), which is the effect the
paper exploits.  Residual bias is removed by a calibration phase that
measures the 1s-rate over a serial window and trims a compensation offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.technology import TechnologyNode
from repro.circuits.variability import MismatchSampler
from repro.sram.bitline import BitLineModel


@dataclass
class RNGCalibration:
    """Result of a calibration run.

    Attributes:
        ones_rate_before: empirical P(1) before trimming.
        ones_rate_after: empirical P(1) after trimming.
        trim_volts: applied compensation offset (V).
        window: number of calibration bits observed.
    """

    ones_rate_before: float
    ones_rate_after: float
    trim_volts: float
    window: int


class CrossCoupledInverterRNG:
    """A stochastic behavioural model of the CCI RNG.

    Args:
        node: technology node.
        n_columns_per_side: SRAM columns attached to each CCI end.
        rows_per_column: write ports per column.
        clock_hz: clock frequency; the discharge window is half a period.
        comparator_offset_sigma: 1-sigma of the CCI's own input offset (V).
        capacitance: per-side lumped capacitance (F).
        nominal_leakage: per-port nominal leakage (A).
        rng: generator used to *instantiate* the hardware (frozen mismatch
            and comparator offset).
    """

    def __init__(
        self,
        node: TechnologyNode,
        n_columns_per_side: int = 16,
        rows_per_column: int = 64,
        clock_hz: float | None = None,
        comparator_offset_sigma: float = 4.0e-3,
        capacitance: float = 5.0e-15,
        nominal_leakage: float = 5.0e-10,
        rng: np.random.Generator | None = None,
    ):
        if n_columns_per_side < 1 or rows_per_column < 1:
            raise ValueError("need at least one column and one row")
        rng = rng or np.random.default_rng(0)
        self.node = node
        self.n_columns_per_side = int(n_columns_per_side)
        self.rows_per_column = int(rows_per_column)
        self.clock_hz = float(clock_hz or node.clock_hz)
        self.window_s = 0.5 / self.clock_hz
        self.capacitance = float(capacitance)
        n_ports = self.n_columns_per_side * self.rows_per_column
        mismatch = MismatchSampler(node)
        self.left = BitLineModel.sample(
            node, n_ports, rng, nominal_leakage, mismatch
        )
        self.right = BitLineModel.sample(
            node, n_ports, rng, nominal_leakage, mismatch
        )
        self.comparator_offset = float(rng.normal(scale=comparator_offset_sigma))
        self.trim_volts = 0.0

    def static_differential(self) -> float:
        """Deterministic part of the decision voltage (V): mismatch + offset."""
        delta_i = self.left.total_leakage() - self.right.total_leakage()
        return (
            delta_i * self.window_s / self.capacitance
            + self.comparator_offset
            - self.trim_volts
        )

    def noise_sigma(self) -> float:
        """1-sigma of the per-cycle decision noise (V)."""
        from repro.circuits.technology import ELECTRON_CHARGE

        total_current = self.left.total_leakage() + self.right.total_leakage()
        charge_sigma = np.sqrt(
            2.0 * ELECTRON_CHARGE * total_current * self.window_s
        )
        return float(charge_sigma / self.capacitance)

    def generate(self, n_bits: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n_bits`` raw bits (uint8 array)."""
        if n_bits < 0:
            raise ValueError("n_bits must be non-negative")
        static = self.static_differential()
        sigma = self.noise_sigma()
        decisions = static + rng.normal(scale=sigma, size=n_bits)
        return (decisions > 0.0).astype(np.uint8)

    def calibrate(
        self, rng: np.random.Generator, window: int = 4096, rounds: int = 3
    ) -> RNGCalibration:
        """Serial calibration: measure the 1s-rate, trim the static offset.

        The trim emulates a small programmable offset DAC on one CCI end;
        each round recovers the implied static offset from the observed
        rate by an inverse-Gaussian step (what a binary-search trim loop
        converges to).  Multiple rounds handle a heavily stuck start,
        where the first rate estimate clips at the window resolution.
        """
        from scipy.special import ndtri

        before = float(self.generate(window, rng).mean())
        sigma = self.noise_sigma()
        after = before
        for _ in range(max(rounds, 1)):
            clipped = np.clip(after, 1.0 / window, 1.0 - 1.0 / window)
            self.trim_volts += float(ndtri(clipped)) * sigma
            after = float(self.generate(window, rng).mean())
        return RNGCalibration(
            ones_rate_before=before,
            ones_rate_after=after,
            trim_volts=self.trim_volts,
            window=window,
        )

    def bias_decomposition(self) -> dict[str, float]:
        """Diagnostic: the decision-voltage budget of this instance (V)."""
        delta_i = self.left.total_leakage() - self.right.total_leakage()
        return {
            "mismatch_volts": delta_i * self.window_s / self.capacitance,
            "comparator_offset_volts": self.comparator_offset,
            "trim_volts": self.trim_volts,
            "noise_sigma_volts": self.noise_sigma(),
        }
