"""Analog noise models.

Two current-noise mechanisms matter for the CIM substrates:

- **shot noise** on a conducting branch: sigma_I = sqrt(2 q I B);
- **thermal (Johnson) noise** of the effective channel conductance:
  sigma_I = sqrt(4 k T g B), with g approximated as I / (n U_T) in weak
  inversion.

Both scale with the measurement bandwidth B (~ 1 / evaluation time).  The
paper leans on exactly these sources twice: as a *nuisance* in the
likelihood array, and as the harvested *entropy source* of the
SRAM-immersed RNG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.technology import (
    BOLTZMANN,
    ELECTRON_CHARGE,
    TechnologyNode,
)


@dataclass(frozen=True)
class NoiseModel:
    """Current-noise sampler for a technology node.

    Attributes:
        node: technology node (temperature, slope factor).
        bandwidth_hz: effective noise bandwidth of the evaluation.
        flicker_coefficient: optional 1/f contribution, expressed as an
            additional relative current noise (sigma/I).
    """

    node: TechnologyNode
    bandwidth_hz: float = 1.0e8
    flicker_coefficient: float = 0.0

    def shot_sigma(self, current: np.ndarray) -> np.ndarray:
        """Shot-noise sigma (A) for branch current(s)."""
        current = np.abs(np.asarray(current, dtype=float))
        return np.sqrt(2.0 * ELECTRON_CHARGE * current * self.bandwidth_hz)

    def thermal_sigma(self, current: np.ndarray) -> np.ndarray:
        """Thermal-noise sigma (A) using g ~ I / (n U_T)."""
        current = np.abs(np.asarray(current, dtype=float))
        g = current / (
            self.node.subthreshold_slope_factor * self.node.thermal_voltage
        )
        return np.sqrt(4.0 * BOLTZMANN * self.node.temperature_k * g * self.bandwidth_hz)

    def total_sigma(self, current: np.ndarray) -> np.ndarray:
        """RSS of all modelled noise mechanisms (A)."""
        current = np.asarray(current, dtype=float)
        variance = self.shot_sigma(current) ** 2 + self.thermal_sigma(current) ** 2
        if self.flicker_coefficient > 0:
            variance = variance + (self.flicker_coefficient * current) ** 2
        return np.sqrt(variance)

    def sample(self, current: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Return ``current`` with one noise realisation added."""
        current = np.asarray(current, dtype=float)
        return self.apply(current, rng.normal(size=current.shape))

    def apply(self, current: np.ndarray, normals: np.ndarray) -> np.ndarray:
        """Return ``current`` with pre-drawn standard normals scaled to
        its noise sigma added (:meth:`sample` with the draw taken out)."""
        current = np.asarray(current, dtype=float)
        return current + normals * self.total_sigma(current)
