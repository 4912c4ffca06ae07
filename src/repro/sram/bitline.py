"""Bit-line aggregation: leakage summation.

When write word lines are deactivated, every write port on a column leaks
into the bit line.  Summing many ports *filters* the (static, per-device)
V_T mismatch -- the relative spread of the total falls as 1/sqrt(M) -- and
*accumulates* the (temporal) shot noise of every port.  These are the two
effects the SRAM-immersed RNG exploits (paper Fig. 3b); the RNG
integrates both over its decision window
(:meth:`repro.sram.rng.CrossCoupledInverterRNG.noise_sigma`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuits.technology import TechnologyNode
from repro.circuits.variability import MismatchSampler


@dataclass
class BitLineModel:
    """Aggregated leakage/noise behaviour of one SRAM column group.

    Attributes:
        node: technology node.
        n_ports: number of write ports hanging on the line.
        nominal_leakage: per-port nominal leakage current (A).
        static_leakages: per-port leakage currents with frozen mismatch (A).
    """

    node: TechnologyNode
    n_ports: int
    nominal_leakage: float
    static_leakages: np.ndarray

    @staticmethod
    def sample(
        node: TechnologyNode,
        n_ports: int,
        rng: np.random.Generator,
        nominal_leakage: float = 1.0e-10,
        mismatch: MismatchSampler | None = None,
    ) -> "BitLineModel":
        """Draw a bit line with per-port lognormal leakage mismatch."""
        if n_ports < 1:
            raise ValueError("n_ports must be >= 1")
        mismatch = mismatch or MismatchSampler(node)
        leakages = mismatch.subthreshold_leakage(
            (n_ports,), rng, nominal_current=nominal_leakage
        )
        return BitLineModel(
            node=node,
            n_ports=n_ports,
            nominal_leakage=float(nominal_leakage),
            static_leakages=leakages,
        )

    def total_leakage(self) -> float:
        """Static total leakage current (A)."""
        return float(self.static_leakages.sum())
