"""EKV-style analytic MOSFET model.

The EKV interpolation gives a single smooth expression covering weak
(subthreshold, exponential) and strong (quadratic) inversion::

    I_D = I_S * ln(1 + exp((V_GS - V_T) / (2 n U_T)))^2

which is all the likelihood-inverter physics needs: the Gaussian-like
switching current of the 6T cell emerges from the series combination of a
rising NMOS branch and a falling PMOS branch of this form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def ekv_current(
    v_gs: np.ndarray,
    v_t: float,
    specific_current: float,
    slope_factor: float,
    thermal_voltage: float,
) -> np.ndarray:
    """Saturation drain current of the EKV model.

    Args:
        v_gs: gate-source voltage(s) (V).  For PMOS pass the source-gate
            voltage and the threshold magnitude.
        v_t: threshold voltage (V).
        specific_current: EKV specific current I_S (A).
        slope_factor: subthreshold slope factor n.
        thermal_voltage: kT/q (V).

    Returns:
        Drain current(s) (A), same shape as ``v_gs``.
    """
    v_gs = np.asarray(v_gs, dtype=float)
    x = (v_gs - v_t) / (2.0 * slope_factor * thermal_voltage)
    # log1p(exp(x)) evaluated stably for large |x|.
    soft = np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))
    return specific_current * soft**2


@dataclass(frozen=True)
class MOSFET:
    """A single MOSFET with fixed terminal convention.

    Attributes:
        polarity: "n" or "p".
        vt: threshold voltage magnitude (V).
        specific_current: EKV specific current (A).
        slope_factor: subthreshold slope factor n.
        thermal_voltage: kT/q (V).
    """

    polarity: str
    vt: float
    specific_current: float
    slope_factor: float
    thermal_voltage: float

    def __post_init__(self) -> None:
        if self.polarity not in ("n", "p"):
            raise ValueError(f"polarity must be 'n' or 'p', got {self.polarity!r}")
        if self.vt < 0:
            raise ValueError("vt is a magnitude and must be non-negative")

    def current(self, v_gate: np.ndarray, vdd: float = 1.0) -> np.ndarray:
        """Saturation current for a gate voltage referenced to the rails.

        NMOS source is at ground (``V_GS = v_gate``); PMOS source is at
        ``vdd`` (``V_SG = vdd - v_gate``).
        """
        v_gate = np.asarray(v_gate, dtype=float)
        if self.polarity == "n":
            v_drive = v_gate
        else:
            v_drive = vdd - v_gate
        return ekv_current(
            v_drive, self.vt, self.specific_current, self.slope_factor, self.thermal_voltage
        )
