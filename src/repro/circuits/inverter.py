"""The six-transistor likelihood inverter (paper Fig. 2a/b).

A complementary N/P pair in series conducts a *switching current* that peaks
where the rising NMOS branch crosses the falling PMOS branch and decays
exponentially on both sides -- a Gaussian-like bell in the gate voltage
(:class:`SwitchingCurrentCell`).  Stacking three such pairs (six transistors,
gates V_X / V_Y / V_Z) combines the per-axis bells as a harmonic mean
(:class:`LikelihoodInverter`), the paper's HMG kernel:

    I_total(v) = 1 / (1/I_X(v_x) + 1/I_Y(v_y) + 1/I_Z(v_z))

The bell *center* is programmed through floating-gate threshold shifts and
the *width* through a coarse drive-strength code (behavioural stand-in for
body-bias / device sizing), both with finite resolution -- this is exactly
the quantisation the map co-design has to absorb.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.circuits.floating_gate import FloatingGate
from repro.circuits.mosfet import MOSFET
from repro.circuits.technology import TechnologyNode

# Geometric width ladder: slope-factor multipliers selectable per cell.
WIDTH_SCALES: tuple[float, ...] = tuple(1.4**k for k in range(8))


class SwitchingCurrentCell:
    """One complementary pair: a Gaussian-like current bell in one voltage.

    Args:
        node: technology node.
        v_center: desired bell center voltage (V).
        width_code: index into :data:`WIDTH_SCALES`; wider codes broaden the
            bell by increasing the effective subthreshold slope.
        fg_bits: floating-gate programming resolution for the center.
        center_offset: additive center error from process mismatch (V).
        strength: multiplicative specific-current factor (device sizing and
            its mismatch).
    """

    def __init__(
        self,
        node: TechnologyNode,
        v_center: float,
        width_code: int = 0,
        fg_bits: int = 4,
        center_offset: float = 0.0,
        strength: float = 1.0,
    ):
        if not 0 <= width_code < len(WIDTH_SCALES):
            raise ValueError(
                f"width_code {width_code} out of range [0, {len(WIDTH_SCALES)})"
            )
        if strength <= 0:
            raise ValueError("strength must be positive")
        self.node = node
        self.width_code = int(width_code)
        self.requested_center = float(v_center)
        # The crossover sits at VDD/2 + delta where delta is the programmed
        # differential threshold shift; the floating gate quantises delta.
        delta_window = node.vdd / 2.0
        self._gate = FloatingGate(-delta_window, delta_window, bits=fg_bits)
        delta = self._gate.program(v_center - node.vdd / 2.0)
        self.achieved_center = node.vdd / 2.0 + delta + float(center_offset)
        slope = node.subthreshold_slope_factor * WIDTH_SCALES[self.width_code]
        i_spec = node.specific_current * float(strength)
        vt = node.nominal_vt
        self._nmos = MOSFET("n", vt, i_spec, slope, node.thermal_voltage)
        self._pmos = MOSFET("p", vt, i_spec, slope, node.thermal_voltage)
        # Shift both device thresholds so the crossover lands on the center.
        self._vt_shift = self.achieved_center - node.vdd / 2.0

    def current(self, v: np.ndarray) -> np.ndarray:
        """Switching current (A) at gate voltage(s) ``v``."""
        v = np.asarray(v, dtype=float)
        # Shifting the input is equivalent to shifting both thresholds.
        v_eff = v - self._vt_shift
        i_n = self._nmos.current(v_eff, vdd=self.node.vdd)
        i_p = self._pmos.current(v_eff, vdd=self.node.vdd)
        return i_n * i_p / (i_n + i_p + 1e-300)


class LikelihoodInverter:
    """The 6T cell: three stacked pairs, one per input axis.

    The series stack combines per-axis bells as a harmonic mean, producing
    the HMG kernel with rectilinear (axis-aligned) iso-contour tails instead
    of the elliptical contours of a product-of-Gaussians (paper Fig. 2c/d).

    Args:
        cells: per-axis :class:`SwitchingCurrentCell` (typically three).
    """

    def __init__(self, cells: Sequence[SwitchingCurrentCell]):
        if not cells:
            raise ValueError("need at least one cell")
        self.cells = list(cells)

    @staticmethod
    def from_centers(
        node: TechnologyNode,
        v_centers: Sequence[float],
        width_codes: Sequence[int] | None = None,
        fg_bits: int = 4,
        center_offsets: Sequence[float] | None = None,
        strength: float = 1.0,
    ) -> "LikelihoodInverter":
        """Build an inverter programmed to given per-axis centers/widths."""
        n_axes = len(v_centers)
        if width_codes is None:
            width_codes = [0] * n_axes
        if center_offsets is None:
            center_offsets = [0.0] * n_axes
        if len(width_codes) != n_axes or len(center_offsets) != n_axes:
            raise ValueError("per-axis parameter lengths disagree")
        cells = [
            SwitchingCurrentCell(
                node,
                v_center=float(c),
                width_code=int(w),
                fg_bits=fg_bits,
                center_offset=float(o),
                strength=strength,
            )
            for c, w, o in zip(v_centers, width_codes, center_offsets)
        ]
        return LikelihoodInverter(cells)

    @property
    def n_axes(self) -> int:
        return len(self.cells)

    def current(self, voltages: np.ndarray) -> np.ndarray:
        """Stack current (A) for (N, n_axes) input voltages."""
        voltages = np.atleast_2d(np.asarray(voltages, dtype=float))
        if voltages.shape[1] != self.n_axes:
            raise ValueError(
                f"expected {self.n_axes} input axes, got {voltages.shape[1]}"
            )
        inverse_sum = np.zeros(voltages.shape[0])
        for axis, cell in enumerate(self.cells):
            inverse_sum += 1.0 / (cell.current(voltages[:, axis]) + 1e-300)
        return 1.0 / inverse_sum


def gaussian_equivalent_sigma(
    cell: SwitchingCurrentCell, n_grid: int = 2001
) -> float:
    """Effective Gaussian sigma (V) of a cell's current bell.

    Computed as the standard deviation of the normalised current profile
    over the rail-to-rail voltage range; used by the map co-design to
    translate device width codes into kernel widths in map units.
    """
    v = np.linspace(0.0, cell.node.vdd, n_grid)
    i = cell.current(v)
    total = np.trapezoid(i, v)
    if total <= 0:
        raise ValueError("cell conducts no current; cannot estimate width")
    mean = np.trapezoid(v * i, v) / total
    var = np.trapezoid((v - mean) ** 2 * i, v) / total
    return float(np.sqrt(var))


def width_code_sigmas(node: TechnologyNode, fg_bits: int = 4) -> np.ndarray:
    """Effective sigma (V) for every width code at a mid-rail center.

    This is the hardware's discrete width menu; map fitting quantises each
    component's sigma to the nearest entry.
    """
    sigmas = []
    for code in range(len(WIDTH_SCALES)):
        cell = SwitchingCurrentCell(
            node, v_center=node.vdd / 2.0, width_code=code, fg_bits=fg_bits
        )
        sigmas.append(gaussian_equivalent_sigma(cell))
    return np.asarray(sigmas)
