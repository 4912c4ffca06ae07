"""8T-SRAM compute-in-memory macro and the SRAM-immersed RNG.

The paper's Sec. III hardware: a CIM macro that stores quantised weight
matrices and computes matrix-vector products on its bit lines, with AND
gates on the column/row peripherals for MC-Dropout masking, and a
cross-coupled-inverter random number generator that harvests write-port
leakage noise to produce the dropout bitstreams without a dedicated RNG
block.
"""

from repro.sram.bitline import BitLineModel
from repro.sram.macro import MacroConfig, SRAMCIMMacro
from repro.sram.rng import CrossCoupledInverterRNG, RNGCalibration
from repro.sram.dropout_gen import DropoutBitGenerator

__all__ = [
    "BitLineModel",
    "MacroConfig",
    "SRAMCIMMacro",
    "CrossCoupledInverterRNG",
    "RNGCalibration",
    "DropoutBitGenerator",
]
