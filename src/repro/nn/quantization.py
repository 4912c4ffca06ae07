"""Uniform fixed-point quantisation (the CIM macro's number format).

Symmetric signed quantisation around zero: values are snapped to the grid
``scale * k`` for integer codes ``k`` in ``[-(2^(b-1) - 1), 2^(b-1) - 1]``.
The macro stores weights this way; activations are quantised by the input
DAC path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuantizationSpec:
    """A symmetric uniform quantiser.

    Attributes:
        bits: total bit width (1 sign bit included).
        max_value: the full-scale magnitude mapped to the top code.
    """

    bits: int
    max_value: float

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise ValueError("need at least 2 bits for signed quantisation")
        if self.max_value <= 0:
            raise ValueError("max_value must be positive")

    @property
    def levels(self) -> int:
        """Positive code count (codes run -levels..+levels)."""
        return 2 ** (self.bits - 1) - 1

    @property
    def scale(self) -> float:
        """Value of one LSB."""
        return self.max_value / self.levels

    @staticmethod
    def for_tensor(tensor: np.ndarray, bits: int) -> "QuantizationSpec":
        """Spec whose full scale covers the tensor's max magnitude."""
        max_value = float(np.max(np.abs(tensor)))
        if max_value == 0:
            max_value = 1.0
        return QuantizationSpec(bits=bits, max_value=max_value)


def quantize(tensor: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Integer codes for a tensor (clipped to the representable range)."""
    tensor = np.asarray(tensor, dtype=float)
    codes = np.rint(tensor / spec.scale)
    return np.clip(codes, -spec.levels, spec.levels).astype(np.int64)


def dequantize(codes: np.ndarray, spec: QuantizationSpec) -> np.ndarray:
    """Real values represented by integer codes."""
    return np.asarray(codes, dtype=float) * spec.scale


def quantize_model_weights(model, bits: int) -> dict[str, QuantizationSpec]:
    """Quantise every parameter of a model in place (fake quantisation).

    Each parameter gets its own full-scale calibration.  Returns the spec
    used per parameter name, so callers can reproduce the mapping on the
    macro.
    """
    specs: dict[str, QuantizationSpec] = {}
    for index, parameter in enumerate(model.parameters()):
        spec = QuantizationSpec.for_tensor(parameter.value, bits)
        parameter.value = dequantize(quantize(parameter.value, spec), spec)
        specs[parameter.name or f"param{index}"] = spec
    return specs
