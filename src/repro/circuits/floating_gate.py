"""Floating-gate (charge-trap) non-volatile threshold programming.

The likelihood inverter programs the *center* of its Gaussian-like
switching-current bell by shifting device thresholds through trapped charge
(Gu et al., charge-trap transistors).  Programming resolution is finite: the
stored charge is quantised to ``bits`` levels across the programmable
window.
"""

from __future__ import annotations

import numpy as np


class FloatingGate:
    """A programmable threshold-voltage shifter.

    Args:
        vt_min: lower edge of the programmable threshold window (V).
        vt_max: upper edge of the programmable threshold window (V).
        bits: programming resolution (levels = 2**bits).
    """

    def __init__(self, vt_min: float, vt_max: float, bits: int = 4):
        if vt_max <= vt_min:
            raise ValueError("vt_max must exceed vt_min")
        if bits < 1:
            raise ValueError("bits must be >= 1")
        self.vt_min = float(vt_min)
        self.vt_max = float(vt_max)
        self.bits = int(bits)
        self._code: int | None = None
        self._vt: float = float(vt_min)

    @property
    def levels(self) -> int:
        return 2**self.bits

    @property
    def lsb(self) -> float:
        """Threshold step per code (V)."""
        return (self.vt_max - self.vt_min) / (self.levels - 1)

    @property
    def code(self) -> int | None:
        """The last programmed code (None if never programmed)."""
        return self._code

    @property
    def vt(self) -> float:
        """The current threshold voltage (V)."""
        return self._vt

    def quantize(self, target_vt: float) -> int:
        """The code whose ideal threshold is nearest ``target_vt``."""
        clipped = np.clip(target_vt, self.vt_min, self.vt_max)
        return int(round((clipped - self.vt_min) / self.lsb))

    def code_to_vt(self, code: int) -> float:
        """Ideal threshold voltage for a code."""
        if not 0 <= code < self.levels:
            raise ValueError(f"code {code} out of range [0, {self.levels})")
        return self.vt_min + code * self.lsb

    def program(self, target_vt: float) -> float:
        """Program the gate as close to ``target_vt`` as the hardware allows.

        Returns:
            The achieved (quantised) threshold voltage.
        """
        code = self.quantize(target_vt)
        vt = self.code_to_vt(code)
        self._code = code
        self._vt = float(np.clip(vt, self.vt_min, self.vt_max))
        return self._vt
