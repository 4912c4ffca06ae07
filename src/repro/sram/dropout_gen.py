"""Dropout bitstream generation from the SRAM-immersed RNG.

MC-Dropout needs a fresh Bernoulli mask per input vector per iteration; the
paper makes the high-speed generation of these bits a first-class hardware
concern (paper Sec. III-C).  :class:`DropoutBitGenerator` turns raw CCI
bits into keep/drop masks at an arbitrary keep probability and tracks the
cycle cost, so experiments can account for generation overhead and for the
quality loss of an *uncalibrated* RNG.
"""

from __future__ import annotations

import numpy as np

from repro.sram.rng import CrossCoupledInverterRNG


class DropoutBitGenerator:
    """Generates dropout masks from a CCI RNG.

    For ``keep_probability`` 0.5 each mask bit is one raw RNG bit; other
    probabilities compare a ``resolution_bits``-deep uniform built from
    consecutive raw bits against the threshold (cost: ``resolution_bits``
    cycles per mask bit).

    Args:
        rng_cell: the hardware RNG.
        keep_probability: probability a neuron is kept (1 - dropout rate).
        resolution_bits: raw bits per mask bit when p != 0.5.
    """

    def __init__(
        self,
        rng_cell: CrossCoupledInverterRNG,
        keep_probability: float = 0.5,
        resolution_bits: int = 8,
    ):
        if not 0.0 < keep_probability < 1.0:
            raise ValueError("keep_probability must be in (0, 1)")
        if resolution_bits < 1:
            raise ValueError("resolution_bits must be >= 1")
        self.rng_cell = rng_cell
        self.keep_probability = float(keep_probability)
        self.resolution_bits = int(resolution_bits)
        self.cycles_used = 0

    def raw_bits(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n raw RNG bits, accounting the cycles."""
        self.cycles_used += n
        return self.rng_cell.generate(n, rng)

    def mask(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """A keep-mask of n bits (1 = keep), Bernoulli(keep_probability)."""
        return self.masks(1, n, rng)[0]

    def masks(
        self, n_masks: int, width: int, rng: np.random.Generator
    ) -> np.ndarray:
        """(n_masks, width) keep-masks from one raw-bit draw.

        Bit-for-bit equal to ``n_masks`` sequential :meth:`mask` calls
        from the same generator state, with the same ``cycles_used`` and
        the same post-draw generator state: the RNG's decision variates
        consume the stream identically whether or not the draw is
        chunked, and the ``resolution_bits``-deep uniforms are exact
        dyadic sums in any summation order.
        """
        n = n_masks * width
        if self.keep_probability == 0.5:
            bits = self.raw_bits(n, rng)
        else:
            raw = self.raw_bits(n * self.resolution_bits, rng)
            weights = 2.0 ** -(1 + np.arange(self.resolution_bits))
            uniforms = raw.reshape(n, self.resolution_bits) @ weights
            bits = (uniforms < self.keep_probability).astype(np.uint8)
        return bits.reshape(n_masks, width)

    def generation_energy(
        self, energy_per_cycle_j: float = 5.0e-15, cycles: int | None = None
    ) -> float:
        """Mask-generation energy (J) of ``cycles`` (default: all so far).

        Callers metering a scoped region pass the region's cycle delta
        (``cycles_used`` is an exact integer odometer), which avoids the
        rounding residue of subtracting two cumulative energies.
        """
        return (self.cycles_used if cycles is None else cycles) * energy_per_cycle_j
