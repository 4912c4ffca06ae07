"""Dropout mask streams.

A mask stream is the (T, width) matrix of keep-masks for T Monte-Carlo
iterations of one dropout layer.  Streams come either from numpy (software
reference) or from the SRAM-immersed hardware RNG
(:class:`repro.sram.dropout_gen.DropoutBitGenerator`).
"""

from __future__ import annotations

import numpy as np


class MaskStream:
    """Keep-masks for T MC iterations of one dropout layer.

    Attributes:
        masks: (T, width) uint8 array, 1 = keep.
        keep_probability: nominal keep rate.
    """

    def __init__(self, masks: np.ndarray, keep_probability: float):
        masks = np.asarray(masks)
        if masks.ndim != 2:
            raise ValueError("masks must be (T, width)")
        if not ((masks == 0) | (masks == 1)).all():
            raise ValueError("mask entries must be 0/1")
        if not 0.0 < keep_probability < 1.0:
            raise ValueError("keep_probability must be in (0, 1)")
        self.masks = masks.astype(np.uint8)
        self.keep_probability = float(keep_probability)

    @property
    def n_iterations(self) -> int:
        return self.masks.shape[0]

    @property
    def width(self) -> int:
        return self.masks.shape[1]

    @staticmethod
    def bernoulli(
        n_iterations: int,
        width: int,
        keep_probability: float,
        rng: np.random.Generator,
    ) -> "MaskStream":
        """Software-sampled Bernoulli stream."""
        masks = (rng.random((n_iterations, width)) < keep_probability).astype(np.uint8)
        return MaskStream(masks, keep_probability)

    @staticmethod
    def from_hardware(
        generator,
        n_iterations: int,
        width: int,
        rng: np.random.Generator,
    ) -> "MaskStream":
        """Stream drawn from a hardware DropoutBitGenerator."""
        return MaskStream(
            generator.masks(n_iterations, width, rng), generator.keep_probability
        )

    def reordered(self, order: np.ndarray) -> "MaskStream":
        """The same masks visited in a different order."""
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(self.n_iterations)):
            raise ValueError("order must be a permutation of iterations")
        return MaskStream(self.masks[order], self.keep_probability)

    def concatenate(self, other: "MaskStream") -> "MaskStream":
        """Concatenate along the width axis (multi-layer joint stream)."""
        if other.n_iterations != self.n_iterations:
            raise ValueError("iteration count mismatch")
        return MaskStream(
            np.concatenate([self.masks, other.masks], axis=1),
            self.keep_probability,
        )
