"""Dropout with externally controllable masks.

Standard frameworks sample dropout masks internally; the CIM engine needs
to (a) supply masks produced by the SRAM RNG and (b) *replay* a known mask
sequence for the compute-reuse schedule.  ``Dropout`` therefore accepts an
explicit mask per forward pass, falling back to internal Bernoulli sampling
when none is pinned.

In MC-Dropout the layer stays stochastic at inference time; that is
controlled by ``mc_mode`` rather than the train/eval flag so deterministic
evaluation of the same network remains one switch away.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module


class Dropout(Module):
    """Inverted dropout.

    Args:
        p: drop probability (paper uses 0.5).
        rng: generator for internally sampled masks.
        mc_mode: keep dropping at evaluation time (MC-Dropout inference).
    """

    def __init__(
        self,
        p: float = 0.5,
        rng: np.random.Generator | None = None,
        mc_mode: bool = False,
    ):
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError("p must be in [0, 1)")
        self.p = float(p)
        self.mc_mode = bool(mc_mode)
        self._rng = rng or np.random.default_rng(0)
        self._pinned_mask: np.ndarray | None = None
        self._mask: np.ndarray | None = None

    @property
    def keep_probability(self) -> float:
        return 1.0 - self.p

    def pin_mask(self, mask: np.ndarray | None) -> None:
        """Pin an external keep-mask (1 = keep) for subsequent passes.

        The mask must broadcast against the layer input; pass ``None`` to
        return to internal sampling.
        """
        if mask is None:
            self._pinned_mask = None
            return
        mask = np.asarray(mask)
        if not np.isin(mask, (0, 1)).all():
            raise ValueError("mask entries must be 0/1")
        self._pinned_mask = mask.astype(float)

    @property
    def active(self) -> bool:
        """Whether dropout is applied in the current mode."""
        return (self.training or self.mc_mode) and self.p > 0.0

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.active:
            self._mask = None
            return x
        if self._pinned_mask is not None:
            mask = np.broadcast_to(self._pinned_mask, x.shape).astype(float)
        else:
            mask = (self._rng.random(x.shape) >= self.p).astype(float)
        self._mask = mask
        return x * mask / self.keep_probability

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return np.asarray(grad_output, dtype=float)
        return grad_output * self._mask / self.keep_probability
