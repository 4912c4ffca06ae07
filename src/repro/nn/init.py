"""Weight initialisers."""

from __future__ import annotations

import numpy as np


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform init: U(+-gain * sqrt(6 / (fan_in + fan_out)))."""
    fan_in, fan_out = _fans(shape)
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) not in (1, 2):
        raise ValueError("shape must have one or two dimensions")
    return shape[0], shape[-1]
