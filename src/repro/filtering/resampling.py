"""Systematic resampling for sequential importance resampling.

The filter resamples with one uniform offset and N evenly spaced
pointers into the cumulative weights: the lowest-variance scheme at
O(N) cost.  It takes normalised weights and returns the parent indices
of the new particle set.
"""

from __future__ import annotations

import numpy as np


def _check_weights(weights: np.ndarray) -> np.ndarray:
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size == 0:
        raise ValueError("weights are empty")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("weights must sum to a positive finite value")
    return weights / total


def systematic_resample(
    weights: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """One uniform offset, N evenly spaced pointers (lowest variance)."""
    weights = _check_weights(weights)
    n = weights.size
    positions = (rng.uniform() + np.arange(n)) / n
    return np.searchsorted(np.cumsum(weights), positions).clip(0, n - 1)
