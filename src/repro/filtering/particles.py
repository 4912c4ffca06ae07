"""Particle set: states, log-weights, and weighted statistics.

Drone pose states are 4-vectors ``(x, y, z, yaw)``: insect-scale platforms
stabilise roll/pitch with inertial feedback, so localization estimates
position and heading (the convention of the paper's prior work [10]).

The statistics work on stacks of particle sets -- log-weights (W, N),
states (W, N, D) -- so a wave of tracks reduces in one call, and each
set's row comes out bit-equal to the same call on that set alone.
"""

from __future__ import annotations

import numpy as np

YAW_INDEX = 3


def normalized_weights(log_weights: np.ndarray) -> np.ndarray:
    """Weights normalised to sum to 1 over the last axis; a row whose
    weights do not sum to a positive finite value falls back to uniform
    (never NaN)."""
    n = log_weights.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.exp(log_weights - log_weights.max(axis=-1, keepdims=True))
        total = weights.sum(axis=-1, keepdims=True)
        weights /= total
    degenerate = ~(np.isfinite(total[..., 0]) & (total[..., 0] > 0))
    if degenerate.any():
        weights[degenerate] = 1.0 / n
    return weights


def effective_sample_size(weights: np.ndarray) -> np.ndarray:
    """ESS = 1 / sum(w^2) of normalised weights, over the last axis."""
    return 1.0 / np.sum(weights**2, axis=-1)


def posterior_estimates(
    states: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted mean states (W, D) of particle sets (W, N, D) under
    normalised weights (W, N) -- the yaw dimension a circular mean --
    and the RMS weighted spread (W,) of their position (first 3)
    dimensions.

    The batched products are the forms that round each set exactly as
    its own ``w @ states`` and ``(c * w[:, None]).T @ c`` would.
    """
    weights_row = weights[:, None, :]
    mean = (weights_row @ states)[:, 0]
    centered = states - mean[:, None, :]
    covariance = np.swapaxes(centered * weights[..., None], 1, 2) @ centered
    d = min(3, states.shape[-1])
    spread = np.sqrt(np.trace(covariance[:, :d, :d], axis1=1, axis2=2))
    if states.shape[-1] > YAW_INDEX:
        yaws = states[..., YAW_INDEX]
        mean[:, YAW_INDEX] = np.arctan2(
            (weights_row @ np.sin(yaws)[..., None])[:, 0, 0],
            (weights_row @ np.cos(yaws)[..., None])[:, 0, 0],
        )
    return mean, spread


class ParticleSet:
    """A weighted set of state hypotheses.

    Attributes:
        states: (N, D) particle states.
        log_weights: (N,) unnormalised log-weights.
    """

    def __init__(self, states: np.ndarray, log_weights: np.ndarray | None = None):
        states = np.atleast_2d(np.asarray(states, dtype=float))
        self.states = states
        if log_weights is None:
            log_weights = np.full(states.shape[0], -np.log(states.shape[0]))
        self.log_weights = np.asarray(log_weights, dtype=float).reshape(-1)
        if self.log_weights.size != states.shape[0]:
            raise ValueError("states / log_weights length mismatch")

    @staticmethod
    def uniform(
        lo: np.ndarray,
        hi: np.ndarray,
        n_particles: int,
        rng: np.random.Generator,
    ) -> "ParticleSet":
        """Uniformly distributed particles in a box (global localization)."""
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi < lo):
            raise ValueError("hi must be >= lo")
        states = rng.uniform(lo, hi, size=(n_particles, lo.size))
        return ParticleSet(states)

    @staticmethod
    def gaussian(
        mean: np.ndarray,
        sigma: np.ndarray,
        n_particles: int,
        rng: np.random.Generator,
    ) -> "ParticleSet":
        """Gaussian-distributed particles (tracking with a pose prior)."""
        mean = np.asarray(mean, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        states = mean + rng.normal(size=(n_particles, mean.size)) * sigma
        return ParticleSet(states)
