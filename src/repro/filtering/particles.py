"""Particle set: states, log-weights, and weighted statistics.

Drone pose states are 4-vectors ``(x, y, z, yaw)``: insect-scale platforms
stabilise roll/pitch with inertial feedback, so localization estimates
position and heading (the convention of the paper's prior work [10]).
"""

from __future__ import annotations

import numpy as np
YAW_INDEX = 3


def logsumexp(values: np.ndarray) -> np.float64:
    """``scipy.special.logsumexp`` of a 1-D float array, bit-for-bit.

    The same arithmetic as scipy 1.17's implementation, in plain numpy:
    the maximal elements are taken out of the shifted sum and counted,
    ``log1p(s / m) + log(m) + max``, with the direct ``log(sum(exp))``
    standing in wherever that is not finite.  scipy's array-API layer
    costs more per call than the particle filter's whole weight sum.
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.size == 0:
        return np.float64(-np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = values.max(keepdims=True)
        at_max = values == a_max
        m = np.sum(at_max, keepdims=True, dtype=float)
        s = np.sum(np.exp(np.where(at_max, -np.inf, values) - a_max), keepdims=True)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out[0]):
            out = np.log(np.sum(np.exp(values), keepdims=True))
    return out[0]


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

    @property
    def n_particles(self) -> int:
        return self.states.shape[0]

    @property
    def n_dims(self) -> int:
        return self.states.shape[1]

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

    def normalized_weights(self) -> np.ndarray:
        """Weights normalised to sum to 1 (never NaN: falls back to uniform)."""
        shifted = self.log_weights - self.log_weights.max()
        weights = np.exp(shifted)
        total = weights.sum()
        if not np.isfinite(total) or total <= 0:
            return np.full(self.n_particles, 1.0 / self.n_particles)
        return weights / total

    def log_evidence(self) -> float:
        """log mean weight -- the incremental measurement evidence."""
        return float(logsumexp(self.log_weights) - np.log(self.n_particles))

    def effective_sample_size(self) -> float:
        """ESS = 1 / sum(w^2) of the normalised weights."""
        weights = self.normalized_weights()
        return float(1.0 / np.sum(weights**2))

    def mean_estimate(self, yaw_index: int | None = YAW_INDEX) -> np.ndarray:
        """Weighted mean state; the yaw dimension uses a circular mean."""
        weights = self.normalized_weights()
        mean = weights @ self.states
        if yaw_index is not None and yaw_index < self.n_dims:
            yaws = self.states[:, yaw_index]
            mean[yaw_index] = np.arctan2(
                weights @ np.sin(yaws), weights @ np.cos(yaws)
            )
        return mean

    def weighted_covariance(self) -> np.ndarray:
        """Weighted sample covariance of the states (D, D)."""
        weights = self.normalized_weights()
        mean = weights @ self.states
        centered = self.states - mean
        return (centered * weights[:, None]).T @ centered

    def position_spread(self) -> float:
        """RMS weighted spread of the position (first 3) dimensions."""
        cov = self.weighted_covariance()
        d = min(3, self.n_dims)
        return float(np.sqrt(np.trace(cov[:d, :d])))

    def reweighted(self, delta_log_weights: np.ndarray) -> "ParticleSet":
        """A copy with log-weights incremented by per-particle deltas."""
        delta = np.asarray(delta_log_weights, dtype=float).reshape(-1)
        if delta.size != self.n_particles:
            raise ValueError("delta length mismatch")
        return ParticleSet(self.states.copy(), self.log_weights + delta)

    def resampled(self, indices: np.ndarray) -> "ParticleSet":
        """A copy holding ``states[indices]`` with uniform weights."""
        indices = np.asarray(indices, dtype=np.int64)
        return ParticleSet(self.states[indices].copy())
