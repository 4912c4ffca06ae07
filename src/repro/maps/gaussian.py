"""Diagonal-covariance Gaussian density helpers (vectorised, log-domain)."""

from __future__ import annotations

import numpy as np

_LOG_2PI = np.log(2.0 * np.pi)


def diag_gaussian_logpdf(
    points: np.ndarray, means: np.ndarray, sigmas: np.ndarray
) -> np.ndarray:
    """Log-density of points under K diagonal Gaussians.

    Args:
        points: (N, D) query points.
        means: (K, D) component means.
        sigmas: (K, D) per-axis standard deviations (must be positive).

    Returns:
        (N, K) matrix of log-densities.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    means = np.atleast_2d(np.asarray(means, dtype=float))
    sigmas = np.atleast_2d(np.asarray(sigmas, dtype=float))
    if np.any(sigmas <= 0):
        raise ValueError("sigmas must be positive")
    d = points.shape[1]
    z = (points[:, None, :] - means[None, :, :]) / sigmas[None, :, :]
    log_norm = -0.5 * d * _LOG_2PI - np.log(sigmas).sum(axis=1)
    return log_norm[None, :] - 0.5 * np.sum(z**2, axis=2)
