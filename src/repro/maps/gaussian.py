"""Diagonal-covariance Gaussian density helpers (vectorised, log-domain).

Also home of :func:`logsumexp`, the one log-sum-exp the maps and the
particle filter share: a numpy-only leaf, so neither package pulls in
``scipy.special`` for it.
"""

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


def logsumexp(values: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp`` over the last axis, bit-for-bit.

    The same arithmetic as scipy 1.17's implementation, in plain numpy:
    the maximal elements are taken out of the shifted sum and counted,
    ``log1p(s / m) + log(m) + max``, with the direct ``log(sum(exp))``
    standing in wherever that is not finite.  scipy's array-API layer
    costs more per call than the particle filter's whole weight sum, and
    importing it costs more than building a served shard.  A stack of
    rows reduces each row exactly as it would alone; ``[..., None]`` on
    the result stands in for scipy's ``keepdims=True``.
    """
    values = np.asarray(values, dtype=float)
    if values.shape[-1] == 0:
        return np.full(values.shape[:-1], -np.inf)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = values.max(axis=-1, keepdims=True)
        at_max = values == a_max
        m = np.sum(at_max, axis=-1, keepdims=True, dtype=float)
        s = np.sum(
            np.exp(np.where(at_max, -np.inf, values) - a_max),
            axis=-1,
            keepdims=True,
        )
        s = np.where(s == 0, s, s / m)
        out = (np.log1p(s) + np.log(m) + a_max)[..., 0]
        fallback = ~np.isfinite(out)
        if fallback.any():
            out[fallback] = np.log(np.sum(np.exp(values[fallback]), axis=-1))
    return out
